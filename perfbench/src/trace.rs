//! Spans recorded around calls into the system's public functions.
//!
//! A [`Tracer`] keeps every span in memory and writes them once, when the
//! run ends. Each span carries its name, start and end (nanoseconds since
//! the tracer's epoch), its parent span, the recording thread and a unit
//! id — the instance index or cell id shared by all spans of one unit of
//! work. A disabled tracer runs the wrapped call and records nothing, so
//! the same workload code serves as its own untraced reference.

use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Identifies one span; [`SpanId::NONE`] marks a root.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(u32);

impl SpanId {
    /// No parent.
    pub const NONE: SpanId = SpanId(u32::MAX);
}

/// Unit id of a span that belongs to no single instance or cell.
pub const NO_UNIT: u64 = u64::MAX;

/// One recorded call.
#[derive(Debug, Clone)]
pub struct Span {
    /// This span.
    pub id: SpanId,
    /// The span that caused it.
    pub parent: SpanId,
    /// Layer name, e.g. `fleet.advance`.
    pub name: &'static str,
    /// Platform tag (`minix`, `sel4`, `linux`) or empty.
    pub tag: &'static str,
    /// Recording thread.
    pub worker: u32,
    /// Instance index or cell id, or [`NO_UNIT`].
    pub unit: u64,
    /// Start, nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer's epoch.
    pub end_ns: u64,
}

impl Span {
    /// Wall duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

static NEXT_THREAD: AtomicU32 = AtomicU32::new(0);

thread_local! {
    static THREAD: u32 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
}

/// A small id for the calling thread, stable for its lifetime.
fn thread_id() -> u32 {
    THREAD.with(|t| *t)
}

/// Span sink shared by every thread of one traced pass.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A recording tracer.
    pub fn new() -> Tracer {
        Tracer::with_enabled(true)
    }

    /// A tracer that records nothing.
    pub fn off() -> Tracer {
        Tracer::with_enabled(false)
    }

    fn with_enabled(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            next: AtomicU32::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Runs `f` inside a span named `name`, child of `parent`. `f`
    /// receives the new span's id so nested calls can name it as their
    /// parent.
    pub fn span<T>(
        &self,
        name: &'static str,
        tag: &'static str,
        unit: u64,
        parent: SpanId,
        f: impl FnOnce(SpanId) -> T,
    ) -> T {
        if !self.enabled {
            return f(SpanId::NONE);
        }
        let id = SpanId(self.next.fetch_add(1, Ordering::Relaxed));
        let start = self.epoch.elapsed().as_nanos() as u64;
        let out = f(id);
        let end = self.epoch.elapsed().as_nanos() as u64;
        self.spans
            .lock()
            .expect("a traced call panicked while recording")
            .push(Span {
                id,
                parent,
                name,
                tag,
                worker: thread_id(),
                unit,
                start_ns: start,
                end_ns: end,
            });
        out
    }

    /// Takes the recorded spans, ordered by id.
    pub fn into_spans(self) -> Vec<Span> {
        let mut spans = self
            .spans
            .into_inner()
            .expect("a traced call panicked while recording");
        spans.sort_by_key(|s| s.id.0);
        spans
    }
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer::new()
    }
}

/// Recorded spans with derived self times.
pub struct Trace {
    /// Spans ordered by id.
    pub spans: Vec<Span>,
    /// Self seconds per span, parallel to `spans`: the span's duration
    /// minus the durations of its children recorded on the same thread
    /// (children on other threads run in parallel with the parent and
    /// are not part of its own work).
    pub self_s: Vec<f64>,
}

impl Trace {
    /// Derives self times from `spans`.
    pub fn new(spans: Vec<Span>) -> Trace {
        let index: BTreeMap<u32, usize> =
            spans.iter().enumerate().map(|(i, s)| (s.id.0, i)).collect();
        let mut self_s: Vec<f64> = spans.iter().map(Span::secs).collect();
        for s in &spans {
            if let Some(&p) = index.get(&s.parent.0) {
                if spans[p].worker == s.worker {
                    self_s[p] -= s.secs();
                }
            }
        }
        Trace { spans, self_s }
    }

    /// Spans named `name` (any tag).
    pub fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = (&'a Span, f64)> + 'a {
        self.spans
            .iter()
            .zip(&self.self_s)
            .filter(move |(s, _)| s.name == name)
            .map(|(s, t)| (s, *t))
    }

    /// Total self seconds of spans named `name`, optionally restricted
    /// to one platform tag.
    pub fn self_total(&self, name: &str, tag: Option<&str>) -> f64 {
        self.named(name)
            .filter(|(s, _)| tag.is_none_or(|t| s.tag == t))
            .map(|(_, t)| t)
            .sum()
    }

    /// Number of spans named `name`.
    pub fn count(&self, name: &str) -> usize {
        self.named(name).count()
    }

    /// Wall durations of spans named `name`, in seconds.
    pub fn durations(&self, name: &str, tag: Option<&str>) -> Vec<f64> {
        self.named(name)
            .filter(|(s, _)| tag.is_none_or(|t| s.tag == t))
            .map(|(s, _)| s.secs())
            .collect()
    }

    /// Writes one CSV line per span to `out`.
    pub fn write_csv(&self, out: &mut impl Write) -> std::io::Result<()> {
        writeln!(
            out,
            "id,parent,name,tag,worker,unit,start_ns,end_ns,self_ns"
        )?;
        for (s, self_s) in self.spans.iter().zip(&self.self_s) {
            let parent = if s.parent == SpanId::NONE {
                String::new()
            } else {
                s.parent.0.to_string()
            };
            let unit = if s.unit == NO_UNIT {
                String::new()
            } else {
                s.unit.to_string()
            };
            writeln!(
                out,
                "{},{},{},{},{},{},{},{},{}",
                s.id.0,
                parent,
                s.name,
                s.tag,
                s.worker,
                unit,
                s.start_ns,
                s.end_ns,
                (self_s * 1e9).round() as i64
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_same_thread_children_only() {
        let tracer = Tracer::new();
        tracer.span("outer", "", NO_UNIT, SpanId::NONE, |outer| {
            tracer.span("inner", "", 1, outer, |_| {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
            std::thread::scope(|s| {
                s.spawn(|| {
                    tracer.span("remote", "", 2, outer, |_| {
                        std::thread::sleep(std::time::Duration::from_millis(5))
                    })
                });
            });
        });
        let trace = Trace::new(tracer.into_spans());
        let outer = trace.named("outer").next().expect("outer span").1;
        let inner = trace.self_total("inner", None);
        let remote_wall = trace.durations("remote", None)[0];
        assert!(inner >= 0.005);
        // The remote child ran on another thread while `outer` waited
        // for it: that wait stays in the parent's self time.
        assert!(outer >= remote_wall * 0.9, "{outer} vs {remote_wall}");
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tracer = Tracer::off();
        let v = tracer.span("x", "", NO_UNIT, SpanId::NONE, |_| 7);
        assert_eq!(v, 7);
        assert!(tracer.into_spans().is_empty());
    }
}
