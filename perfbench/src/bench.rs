//! One benchmark run: set up, warm up, measure for the requested time,
//! check every output and report.
//!
//! An untraced run (`--trace 0`) reports the end-to-end metrics; a traced
//! run (`--trace 1`) alternates untraced passes with traced rebuilds and
//! reports the per-layer metrics, including the tracing overhead.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use crate::layers::{pass_figures, per_layer, unit_figures, END_TO_END};
use crate::measure::{cpu_and_steal_s, median, peak_rss_mb, quantile, Digest, Host};
use crate::trace::{Trace, Tracer};
use crate::units::UnitCosts;
use crate::workloads::fleet::FleetSweep;
use crate::workloads::tenant::TenantTraffic;
use crate::workloads::verdict::VerdictMatrix;
use crate::workloads::{Checks, Headline, Inject, Pass, Scale, Workload, WORKERS};

/// Times the workload is set up before the first pass. One more set-up
/// follows every measured pass, so that `setup_s`, the median of all of
/// them, samples the host over the whole run as `pass_s` does.
const SETUP_REPS: usize = 5;

/// Fewest measured passes of each kind, whatever `--seconds` says.
const MIN_PASSES: usize = 3;

/// The workloads, by command-line name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadName {
    /// Building fleet under tenant load.
    TenantTraffic,
    /// Large benign fleet, report path heavy.
    FleetSweep,
    /// The three-way security verdict plus the churn catalog.
    VerdictMatrix,
}

impl WorkloadName {
    /// Parses a command-line name.
    pub fn parse(s: &str) -> Option<WorkloadName> {
        match s {
            "tenant_traffic" => Some(WorkloadName::TenantTraffic),
            "fleet_sweep" => Some(WorkloadName::FleetSweep),
            "verdict_matrix" => Some(WorkloadName::VerdictMatrix),
            _ => None,
        }
    }

    /// The command-line name.
    pub fn as_str(self) -> &'static str {
        match self {
            WorkloadName::TenantTraffic => "tenant_traffic",
            WorkloadName::FleetSweep => "fleet_sweep",
            WorkloadName::VerdictMatrix => "verdict_matrix",
        }
    }
}

/// What to run.
#[derive(Debug, Clone)]
pub struct Args {
    /// The workload.
    pub workload: WorkloadName,
    /// Root seed of every generated input.
    pub seed: u64,
    /// Seconds of measured passes.
    pub seconds: f64,
    /// Traced (per-layer) run instead of the end-to-end one.
    pub trace: bool,
    /// Workload sizes.
    pub scale: Scale,
    /// A defect to inject (self-tests only).
    pub inject: Option<Inject>,
    /// Where a traced run writes its spans.
    pub trace_dir: Option<PathBuf>,
}

/// The result of one run.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Every check passed.
    pub correct: bool,
    /// Checked units over all passes.
    pub attempted: u64,
    /// Failed units over all passes.
    pub failed: u64,
    /// Metric name, value and unit, in report order.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Human-readable lines printed before the result.
    pub lines: Vec<String>,
}

impl Outcome {
    /// The single-line JSON result.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    number(*value)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A JSON number with every digit the measurement has.
fn number(v: f64) -> String {
    if v.is_finite() {
        let s = format!("{v}");
        if s.contains('.') || s.contains('e') {
            s
        } else {
            format!("{s}.0")
        }
    } else {
        "0.0".to_string()
    }
}

/// Runs `args.workload`.
pub fn run(args: &Args) -> Outcome {
    match args.workload {
        WorkloadName::TenantTraffic => run_workload::<TenantTraffic>(args),
        WorkloadName::FleetSweep => run_workload::<FleetSweep>(args),
        WorkloadName::VerdictMatrix => run_workload::<VerdictMatrix>(args),
    }
}

/// Accumulates checks and digest comparisons over a run.
struct Ledger {
    reference: Option<Digest>,
    checks: Checks,
}

impl Ledger {
    fn record(&mut self, label: &str, pass: &Pass) {
        self.checks.attempted += pass.checks.attempted;
        self.checks.failed += pass.checks.failed;
        self.checks
            .messages
            .extend(pass.checks.messages.iter().map(|m| format!("{label}: {m}")));
        match self.reference {
            None => self.reference = Some(pass.digest),
            Some(d) => self.checks.expect(d == pass.digest, || {
                format!("{label}: report digest {} differs from {d}", pass.digest)
            }),
        }
    }
}

fn run_workload<W: Workload>(args: &Args) -> Outcome {
    let host = Host::measure();
    let mut setup_times = Vec::new();
    let mut set_up = || {
        let t0 = Instant::now();
        let w = W::setup(args.seed, args.scale, args.inject);
        setup_times.push(t0.elapsed().as_secs_f64());
        w
    };
    for _ in 1..SETUP_REPS {
        // Dropped (and its pool joined) outside the timed region.
        drop(set_up());
    }
    let w = set_up();
    let off = Arc::new(Tracer::off());
    let mut ledger = Ledger {
        reference: None,
        checks: Checks::default(),
    };

    // The first pass of a fresh process runs before any measured one and
    // is reported on its own; the one-worker pass checks that the
    // reports do not depend on the worker count.
    let first = w.pass(WORKERS, &off);
    ledger.record("first pass", &first);
    let one = w.pass(1, &off);
    ledger.record("1-worker pass", &one);

    let mut untraced = Vec::new();
    let mut traced: Vec<(Trace, Pass)> = Vec::new();
    let cpu0 = cpu_and_steal_s();
    let t0 = Instant::now();
    while t0.elapsed().as_secs_f64() < args.seconds
        || untraced.len() < MIN_PASSES
        || (args.trace && traced.len() < MIN_PASSES)
    {
        let p = w.pass(WORKERS, &off);
        ledger.record("pass", &p);
        untraced.push(p.wall_s);
        drop(set_up());
        if args.trace {
            let tracer = Arc::new(Tracer::new());
            let p = w.pass(WORKERS, &tracer);
            ledger.record("traced pass", &p);
            let tracer = Arc::try_unwrap(tracer)
                .unwrap_or_else(|_| panic!("a traced call outlived its pass"));
            traced.push((Trace::new(tracer.into_spans()), p));
        }
    }
    let pass_s = median(&untraced);
    let window_s = t0.elapsed().as_secs_f64();
    let (cpu_s, steal_s) = cpu_and_steal_s()
        .zip(cpu0)
        .map_or((0.0, 0.0), |((c1, s1), (c0, s0))| (c1 - c0, s1 - s0));
    let headline = match w.headline() {
        Headline::Rate(name, unit) => format!(
            "{name} = {} 1/s ({} {unit} per pass)",
            first.work / pass_s,
            first.work
        ),
        Headline::Seconds(name) => format!("{name} = {pass_s} s ({} per pass)", first.work),
    };

    let mut lines = vec![
        format!(
            "workload {} seed {} workers {WORKERS} host cores {} calib {:.1} Mop/s",
            args.workload.as_str(),
            args.seed,
            host.cores,
            host.calib_mops
        ),
        format!(
            "setup_s {:.6} s (median of {}); first pass {:.4} s; 1-worker pass {:.4} s",
            median(&setup_times),
            setup_times.len(),
            first.wall_s,
            one.wall_s
        ),
        format!(
            "pass_s {pass_s:.4} s: median of {} passes, quartiles {:.4} .. {:.4}, range {:.4} .. {:.4}",
            untraced.len(),
            quantile(&untraced, 0.25),
            quantile(&untraced, 0.75),
            quantile(&untraced, 0.0),
            quantile(&untraced, 1.0)
        ),
        headline,
        format!(
            "measured window {window_s:.1} s: process CPU {cpu_s:.1} s, host steal {steal_s:.1} s"
        ),
    ];
    let failed_ratio = ledger.checks.failed as f64 / ledger.checks.attempted.max(1) as f64;
    lines.push(format!(
        "failed_ratio {failed_ratio} ({} of {} checked units); report digest {}",
        ledger.checks.failed,
        ledger.checks.attempted,
        ledger.reference.unwrap_or_default()
    ));
    for m in ledger.checks.messages.iter().take(10) {
        lines.push(format!("FAILED {m}"));
    }

    let metrics: Vec<(String, f64, &'static str)> = if args.trace {
        let units = UnitCosts::measure();
        let mut run_level: BTreeMap<String, f64> = BTreeMap::new();
        for (k, v) in w.probes() {
            run_level.insert(k.to_string(), v);
        }
        for (k, v) in unit_figures(&units) {
            run_level.insert(k.to_string(), v);
        }
        let traced_walls: Vec<f64> = traced.iter().map(|(_, p)| p.wall_s).collect();
        run_level.insert(
            "trace.overhead_share".into(),
            median(&traced_walls) / pass_s - 1.0,
        );
        run_level.insert("warmup.first_pass_s".into(), first.wall_s);
        run_level.insert("scaling.speedup_2w".into(), one.wall_s / pass_s);
        run_level.insert("host.cores".into(), host.cores as f64);
        run_level.insert("host.calib_mops".into(), host.calib_mops);

        let figures: Vec<BTreeMap<String, f64>> = traced
            .iter()
            .map(|(trace, pass)| pass_figures(trace, pass, &units))
            .collect();
        if let (Some(dir), Some((trace, _))) = (&args.trace_dir, traced.last()) {
            let path = dir.join(format!("{}-seed{}.csv", args.workload.as_str(), args.seed));
            let written = std::fs::create_dir_all(dir).and_then(|()| {
                let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
                trace.write_csv(&mut out)?;
                std::io::Write::flush(&mut out)
            });
            match written {
                Ok(()) => lines.push(format!(
                    "spans of the last traced pass: {} ({} spans)",
                    path.display(),
                    trace.spans.len()
                )),
                Err(e) => lines.push(format!("could not write spans to {}: {e}", path.display())),
            }
        }
        lines.push(format!(
            "traced passes {} (median {:.4} s) vs untraced {} (median {pass_s:.4} s)",
            traced.len(),
            median(&traced_walls),
            untraced.len()
        ));
        per_layer()
            .into_iter()
            .map(|(name, unit)| {
                let value = run_level.get(&name).copied().unwrap_or_else(|| {
                    let v: Vec<f64> = figures
                        .iter()
                        .filter_map(|f| f.get(&name).copied())
                        .collect();
                    median(&v)
                });
                (name, value, unit)
            })
            .collect()
    } else {
        let rss = peak_rss_mb().unwrap_or(0.0);
        let values = [median(&setup_times), rss, pass_s];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), v)| (name.to_string(), v, unit))
            .collect()
    };
    for m in &metrics {
        lines.push(format!("{} = {} {}", m.0, m.1, m.2));
    }

    Outcome {
        correct: ledger.checks.failed == 0,
        attempted: ledger.checks.attempted,
        failed: ledger.checks.failed,
        metrics,
        lines,
    }
}
