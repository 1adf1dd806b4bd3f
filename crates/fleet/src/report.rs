//! Fleet report types and their deterministic JSON form.
//!
//! [`FleetReport`] is the *simulation outcome* of a fleet run: everything
//! in it — and therefore every byte of [`FleetReport::to_json`] — is a
//! pure function of the fleet configuration and root seed. Wall-clock
//! timing and worker count live in [`crate::engine::WallStats`] instead,
//! precisely so the report stays byte-identical no matter how many
//! threads computed it (the determinism guard in `tests/determinism.rs`).

use bas_attack::model::{AttackId, AttackerModel};
use bas_core::scenario::{PlantSnapshot, Platform};
use bas_sim::metrics::KernelMetrics;
use serde::{Deserialize, Serialize};

use crate::json::JsonWriter;

/// A fixed-width histogram of latencies, seconds.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LatencyHistogram {
    /// Width of each bin, seconds.
    pub bin_width_s: f64,
    /// `counts[i]` covers `[i·w, (i+1)·w)`.
    pub counts: Vec<u64>,
    /// Samples at or beyond the last bin edge.
    pub overflow: u64,
    /// Samples rejected by [`record`]: non-finite ones (NaN/±inf) and
    /// negative ones (an effect observed before its cause). Neither
    /// carries latency information, so they are counted here and
    /// excluded from `samples`, `sum_s`, and `max_s`.
    ///
    /// [`record`]: LatencyHistogram::record
    pub invalid: u64,
    /// Total samples recorded (excludes `invalid`).
    pub samples: u64,
    /// Sum of all samples (for the mean), seconds.
    pub sum_s: f64,
    /// Largest sample, seconds.
    pub max_s: f64,
}

impl LatencyHistogram {
    /// Alarm latencies cluster around the paper's ~300 s deadline; 30 s
    /// bins over 0–600 s resolve that region well.
    pub const DEFAULT_BIN_WIDTH_S: f64 = 30.0;
    /// Default bin count (covers 0–600 s).
    pub const DEFAULT_BINS: usize = 20;

    /// An empty histogram with the given geometry.
    pub fn new(bin_width_s: f64, bins: usize) -> Self {
        LatencyHistogram {
            bin_width_s,
            counts: vec![0; bins],
            overflow: 0,
            invalid: 0,
            samples: 0,
            sum_s: 0.0,
            max_s: 0.0,
        }
    }

    /// Records one latency sample.
    ///
    /// Non-finite and negative samples count only toward `invalid` — a
    /// NaN must not masquerade as a slow request in `overflow`, adding
    /// it to `sum_s`/`max_s` would poison the mean and max forever, and
    /// a negative latency breaks causality, so binning it as a fast
    /// request would hide the fault. `overflow` keeps its documented
    /// meaning: at or beyond the last bin edge, nothing else.
    pub fn record(&mut self, latency_s: f64) {
        if !latency_s.is_finite() || latency_s < 0.0 {
            self.invalid += 1;
            return;
        }
        let bin = latency_s / self.bin_width_s;
        if bin.is_finite() && (bin.floor() as usize) < self.counts.len() {
            self.counts[bin.floor() as usize] += 1;
        } else {
            // Beyond the last edge — including the degenerate
            // bin_width_s <= 0 geometry, where every bin is empty.
            self.overflow += 1;
        }
        self.samples += 1;
        self.sum_s += latency_s;
        if latency_s > self.max_s {
            self.max_s = latency_s;
        }
    }

    /// Mean latency, seconds (0 when empty).
    pub fn mean_s(&self) -> f64 {
        if self.samples == 0 {
            0.0
        } else {
            self.sum_s / self.samples as f64
        }
    }

    /// Folds `other` into `self`. Both histograms must share a geometry.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        assert_eq!(
            (self.bin_width_s, self.counts.len()),
            (other.bin_width_s, other.counts.len()),
            "merging histograms with different geometries"
        );
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.overflow += other.overflow;
        self.invalid += other.invalid;
        self.samples += other.samples;
        self.sum_s += other.sum_s;
        if other.max_s > self.max_s {
            self.max_s = other.max_s;
        }
    }

    /// The latency at quantile `p` (e.g. `0.99`), estimated as the upper
    /// edge of the bin holding the rank-`ceil(p·samples)` sample — a
    /// conservative (never understating) bound given fixed-width bins.
    /// Ranks landing in the overflow region report `max_s`; an empty
    /// histogram reports 0.
    pub fn percentile(&self, p: f64) -> f64 {
        if self.samples == 0 {
            return 0.0;
        }
        let rank = ((p * self.samples as f64).ceil() as u64).clamp(1, self.samples);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return (i + 1) as f64 * self.bin_width_s;
            }
        }
        self.max_s
    }

    /// Writes the histogram as a JSON object.
    pub fn write_json(&self, w: &mut JsonWriter) {
        w.obj(|w| {
            w.key("bin_width_s").num(self.bin_width_s);
            w.key("counts").arr(|w| {
                for &c in &self.counts {
                    w.uint(c);
                }
            });
            w.key("overflow").uint(self.overflow);
            w.key("invalid").uint(self.invalid);
            w.key("samples").uint(self.samples);
            w.key("mean_s").num(self.mean_s());
            w.key("max_s").num(self.max_s);
        });
    }
}

/// Web-request accounting for one instance (the E18 traffic runs).
///
/// Latency is `completed - scheduled` per request — open-loop time in
/// queue plus the RPC round trip — binned at sub-millisecond geometry
/// ([`RequestStats::BIN_WIDTH_S`]) since kernel round trips sit far
/// below the 30 s alarm-latency bins. A request completed before it
/// was scheduled counts as `invalid`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RequestStats {
    /// Requests completed (a response came back, ok or error).
    pub requests: u64,
    /// Requests whose response decoded as a success.
    pub ok: u64,
    /// Request-latency distribution, seconds.
    pub latency: LatencyHistogram,
}

impl RequestStats {
    /// 1 ms bins over 0–200 ms: queueing under overload shows up as
    /// mass marching right; overflow means multi-epoch stalls.
    pub const BIN_WIDTH_S: f64 = 1e-3;
    /// Default bin count for request latencies.
    pub const BINS: usize = 200;

    /// An empty accounting block with the standard geometry.
    pub fn new() -> RequestStats {
        RequestStats {
            requests: 0,
            ok: 0,
            latency: LatencyHistogram::new(Self::BIN_WIDTH_S, Self::BINS),
        }
    }

    /// Folds one completed request in.
    pub fn push(&mut self, latency_s: f64, ok: bool) {
        self.requests += 1;
        if ok {
            self.ok += 1;
        }
        self.latency.record(latency_s);
    }

    /// Folds `other` into `self` (same geometry required).
    pub fn merge(&mut self, other: &RequestStats) {
        self.requests += other.requests;
        self.ok += other.ok;
        self.latency.merge(&other.latency);
    }

    /// Accounts a scenario's completed-request log; `None` when the
    /// instance logged nothing (so quiet fleets keep `requests: null`).
    /// A sample completed before it was scheduled records a negative
    /// latency, which the histogram counts as `invalid`.
    pub fn from_samples(samples: &[bas_core::logic::web::RequestSample]) -> Option<RequestStats> {
        if samples.is_empty() {
            return None;
        }
        let mut stats = RequestStats::new();
        for s in samples {
            let latency_s = if s.completed >= s.scheduled {
                (s.completed - s.scheduled).as_secs_f64()
            } else {
                -(s.scheduled - s.completed).as_secs_f64()
            };
            stats.push(latency_s, s.ok);
        }
        Some(stats)
    }

    /// Writes the accounting block as a JSON object.
    fn write_json(&self, w: &mut JsonWriter) {
        w.obj(|w| {
            w.key("requests").uint(self.requests);
            w.key("ok").uint(self.ok);
            self.latency.write_json(w.key("latency"));
        });
    }
}

impl Default for RequestStats {
    fn default() -> Self {
        RequestStats::new()
    }
}

/// Attack-campaign verdict for one instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct AttackCell {
    /// The kernel accepted the malicious operations.
    pub mechanism_succeeded: bool,
    /// Safety violated or a critical process lost.
    pub compromised: bool,
}

/// Outcome of one building instance.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InstanceReport {
    /// Instance index within the fleet (0-based).
    pub index: usize,
    /// Derived scenario seed (see [`crate::seed::instance_seed`]).
    pub seed: u64,
    /// Simulated seconds this instance advanced.
    pub sim_seconds: f64,
    /// Every critical process survived.
    pub critical_alive: bool,
    /// Kernel counters at the end of the run.
    pub metrics: KernelMetrics,
    /// Plant safety snapshot at the end of the run.
    pub plant: PlantSnapshot,
    /// Campaign verdict (`None` for benign fleets).
    pub attack: Option<AttackCell>,
    /// Web-request accounting (`None` when the instance logged no
    /// requests — quiet schedules, attacker-replaced webs).
    pub requests: Option<RequestStats>,
}

impl InstanceReport {
    /// Writes the instance outcome as a JSON object.
    fn write_json(&self, w: &mut JsonWriter) {
        w.obj(|w| {
            w.key("index").uint(self.index as u64);
            w.key("seed").uint(self.seed);
            w.key("sim_seconds").num(self.sim_seconds);
            w.key("critical_alive").bool(self.critical_alive);
            write_metrics(w.key("metrics"), &self.metrics);
            write_plant(w.key("plant"), &self.plant);
            w.key("attack").opt(self.attack.as_ref(), |w, cell| {
                w.obj(|w| {
                    w.key("mechanism_succeeded").bool(cell.mechanism_succeeded);
                    w.key("compromised").bool(cell.compromised);
                });
            });
            w.key("requests")
                .opt(self.requests.as_ref(), |w, stats| stats.write_json(w));
        });
    }
}

/// Fleet-wide sums over the per-instance reports.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FleetTotals {
    /// Total simulated seconds across all instances.
    pub sim_seconds: f64,
    /// Total IPC messages delivered.
    pub ipc_messages: u64,
    /// Total IPC payload bytes.
    pub ipc_bytes: u64,
    /// Total kernel entries.
    pub kernel_entries: u64,
    /// Total context switches.
    pub context_switches: u64,
    /// Total operations denied by access control.
    pub access_denied: u64,
    /// Total processes created.
    pub processes_created: u64,
    /// Total IPC hot-path heap events (arena growth + spills); a warm
    /// fleet holds this at the boot-time baseline.
    pub hot_path_allocs: u64,
    /// Total sends that had to block (receiver absent / queue full) —
    /// the fleet-wide backpressure signal E18 watches.
    pub ipc_waits: u64,
    /// Total web requests completed across the fleet.
    pub requests: u64,
    /// Web requests whose response decoded as a success.
    pub requests_ok: u64,
    /// Instances whose safety property was violated.
    pub safety_violations: usize,
    /// Instances that lost a critical process.
    pub critical_losses: usize,
}

impl FleetTotals {
    /// Writes the totals as a JSON object.
    fn write_json(&self, w: &mut JsonWriter) {
        w.obj(|w| {
            w.key("sim_seconds").num(self.sim_seconds);
            w.key("ipc_messages").uint(self.ipc_messages);
            w.key("ipc_bytes").uint(self.ipc_bytes);
            w.key("kernel_entries").uint(self.kernel_entries);
            w.key("context_switches").uint(self.context_switches);
            w.key("access_denied").uint(self.access_denied);
            w.key("processes_created").uint(self.processes_created);
            w.key("hot_path_allocs").uint(self.hot_path_allocs);
            w.key("ipc_waits").uint(self.ipc_waits);
            w.key("requests").uint(self.requests);
            w.key("requests_ok").uint(self.requests_ok);
            w.key("safety_violations")
                .uint(self.safety_violations as u64);
            w.key("critical_losses").uint(self.critical_losses as u64);
        });
    }
}

/// Campaign identity and aggregate verdict counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CampaignSummary {
    /// The attack every instance ran.
    pub attack: AttackId,
    /// The attacker model.
    pub attacker: AttackerModel,
    /// Instances where the mechanism succeeded.
    pub mechanism_succeeded: usize,
    /// Instances compromised (safety violated or critical loss).
    pub compromised: usize,
}

/// The deterministic outcome of a fleet run.
///
/// Contains *only* simulation-derived data — no wall-clock, no worker
/// count — so [`FleetReport::to_json`] is byte-identical for the same
/// `(config, root_seed)` regardless of parallelism.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetReport {
    /// Platform every instance ran on.
    pub platform: Platform,
    /// Root seed the per-instance seeds derive from.
    pub root_seed: u64,
    /// Number of building instances.
    pub instances: usize,
    /// Campaign summary (`None` for benign fleets).
    pub campaign: Option<CampaignSummary>,
    /// Fleet-wide sums.
    pub totals: FleetTotals,
    /// Excursion→alarm latency distribution across the fleet.
    pub alarm_latency: LatencyHistogram,
    /// Web-request latency distribution merged across instances
    /// (empty geometry with zero samples for fleets without traffic).
    pub request_latency: LatencyHistogram,
    /// Per-instance outcomes, ordered by instance index.
    pub per_instance: Vec<InstanceReport>,
}

impl FleetReport {
    /// Aggregates per-instance reports (must be sorted by index) into the
    /// fleet report.
    ///
    /// The merge is addition-only over end-of-run counter snapshots, so
    /// it cannot underflow. The invariant callers must keep: instance
    /// metrics are sampled once, at the end of the run, from a kernel
    /// that is never `reset()` mid-run (intra-run phase deltas go through
    /// `KernelMetrics::delta_since`, which saturates instead).
    pub fn aggregate(
        platform: Platform,
        root_seed: u64,
        campaign: Option<(AttackId, AttackerModel)>,
        per_instance: Vec<InstanceReport>,
    ) -> FleetReport {
        let mut totals = FleetTotals::default();
        let mut hist = LatencyHistogram::new(
            LatencyHistogram::DEFAULT_BIN_WIDTH_S,
            LatencyHistogram::DEFAULT_BINS,
        );
        let mut req_hist = LatencyHistogram::new(RequestStats::BIN_WIDTH_S, RequestStats::BINS);
        let mut mech = 0usize;
        let mut comp = 0usize;
        for r in &per_instance {
            totals.sim_seconds += r.sim_seconds;
            totals.ipc_messages += r.metrics.ipc_messages;
            totals.ipc_bytes += r.metrics.ipc_bytes;
            totals.kernel_entries += r.metrics.kernel_entries;
            totals.context_switches += r.metrics.context_switches;
            totals.access_denied += r.metrics.access_denied;
            totals.processes_created += r.metrics.processes_created;
            totals.hot_path_allocs += r.metrics.hot_path_allocs;
            totals.ipc_waits += r.metrics.ipc_waits;
            if let Some(stats) = &r.requests {
                totals.requests += stats.requests;
                totals.requests_ok += stats.ok;
                req_hist.merge(&stats.latency);
            }
            if r.plant.safety_violated {
                totals.safety_violations += 1;
            }
            if !r.critical_alive {
                totals.critical_losses += 1;
            }
            for &lat in &r.plant.alarm_latencies_s {
                hist.record(lat);
            }
            if let Some(cell) = &r.attack {
                if cell.mechanism_succeeded {
                    mech += 1;
                }
                if cell.compromised {
                    comp += 1;
                }
            }
        }
        FleetReport {
            platform,
            root_seed,
            instances: per_instance.len(),
            campaign: campaign.map(|(attack, attacker)| CampaignSummary {
                attack,
                attacker,
                mechanism_succeeded: mech,
                compromised: comp,
            }),
            totals,
            alarm_latency: hist,
            request_latency: req_hist,
            per_instance,
        }
    }

    /// Renders the report as deterministic JSON (stable key order, stable
    /// float formatting, no wall-clock data).
    pub fn to_json(&self) -> String {
        // An instance without traffic renders to ~750 bytes; reserving
        // up front spares a large fleet's buffer a copy at every growth.
        let mut w = JsonWriter::with_capacity(1024 * self.per_instance.len());
        self.write_json(&mut w);
        w.finish()
    }

    /// Writes the report as a JSON object (for embedding in larger
    /// reports).
    pub fn write_json(&self, w: &mut JsonWriter) {
        w.obj(|w| {
            w.key("schema").str("bas-fleet-report/v2");
            w.key("platform").str(&self.platform.to_string());
            w.key("root_seed").uint(self.root_seed);
            w.key("instances").uint(self.instances as u64);
            w.key("campaign").opt(self.campaign.as_ref(), |w, c| {
                w.obj(|w| {
                    w.key("attack").str(&c.attack.to_string());
                    w.key("attacker").str(&c.attacker.to_string());
                    w.key("mechanism_succeeded")
                        .uint(c.mechanism_succeeded as u64);
                    w.key("compromised").uint(c.compromised as u64);
                });
            });
            self.totals.write_json(w.key("totals"));
            self.alarm_latency.write_json(w.key("alarm_latency"));
            self.request_latency.write_json(w.key("request_latency"));
            w.key("per_instance").arr(|w| {
                for r in &self.per_instance {
                    r.write_json(w);
                }
            });
        });
    }
}

/// Writes kernel counters as a JSON object.
fn write_metrics(w: &mut JsonWriter, m: &KernelMetrics) {
    w.obj(|w| {
        w.key("context_switches").uint(m.context_switches);
        w.key("kernel_entries").uint(m.kernel_entries);
        w.key("ipc_messages").uint(m.ipc_messages);
        w.key("ipc_bytes").uint(m.ipc_bytes);
        w.key("access_denied").uint(m.access_denied);
        w.key("syscall_errors").uint(m.syscall_errors);
        w.key("processes_created").uint(m.processes_created);
        w.key("processes_reaped").uint(m.processes_reaped);
        w.key("hot_path_allocs").uint(m.hot_path_allocs);
        w.key("ipc_waits").uint(m.ipc_waits);
    });
}

/// Writes a plant safety snapshot as a JSON object.
fn write_plant(w: &mut JsonWriter, p: &PlantSnapshot) {
    w.obj(|w| {
        w.key("safety_violated").bool(p.safety_violated);
        w.key("max_deviation_c").num(p.max_deviation_c);
        w.key("in_band_fraction").num(p.in_band_fraction);
        w.key("final_temp_c").num(p.final_temp_c);
        w.key("alarm_on").bool(p.alarm_on);
        w.key("fan_switches").uint(p.fan_switches as u64);
        w.key("alarm_latencies_s").arr(|w| {
            for &l in &p.alarm_latencies_s {
                w.num(l);
            }
        });
    });
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;

    #[test]
    fn histogram_bins_and_overflow() {
        let mut h = LatencyHistogram::new(30.0, 20);
        h.record(0.0);
        h.record(29.9);
        h.record(30.0);
        h.record(599.9);
        h.record(600.0);
        h.record(1e9);
        assert_eq!(h.counts[0], 2);
        assert_eq!(h.counts[1], 1);
        assert_eq!(h.counts[19], 1);
        assert_eq!(h.overflow, 2);
        assert_eq!(h.invalid, 0);
        assert_eq!(h.samples, 6);
        assert!(h.max_s >= 1e9);
    }

    #[test]
    fn histogram_rejects_nan_without_poisoning_stats() {
        let mut h = LatencyHistogram::new(30.0, 20);
        h.record(f64::NAN);
        // The old code folded NaN into `overflow` and added it to
        // `sum_s`, making every later mean NaN.
        assert_eq!(h.overflow, 0);
        assert_eq!(h.invalid, 1);
        assert_eq!(h.samples, 0);
        assert!(h.mean_s().is_finite());
        h.record(45.0);
        assert_eq!(h.samples, 1);
        assert_eq!(h.mean_s(), 45.0);
        assert_eq!(h.max_s, 45.0);
    }

    #[test]
    fn histogram_rejects_infinities() {
        let mut h = LatencyHistogram::new(30.0, 20);
        h.record(f64::INFINITY);
        h.record(f64::NEG_INFINITY);
        assert_eq!(h.invalid, 2);
        assert_eq!(h.overflow, 0);
        assert_eq!(h.samples, 0);
        assert_eq!(h.sum_s, 0.0);
        assert_eq!(h.max_s, 0.0);
    }

    #[test]
    fn histogram_counts_negative_samples_invalid() {
        let mut h = LatencyHistogram::new(30.0, 20);
        h.record(-5.0);
        h.record(-1e-9);
        // The old code clamped negatives into bin 0, passing a causality
        // violation off as the fastest possible response.
        assert_eq!(h.counts[0], 0);
        assert_eq!(h.overflow, 0);
        assert_eq!(h.invalid, 2);
        assert_eq!(h.samples, 0);
        assert_eq!(h.sum_s, 0.0);
        h.record(0.0);
        assert_eq!(h.counts[0], 1);
        assert_eq!(h.samples, 1);
    }

    #[test]
    fn request_completed_before_scheduled_counts_invalid() {
        use bas_core::logic::web::{RequestSample, WebAction};
        use bas_sim::time::{SimDuration, SimTime};

        let at = |ms: u64| SimTime::ZERO + SimDuration::from_millis(ms);
        let sample = |scheduled, completed| RequestSample {
            scheduled,
            completed,
            action: WebAction::QueryStatus,
            ok: true,
        };
        // The old code computed `completed - scheduled` on `SimTime`,
        // which panics in debug builds and wraps to a ~584-year sample
        // in release builds.
        let stats = RequestStats::from_samples(&[sample(at(10), at(12)), sample(at(20), at(15))])
            .expect("two samples logged");
        assert_eq!(stats.requests, 2);
        assert_eq!(stats.latency.samples, 1);
        assert_eq!(stats.latency.invalid, 1);
        assert_eq!(stats.latency.overflow, 0);
        assert_eq!(stats.latency.counts.iter().sum::<u64>(), 1);
        assert!(stats.latency.max_s < 0.01);
    }

    #[test]
    fn histogram_exact_bin_edges() {
        let mut h = LatencyHistogram::new(10.0, 3);
        h.record(0.0);
        h.record(10.0);
        h.record(20.0);
        h.record(30.0); // == last edge → overflow
        assert_eq!(h.counts, vec![1, 1, 1]);
        assert_eq!(h.overflow, 1);
    }

    #[test]
    fn histogram_zero_bin_width_is_all_overflow() {
        let mut h = LatencyHistogram::new(0.0, 4);
        h.record(0.0);
        h.record(1.0);
        h.record(f64::NAN);
        assert_eq!(h.counts, vec![0, 0, 0, 0]);
        assert_eq!(h.overflow, 2);
        assert_eq!(h.invalid, 1);
        assert_eq!(h.samples, 2);
        assert_eq!(h.sum_s, 1.0);
    }

    #[test]
    fn histogram_merge_and_percentiles() {
        let mut a = LatencyHistogram::new(1.0, 10);
        let mut b = LatencyHistogram::new(1.0, 10);
        for _ in 0..90 {
            a.record(0.5);
        }
        for _ in 0..10 {
            b.record(8.5);
        }
        b.record(f64::NAN);
        a.merge(&b);
        assert_eq!(a.samples, 100);
        assert_eq!(a.invalid, 1);
        assert_eq!(a.percentile(0.50), 1.0);
        assert_eq!(a.percentile(0.90), 1.0);
        assert_eq!(a.percentile(0.95), 9.0);
        assert_eq!(a.percentile(0.99), 9.0);
        // Empty histogram: every percentile is 0.
        assert_eq!(LatencyHistogram::new(1.0, 4).percentile(0.99), 0.0);
        // Rank in the overflow region reports the observed max.
        let mut o = LatencyHistogram::new(1.0, 2);
        o.record(7.5);
        assert_eq!(o.percentile(0.99), 7.5);
    }

    proptest! {
        #[test]
        fn histogram_accounting_is_conserved(
            samples in prop::collection::vec(-1e6f64..1e6, 0..200),
            nans in 0usize..4,
        ) {
            let mut h = LatencyHistogram::new(30.0, 20);
            for &s in &samples {
                h.record(s);
            }
            for _ in 0..nans {
                h.record(f64::NAN);
            }
            let negatives = samples.iter().filter(|&&s| s < 0.0).count() as u64;
            let binned: u64 = h.counts.iter().sum();
            prop_assert_eq!(binned + h.overflow, h.samples);
            prop_assert_eq!(h.samples, samples.len() as u64 - negatives);
            prop_assert_eq!(h.invalid, nans as u64 + negatives);
            prop_assert!(h.sum_s.is_finite() && h.sum_s >= 0.0);
            prop_assert!(h.max_s.is_finite() && h.max_s >= 0.0);
            prop_assert!(h.mean_s().is_finite());
        }

        #[test]
        fn histogram_percentile_is_monotone(
            samples in prop::collection::vec(0.0f64..700.0, 1..100),
        ) {
            let mut h = LatencyHistogram::new(30.0, 20);
            for &s in &samples {
                h.record(s);
            }
            let p50 = h.percentile(0.50);
            let p95 = h.percentile(0.95);
            let p99 = h.percentile(0.99);
            prop_assert!(p50 <= p95 && p95 <= p99);
            prop_assert!(p99 <= h.max_s.max(20.0 * 30.0));
        }
    }

    #[test]
    fn aggregate_counts_violations_and_campaign() {
        let make =
            |index: usize, violated: bool, alive: bool, cell: Option<AttackCell>| InstanceReport {
                index,
                seed: index as u64,
                sim_seconds: 10.0,
                critical_alive: alive,
                metrics: KernelMetrics {
                    ipc_messages: 5,
                    ..KernelMetrics::default()
                },
                plant: PlantSnapshot {
                    safety_violated: violated,
                    max_deviation_c: 0.5,
                    in_band_fraction: 1.0,
                    final_temp_c: 22.0,
                    alarm_on: false,
                    fan_switches: 0,
                    alarm_latencies_s: vec![300.0],
                },
                attack: cell,
                requests: None,
            };
        let cell = AttackCell {
            mechanism_succeeded: true,
            compromised: false,
        };
        let report = FleetReport::aggregate(
            Platform::Minix,
            42,
            Some((AttackId::ForkBomb, AttackerModel::ArbitraryCode)),
            vec![
                make(0, false, true, Some(cell)),
                make(1, true, false, Some(cell)),
            ],
        );
        assert_eq!(report.instances, 2);
        assert_eq!(report.totals.ipc_messages, 10);
        assert_eq!(report.totals.safety_violations, 1);
        assert_eq!(report.totals.critical_losses, 1);
        assert_eq!(report.alarm_latency.samples, 2);
        let c = report.campaign.expect("campaign totals present");
        assert_eq!(c.mechanism_succeeded, 2);
        assert_eq!(c.compromised, 0);
        let json = report.to_json();
        assert!(json.contains("\"schema\": \"bas-fleet-report/v2\""));
        assert!(json.contains("\"fork-bomb\""));
        assert_eq!(json, report.to_json());
    }

    #[test]
    fn aggregate_merges_request_stats() {
        let make = |index: usize, stats: Option<RequestStats>| InstanceReport {
            index,
            seed: index as u64,
            sim_seconds: 10.0,
            critical_alive: true,
            metrics: KernelMetrics {
                ipc_waits: 2,
                ..KernelMetrics::default()
            },
            plant: PlantSnapshot {
                safety_violated: false,
                max_deviation_c: 0.1,
                in_band_fraction: 1.0,
                final_temp_c: 22.0,
                alarm_on: false,
                fan_switches: 0,
                alarm_latencies_s: vec![],
            },
            attack: None,
            requests: stats,
        };
        let mut a = RequestStats::new();
        a.push(0.0005, true);
        a.push(0.0015, true);
        let mut b = RequestStats::new();
        b.push(0.150, false);
        let report = FleetReport::aggregate(
            Platform::Sel4,
            7,
            None,
            vec![make(0, Some(a)), make(1, Some(b)), make(2, None)],
        );
        assert_eq!(report.totals.requests, 3);
        assert_eq!(report.totals.requests_ok, 2);
        assert_eq!(report.totals.ipc_waits, 6);
        assert_eq!(report.request_latency.samples, 3);
        assert!(report.request_latency.percentile(0.99) >= 0.150);
        let json = report.to_json();
        assert!(json.contains("\"request_latency\""));
        assert!(json.contains("\"ipc_waits\": 6"));
    }
}
