//! The three workloads. Each has an untraced pass through the system's
//! public entry points and a traced pass that rebuilds the same work
//! from the finer-grained public calls, recording a span around each.
//! Both passes render the same report digest, which is what proves the
//! spans measured the same work.

pub mod fleet;
pub mod rebuild;
pub mod tenant;
pub mod verdict;

use std::collections::BTreeMap;
use std::sync::Arc;

use bas_core::scenario::{critical_alive, Platform, ScenarioConfig};
use bas_core::EngineSnapshot;
use bas_fleet::{FleetTotals, WorkerPool};
use bas_sim::metrics::KernelMetrics;

use crate::measure::Digest;
use crate::trace::Tracer;

/// Workers every workload runs on: the pool, the `run_cells` sweeps and
/// the model checker's cell sweep.
pub const WORKERS: usize = 2;

/// The platforms, in the order every workload visits them.
pub const PLATFORMS: [Platform; 3] = [Platform::Minix, Platform::Sel4, Platform::Linux];

/// Metric-name key of a platform.
pub fn key(platform: Platform) -> &'static str {
    match platform {
        Platform::Minix => "minix",
        Platform::Sel4 => "sel4",
        Platform::Linux => "linux",
    }
}

/// Workload sizes: the benchmark's own, or a small one for self-tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The sizes the benchmark measures.
    Full,
    /// A configuration small enough for a unit test.
    Small,
}

/// A deliberate defect for the benchmark's self-tests: the checks must
/// catch it and the command must fail.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Inject {
    /// Flip one cell's model-checker verdict (`verdict_matrix`).
    Verdict,
    /// Mark one benign request as not ok (`tenant_traffic`).
    Request,
}

/// Correctness bookkeeping of one pass.
#[derive(Debug, Clone, Default)]
pub struct Checks {
    /// Checked units: requests plus instances, or cells plus scenarios.
    pub attempted: u64,
    /// Units that failed a check.
    pub failed: u64,
    /// One line per failure (first few only are printed).
    pub messages: Vec<String>,
}

impl Checks {
    /// Counts `units` checked units of which `bad` failed.
    pub fn record(&mut self, units: u64, bad: u64, what: impl FnOnce() -> String) {
        self.attempted += units;
        if bad > 0 {
            self.failed += bad;
            self.messages.push(what());
        }
    }

    /// Counts one unit that passes iff `ok`.
    pub fn expect(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.record(1, u64::from(!ok), what);
    }
}

/// Kernel counters and simulated seconds of one platform's share.
#[derive(Debug, Clone, Copy, Default)]
pub struct PlatformCounts {
    /// Summed kernel counters.
    pub metrics: KernelMetrics,
    /// Simulated seconds across the platform's instances.
    pub sim_seconds: f64,
}

impl PlatformCounts {
    /// Counts from a fleet report's totals.
    pub fn from_totals(t: &FleetTotals) -> PlatformCounts {
        PlatformCounts {
            metrics: KernelMetrics {
                context_switches: t.context_switches,
                kernel_entries: t.kernel_entries,
                ipc_messages: t.ipc_messages,
                ipc_bytes: t.ipc_bytes,
                access_denied: t.access_denied,
                processes_created: t.processes_created,
                hot_path_allocs: t.hot_path_allocs,
                ipc_waits: t.ipc_waits,
                ..KernelMetrics::default()
            },
            sim_seconds: t.sim_seconds,
        }
    }

    /// Adds another share.
    pub fn add(&mut self, m: &KernelMetrics, sim_seconds: f64) {
        let a = &mut self.metrics;
        a.context_switches += m.context_switches;
        a.kernel_entries += m.kernel_entries;
        a.ipc_messages += m.ipc_messages;
        a.ipc_bytes += m.ipc_bytes;
        a.access_denied += m.access_denied;
        a.processes_created += m.processes_created;
        a.hot_path_allocs += m.hot_path_allocs;
        a.ipc_waits += m.ipc_waits;
        self.sim_seconds += sim_seconds;
    }
}

/// What one pass produced.
pub struct Pass {
    /// Wall seconds of the measured work.
    pub wall_s: f64,
    /// Digest of every simulated-time output of the pass.
    pub digest: Digest,
    /// Correctness of the outputs.
    pub checks: Checks,
    /// The workload's headline unit count: benign requests, instances
    /// or verdicts (cells plus churn scenarios).
    pub work: f64,
    /// Per-platform kernel counters, in [`PLATFORMS`] order.
    pub counts: [PlatformCounts; 3],
    /// Workload-specific per-layer counts and figures that come from the
    /// pass's outputs rather than from spans (traced passes only).
    pub extra: BTreeMap<&'static str, f64>,
}

/// Spawns the worker pool and waits until every worker has run a job,
/// so pool start-up is part of set-up rather than of the first pass.
pub fn warm_pool() -> WorkerPool {
    let pool = WorkerPool::new(WORKERS);
    let ready = pool.run((0..WORKERS).map(|w| move || w).collect());
    assert_eq!(ready.len(), WORKERS, "every worker answers");
    pool
}

/// Captures each platform's warm boot template for `template` — the
/// policy-lowering step every fleet instance is forked from — and boots
/// one instance from it for one lockstep chunk, so a broken template
/// fails before any pass.
pub fn check_templates(template: &ScenarioConfig) {
    for platform in PLATFORMS {
        let snapshot = EngineSnapshot::capture(platform, template);
        let mut engine = snapshot.materialize(0);
        engine.run_for(template.lockstep_chunk);
        assert!(
            critical_alive(engine.as_ref()),
            "{platform}: a forked instance keeps every critical process"
        );
    }
}

/// A workload: set up once, then run pass after pass.
pub trait Workload: Sized {
    /// Builds the inputs from `seed` and spawns the worker pool.
    fn setup(seed: u64, scale: Scale, inject: Option<Inject>) -> Self;

    /// Runs one pass on `workers` workers. With a disabled tracer this is
    /// the untraced pass through the public entry points; with an
    /// enabled one, the traced rebuild.
    fn pass(&self, workers: usize, tracer: &Arc<Tracer>) -> Pass;

    /// The headline figure printed for this workload.
    fn headline(&self) -> Headline;

    /// Workload-specific isolated unit costs, measured once per traced
    /// run.
    fn probes(&self) -> Vec<(&'static str, f64)> {
        Vec::new()
    }
}

/// How a workload's headline figure derives from a pass.
#[derive(Debug, Clone, Copy)]
pub enum Headline {
    /// [`Pass::work`] per wall second, with the work's unit.
    Rate(&'static str, &'static str),
    /// The pass's wall seconds.
    Seconds(&'static str),
}
