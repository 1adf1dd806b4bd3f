//! The fleet executor rebuilt from its public parts, with a span around
//! each call: snapshot capture, instance-pool checkout (inside
//! `EngineBatch::materialize`), epoch advance, report assembly and
//! aggregation. It mirrors `bas_fleet::run_fleet_with` on the benign
//! snapshot path, call for call and with the same epoch schedule, so the
//! report it returns is byte-identical to the public entry point's.

use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::Arc;
use std::time::Instant;

use bas_core::EngineSnapshot;
use bas_fleet::{EngineBatch, FleetConfig, FleetReport, InstancePool, InstanceReport, WorkerPool};
use bas_sim::time::SimDuration;

use crate::trace::{SpanId, Tracer, NO_UNIT};

/// Lockstep chunks per fleet epoch, as in `bas_fleet::engine`.
const CHUNKS_PER_EPOCH: u64 = 600;

/// One rebuilt fleet call.
pub struct FleetCall {
    /// The aggregated report.
    pub report: FleetReport,
    /// Instances the call ran.
    pub instances: usize,
    /// Wall seconds from dispatch to the last worker's return.
    pub wall_s: f64,
    /// Busy seconds per worker.
    pub busy_s: Vec<f64>,
    /// Engines booted from scratch or forked from the snapshot.
    pub materialized: u64,
    /// Engines reset in place and reused.
    pub recycled: u64,
}

struct BatchOut {
    reports: Vec<InstanceReport>,
    busy_s: f64,
    materialized: u64,
    recycled: u64,
}

/// Runs the benign fleet `config` on `pool` with a span around every
/// call into the fleet and core layers; `tag` names the platform.
pub fn run_fleet_traced(
    pool: &WorkerPool,
    config: &FleetConfig,
    tracer: &Arc<Tracer>,
    parent: SpanId,
    tag: &'static str,
) -> FleetCall {
    let workers = config.workers.clamp(1, config.instances).min(pool.size());
    let batch_size = config.instances.div_ceil(workers);
    let snapshot = tracer.span("core.snapshot_capture", tag, NO_UNIT, parent, |_| {
        Arc::new(EngineSnapshot::capture(config.platform, &config.template))
    });
    let start = Instant::now();
    let jobs: Vec<_> = (0..workers)
        .map(|w| {
            let config = config.clone();
            let snapshot = snapshot.clone();
            let tracer = tracer.clone();
            let range = (w * batch_size)..((w + 1) * batch_size).min(config.instances);
            move || run_batch_traced(&config, snapshot, range, &tracer, parent, tag)
        })
        .collect();
    let batches = pool.run(jobs);
    let wall_s = start.elapsed().as_secs_f64();

    let mut per_instance = Vec::with_capacity(config.instances);
    let mut busy_s = Vec::with_capacity(workers);
    let (mut materialized, mut recycled) = (0, 0);
    for b in batches {
        per_instance.extend(b.reports);
        busy_s.push(b.busy_s);
        materialized += b.materialized;
        recycled += b.recycled;
    }
    let report = tracer.span("fleet.aggregate", tag, NO_UNIT, parent, |_| {
        FleetReport::aggregate(config.platform, config.root_seed, None, per_instance)
    });
    FleetCall {
        report,
        instances: config.instances,
        wall_s,
        busy_s,
        materialized,
        recycled,
    }
}

/// One worker's share: cohorts of at most `max_resident` instances,
/// each materialized from the pool, advanced epoch by epoch to the
/// horizon and finished back into the pool.
fn run_batch_traced(
    config: &FleetConfig,
    snapshot: Arc<EngineSnapshot>,
    range: Range<usize>,
    tracer: &Tracer,
    parent: SpanId,
    tag: &'static str,
) -> BatchOut {
    let t0 = Instant::now();
    tracer.span(
        "fleet.batch",
        tag,
        range.start as u64,
        parent,
        |batch_span| {
            let mut pool = InstancePool::for_config(config, Some(snapshot));
            let epoch_ns = (config.template.lockstep_chunk.as_nanos() * CHUNKS_PER_EPOCH).max(1);
            let total_ns = config.horizon.as_nanos();
            let cohort = config.max_resident.max(1);
            let mut reports = Vec::with_capacity(range.len());
            let mut begin = range.start;
            while begin < range.end {
                let end = (begin + cohort).min(range.end);
                let unit = begin as u64;
                let mut batch = tracer.span("fleet.materialize", tag, unit, batch_span, |_| {
                    EngineBatch::materialize(&mut pool, config, begin..end)
                });
                let mut done_ns = 0;
                while done_ns < total_ns {
                    let step = (total_ns - done_ns).min(epoch_ns);
                    tracer.span("fleet.advance", tag, unit, batch_span, |_| {
                        batch.advance(SimDuration::from_nanos(step))
                    });
                    done_ns += step;
                }
                let finished = tracer.span("fleet.finish", tag, unit, batch_span, |_| {
                    batch.finish_into(&mut pool)
                });
                reports.extend(finished);
                begin = end;
            }
            BatchOut {
                reports,
                busy_s: t0.elapsed().as_secs_f64(),
                materialized: pool.materialized(),
                recycled: pool.recycled(),
            }
        },
    )
}

/// Fleet-layer figures that come from the rebuilt calls rather than
/// from spans: pool counters and worker utilization.
pub fn fleet_extras(calls: &[FleetCall], extra: &mut BTreeMap<&'static str, f64>) {
    let materialized: u64 = calls.iter().map(|c| c.materialized).sum();
    let recycled: u64 = calls.iter().map(|c| c.recycled).sum();
    let instances: usize = calls.iter().map(|c| c.instances).sum();
    let util_min = calls
        .iter()
        .flat_map(|c| c.busy_s.iter().map(move |b| b / c.wall_s.max(1e-9)))
        .fold(f64::INFINITY, f64::min);
    let wait_s: f64 = calls
        .iter()
        .map(|c| {
            let busiest = c.busy_s.iter().copied().fold(0.0, f64::max);
            (c.wall_s - busiest).max(0.0)
        })
        .sum();
    extra.insert("fleet.checkouts", (materialized + recycled) as f64);
    extra.insert("fleet.recycled", recycled as f64);
    extra.insert("fleet.instances", instances as f64);
    extra.insert(
        "fleet.worker_util_min",
        if util_min.is_finite() {
            util_min.min(1.0)
        } else {
            0.0
        },
    );
    extra.insert("fleet.wait_s", wait_s);
}
