//! `fleet_sweep`: a benign fleet of tens of thousands of instances per
//! platform over a 1 s horizon, run with `run_fleet_with` and rendered
//! with `FleetReport::to_json`.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use bas_fleet::{run_fleet_with, FleetConfig, FleetReport, WorkerPool};
use bas_sim::time::SimDuration;

use super::rebuild::{fleet_extras, run_fleet_traced};
use super::{key, Checks, Headline, Inject, Pass, PlatformCounts, Scale, Workload, PLATFORMS};
use crate::measure::{derive_seed, Digest};
use crate::trace::{SpanId, Tracer, NO_UNIT};

/// Instances per platform: far more than one 256-instance cohort per
/// worker, so snapshot recycling dominates the boot path.
const INSTANCES_PER_PLATFORM: usize = 24_000;

/// The prepared workload.
pub struct FleetSweep {
    pool: WorkerPool,
    configs: Vec<FleetConfig>,
}

impl FleetSweep {
    fn judge(&self, reports: &[FleetReport], rendered: &[String]) -> (Digest, Checks) {
        let mut digest = Digest::new();
        for json in rendered {
            digest.update(json.as_bytes());
        }
        let mut checks = Checks::default();
        for (r, config) in reports.iter().zip(&self.configs) {
            let p = r.platform;
            let t = &r.totals;
            let bad = (t.safety_violations + t.critical_losses) as u64;
            checks.record(r.instances as u64, bad, || {
                format!("{p}: {bad} instances unsafe or lost a critical process")
            });
            checks.expect(r.instances == config.instances, || {
                format!(
                    "{p}: {} of {} instances reported",
                    r.instances, config.instances
                )
            });
            checks.record(t.requests, t.requests - t.requests_ok, || {
                format!("{p}: {} requests not ok", t.requests - t.requests_ok)
            });
            let invalid = r.request_latency.invalid;
            checks.record(0, invalid, || {
                format!("{p}: {invalid} invalid latency samples")
            });
            let dense = r.per_instance.iter().enumerate().all(|(k, x)| x.index == k);
            checks.expect(dense, || format!("{p}: instance indices not dense"));
        }
        (digest, checks)
    }
}

impl Workload for FleetSweep {
    fn setup(seed: u64, scale: Scale, _inject: Option<Inject>) -> FleetSweep {
        let pool = super::warm_pool();
        let instances = match scale {
            Scale::Full => INSTANCES_PER_PLATFORM,
            Scale::Small => 600,
        };
        let configs = PLATFORMS
            .into_iter()
            .enumerate()
            .map(|(i, platform)| {
                let mut c = FleetConfig::benign(platform, instances, super::WORKERS);
                c.root_seed = derive_seed(seed, 16 + i as u64);
                c.horizon = SimDuration::from_secs(1);
                c
            })
            .collect::<Vec<FleetConfig>>();
        super::check_templates(&configs[0].template);
        FleetSweep { pool, configs }
    }

    fn pass(&self, workers: usize, tracer: &Arc<Tracer>) -> Pass {
        let configs: Vec<FleetConfig> = self
            .configs
            .iter()
            .map(|c| {
                let mut c = c.clone();
                c.workers = workers;
                c
            })
            .collect();
        let mut extra = BTreeMap::new();
        let t0 = Instant::now();
        let mut reports = Vec::with_capacity(configs.len());
        let mut rendered = Vec::with_capacity(configs.len());
        if tracer.enabled() {
            let mut calls = Vec::with_capacity(configs.len());
            for c in &configs {
                let tag = key(c.platform);
                let mut call = tracer.span("fleet.call", tag, NO_UNIT, SpanId::NONE, |span| {
                    let call = run_fleet_traced(&self.pool, c, tracer, span, tag);
                    let json = tracer.span("fleet.render", tag, NO_UNIT, span, |_| {
                        call.report.to_json()
                    });
                    rendered.push(json);
                    call
                });
                let empty = FleetReport::aggregate(c.platform, c.root_seed, None, Vec::new());
                reports.push(std::mem::replace(&mut call.report, empty));
                calls.push(call);
            }
            fleet_extras(&calls, &mut extra);
            let bytes: usize = rendered.iter().map(String::len).sum();
            extra.insert("fleet.report_bytes", bytes as f64);
        } else {
            for c in &configs {
                let run = run_fleet_with(&self.pool, c);
                rendered.push(run.report.to_json());
                reports.push(run.report);
            }
        }
        let wall_s = t0.elapsed().as_secs_f64();
        let (digest, checks) = self.judge(&reports, &rendered);
        let mut counts = [PlatformCounts::default(); 3];
        for (c, r) in counts.iter_mut().zip(&reports) {
            *c = PlatformCounts::from_totals(&r.totals);
        }
        let instances: usize = reports.iter().map(|r| r.instances).sum();
        Pass {
            wall_s,
            digest,
            checks,
            work: instances as f64,
            counts,
            extra,
        }
    }

    fn headline(&self) -> Headline {
        Headline::Rate("instances_per_s", "instances")
    }
}
