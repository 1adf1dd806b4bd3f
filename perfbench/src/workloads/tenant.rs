//! `tenant_traffic`: a ~1k-instance building fleet under open-loop
//! tenant load with a 2% attacker slice, one `run_traffic` call per
//! platform.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use bas_attack::harness::run_attack;
use bas_attack::model::AttackId;
use bas_core::scenario::{Platform, ScenarioConfig};
use bas_fleet::{instance_seed, run_cells, FleetConfig, FleetReport, WorkerPool};
use bas_sim::metrics::KernelMetrics;
use bas_sim::time::SimDuration;
use bas_traffic::{assign_roles, run_traffic, AttackLane, Role, TrafficConfig, TrafficReport};

use super::rebuild::{fleet_extras, run_fleet_traced, FleetCall};
use super::{key, Checks, Headline, Inject, Pass, PlatformCounts, Scale, Workload, PLATFORMS};
use crate::measure::{derive_seed, Digest};
use crate::trace::{SpanId, Tracer, NO_UNIT};

/// Fleet instances per platform: a third of a ~1k-instance fleet, so
/// each of the two workers holds ~170 benign instances — under one
/// 256-instance cohort, so instances are forked and never recycled.
const INSTANCES_PER_PLATFORM: usize = 342;

/// Share of the fleet drawn as attackers.
const ATTACKER_FRACTION: f64 = 0.02;

/// Attacker-session seed salt of `bas_traffic::run_traffic`.
const ATTACK_SALT: u64 = 0x7e18_a77a_c4ed_5eed;

/// The prepared workload.
pub struct TenantTraffic {
    pool: WorkerPool,
    configs: Vec<TrafficConfig>,
    benign: Vec<usize>,
    inject: Option<Inject>,
}

impl TenantTraffic {
    fn config(&self, i: usize, workers: usize) -> TrafficConfig {
        let mut c = self.configs[i].clone();
        c.workers = workers;
        c
    }

    /// Digest plus checks over the three reports.
    fn judge(&self, reports: &[TrafficReport]) -> (Digest, Checks) {
        let mut digest = Digest::new();
        for r in reports {
            digest.update(r.to_json().as_bytes());
        }
        let mut checks = Checks::default();
        for (i, r) in reports.iter().enumerate() {
            let t = &r.fleet.totals;
            let mut requests_ok = t.requests_ok;
            if i == 0 && self.inject == Some(Inject::Request) {
                requests_ok -= 1;
            }
            let p = r.platform;
            checks.record(t.requests, t.requests - requests_ok, || {
                format!(
                    "{p}: {} of {} requests not ok",
                    t.requests - requests_ok,
                    t.requests
                )
            });
            checks.expect(t.requests > 0, || format!("{p}: no requests"));
            let invalid = r.fleet.request_latency.invalid;
            checks.record(0, invalid, || {
                format!("{p}: {invalid} invalid latency samples")
            });
            checks.expect(r.fleet.request_latency.samples == t.requests, || {
                format!("{p}: latency samples != requests")
            });
            let bad = (t.safety_violations + t.critical_losses) as u64;
            checks.record(r.benign_instances as u64, bad, || {
                format!("{p}: {bad} benign instances unsafe or lost a critical process")
            });
            checks.expect(r.benign_instances == self.benign[i], || {
                format!("{p}: benign split differs from the role draw")
            });
            let lanes: usize = r.attacks.iter().map(|l| l.instances).sum();
            checks.expect(lanes == r.attacker_instances, || {
                format!("{p}: attack lanes do not add up")
            });
        }
        (digest, checks)
    }

    /// The traced rebuild of `run_traffic` for one platform.
    fn traced_call(
        &self,
        config: &TrafficConfig,
        tracer: &Arc<Tracer>,
        tag: &'static str,
    ) -> (TrafficReport, Option<FleetCall>, KernelMetrics) {
        tracer.span("traffic.call", tag, NO_UNIT, SpanId::NONE, |call| {
            let roles = tracer.span("traffic.assign_roles", tag, NO_UNIT, call, |_| {
                assign_roles(config)
            });
            let attackers: Vec<(usize, AttackId)> = roles
                .iter()
                .enumerate()
                .filter_map(|(i, r)| match r {
                    Role::Benign => None,
                    Role::Attacker(a) => Some((i, *a)),
                })
                .collect();
            let benign_instances = config.instances - attackers.len();
            let fleet_call = (benign_instances > 0).then(|| {
                let mut fleet_cfg =
                    FleetConfig::benign(config.platform, benign_instances, config.workers);
                fleet_cfg.root_seed = config.root_seed;
                fleet_cfg.horizon = config.horizon;
                fleet_cfg.boot = config.boot;
                fleet_cfg.template.traffic = Some(config.profile.clone());
                run_fleet_traced(&self.pool, &fleet_cfg, tracer, call, tag)
            });
            let empty =
                || FleetReport::aggregate(config.platform, config.root_seed, None, Vec::new());
            let (fleet, fleet_call) = match fleet_call {
                Some(mut c) => (std::mem::replace(&mut c.report, empty()), Some(c)),
                None => (empty(), None),
            };
            let outcomes = run_cells(attackers.len(), config.workers.max(1), |j| {
                let (index, attack) = attackers[j];
                tracer.span("attack.session", tag, index as u64, call, |_| {
                    let mut run = config.attack_run.clone();
                    run.scenario.seed = instance_seed(config.root_seed ^ ATTACK_SALT, index);
                    let o = run_attack(config.platform, config.attacker, attack, &run);
                    (attack, o.mechanism.succeeded(), o.compromised(), o.metrics)
                })
            });
            let mut attacks: Vec<AttackLane> = AttackId::TRAFFIC_MIX
                .iter()
                .map(|&(attack, _)| AttackLane {
                    attack,
                    instances: 0,
                    mechanism_succeeded: 0,
                    compromised: 0,
                })
                .collect();
            let mut attack_metrics = KernelMetrics::default();
            for (attack, mech, comp, metrics) in outcomes {
                let lane = attacks
                    .iter_mut()
                    .find(|l| l.attack == attack)
                    .expect("every drawn attack is in the mix");
                lane.instances += 1;
                lane.mechanism_succeeded += usize::from(mech);
                lane.compromised += usize::from(comp);
                attack_metrics.access_denied += metrics.access_denied;
            }
            let report = TrafficReport {
                platform: config.platform,
                root_seed: config.root_seed,
                instances: config.instances,
                benign_instances,
                attacker_instances: attackers.len(),
                profile: config.profile.clone(),
                fleet,
                attacks,
            };
            (report, fleet_call, attack_metrics)
        })
    }
}

impl Workload for TenantTraffic {
    fn setup(seed: u64, scale: Scale, inject: Option<Inject>) -> TenantTraffic {
        let pool = super::warm_pool();
        let mut configs = Vec::with_capacity(PLATFORMS.len());
        let mut benign = Vec::with_capacity(PLATFORMS.len());
        for (i, platform) in PLATFORMS.into_iter().enumerate() {
            let config = tenant_config(platform, derive_seed(seed, i as u64), scale);
            benign.push(
                assign_roles(&config)
                    .iter()
                    .filter(|r| **r == Role::Benign)
                    .count(),
            );
            configs.push(config);
        }
        let mut template = ScenarioConfig::quiet();
        template.traffic = Some(configs[0].profile.clone());
        super::check_templates(&template);
        TenantTraffic {
            pool,
            configs,
            benign,
            inject,
        }
    }

    fn pass(&self, workers: usize, tracer: &Arc<Tracer>) -> Pass {
        let configs: Vec<TrafficConfig> = (0..PLATFORMS.len())
            .map(|i| self.config(i, workers))
            .collect();
        let mut extra = BTreeMap::new();
        let (reports, wall_s) = if tracer.enabled() {
            let t0 = Instant::now();
            let calls: Vec<_> = configs
                .iter()
                .map(|c| self.traced_call(c, tracer, key(c.platform)))
                .collect();
            let wall_s = t0.elapsed().as_secs_f64();
            let mut reports = Vec::with_capacity(calls.len());
            let mut fleet_calls = Vec::with_capacity(calls.len());
            let mut denied = 0;
            for (report, call, attack) in calls {
                reports.push(report);
                fleet_calls.extend(call);
                denied += attack.access_denied;
            }
            fleet_extras(&fleet_calls, &mut extra);
            extra.insert("attack.access_denied", denied as f64);
            let bytes = tracer.span("fleet.render", "", NO_UNIT, SpanId::NONE, |_| {
                reports.iter().map(|r| r.to_json().len()).sum::<usize>()
            });
            extra.insert("fleet.report_bytes", bytes as f64);
            (reports, wall_s)
        } else {
            let t0 = Instant::now();
            let runs: Vec<_> = configs.iter().map(|c| run_traffic(&self.pool, c)).collect();
            let wall_s = t0.elapsed().as_secs_f64();
            (runs.into_iter().map(|r| r.report).collect(), wall_s)
        };
        let (digest, checks) = self.judge(&reports);
        let mut counts = [PlatformCounts::default(); 3];
        for (c, r) in counts.iter_mut().zip(&reports) {
            *c = PlatformCounts::from_totals(&r.fleet.totals);
        }
        let requests: u64 = reports.iter().map(|r| r.fleet.totals.requests_ok).sum();
        Pass {
            wall_s,
            digest,
            checks,
            work: requests as f64,
            counts,
            extra,
        }
    }

    fn headline(&self) -> Headline {
        Headline::Rate("requests_per_s", "benign requests")
    }

    fn probes(&self) -> Vec<(&'static str, f64)> {
        // TrafficProfile::generate runs inside every benign instance's
        // boot; time it alone over the first platform's instance seeds.
        let config = &self.configs[0];
        let seeds: Vec<u64> = (0..self.benign[0])
            .map(|i| instance_seed(config.root_seed, i))
            .collect();
        let mut samples = Vec::new();
        for _ in 0..5 {
            let t0 = Instant::now();
            for &seed in &seeds {
                std::hint::black_box(config.profile.generate(seed));
            }
            samples.push(t0.elapsed().as_nanos() as f64 / seeds.len().max(1) as f64);
        }
        vec![("core.traffic_generate_ns", crate::measure::median(&samples))]
    }
}

/// The E18 default profile on one platform's third of the fleet.
fn tenant_config(platform: Platform, root_seed: u64, scale: Scale) -> TrafficConfig {
    let instances = match scale {
        Scale::Full => INSTANCES_PER_PLATFORM,
        Scale::Small => 24,
    };
    let mut config = TrafficConfig::new(platform, instances, super::WORKERS);
    config.root_seed = root_seed;
    config.attacker_fraction = ATTACKER_FRACTION;
    if scale == Scale::Small {
        config.profile.duration = SimDuration::from_secs(60);
        config.horizon = SimDuration::from_secs(130);
        config.attacker_fraction = 0.2;
        config.attack_run.warmup = SimDuration::from_secs(60);
        config.attack_run.window = SimDuration::from_secs(120);
        config.attack_run.cooldown = SimDuration::from_secs(30);
    }
    config
}
