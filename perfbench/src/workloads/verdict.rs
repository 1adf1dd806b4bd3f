//! `verdict_matrix`: the paper's three-way security verdict over all 54
//! (platform × attacker × attack) cells — static taint prediction, the
//! bounded model checker and the dynamic attack run — plus the
//! 21-scenario capability-churn catalog (run, detect, minimize).

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

use bas_analysis::mc::{
    check_cell, check_cells, matrix_cells, CellReport, ExploreOpts, ScenarioModel,
};
use bas_analysis::races::{churn_scenarios, detect, minimize, run_scenario, ChurnScenario};
use bas_analysis::scenario::predicted_matrix;
use bas_analysis::taint::{expectation, predict};
use bas_attack::expectations::{paper_expectation, Expectation};
use bas_attack::harness::{run_attack, AttackRunConfig};
use bas_attack::model::{AttackId, AttackerModel};
use bas_core::platform::linux::UidScheme;
use bas_core::scenario::Platform;
use bas_fleet::run_cells;
use bas_sim::metrics::KernelMetrics;

use super::{key, Checks, Headline, Inject, Pass, PlatformCounts, Scale, Workload, PLATFORMS};
use crate::measure::{derive_seed, Digest};
use crate::trace::{SpanId, Tracer};

/// The paper's Linux account setup for every cell.
const SCHEME: UidScheme = UidScheme::SharedAccount;

type Cell = (Platform, AttackerModel, AttackId);

/// One cell's static and model-checker outcome.
struct CellOut {
    cell: Cell,
    predicted: Expectation,
    report: CellReport,
}

/// One cell's dynamic attack run.
struct AttackOut {
    mechanism_succeeded: bool,
    compromised: bool,
    critical_alive: bool,
    metrics: KernelMetrics,
    sim_seconds: f64,
}

/// One churn scenario: its trace size, races and minimized witnesses.
struct ScenarioOut {
    events: usize,
    kinds: BTreeSet<&'static str>,
    rendered: String,
    witnesses_confirmed: bool,
}

/// The prepared workload.
pub struct VerdictMatrix {
    cells: Vec<Cell>,
    runs: Vec<AttackRunConfig>,
    catalog: Vec<ChurnScenario>,
    opts: ExploreOpts,
    inject: Option<Inject>,
}

fn attack_out(cell: Cell, run: &AttackRunConfig) -> AttackOut {
    let (platform, attacker, attack) = cell;
    let o = run_attack(platform, attacker, attack, run);
    AttackOut {
        mechanism_succeeded: o.mechanism.succeeded(),
        compromised: o.compromised(),
        critical_alive: o.critical_alive,
        metrics: o.metrics,
        sim_seconds: (run.warmup + run.window + run.cooldown).as_secs_f64(),
    }
}

impl VerdictMatrix {
    fn scenario_out(sc: &ChurnScenario, tracer: &Tracer, unit: u64) -> ScenarioOut {
        let tag = key(sc.platform);
        let trace = tracer.span("analysis.races.run", tag, unit, SpanId::NONE, |_| {
            run_scenario(sc)
        });
        let races = tracer.span("analysis.races.detect", tag, unit, SpanId::NONE, |_| {
            detect(&trace)
        });
        let witnesses = tracer.span("analysis.races.minimize", tag, unit, SpanId::NONE, |_| {
            races.iter().map(|r| minimize(sc, r)).collect::<Vec<_>>()
        });
        let mut rendered = format!("{} {} {}", sc.name, trace.events.len(), trace.edges.len());
        for r in &races {
            let _ = write!(
                rendered,
                " race({},{},{},{},{},{:?},{},{:?},{:?},{:?})",
                r.kind.code(),
                r.cap,
                r.object,
                r.subject,
                r.write_actor,
                r.write_op,
                r.write_seq,
                r.use_seq,
                r.check_seq,
                r.other_write_seq
            );
        }
        for w in &witnesses {
            let _ = write!(
                rendered,
                " witness({},{},{},{},{})",
                w.kind.code(),
                w.cap,
                w.schedule.len(),
                w.dropped,
                w.replay_confirmed
            );
        }
        ScenarioOut {
            events: trace.events.len(),
            kinds: races.iter().map(|r| r.kind.code()).collect(),
            rendered,
            witnesses_confirmed: witnesses.iter().all(|w| w.replay_confirmed),
        }
    }

    fn judge(
        &self,
        cells: &mut [CellOut],
        attacks: &[AttackOut],
        scenarios: &[ScenarioOut],
    ) -> (Digest, Checks) {
        let mut digest = Digest::new();
        for (c, a) in cells.iter().zip(attacks) {
            let r = &c.report;
            let s = &r.stats;
            let cx = r.counterexample.as_ref().map_or(String::new(), |cx| {
                let steps: Vec<String> = cx.trace.iter().map(|a| a.to_string()).collect();
                format!("{}:{}", cx.property, steps.join(";"))
            });
            let line = format!(
                "{} {} {} static={:?} mc={:?} paper={:?} taint={:?} states={} transitions={} \
                 depth={} ample={} truncated={} reached={:#x} cx={} mech={} compromised={} \
                 alive={} metrics={}\n",
                c.cell.0,
                c.cell.1,
                c.cell.2,
                c.predicted,
                r.mc,
                r.paper,
                r.taint,
                s.states,
                s.transitions,
                s.max_depth,
                s.ample_states,
                s.truncated,
                r.reached,
                cx,
                a.mechanism_succeeded,
                a.compromised,
                a.critical_alive,
                a.metrics,
            );
            digest.update(line.as_bytes());
        }
        for s in scenarios {
            digest.update(s.rendered.as_bytes());
            digest.update(b"\n");
        }

        if self.inject == Some(Inject::Verdict) {
            if let Some(c) = cells.first_mut() {
                c.report.mc = match c.report.mc {
                    Expectation::Compromised => Expectation::Stopped,
                    _ => Expectation::Compromised,
                };
            }
        }
        let mut checks = Checks::default();
        for (c, a) in cells.iter().zip(attacks) {
            let r = &c.report;
            let (platform, attacker, attack) = c.cell;
            let paper = paper_expectation(platform, attacker, attack);
            let dynamic = match paper {
                Expectation::Compromised => a.compromised,
                Expectation::Stopped => !a.compromised && !a.mechanism_succeeded,
                Expectation::ResourceExhaustionOnly => !a.compromised && a.mechanism_succeeded,
            };
            let ok = r.agrees()
                && r.paper == paper
                && c.predicted == paper
                && !r.stats.truncated
                && !r.invariant_violated()
                && dynamic;
            checks.expect(ok, || {
                format!(
                    "{platform} / {attacker} / {attack}: static={:?} mc={:?} taint={:?} \
                     paper={paper:?} dynamic-agrees={dynamic} truncated={}",
                    c.predicted, r.mc, r.taint, r.stats.truncated
                )
            });
        }
        for (sc, s) in self.catalog.iter().zip(scenarios) {
            let expected: BTreeSet<&'static str> = sc.expect.iter().map(|k| k.code()).collect();
            checks.expect(s.kinds == expected && s.witnesses_confirmed, || {
                format!(
                    "{}: races {:?}, expected {:?}, witnesses confirmed: {}",
                    sc.name, s.kinds, expected, s.witnesses_confirmed
                )
            });
        }
        (digest, checks)
    }
}

impl Workload for VerdictMatrix {
    fn setup(seed: u64, scale: Scale, inject: Option<Inject>) -> VerdictMatrix {
        let mut cells = matrix_cells(&[Platform::Linux, Platform::Minix, Platform::Sel4]);
        let mut catalog = churn_scenarios();
        if scale == Scale::Small {
            cells.retain(|c| c.2 == AttackId::SpoofSensorData || c.2 == AttackId::ForkBomb);
            catalog.retain(|sc| sc.platform == Platform::Minix);
        }
        // Lower every cell's policy once up front: a cell whose policy
        // does not lower fails here, before any pass.
        for &(platform, attacker, attack) in &cells {
            std::hint::black_box(ScenarioModel::new(platform, attacker, attack, SCHEME));
        }
        let runs = (0..cells.len())
            .map(|i| {
                let mut run = AttackRunConfig::default();
                run.scenario.seed = derive_seed(seed, 100 + i as u64);
                run
            })
            .collect();
        VerdictMatrix {
            cells,
            runs,
            catalog,
            opts: ExploreOpts::default(),
            inject,
        }
    }

    fn pass(&self, workers: usize, tracer: &Arc<Tracer>) -> Pass {
        let t0 = Instant::now();
        let (mut cells, attacks, scenarios) = if tracer.enabled() {
            let cells = run_cells(self.cells.len(), workers, |i| {
                let cell = self.cells[i];
                let (platform, attacker, attack) = cell;
                let tag = key(platform);
                let unit = i as u64;
                let model = tracer.span("analysis.lower", tag, unit, SpanId::NONE, |_| {
                    ScenarioModel::new(platform, attacker, attack, SCHEME)
                });
                let predicted = tracer.span("analysis.taint", tag, unit, SpanId::NONE, |_| {
                    expectation(&predict(model.ir(), attack))
                });
                let report = tracer.span("analysis.mc.cell", tag, unit, SpanId::NONE, |_| {
                    check_cell(&model, &self.opts)
                });
                CellOut {
                    cell,
                    predicted,
                    report,
                }
            });
            let attacks = run_cells(self.cells.len(), workers, |i| {
                let cell = self.cells[i];
                tracer.span(
                    "attack.session",
                    key(cell.0),
                    i as u64,
                    SpanId::NONE,
                    |_| attack_out(cell, &self.runs[i]),
                )
            });
            let base = self.cells.len() as u64;
            let scenarios = run_cells(self.catalog.len(), workers, |j| {
                Self::scenario_out(&self.catalog[j], tracer, base + j as u64)
            });
            (cells, attacks, scenarios)
        } else {
            let predicted = predicted_matrix(SCHEME);
            let reports = check_cells(&self.cells, SCHEME, &self.opts, workers);
            let cells: Vec<CellOut> = self
                .cells
                .iter()
                .zip(reports)
                .map(|(&cell, report)| {
                    let p = predicted
                        .iter()
                        .find(|p| (p.platform, p.attacker, p.attack) == cell)
                        .expect("the predicted matrix covers every cell");
                    CellOut {
                        cell,
                        predicted: expectation(&p.verdict),
                        report,
                    }
                })
                .collect();
            let attacks = run_cells(self.cells.len(), workers, |i| {
                attack_out(self.cells[i], &self.runs[i])
            });
            let scenarios = run_cells(self.catalog.len(), workers, |j| {
                Self::scenario_out(&self.catalog[j], tracer, 0)
            });
            (cells, attacks, scenarios)
        };
        let wall_s = t0.elapsed().as_secs_f64();

        let mut counts = [PlatformCounts::default(); 3];
        for ((platform, _, _), a) in self.cells.iter().zip(&attacks) {
            let i = PLATFORMS
                .iter()
                .position(|p| p == platform)
                .expect("cells are on the three platforms");
            counts[i].add(&a.metrics, a.sim_seconds);
        }
        let mut extra = BTreeMap::new();
        if tracer.enabled() {
            let stats = cells.iter().map(|c| c.report.stats);
            let states: usize = stats.clone().map(|s| s.states).sum();
            let ample: usize = stats.map(|s| s.ample_states).sum();
            extra.insert("analysis.mc.states", states as f64);
            extra.insert("analysis.mc.ample_states", ample as f64);
            let events: usize = scenarios.iter().map(|s| s.events).sum();
            extra.insert("analysis.races.events", events as f64);
            let denied: u64 = attacks.iter().map(|a| a.metrics.access_denied).sum();
            extra.insert("attack.access_denied", denied as f64);
        }
        let (digest, checks) = self.judge(&mut cells, &attacks, &scenarios);
        Pass {
            wall_s,
            digest,
            checks,
            work: (self.cells.len() + self.catalog.len()) as f64,
            counts,
            extra,
        }
    }

    fn headline(&self) -> Headline {
        Headline::Seconds("verdict_s")
    }
}
