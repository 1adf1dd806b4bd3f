//! # bas-bench — experiment binaries and benchmarks
//!
//! One binary per paper artifact (see `DESIGN.md`'s experiment index):
//!
//! | binary | artifact |
//! |---|---|
//! | `exp_scenario_baseline` | E1 — Fig. 2 temperature-control time series |
//! | `exp_fig3_acm` | E2 — Fig. 3 ACM worked example |
//! | `exp_attack_matrix` | E3–E6 — §IV-D attack outcomes, paper-vs-measured |
//! | `exp_physical_impact` | E7 — physical safety metrics per attack |
//! | `exp_ipc_overhead` | E8 — microkernel-vs-monolithic IPC cost |
//! | `exp_aadl_pipeline` | E9 — AADL → per-platform policy artifacts |
//! | `exp_capdl_verify` | E10 — CapDL spec-vs-live-system audit |
//! | `exp_ablation_acm` | A1 — ACM enforcement ablation |
//! | `exp_ablation_caps` | A2 — capability over-grant ablation |
//! | `exp_alarm_latency` | E11 — alarm-latency distribution |
//! | `exp_cost_sensitivity` | E8b — context-switch cost sweep |
//! | `exp_recovery` | A3 — driver-crash recovery on all three platforms |
//! | `exp_policy_audit` | E12 — static policy audit: predicted matrix + lint |
//! | `exp_fleet_scale` | E13 — fleet scaling: N buildings × worker threads |
//! | `exp_model_check` | E14 — bounded model checking + counterexample replay |
//! | `exp_fault_campaign` | E16 — fault campaign: plans × platforms scorecard |
//! | `exp_cap_flow` | E17 — capability-flow analyzer vs model checker differential |
//! | `exp_traffic` | E18 — multi-tenant traffic front-end under attack mix |
//! | `exp_cap_races` | E19 — capability-churn races: detector vs checker vs static leaks |
//!
//! Every binary drives a [`Harness`], which owns the shared experiment
//! plumbing: flag parsing (`--quick`, `--json`, `--platform`), platform
//! iteration, scenario construction through the `PlatformKernel` trait,
//! and table/JSON emission. The binaries keep only experiment-specific
//! logic.
//!
//! Criterion benches (`benches/`): `ipc` (round-trip cost per platform),
//! `micro` (ACM/CSpace/mq/plant primitives), `scenario` (end-to-end
//! simulation throughput).

use std::path::PathBuf;

use bas_core::engine::PlatformKernel;
use bas_core::scenario::{Platform, Scenario, ScenarioConfig};
use bas_core::{boot_platform, ScenarioEngine};
use bas_fleet::{Json, JsonWriter};

/// Shared plumbing for every `exp_*` binary.
///
/// Construct one with [`Harness::new`] at the top of `main`; it parses
/// the process arguments once:
///
/// - `--quick` — smoke-test mode (CI): shrink iteration counts via
///   [`Harness::scale`] / [`Harness::quick`], keep every assertion.
/// - `--json` — additionally write `BENCH_<name>.json` via
///   [`Harness::emit_json`].
/// - `--platform linux|minix|sel4` — restrict [`Harness::platforms`].
/// - `--workers N` — worker threads for parallel experiments
///   ([`Harness::workers`]; defaults to the available cores).
/// - `--state-budget N` — state cap for model-checking experiments
///   ([`Harness::state_budget`]).
///
/// A malformed `--platform`, or a `--workers` or `--state-budget` value
/// that is not a positive integer, exits with status 2.
pub struct Harness {
    name: &'static str,
    quick: bool,
    json: bool,
    platform_filter: Option<Platform>,
    workers: usize,
    state_budget: Option<usize>,
}

impl Harness {
    /// Parses the process arguments. `name` becomes the JSON file stem.
    pub fn new(name: &'static str) -> Harness {
        let args: Vec<String> = std::env::args().collect();
        Harness::parse(name, &args).unwrap_or_else(|e| {
            eprintln!("{e}");
            std::process::exit(2);
        })
    }

    /// Parses `args` (flags in any order, program name allowed).
    ///
    /// # Errors
    ///
    /// Returns a message naming the flag when `--platform` is not one of
    /// `linux|minix|sel4`, or when `--workers` or `--state-budget` lacks
    /// a positive integer value.
    fn parse(name: &'static str, args: &[String]) -> Result<Harness, String> {
        let platform_filter = match flag_value(args, "--platform") {
            None => None,
            Some(Some("linux")) => Some(Platform::Linux),
            Some(Some("minix")) => Some(Platform::Minix),
            Some(Some("sel4")) => Some(Platform::Sel4),
            Some(other) => {
                return Err(format!(
                    "unknown platform {other:?}; expected linux|minix|sel4"
                ))
            }
        };
        let workers = match positive_arg(args, "--workers")? {
            Some(n) => n,
            None => std::thread::available_parallelism().map_or(1, |n| n.get()),
        };
        Ok(Harness {
            name,
            quick: args.iter().any(|a| a == "--quick"),
            json: args.iter().any(|a| a == "--json"),
            platform_filter,
            workers,
            state_budget: positive_arg(args, "--state-budget")?,
        })
    }

    /// True when `--quick` was passed.
    pub fn quick(&self) -> bool {
        self.quick
    }

    /// True when `--json` was passed.
    pub fn json(&self) -> bool {
        self.json
    }

    /// `full` normally, `quick` under `--quick`.
    pub fn scale(&self, full: u64, quick: u64) -> u64 {
        if self.quick {
            quick
        } else {
            full
        }
    }

    /// The platform filter, if `--platform` was passed.
    pub fn platform_filter(&self) -> Option<Platform> {
        self.platform_filter
    }

    /// Worker threads for parallel experiments: `--workers N`, else the
    /// available cores (at least 1).
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The model-checking state cap from `--state-budget N`, if passed.
    pub fn state_budget(&self) -> Option<usize> {
        self.state_budget
    }

    /// The platforms this run covers, in canonical matrix order.
    pub fn platforms(&self) -> Vec<Platform> {
        [Platform::Linux, Platform::Minix, Platform::Sel4]
            .into_iter()
            .filter(|p| self.platform_filter.is_none_or(|f| f == *p))
            .collect()
    }

    /// Boots the default scenario stack for `platform` — the one-liner
    /// replacing the per-binary three-way `build_*` match.
    pub fn build(&self, platform: Platform, config: &ScenarioConfig) -> Box<dyn Scenario> {
        boot_platform(platform, config)
    }

    /// Boots a *typed* stack with experiment-specific overrides, through
    /// the same [`PlatformKernel`] trait the generic path uses. For
    /// experiments that must reach into the stack (CapDL audits, crash
    /// injection, attacker processes).
    pub fn build_stack<K: PlatformKernel>(
        &self,
        config: &ScenarioConfig,
        overrides: K::Overrides,
    ) -> ScenarioEngine<K> {
        ScenarioEngine::boot(config, overrides)
    }

    /// Writes `BENCH_<name>.json` in the current directory when `--json`
    /// was passed; returns the path if written.
    pub fn emit_json(&self, value: &Json) -> Option<PathBuf> {
        if !self.json {
            return None;
        }
        Some(self.write_json(value))
    }

    /// Unconditionally writes `BENCH_<name>.json` in the current
    /// directory (for experiments whose artifact *is* the JSON).
    pub fn write_json(&self, value: &Json) -> PathBuf {
        self.write_json_with(|w| w.json(value))
    }

    /// Like [`Harness::write_json`], for experiments that stream their
    /// document through the writer: `body` writes one top-level value.
    pub fn write_json_with(&self, body: impl FnOnce(&mut JsonWriter)) -> PathBuf {
        let mut w = JsonWriter::new();
        body(&mut w);
        let path = PathBuf::from(format!("BENCH_{}.json", self.name));
        std::fs::write(&path, w.finish()).expect("write benchmark JSON");
        println!("\nwrote {}", path.display());
        path
    }
}

/// The value after `flag`: `None` when the flag is absent, `Some(None)`
/// when it ends the argument list.
fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<Option<&'a str>> {
    let idx = args.iter().position(|a| a == flag)?;
    Some(args.get(idx + 1).map(String::as_str))
}

/// The value after `flag` as a positive integer, `None` when the flag is
/// absent.
fn positive_arg(args: &[String], flag: &str) -> Result<Option<usize>, String> {
    match flag_value(args, flag) {
        None => Ok(None),
        Some(value) => match value.map(str::parse::<usize>) {
            Some(Ok(n)) if n > 0 => Ok(Some(n)),
            _ => Err(format!(
                "{flag} expects a positive integer, got {}",
                value.map_or("nothing".to_string(), |v| format!("{v:?}"))
            )),
        },
    }
}

/// Prints a section header.
pub fn section(title: &str) {
    println!();
    println!("=== {title} ===");
}

/// Prints a horizontal rule sized to typical table width.
pub fn rule() {
    println!("{}", "-".repeat(100));
}

/// Formats a boolean as a fixed-width verdict.
pub fn verdict(b: bool, yes: &str, no: &str) -> String {
    if b {
        yes.to_string()
    } else {
        no.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Harness, String> {
        let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        Harness::parse("test", &args)
    }

    #[test]
    fn flags_parse_in_any_order() {
        let h = parse(&[
            "exp",
            "--state-budget",
            "500000",
            "--quick",
            "--workers",
            "3",
        ])
        .expect("valid flags");
        assert!(h.quick() && !h.json());
        assert_eq!(h.workers(), 3);
        assert_eq!(h.state_budget(), Some(500_000));
        assert_eq!(h.platform_filter(), None);

        let h = parse(&["exp", "--platform", "sel4"]).expect("valid platform");
        assert_eq!(h.platforms(), vec![Platform::Sel4]);
        assert_eq!(h.state_budget(), None);
        assert!(h.workers() >= 1, "defaults to the available cores");
    }

    #[test]
    fn malformed_values_are_rejected() {
        for args in [
            &["--workers", "abc"][..],
            &["--workers", "0"],
            &["--workers"],
            &["--state-budget", "many"],
            &["--state-budget", "0"],
            &["--state-budget", "-5"],
            &["--platform", "windows"],
            &["--platform"],
        ] {
            let err = parse(args)
                .err()
                .unwrap_or_else(|| panic!("{args:?} accepted"));
            assert!(
                err.contains(args[0].trim_start_matches('-')),
                "{args:?}: {err}"
            );
        }
    }
}
