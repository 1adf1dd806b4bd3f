//! Self-tests of the benchmark: the traced rebuild measures the same work
//! as the untraced pass, injected defects fail the run, and the metric
//! catalogue matches `BENCHMARK.json`.

use std::process::Command;
use std::sync::Arc;

use perfbench::bench::{run, Args, WorkloadName};
use perfbench::layers::{per_layer, END_TO_END};
use perfbench::trace::Tracer;
use perfbench::workloads::fleet::FleetSweep;
use perfbench::workloads::tenant::TenantTraffic;
use perfbench::workloads::verdict::VerdictMatrix;
use perfbench::workloads::{Inject, Scale, Workload, WORKERS};

fn traced_matches_untraced<W: Workload>() {
    let w = W::setup(7, Scale::Small, None);
    let untraced = w.pass(WORKERS, &Arc::new(Tracer::off()));
    let tracer = Arc::new(Tracer::new());
    let traced = w.pass(WORKERS, &tracer);
    let one_worker = w.pass(1, &Arc::new(Tracer::off()));
    assert_eq!(untraced.checks.failed, 0, "{:?}", untraced.checks.messages);
    assert_eq!(traced.checks.failed, 0, "{:?}", traced.checks.messages);
    assert_eq!(
        untraced.digest, traced.digest,
        "traced rebuild changed the reports"
    );
    assert_eq!(
        untraced.digest, one_worker.digest,
        "reports depend on the worker count"
    );
    let tracer = Arc::try_unwrap(tracer).unwrap_or_else(|_| panic!("tracer still shared"));
    assert!(
        !tracer.into_spans().is_empty(),
        "the traced pass recorded spans"
    );
}

#[test]
fn tenant_traffic_rebuild_reproduces_the_digest() {
    traced_matches_untraced::<TenantTraffic>();
}

#[test]
fn fleet_sweep_rebuild_reproduces_the_digest() {
    traced_matches_untraced::<FleetSweep>();
}

#[test]
fn verdict_matrix_rebuild_reproduces_the_digest() {
    traced_matches_untraced::<VerdictMatrix>();
}

fn small_args(workload: WorkloadName, inject: Option<Inject>) -> Args {
    Args {
        workload,
        seed: 3,
        seconds: 0.0,
        trace: false,
        scale: Scale::Small,
        inject,
        trace_dir: None,
    }
}

#[test]
fn corrupted_verdict_fails_the_run() {
    let outcome = run(&small_args(
        WorkloadName::VerdictMatrix,
        Some(Inject::Verdict),
    ));
    assert!(!outcome.correct);
    assert!(outcome.failed > 0);
    assert!(outcome.to_json().contains("\"correct\": false"));
}

#[test]
fn non_ok_request_fails_the_run() {
    let outcome = run(&small_args(
        WorkloadName::TenantTraffic,
        Some(Inject::Request),
    ));
    assert!(!outcome.correct);
    assert!(outcome.failed > 0);
}

#[test]
fn clean_small_run_is_correct_and_reports_every_metric() {
    let outcome = run(&small_args(WorkloadName::TenantTraffic, None));
    assert!(outcome.correct);
    let names: Vec<&str> = outcome.metrics.iter().map(|m| m.0.as_str()).collect();
    let expected: Vec<&str> = END_TO_END.iter().map(|m| m.0).collect();
    assert_eq!(names, expected);
    assert!(
        outcome.metrics.iter().all(|m| m.1 > 0.0),
        "{:?}",
        outcome.metrics
    );
}

#[test]
fn command_exits_non_zero_on_a_failed_check() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            "verdict_matrix",
            "--seed",
            "1",
            "--seconds",
            "0",
            "--trace",
            "0",
            "--small",
            "--inject",
            "verdict",
        ])
        .output()
        .expect("run the benchmark binary");
    assert!(!out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().expect("a result line");
    assert!(
        last.starts_with('{') && last.contains("\"correct\": false"),
        "{last}"
    );
}

#[test]
fn command_rejects_bad_arguments() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .expect("run the benchmark binary");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}

#[test]
fn benchmark_json_names_every_metric() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let spec = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
    let layers = per_layer();
    let mut seen = std::collections::BTreeSet::new();
    for (name, unit) in END_TO_END
        .iter()
        .map(|(n, u)| (n.to_string(), *u))
        .chain(layers)
    {
        assert!(seen.insert(name.clone()), "{name} listed twice");
        let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(spec.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    assert_eq!(
        spec.matches("\"name\": ").count(),
        seen.len() + 3,
        "3 workloads plus metrics"
    );
}
