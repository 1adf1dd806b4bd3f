//! Command line: `perfbench --workload <name> --seed <n> --seconds <s>
//! --trace <0|1> [--trace-dir <dir>]`. Prints human-readable lines, then
//! one JSON result as the last line of standard output; exits non-zero
//! when any correctness check fails.

use std::path::PathBuf;
use std::process::ExitCode;

use perfbench::bench::{run, Args, WorkloadName};
use perfbench::workloads::{Inject, Scale};

fn usage(msg: &str) -> ExitCode {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload tenant_traffic|fleet_sweep|verdict_matrix --seed <n> \
         --seconds <s> --trace <0|1> [--trace-dir <dir>] [--small] [--inject verdict|request]"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut trace_dir = None;
    let mut scale = Scale::Full;
    let mut inject = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().map(String::as_str);
        match flag.as_str() {
            "--workload" => workload = value().and_then(WorkloadName::parse),
            "--seed" => seed = value().and_then(|v| v.parse::<u64>().ok()),
            "--seconds" => {
                seconds = value()
                    .and_then(|v| v.parse::<f64>().ok())
                    .filter(|s| s.is_finite() && *s >= 0.0)
            }
            "--trace" => {
                trace = match value() {
                    Some("0") => Some(false),
                    Some("1") => Some(true),
                    _ => None,
                }
            }
            "--trace-dir" => trace_dir = value().map(PathBuf::from),
            "--small" => scale = Scale::Small,
            "--inject" => {
                inject = match value() {
                    Some("verdict") => Some(Inject::Verdict),
                    Some("request") => Some(Inject::Request),
                    _ => return usage("--inject takes verdict or request"),
                }
            }
            other => return usage(&format!("unknown argument {other}")),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        return usage("--workload, --seed, --seconds and --trace are required");
    };
    let args = Args {
        workload,
        seed,
        seconds,
        trace,
        scale,
        inject,
        trace_dir,
    };
    let outcome = run(&args);
    for line in &outcome.lines {
        println!("{line}");
    }
    println!("{}", outcome.to_json());
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
