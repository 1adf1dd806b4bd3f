//! E14 + E15: bounded explicit-state model checking of the attack
//! matrix, and the scaling of its parallel exploration.
//!
//! Where E3–E6 *run* each matrix cell on one schedule, E14 *proves* it:
//! every interleaving of the five processes and the attacker's
//! primitives is explored to the bounded horizon, each operation
//! dual-adjudicated by the Policy IR and the kernel artifacts. The
//! experiment reports per-cell verdicts against the paper table and the
//! taint analyzer, the partial-order-reduction factor at equal depth,
//! and minimized counterexample traces — each replayed through the real
//! dynamic engine to confirm the violation manifests.
//!
//! E15 measures the two parallel axes introduced with the sharded
//! explorer: cell-level sweep scaling (the 54 cells across a worker
//! pool) and layer-level BFS scaling inside a single cell (workers ×
//! {POR on, POR off}), asserting byte-identical verdicts at every
//! worker count.
//!
//! Run:
//! `cargo run --release -p bas-bench --bin exp_model_check [-- --quick] [-- --json] [-- --workers N] [-- --state-budget N]`
//!
//! Exits nonzero if any cell disagrees, any exploration truncates, an
//! internal invariant (gate mismatch / quota breach) is reachable, any
//! parallel run diverges from the sequential one, or a counterexample
//! fails to replay dynamically.

use std::time::Instant;

use bas_analysis::mc::{
    check_cell, check_cells, matrix_cells, replay_counterexample, CellReport, ExploreOpts,
    ExploreStats, McAction, ScenarioModel,
};
use bas_attack::expectations::Expectation;
use bas_attack::{AttackId, AttackerModel};
use bas_bench::{rule, section, verdict, Harness};
use bas_core::platform::linux::UidScheme;
use bas_core::scenario::Platform;
use bas_fleet::Json;

fn expectation_str(e: Expectation) -> &'static str {
    match e {
        Expectation::Compromised => "Compromised",
        Expectation::ResourceExhaustionOnly => "ResourceOnly",
        Expectation::Stopped => "Stopped",
    }
}

fn cell_json(r: &CellReport, scheme: UidScheme) -> Json {
    Json::obj(vec![
        ("platform", Json::Str(r.platform.to_string())),
        ("attacker", Json::Str(r.attacker.to_string())),
        ("attack", Json::Str(r.attack.to_string())),
        ("uid_scheme", Json::Str(format!("{scheme:?}"))),
        ("mc", Json::Str(expectation_str(r.mc).into())),
        ("paper", Json::Str(expectation_str(r.paper).into())),
        ("taint", Json::Str(expectation_str(r.taint).into())),
        ("agrees", Json::Bool(r.agrees())),
        ("states", Json::UInt(r.stats.states as u64)),
        ("transitions", Json::UInt(r.stats.transitions as u64)),
        ("max_depth", Json::UInt(r.stats.max_depth as u64)),
        ("ample_states", Json::UInt(r.stats.ample_states as u64)),
        ("truncated", Json::Bool(r.stats.truncated)),
        ("invariant_violated", Json::Bool(r.invariant_violated())),
        (
            "counterexample",
            match &r.counterexample {
                None => Json::Null,
                Some(cx) => Json::obj(vec![
                    ("property", Json::Str(cx.property.to_string())),
                    (
                        "trace",
                        Json::Arr(cx.trace.iter().map(|a| Json::Str(a.to_string())).collect()),
                    ),
                ]),
            },
        ),
    ])
}

fn main() {
    let h = Harness::new("mc");
    let scheme = UidScheme::SharedAccount;
    // Per-cell layer parallelism stays off by default: the matrix
    // parallelizes at the cell boundary (54 independent explorations),
    // which scales without barriers, while intra-cell layer-BFS is
    // bounded by per-layer width and loses outright when workers
    // oversubscribe the machine. E15b below measures it honestly at
    // each worker count; the JSON carries the default so downstream
    // dashboards don't assume layer parallelism contributed.
    let opts = ExploreOpts {
        use_por: true,
        state_budget: h.state_budget().unwrap_or(2_000_000),
        workers: 1,
    };
    let sweep_workers = h.workers();
    let mut failures = 0usize;
    let mut cells_json = Vec::new();

    section(&format!(
        "bounded model checking: 7 rounds, response bound k=4, attacker budget 6, \
         state budget {} (POR on), {sweep_workers} sweep worker(s)",
        opts.state_budget
    ));
    println!(
        "{:<8} {:<12} {:<22} {:<13} {:<13} {:<13} {:>8} {:>6} {:>6}  agrees?",
        "platform",
        "attacker",
        "attack",
        "mc-verdict",
        "paper",
        "taint",
        "states",
        "depth",
        "ample",
    );
    rule();

    let cells = matrix_cells(&h.platforms());
    let sweep_start = Instant::now();
    let reports = check_cells(&cells, scheme, &opts, sweep_workers);
    let wall_seconds = sweep_start.elapsed().as_secs_f64();
    for r in &reports {
        let ok = r.agrees() && !r.stats.truncated && !r.invariant_violated();
        failures += usize::from(!ok);
        println!(
            "{:<8} {:<12} {:<22} {:<13} {:<13} {:<13} {:>8} {:>6} {:>6}  {}",
            r.platform.to_string(),
            r.attacker.to_string(),
            r.attack.to_string(),
            expectation_str(r.mc),
            expectation_str(r.paper),
            expectation_str(r.taint),
            r.stats.states,
            r.stats.max_depth,
            r.stats.ample_states,
            if ok { "yes" } else { "** NO **" },
        );
        cells_json.push(cell_json(r, scheme));
    }
    rule();
    let agreed = reports.iter().filter(|r| r.agrees()).count();
    let exhaustive = reports.iter().filter(|r| !r.stats.truncated).count();
    let total_states: usize = reports.iter().map(|r| r.stats.states).sum();
    let states_per_second = total_states as f64 / wall_seconds.max(1e-9);
    let bytes_per_state = ExploreStats::bytes_per_state::<McAction>();
    println!(
        "three-way agreement (checker == paper == taint): {agreed}/{} cells, \
         {exhaustive}/{} proved exhaustively at the bound",
        reports.len(),
        reports.len()
    );
    println!(
        "sweep: {total_states} states in {:.3}s ({:.0} states/s, {sweep_workers} worker(s)); \
         store: {bytes_per_state} B/state (node + fingerprint, depth-independent)",
        wall_seconds, states_per_second
    );

    // ----------------------------------------------------------------
    // E15a: cell-sweep scaling. Full mode re-runs the matrix strictly
    // sequentially to measure the parallel speedup on this machine;
    // quick mode (CI) keeps the single parallel run.
    // ----------------------------------------------------------------
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut sweep_speedup = Json::Null;
    if !h.quick() && sweep_workers > 1 {
        section("E15a: cell-sweep scaling (54 cells across the worker pool)");
        let seq_start = Instant::now();
        let seq_reports = check_cells(&cells, scheme, &opts, 1);
        let seq_wall = seq_start.elapsed().as_secs_f64();
        let identical = seq_reports
            .iter()
            .zip(&reports)
            .all(|(a, b)| a.mc == b.mc && a.stats == b.stats && a.reached == b.reached);
        failures += usize::from(!identical);
        let speedup = seq_wall / wall_seconds.max(1e-9);
        println!(
            "sequential: {seq_wall:.3}s   {sweep_workers} workers: {wall_seconds:.3}s   \
             speedup {speedup:.2}x   reports {}",
            if identical {
                "identical"
            } else {
                "** DIVERGED **"
            }
        );
        // The ≥3x claim needs real cores; on a small host the sweep
        // still runs (and determinism still holds), but the wall-clock
        // assertion would be meaningless.
        if cores >= 4 && sweep_workers >= 4 {
            if speedup < 3.0 {
                println!("** expected >=3x sweep speedup at >=4 workers on {cores} cores **");
                failures += 1;
            } else {
                println!("speedup check: {speedup:.2}x on {cores} cores (>=3x required) — OK");
            }
        } else {
            println!("speedup check skipped ({cores} core(s), {sweep_workers} worker(s))");
        }
        sweep_speedup = Json::obj(vec![
            ("sequential_wall_seconds", Json::Num(seq_wall)),
            ("parallel_wall_seconds", Json::Num(wall_seconds)),
            ("speedup", Json::Num(speedup)),
            ("reports_identical", Json::Bool(identical)),
        ]);
    }

    // ----------------------------------------------------------------
    // E15b: layer-parallel BFS inside one cell, workers × {POR on/off}.
    // Verdict/counter equality at every worker count is asserted; the
    // speedup column is informational (layer barriers bound it by the
    // width of each layer).
    // ----------------------------------------------------------------
    section("E15b: layer-parallel exploration (single cell, workers x POR)");
    let bfs_cells: &[(Platform, AttackId)] = if h.quick() {
        &[(Platform::Linux, AttackId::SpoofActuatorCommands)]
    } else {
        &[
            (Platform::Linux, AttackId::SpoofActuatorCommands),
            (Platform::Minix, AttackId::FloodLegitChannel),
            (Platform::Sel4, AttackId::ReplaySetpoint),
        ]
    };
    let worker_counts: &[usize] = if h.quick() { &[1, 2] } else { &[1, 2, 4] };
    println!(
        "{:<8} {:<22} {:>4} {:>8} {:>10} {:>10} {:>8}  identical?",
        "platform", "attack", "por", "workers", "states", "wall[ms]", "speedup"
    );
    rule();
    let mut bfs_json = Vec::new();
    for &(platform, attack) in bfs_cells {
        let model = ScenarioModel::new(platform, AttackerModel::ArbitraryCode, attack, scheme);
        for use_por in [true, false] {
            let mut baseline: Option<(f64, CellReport)> = None;
            for &workers in worker_counts {
                let run_opts = ExploreOpts {
                    use_por,
                    state_budget: opts.state_budget,
                    workers,
                };
                let t0 = Instant::now();
                let r = check_cell(&model, &run_opts);
                let wall = t0.elapsed().as_secs_f64();
                let (identical, speedup) = match &baseline {
                    None => (true, 1.0), // workers == 1 defines the baseline
                    Some((base_wall, base)) => (
                        r.mc == base.mc && r.stats == base.stats && r.reached == base.reached,
                        base_wall / wall.max(1e-9),
                    ),
                };
                failures += usize::from(!identical);
                println!(
                    "{:<8} {:<22} {:>4} {:>8} {:>10} {:>10.1} {:>7.2}x  {}",
                    platform.to_string(),
                    attack.to_string(),
                    if use_por { "on" } else { "off" },
                    workers,
                    r.stats.states,
                    wall * 1e3,
                    speedup,
                    if identical { "yes" } else { "** NO **" },
                );
                bfs_json.push(Json::obj(vec![
                    ("platform", Json::Str(platform.to_string())),
                    ("attack", Json::Str(attack.to_string())),
                    ("por", Json::Bool(use_por)),
                    ("workers", Json::UInt(workers as u64)),
                    ("states", Json::UInt(r.stats.states as u64)),
                    ("wall_seconds", Json::Num(wall)),
                    ("speedup_vs_one_worker", Json::Num(speedup)),
                    ("identical", Json::Bool(identical)),
                ]));
                if baseline.is_none() {
                    baseline = Some((wall, r));
                }
            }
        }
    }
    rule();

    // ----------------------------------------------------------------
    // POR reduction factor: reduced vs unreduced at equal depth, with
    // verdict equivalence as the empirical soundness check.
    // ----------------------------------------------------------------
    section("partial-order reduction: reduced vs full exploration at equal depth");
    let por_cells: Vec<(Platform, AttackId)> = if h.quick() {
        vec![
            (Platform::Linux, AttackId::SpoofSensorData),
            (Platform::Minix, AttackId::FloodLegitChannel),
            (Platform::Sel4, AttackId::ReplaySetpoint),
        ]
    } else {
        let mut v = Vec::new();
        for p in [Platform::Linux, Platform::Minix, Platform::Sel4] {
            for a in [
                AttackId::SpoofSensorData,
                AttackId::KillCritical,
                AttackId::FloodLegitChannel,
                AttackId::ReplaySetpoint,
            ] {
                v.push((p, a));
            }
        }
        v
    };
    println!(
        "{:<8} {:<22} {:>10} {:>10} {:>8}  verdicts",
        "platform", "attack", "full", "reduced", "factor"
    );
    rule();
    let (mut total_full, mut total_reduced) = (0usize, 0usize);
    let mut por_json = Vec::new();
    for (platform, attack) in por_cells {
        let model = ScenarioModel::new(platform, AttackerModel::ArbitraryCode, attack, scheme);
        let reduced = check_cell(&model, &opts);
        let full = check_cell(
            &model,
            &ExploreOpts {
                use_por: false,
                ..opts
            },
        );
        let equivalent = reduced.mc == full.mc && reduced.reached == full.reached;
        let effective = reduced.stats.states < full.stats.states;
        failures += usize::from(!equivalent || !effective || full.stats.truncated);
        let factor = full.stats.states as f64 / reduced.stats.states.max(1) as f64;
        println!(
            "{:<8} {:<22} {:>10} {:>10} {:>7.2}x  {}",
            platform.to_string(),
            attack.to_string(),
            full.stats.states,
            reduced.stats.states,
            factor,
            if equivalent {
                "identical"
            } else {
                "** DIVERGED **"
            },
        );
        total_full += full.stats.states;
        total_reduced += reduced.stats.states;
        por_json.push(Json::obj(vec![
            ("platform", Json::Str(platform.to_string())),
            ("attack", Json::Str(attack.to_string())),
            ("full_states", Json::UInt(full.stats.states as u64)),
            ("reduced_states", Json::UInt(reduced.stats.states as u64)),
            ("factor", Json::Num(factor)),
            ("verdicts_identical", Json::Bool(equivalent)),
        ]));
    }
    rule();
    let overall_factor = total_full as f64 / total_reduced.max(1) as f64;
    println!(
        "overall reduction: {total_full} -> {total_reduced} states ({overall_factor:.2}x), \
         all verdicts identical"
    );

    // ----------------------------------------------------------------
    // Counterexample replay through the dynamic engine. Quick mode
    // replays the seeded Linux-DAC violations; full mode replays every
    // counterexample the matrix produced.
    // ----------------------------------------------------------------
    section("counterexample replay into the dynamic engine");
    let mut replayed = 0usize;
    let mut confirmed = 0usize;
    let mut replay_json = Vec::new();
    for r in &reports {
        let Some(cx) = &r.counterexample else {
            continue;
        };
        // The Linux DAC cells are the paper's seeded violations; quick
        // mode replays those for Linux A1 and skips the rest.
        let seeded_linux = r.platform == Platform::Linux
            && r.attacker == AttackerModel::ArbitraryCode
            && matches!(
                r.attack,
                AttackId::KillCritical | AttackId::SpoofSensorData | AttackId::DirectDeviceWrite
            );
        if h.quick() && !seeded_linux {
            continue;
        }
        let trace: Vec<String> = cx.trace.iter().map(ToString::to_string).collect();
        let result = replay_counterexample(r, scheme).expect("counterexample present");
        replayed += 1;
        confirmed += usize::from(result.confirmed);
        failures += usize::from(!result.confirmed);
        println!(
            "{:<8} {:<12} {:<22} {:<26} [{}]",
            r.platform.to_string(),
            r.attacker.to_string(),
            r.attack.to_string(),
            format!("{} ({} actions)", cx.property, cx.trace.len()),
            trace.join(", "),
        );
        println!(
            "         dynamic: {} ({})",
            if result.confirmed {
                "CONFIRMED"
            } else {
                "** NOT CONFIRMED **"
            },
            result.evidence,
        );
        replay_json.push(Json::obj(vec![
            ("platform", Json::Str(r.platform.to_string())),
            ("attacker", Json::Str(r.attacker.to_string())),
            ("attack", Json::Str(r.attack.to_string())),
            ("property", Json::Str(cx.property.to_string())),
            (
                "trace",
                Json::Arr(trace.into_iter().map(Json::Str).collect()),
            ),
            ("confirmed", Json::Bool(result.confirmed)),
            ("evidence", Json::Str(result.evidence.clone())),
        ]));
    }
    rule();
    println!("replayed {replayed} counterexample(s); {confirmed} confirmed dynamically");
    if replayed == 0 {
        // The seeded Linux-DAC violation must be demonstrable even in
        // quick mode (unless the platform filter excluded Linux).
        if h.platforms().contains(&Platform::Linux) {
            println!("** expected at least one Linux-DAC counterexample to replay **");
            failures += 1;
        }
    }

    println!(
        "verdict: {}",
        verdict(
            failures == 0,
            "model checker, paper table, taint analyzer and dynamic engine all agree",
            &format!("{failures} check(s) failed"),
        )
    );

    h.emit_json(&Json::obj(vec![
        ("schema", Json::Str("bas-model-check/v2".into())),
        ("state_budget", Json::UInt(opts.state_budget as u64)),
        ("workers", Json::UInt(sweep_workers as u64)),
        ("cores", Json::UInt(cores as u64)),
        ("wall_seconds", Json::Num(wall_seconds)),
        ("states_total", Json::UInt(total_states as u64)),
        ("states_per_second", Json::Num(states_per_second)),
        ("state_bytes_per_state", Json::UInt(bytes_per_state as u64)),
        (
            "state_store_bytes",
            Json::UInt((total_states * bytes_per_state) as u64),
        ),
        ("sweep_scaling", sweep_speedup),
        (
            "layer_parallel_default_workers",
            Json::UInt(opts.workers as u64),
        ),
        ("layer_parallel", Json::Arr(bfs_json)),
        ("cells", Json::Arr(cells_json)),
        ("por", Json::Arr(por_json)),
        ("replays", Json::Arr(replay_json)),
        ("failures", Json::UInt(failures as u64)),
    ]));

    if failures > 0 {
        std::process::exit(1);
    }
}
