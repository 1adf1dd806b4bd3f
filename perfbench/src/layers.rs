//! The metric catalogue and the per-layer figures of a traced pass.

use std::collections::BTreeMap;

use bas_core::scenario::ScenarioConfig;

use crate::measure::{median, quantile};
use crate::trace::Trace;
use crate::units::UnitCosts;
use crate::workloads::{key, Pass, PLATFORMS};

/// End-to-end metrics of an untraced run: name and unit.
pub const END_TO_END: [(&str, &str); 3] =
    [("setup_s", "s"), ("peak_rss_mb", "MB"), ("pass_s", "s")];

/// Kernel counters reported per platform.
pub const KERNEL_COUNTS: [&str; 7] = [
    "ipc_messages",
    "kernel_entries",
    "context_switches",
    "ipc_bytes",
    "ipc_waits",
    "access_denied",
    "hot_path_allocs",
];

/// Per-layer metrics of a traced run: name and unit, in report order.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = [
        ("fleet.advance_s", "s"),
        ("fleet.epochs", "count"),
        ("fleet.checkout_ns", "ns"),
        ("fleet.recycle_ratio", "ratio"),
        ("fleet.finish_ns", "ns"),
        ("fleet.aggregate_s", "s"),
        ("fleet.render_s", "s"),
        ("fleet.report_bytes", "bytes"),
        ("fleet.worker_util_min", "ratio"),
        ("fleet.wait_s", "s"),
        ("core.snapshot_capture_s", "s"),
        ("core.traffic_generate_ns", "ns"),
    ]
    .into_iter()
    .map(|(n, u)| (n.to_string(), u))
    .collect();
    for p in PLATFORMS {
        let p = key(p);
        out.push((format!("kernel.{p}.advance_s"), "s"));
        out.push((format!("kernel.{p}.ns_per_msg"), "ns"));
        for c in KERNEL_COUNTS {
            out.push((format!("kernel.{p}.{c}"), "count"));
        }
    }
    for (n, u) in [
        ("acm.check_ns", "ns"),
        ("sel4.cspace_lookup_ns", "ns"),
        ("linux.mq_push_pop_ns", "ns"),
        ("sim.arena_alloc_free_ns", "ns"),
        ("minix.sendrec_ns", "ns"),
        ("sel4.call_reply_ns", "ns"),
        ("linux.mq_roundtrip_ns", "ns"),
        ("plant.step_ns", "ns"),
        ("core.proto_roundtrip_ns", "ns"),
    ] {
        out.push((n.to_string(), u));
    }
    for p in PLATFORMS {
        out.push((format!("layer_model.{}.residual_share", key(p)), "ratio"));
    }
    for (n, u) in [
        ("attack.session_ms_p50", "ms"),
        ("attack.sessions", "count"),
        ("attack.access_denied", "count"),
        ("analysis.lower_s", "s"),
        ("analysis.taint_s", "s"),
        ("analysis.mc.cell_ms_p50", "ms"),
        ("analysis.mc.cell_ms_p80", "ms"),
        ("analysis.mc.states", "count"),
        ("analysis.mc.states_per_s", "1/s"),
        ("analysis.mc.por_ratio", "ratio"),
        ("analysis.races.run_s", "s"),
        ("analysis.races.detect_s", "s"),
        ("analysis.races.minimize_s", "s"),
        ("analysis.races.events_per_s", "1/s"),
        ("traffic.assign_roles_s", "s"),
        ("trace.overhead_share", "ratio"),
        ("warmup.first_pass_s", "s"),
        ("scaling.speedup_2w", "ratio"),
        ("host.cores", "count"),
        ("host.calib_mops", "Mop/s"),
    ] {
        out.push((n.to_string(), u));
    }
    out
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Per-layer figures of one traced pass, from its spans and outputs.
/// Layers a workload does not call read 0.
pub fn pass_figures(trace: &Trace, pass: &Pass, units: &UnitCosts) -> BTreeMap<String, f64> {
    let extra = |k: &str| pass.extra.get(k).copied().unwrap_or(0.0);
    let mut m: BTreeMap<String, f64> = BTreeMap::new();
    let mut put = |k: &str, v: f64| {
        m.insert(k.to_string(), v);
    };

    put("fleet.advance_s", trace.self_total("fleet.advance", None));
    put("fleet.epochs", trace.count("fleet.advance") as f64);
    put(
        "fleet.checkout_ns",
        ratio(
            trace.self_total("fleet.materialize", None),
            extra("fleet.checkouts"),
        ) * 1e9,
    );
    put(
        "fleet.recycle_ratio",
        ratio(extra("fleet.recycled"), extra("fleet.checkouts")),
    );
    put(
        "fleet.finish_ns",
        ratio(
            trace.self_total("fleet.finish", None),
            extra("fleet.instances"),
        ) * 1e9,
    );
    put(
        "fleet.aggregate_s",
        trace.self_total("fleet.aggregate", None),
    );
    put("fleet.render_s", trace.self_total("fleet.render", None));
    put("fleet.report_bytes", extra("fleet.report_bytes"));
    put("fleet.worker_util_min", extra("fleet.worker_util_min"));
    put("fleet.wait_s", extra("fleet.wait_s"));
    put(
        "core.snapshot_capture_s",
        trace.self_total("core.snapshot_capture", None),
    );

    // Kernel time per platform: the epoch advance where the workload runs
    // fleets, otherwise the attack sessions (cold boot plus run).
    let kernel_span = if trace.count("fleet.advance") > 0 {
        "fleet.advance"
    } else {
        "attack.session"
    };
    let chunk_s = ScenarioConfig::quiet().lockstep_chunk.as_secs_f64();
    for (p, counts) in PLATFORMS.iter().zip(&pass.counts) {
        let p = key(*p);
        let advance_s = trace.self_total(kernel_span, Some(p));
        let c = &counts.metrics;
        put(&format!("kernel.{p}.advance_s"), advance_s);
        put(
            &format!("kernel.{p}.ns_per_msg"),
            ratio(advance_s, c.ipc_messages as f64) * 1e9,
        );
        let values = [
            c.ipc_messages,
            c.kernel_entries,
            c.context_switches,
            c.ipc_bytes,
            c.ipc_waits,
            c.access_denied,
            c.hot_path_allocs,
        ];
        for (name, v) in KERNEL_COUNTS.iter().zip(values) {
            put(&format!("kernel.{p}.{name}"), v as f64);
        }
        let modelled = units.modelled_s(p, c.ipc_messages, counts.sim_seconds / chunk_s);
        put(
            &format!("layer_model.{p}.residual_share"),
            if advance_s > 0.0 {
                1.0 - modelled / advance_s
            } else {
                0.0
            },
        );
    }

    let sessions = trace.durations("attack.session", None);
    put("attack.session_ms_p50", median(&sessions) * 1e3);
    put("attack.sessions", sessions.len() as f64);
    put("attack.access_denied", extra("attack.access_denied"));

    put("analysis.lower_s", trace.self_total("analysis.lower", None));
    put("analysis.taint_s", trace.self_total("analysis.taint", None));
    let cells = trace.durations("analysis.mc.cell", None);
    put("analysis.mc.cell_ms_p50", median(&cells) * 1e3);
    put("analysis.mc.cell_ms_p80", quantile(&cells, 0.8) * 1e3);
    let states = extra("analysis.mc.states");
    put("analysis.mc.states", states);
    put(
        "analysis.mc.states_per_s",
        ratio(states, cells.iter().sum::<f64>()),
    );
    put(
        "analysis.mc.por_ratio",
        ratio(extra("analysis.mc.ample_states"), states),
    );
    let run_s = trace.self_total("analysis.races.run", None);
    let detect_s = trace.self_total("analysis.races.detect", None);
    put("analysis.races.run_s", run_s);
    put("analysis.races.detect_s", detect_s);
    put(
        "analysis.races.minimize_s",
        trace.self_total("analysis.races.minimize", None),
    );
    put(
        "analysis.races.events_per_s",
        ratio(extra("analysis.races.events"), run_s + detect_s),
    );
    put(
        "traffic.assign_roles_s",
        trace.self_total("traffic.assign_roles", None),
    );
    m
}

/// The unit-cost figures, keyed by metric name.
pub fn unit_figures(u: &UnitCosts) -> [(&'static str, f64); 9] {
    [
        ("acm.check_ns", u.acm_check_ns),
        ("sel4.cspace_lookup_ns", u.cspace_lookup_ns),
        ("linux.mq_push_pop_ns", u.mq_push_pop_ns),
        ("sim.arena_alloc_free_ns", u.arena_alloc_free_ns),
        ("minix.sendrec_ns", u.minix_sendrec_ns),
        ("sel4.call_reply_ns", u.sel4_call_reply_ns),
        ("linux.mq_roundtrip_ns", u.linux_mq_roundtrip_ns),
        ("plant.step_ns", u.plant_step_ns),
        ("core.proto_roundtrip_ns", u.proto_roundtrip_ns),
    ]
}
