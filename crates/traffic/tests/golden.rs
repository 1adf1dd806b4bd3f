//! Golden byte-identity guard for the E18 `TrafficReport` JSON: the
//! determinism test compares runs with each other, this one compares a
//! fixed-seed run with the committed `tests/golden_report.json`.

use bas_core::logic::traffic::TrafficProfile;
use bas_core::scenario::Platform;
use bas_fleet::WorkerPool;
use bas_sim::time::{SimDuration, SimTime};
use bas_traffic::{run_traffic, TrafficConfig, TrafficReport};

/// Ten MINIX instances, two-tenant sessions and a 30% attacker slice.
fn golden_report() -> TrafficReport {
    let mut config = TrafficConfig::new(Platform::Minix, 10, 2);
    config.root_seed = 3;
    config.profile = TrafficProfile {
        duration: SimDuration::from_secs(60),
        tenants: 2,
        mean_interarrival_s: 3.0,
        ..TrafficProfile::default()
    };
    config.horizon = (config.profile.start - SimTime::ZERO)
        + config.profile.duration
        + SimDuration::from_secs(30);
    config.attacker_fraction = 0.3;
    config.attack_run.warmup = SimDuration::from_secs(60);
    config.attack_run.window = SimDuration::from_secs(120);
    config.attack_run.cooldown = SimDuration::from_secs(30);
    run_traffic(&WorkerPool::new(2), &config).report
}

#[test]
fn traffic_report_matches_golden_bytes() {
    let report = golden_report();
    assert!(report.attacker_instances > 0, "no attacker instances");
    assert!(report.fleet.totals.requests > 0, "no requests completed");
    let expected = include_str!("golden_report.json");
    assert!(
        report.to_json() == expected,
        "traffic report bytes drifted from tests/golden_report.json"
    );
}
