//! Golden byte-identity guard for the fleet report's JSON form.
//!
//! The determinism tests compare runs with each other; these compare
//! them with committed bytes, so a change to the JSON writer or to any
//! report field's formatting shows up as a diff against
//! `tests/golden/*.json`.

use bas_attack::model::{AttackId, AttackerModel};
use bas_core::logic::traffic::TrafficProfile;
use bas_core::scenario::Platform;
use bas_fleet::{run_fleet, Campaign, FleetConfig, FleetReport};
use bas_sim::time::{SimDuration, SimTime};

/// Three buildings with two-tenant web traffic and a heat step large
/// enough to drive an excursion, so `requests`, `request_latency` and
/// `alarm_latency` are all non-empty.
fn benign_with_traffic(platform: Platform) -> FleetReport {
    let mut config = FleetConfig::benign(platform, 3, 2);
    config.root_seed = 11;
    config.template.traffic = Some(TrafficProfile {
        start: SimTime::ZERO + SimDuration::from_secs(5),
        duration: SimDuration::from_secs(60),
        tenants: 2,
        mean_interarrival_s: 4.0,
        ..TrafficProfile::default()
    });
    config.template.plant.heat_schedule = vec![(SimDuration::from_secs(90), 3_000.0)];
    config.horizon = SimDuration::from_mins(15);
    run_fleet(&config).report
}

/// Two Linux buildings under sensor spoofing: the `campaign` summary
/// and the per-instance `attack` cells are present.
fn attack_campaign() -> FleetReport {
    let mut config = FleetConfig::benign(Platform::Linux, 2, 2);
    config.root_seed = 5;
    config.campaign = Some(Campaign::new(
        AttackId::SpoofSensorData,
        AttackerModel::ArbitraryCode,
    ));
    run_fleet(&config).report
}

#[test]
fn benign_fleet_reports_match_golden_bytes() {
    let cases = [
        (Platform::Minix, include_str!("golden/benign_minix.json")),
        (Platform::Sel4, include_str!("golden/benign_sel4.json")),
        (Platform::Linux, include_str!("golden/benign_linux.json")),
    ];
    for (platform, expected) in cases {
        let report = benign_with_traffic(platform);
        assert!(report.totals.requests > 0, "{platform}: no requests");
        assert!(report.request_latency.samples > 0, "{platform}");
        assert!(report.alarm_latency.samples > 0, "{platform}: no alarms");
        assert!(
            report.to_json() == expected,
            "{platform}: fleet report bytes drifted from the golden file"
        );
    }
}

#[test]
fn campaign_fleet_report_matches_golden_bytes() {
    let report = attack_campaign();
    assert!(report.campaign.is_some());
    assert!(report.per_instance.iter().all(|r| r.attack.is_some()));
    assert!(
        report.to_json() == include_str!("golden/campaign_linux.json"),
        "campaign fleet report bytes drifted from the golden file"
    );
}
