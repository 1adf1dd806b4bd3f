//! The benign web client's request contract, checked identically on all
//! three platforms: every scheduled request is issued exactly once, in
//! schedule order; a same-tick burst drains in one wake and so shares
//! one completion stamp; and every reply lands in the response log.

use bas_core::engine::boot_platform;
use bas_core::logic::web::WebAction;
use bas_core::scenario::{Platform, ScenarioConfig};
use bas_sim::time::{SimDuration, SimTime};

fn at(secs: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_secs(secs)
}

/// A five-request burst at one tick, then spaced single requests.
fn schedule() -> Vec<(SimTime, WebAction)> {
    vec![
        (at(60), WebAction::QueryStatus),
        (at(60), WebAction::SetSetpoint(22_500)),
        (at(60), WebAction::QueryStatus),
        (at(60), WebAction::SetSetpoint(95_000)),
        (at(60), WebAction::QueryStatus),
        (at(120), WebAction::SetSetpoint(22_000)),
        (at(180), WebAction::QueryStatus),
        (at(245), WebAction::QueryStatus),
    ]
}

#[test]
fn web_requests_follow_one_contract_on_every_platform() {
    let schedule = schedule();
    let config = ScenarioConfig {
        web_schedule: schedule.clone(),
        ..ScenarioConfig::quiet()
    };
    for platform in [Platform::Minix, Platform::Sel4, Platform::Linux] {
        let mut s = boot_platform(platform, &config);
        s.run_for(SimDuration::from_mins(5));
        let samples = s.request_samples();

        let issued: Vec<_> = samples.iter().map(|r| (r.scheduled, r.action)).collect();
        assert_eq!(issued, schedule, "{platform}: each request once, in order");
        for r in &samples {
            assert!(r.ok, "{platform}: request failed: {r:?}");
            assert!(r.completed >= r.scheduled, "{platform}: {r:?}");
        }
        let burst = &samples[..5];
        assert!(
            burst.iter().all(|r| r.completed == burst[0].completed),
            "{platform}: burst split across wakes: {burst:?}"
        );
        assert_eq!(
            s.web_responses().len(),
            schedule.len(),
            "{platform}: one response per request"
        );
    }
}
