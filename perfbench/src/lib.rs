//! # perfbench — end-to-end and per-layer benchmark of the BAS reproduction
//!
//! Three workloads drawn from what the paper's users run:
//!
//! - `tenant_traffic` — a ~1k-instance building fleet under open-loop
//!   tenant load with a 2% attacker slice (`bas_traffic::run_traffic`,
//!   one call per platform);
//! - `fleet_sweep` — a benign fleet of tens of thousands of instances per
//!   platform, booted, run, reported and rendered (`run_fleet_with` plus
//!   `FleetReport::to_json`);
//! - `verdict_matrix` — the paper's three-way security verdict over all
//!   54 cells plus the 21-scenario capability-churn catalog.
//!
//! Every timing is host wall time. Simulated-time outputs (request
//! latency, attack outcomes, verdicts, race sets) depend only on the
//! configuration and seed; they are checked as a report digest, never
//! reported as performance. See `README.md` for the metric catalogue and
//! the layer-to-end-to-end map.

pub mod bench;
pub mod layers;
pub mod measure;
pub mod trace;
pub mod units;
pub mod workloads;
