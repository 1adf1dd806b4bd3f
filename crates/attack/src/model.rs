//! Attacker models, attack identifiers, and outcome types.

use bas_core::scenario::{PlantSnapshot, Platform};
use bas_sim::metrics::KernelMetrics;
use serde::{Deserialize, Serialize};

/// The paper's two attacker models.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AttackerModel {
    /// A1: arbitrary code execution in the web-interface process.
    ArbitraryCode,
    /// A2: A1 plus root privilege ("gained through a privilege escalation
    /// exploit or through miss-configuration"). On seL4 this equals A1 —
    /// "the seL4 kernel and CAmkES generated code have no concept of user
    /// or root".
    Root,
}

impl std::fmt::Display for AttackerModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AttackerModel::ArbitraryCode => write!(f, "A1:code-exec"),
            AttackerModel::Root => write!(f, "A2:root"),
        }
    }
}

/// The attack catalogue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum AttackId {
    /// Impersonate the temperature sensor: inject "everything is normal"
    /// readings so the controller idles the fan and never raises the
    /// alarm while the room overheats (§IV-D.1's first attack).
    SpoofSensorData,
    /// Command the heater and alarm drivers directly, forcing the fan and
    /// alarm off ("arbitrarily control the fan and LED").
    SpoofActuatorCommands,
    /// Kill the temperature control process (and the alarm driver) "to
    /// incapacitate the whole control scenario".
    KillCritical,
    /// Exhaust the process table by forking ("launch a fork bomb to eat
    /// up system resources").
    ForkBomb,
    /// Enumerate and invoke every reachable IPC handle/capability (the
    /// §IV-D.3 brute-force program, generalized to all platforms).
    BruteForceHandles,
    /// Flood the controller's legitimate input channel with junk.
    FloodLegitChannel,
    /// Drive the physical devices directly, bypassing the drivers
    /// (extension attack: `/dev`-node DAC vs device ownership).
    DirectDeviceWrite,
    /// Send an out-of-range setpoint through the legitimate channel
    /// (bounded by application validation on every platform).
    SetpointTamper,
    /// Replay a captured *legitimate* (in-range) setpoint update through
    /// the compromised web interface — the BACnet replay-attack class the
    /// paper's introduction cites. Kernel-level IPC protection cannot
    /// distinguish this from a real administrator action on any platform:
    /// the web interface *is* the admin channel.
    ReplaySetpoint,
}

impl AttackId {
    /// The E18 traffic mix: relative weights for the attacks a
    /// network-reachable BAS front-end actually absorbs, following the
    /// incident taxonomy of dos Santos et al., *Leveraging Operational
    /// Technology and the Internet of Things to Attack Smart Buildings*
    /// (arXiv:1912.02480): protocol flooding and setpoint/property
    /// tampering dominate, replay of captured legitimate commands and
    /// sensor spoofing follow, blind capability brute-forcing trails.
    /// Weights are relative (the sampler normalizes); order is the
    /// deterministic tie-break for cumulative sampling.
    pub const TRAFFIC_MIX: [(AttackId, f64); 5] = [
        (AttackId::FloodLegitChannel, 0.30),
        (AttackId::SetpointTamper, 0.25),
        (AttackId::ReplaySetpoint, 0.20),
        (AttackId::SpoofSensorData, 0.15),
        (AttackId::BruteForceHandles, 0.10),
    ];

    /// All attacks, in matrix order.
    pub const ALL: [AttackId; 9] = [
        AttackId::SpoofSensorData,
        AttackId::SpoofActuatorCommands,
        AttackId::KillCritical,
        AttackId::ForkBomb,
        AttackId::BruteForceHandles,
        AttackId::FloodLegitChannel,
        AttackId::DirectDeviceWrite,
        AttackId::SetpointTamper,
        AttackId::ReplaySetpoint,
    ];
}

impl std::fmt::Display for AttackId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            AttackId::SpoofSensorData => "spoof-sensor-data",
            AttackId::SpoofActuatorCommands => "spoof-actuator-cmds",
            AttackId::KillCritical => "kill-critical",
            AttackId::ForkBomb => "fork-bomb",
            AttackId::BruteForceHandles => "brute-force-handles",
            AttackId::FloodLegitChannel => "flood-legit-channel",
            AttackId::DirectDeviceWrite => "direct-device-write",
            AttackId::SetpointTamper => "setpoint-tamper",
            AttackId::ReplaySetpoint => "replay-setpoint",
        };
        f.write_str(s)
    }
}

/// Whether the attack *mechanism* worked, judged from the replies the
/// attacker's syscalls received.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum MechanismOutcome {
    /// The kernel accepted the malicious operations.
    Succeeded(String),
    /// The kernel (or application validation) refused them.
    Blocked(String),
}

impl MechanismOutcome {
    /// True for [`MechanismOutcome::Succeeded`].
    pub fn succeeded(&self) -> bool {
        matches!(self, MechanismOutcome::Succeeded(_))
    }
}

impl std::fmt::Display for MechanismOutcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MechanismOutcome::Succeeded(why) => write!(f, "SUCCEEDED ({why})"),
            MechanismOutcome::Blocked(why) => write!(f, "blocked ({why})"),
        }
    }
}

/// What happened in the physical world (from the safety oracle — E7).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PhysicalSummary {
    /// The alarm-deadline safety property was violated.
    pub safety_violated: bool,
    /// Largest |temperature − setpoint| observed, °C.
    pub max_deviation_c: f64,
    /// Final temperature, °C.
    pub final_temp_c: f64,
    /// Alarm state at the end of the run.
    pub alarm_on: bool,
    /// Fan switch count (actuator churn).
    pub fan_switches: usize,
}

/// One cell of the attack matrix (E6).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AttackOutcome {
    /// Platform attacked.
    pub platform: Platform,
    /// Attacker model.
    pub attacker: AttackerModel,
    /// The attack.
    pub attack: AttackId,
    /// Mechanism verdict.
    pub mechanism: MechanismOutcome,
    /// True if every critical process survived.
    pub critical_alive: bool,
    /// Physical-world verdict.
    pub physical: PhysicalSummary,
    /// Full plant safety snapshot (superset of `physical`, including
    /// alarm latencies — consumed by the fleet aggregator).
    pub plant: PlantSnapshot,
    /// Kernel counters at the end of the run.
    pub metrics: KernelMetrics,
    /// Raw evidence counters (attempts/successes/denials/errors).
    pub evidence: crate::evidence::AttackEvidence,
}

impl AttackOutcome {
    /// The bottom-line verdict the paper's comparison is about: did the
    /// attack compromise the *physical process or critical processes*?
    pub fn compromised(&self) -> bool {
        self.physical.safety_violated || !self.critical_alive
    }
}

impl std::fmt::Display for AttackOutcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:<12} {:<12} {:<22} mech={:<44} critical_alive={:<5} safety_violated={:<5} maxdev={:.2}°C",
            self.platform.to_string(),
            self.attacker.to_string(),
            self.attack.to_string(),
            self.mechanism.to_string(),
            self.critical_alive,
            self.physical.safety_violated,
            self.physical.max_deviation_c,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_forms_are_stable() {
        assert_eq!(AttackId::SpoofSensorData.to_string(), "spoof-sensor-data");
        assert_eq!(AttackerModel::Root.to_string(), "A2:root");
        assert!(MechanismOutcome::Succeeded("x".into()).succeeded());
        assert!(!MechanismOutcome::Blocked("x".into()).succeeded());
    }

    #[test]
    fn all_attacks_enumerated_once() {
        let mut set = std::collections::BTreeSet::new();
        for a in AttackId::ALL {
            assert!(set.insert(a), "{a} duplicated");
        }
        assert_eq!(set.len(), 9);
    }
}
