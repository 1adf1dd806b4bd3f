//! The MINIX kernel's typed trace events.

use std::fmt;

use bas_acm::{AcId, DenyReason, SyscallClass};
use bas_sim::caps::ChurnKind;
use bas_sim::device::DeviceId;
use bas_sim::time::SimDuration;
use bas_sim::trace::{EventDetail, EventKind};

use crate::endpoint::Endpoint;
use crate::grant::{GrantError, GrantId};

/// What the MINIX kernel recorded. The event's pid is the process the
/// event is attributed to: the receiver of a delivery, the caller of a
/// refused or faulted send, the spawned or exiting process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MinixEvent {
    /// A process was loaded or forked.
    ProcSpawn {
        /// Its access-control identity.
        ac: AcId,
        /// Its user id.
        uid: u32,
        /// Its endpoint.
        ep: Endpoint,
    },
    /// The process returned from its program.
    ProcExit {
        /// Exit code.
        code: i32,
    },
    /// The process asked PM to exit.
    PmExit,
    /// PM killed `target` on the caller's request.
    PmKill {
        /// The killed endpoint.
        target: Endpoint,
    },
    /// A message from `src` reached the receiver.
    IpcDeliver {
        /// Sender endpoint.
        src: Endpoint,
        /// Message type.
        mtype: u32,
    },
    /// A driver wrote a device register.
    DevWrite {
        /// The device.
        dev: DeviceId,
        /// The value written.
        value: i64,
    },
    /// The ACM refused a send or notify.
    AcmDeny {
        /// Sender identity.
        src_ac: AcId,
        /// Receiver identity.
        dst_ac: AcId,
        /// Message type (`pm::NOTIFY_MTYPE` for a notify).
        mtype: u32,
        /// Why the matrix refused it.
        reason: DenyReason,
    },
    /// PM refused to grant rights the delegating caller does not hold.
    DelegateDeny {
        /// Sending side of the requested channel.
        sub_ac: AcId,
        /// Receiving side of the requested channel.
        dst_ac: AcId,
        /// What the caller's own `caller → dst_ac` row lacks.
        reason: DenyReason,
    },
    /// PM refused a kill: the target is PM itself or belongs to another
    /// user.
    KillDeny {
        /// The endpoint the caller tried to kill.
        target: Endpoint,
    },
    /// A syscall quota was exhausted.
    QuotaDeny {
        /// The charged identity.
        ac: AcId,
        /// The exhausted quota.
        class: SyscallClass,
    },
    /// A device access by an identity that does not own the device.
    DevDeny {
        /// The device.
        dev: DeviceId,
        /// The caller's identity.
        ac: AcId,
    },
    /// A safe-copy on another process's grant was refused.
    GrantDeny {
        /// The process that owns the grant.
        granter: Endpoint,
        /// The grant.
        grant: GrantId,
        /// Why it was refused.
        err: GrantError,
    },
    /// Runtime ACM churn changed the `sub_ac → dst_ac` channel.
    CapChurn {
        /// Grant, attenuate or revoke.
        kind: ChurnKind,
        /// Sending side of the channel.
        sub_ac: AcId,
        /// Receiving side of the channel.
        dst_ac: AcId,
    },
    /// An injected crash killed the process.
    FaultCrash,
    /// An injected tick skew advanced the clock.
    FaultClock {
        /// The jump.
        skew: SimDuration,
    },
    /// An injected fault dropped an application message.
    IpcDropped {
        /// Intended receiver.
        dst: Endpoint,
        /// Message type.
        mtype: u32,
    },
    /// An injected fault delayed an application message.
    IpcDelayed {
        /// Receiver.
        dst: Endpoint,
        /// Added latency.
        delay: SimDuration,
    },
    /// An injected fault duplicated an application message.
    IpcDuplicated {
        /// Receiver.
        dst: Endpoint,
        /// Message type.
        mtype: u32,
    },
}

impl EventDetail for MinixEvent {
    fn kind(&self) -> EventKind {
        match self {
            MinixEvent::ProcSpawn { .. } => EventKind::ProcSpawn,
            MinixEvent::ProcExit { .. } | MinixEvent::PmExit => EventKind::ProcExit,
            MinixEvent::PmKill { .. } => EventKind::PmKill,
            MinixEvent::IpcDeliver { .. } => EventKind::IpcDeliver,
            MinixEvent::DevWrite { .. } => EventKind::DevWrite,
            MinixEvent::AcmDeny { .. } | MinixEvent::DelegateDeny { .. } => EventKind::AcmDeny,
            MinixEvent::KillDeny { .. } => EventKind::SignalDeny,
            MinixEvent::QuotaDeny { .. } => EventKind::QuotaDeny,
            MinixEvent::DevDeny { .. } => EventKind::DevDeny,
            MinixEvent::GrantDeny { .. } => EventKind::GrantDeny,
            MinixEvent::CapChurn { .. } => EventKind::CapChurn,
            MinixEvent::FaultCrash => EventKind::FaultCrash,
            MinixEvent::FaultClock { .. } => EventKind::FaultClock,
            MinixEvent::IpcDropped { .. }
            | MinixEvent::IpcDelayed { .. }
            | MinixEvent::IpcDuplicated { .. } => EventKind::FaultIpc,
        }
    }
}

impl fmt::Display for MinixEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            MinixEvent::ProcSpawn { ac, uid, ep } => write!(f, "ac={ac} uid={uid} ep={ep}"),
            MinixEvent::ProcExit { code } => write!(f, "code={code}"),
            MinixEvent::PmExit => f.write_str("pm exit"),
            MinixEvent::PmKill { target } => write!(f, "killed {target}"),
            MinixEvent::IpcDeliver { src, mtype } => write!(f, "from {src} m{mtype}"),
            MinixEvent::DevWrite { dev, value } => write!(f, "{dev} <- {value}"),
            MinixEvent::AcmDeny {
                src_ac,
                dst_ac,
                mtype,
                reason,
            } => write!(f, "{src_ac} -> {dst_ac} m{mtype}: {reason}"),
            MinixEvent::DelegateDeny {
                sub_ac,
                dst_ac,
                reason,
            } => write!(
                f,
                "delegate {sub_ac} -> {dst_ac}: caller lacks the rights ({reason})"
            ),
            MinixEvent::KillDeny { target } => write!(f, "may not kill {target}"),
            MinixEvent::QuotaDeny { ac, class } => write!(f, "{ac} {class} quota exhausted"),
            MinixEvent::DevDeny { dev, ac } => write!(f, "{dev} not owned by {ac}"),
            MinixEvent::GrantDeny {
                granter,
                grant,
                err,
            } => write!(f, "grant {} of {granter}: {err}", grant.0),
            MinixEvent::CapChurn {
                kind,
                sub_ac,
                dst_ac,
            } => write!(f, "{} {sub_ac} -> {dst_ac}", kind.label()),
            MinixEvent::FaultCrash => f.write_str("killed"),
            MinixEvent::FaultClock { skew } => write!(f, "skewed +{}ms", skew.as_millis()),
            MinixEvent::IpcDropped { dst, mtype } => write!(f, "drop -> {dst} m{mtype}"),
            MinixEvent::IpcDelayed { dst, delay } => {
                write!(f, "delay -> {dst} +{}ms", delay.as_millis())
            }
            MinixEvent::IpcDuplicated { dst, mtype } => write!(f, "duplicate -> {dst} m{mtype}"),
        }
    }
}
