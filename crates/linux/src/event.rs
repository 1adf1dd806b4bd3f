//! The Linux kernel's typed trace events.

use std::fmt;

use bas_sim::caps::ChurnKind;
use bas_sim::device::DeviceId;
use bas_sim::process::Pid;
use bas_sim::time::SimDuration;
use bas_sim::trace::{EventDetail, EventKind};

use crate::cred::Uid;
use crate::error::LinuxError;
use crate::syscall::Signal;

/// What the Linux kernel recorded. Queues appear by their interned id.
/// The event's pid is the process the event is attributed to: the
/// sender of a message, the caller of a refused or faulted syscall, the
/// spawned or exiting process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinuxEvent {
    /// A process was spawned or forked.
    ProcSpawn {
        /// Its user id.
        uid: Uid,
    },
    /// The process returned from its program.
    ProcExit {
        /// Exit code.
        code: i32,
    },
    /// A message was enqueued on queue `qid`.
    MqSend {
        /// The queue.
        qid: u32,
    },
    /// The caller created queue `qid`.
    MqCreate {
        /// The queue.
        qid: u32,
        /// Its permission bits.
        mode: u16,
    },
    /// A driver wrote a device node.
    DevWrite {
        /// The device.
        dev: DeviceId,
        /// The value written.
        value: i64,
    },
    /// The caller's signal killed `target`.
    SignalKill {
        /// The signal.
        signal: Signal,
        /// The killed process.
        target: Pid,
    },
    /// DAC refused `uid`'s open or unlink of queue `qid`.
    MqDeny {
        /// The caller's user id.
        uid: Uid,
        /// The queue.
        qid: u32,
        /// The errno returned.
        err: LinuxError,
    },
    /// DAC refused `uid`'s access to a device node.
    DevDeny {
        /// The caller's user id.
        uid: Uid,
        /// The device.
        dev: DeviceId,
        /// The errno returned.
        err: LinuxError,
    },
    /// A non-root `uid` tried to change its user id.
    SetUidDeny {
        /// The caller's user id.
        uid: Uid,
        /// The user id it asked for.
        requested: Uid,
        /// The errno returned.
        err: LinuxError,
    },
    /// The permission check refused `uid` signalling a `target_uid` process.
    SignalDeny {
        /// The caller's user id.
        uid: Uid,
        /// The target's user id.
        target_uid: Uid,
        /// The errno returned.
        err: LinuxError,
    },
    /// Runtime churn rewrote queue `qid`'s mode bits.
    CapChurn {
        /// Grant, attenuate or revoke.
        kind: ChurnKind,
        /// The queue.
        qid: u32,
        /// Mode before.
        old: u16,
        /// Mode after.
        new: u16,
    },
    /// An injected crash killed the process.
    FaultCrash,
    /// An injected tick skew advanced the clock.
    FaultClock {
        /// The jump.
        skew: SimDuration,
    },
    /// An injected fault dropped a message sent to `qid`.
    IpcDropped {
        /// The queue.
        qid: u32,
    },
    /// An injected fault delayed a message sent to `qid`.
    IpcDelayed {
        /// The queue.
        qid: u32,
        /// Added latency.
        delay: SimDuration,
    },
    /// An injected fault enqueued a second copy on `qid`.
    IpcDuplicated {
        /// The queue.
        qid: u32,
    },
}

impl EventDetail for LinuxEvent {
    fn kind(&self) -> EventKind {
        match self {
            LinuxEvent::ProcSpawn { .. } => EventKind::ProcSpawn,
            LinuxEvent::ProcExit { .. } => EventKind::ProcExit,
            LinuxEvent::MqSend { .. } => EventKind::MqSend,
            LinuxEvent::MqCreate { .. } => EventKind::MqCreate,
            LinuxEvent::DevWrite { .. } => EventKind::DevWrite,
            LinuxEvent::SignalKill { .. } => EventKind::SignalKill,
            LinuxEvent::MqDeny { .. }
            | LinuxEvent::DevDeny { .. }
            | LinuxEvent::SetUidDeny { .. } => EventKind::DacDeny,
            LinuxEvent::SignalDeny { .. } => EventKind::SignalDeny,
            LinuxEvent::CapChurn { .. } => EventKind::CapChurn,
            LinuxEvent::FaultCrash => EventKind::FaultCrash,
            LinuxEvent::FaultClock { .. } => EventKind::FaultClock,
            LinuxEvent::IpcDropped { .. }
            | LinuxEvent::IpcDelayed { .. }
            | LinuxEvent::IpcDuplicated { .. } => EventKind::FaultIpc,
        }
    }
}

impl fmt::Display for LinuxEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            LinuxEvent::ProcSpawn { uid } => write!(f, "uid={uid}"),
            LinuxEvent::ProcExit { code } => write!(f, "code={code}"),
            LinuxEvent::MqSend { qid } => write!(f, "-> q{qid}"),
            LinuxEvent::MqCreate { qid, mode } => write!(f, "q{qid} mode={mode:04o}"),
            LinuxEvent::DevWrite { dev, value } => write!(f, "{dev} <- {value}"),
            LinuxEvent::SignalKill { signal, target } => write!(f, "sent {signal:?} to {target}"),
            LinuxEvent::MqDeny { uid, qid, err } => write!(f, "{uid} denied q{qid}: {err}"),
            LinuxEvent::DevDeny { uid, dev, err } => write!(f, "{uid} denied {dev}: {err}"),
            LinuxEvent::SetUidDeny {
                uid,
                requested,
                err,
            } => write!(f, "{uid} may not become {requested}: {err}"),
            LinuxEvent::SignalDeny {
                uid,
                target_uid,
                err,
            } => write!(f, "{uid} may not signal {target_uid}: {err}"),
            LinuxEvent::CapChurn {
                kind,
                qid,
                old,
                new,
            } => {
                write!(f, "{} q{qid} mode {old:04o} -> {new:04o}", kind.label())
            }
            LinuxEvent::FaultCrash => f.write_str("killed"),
            LinuxEvent::FaultClock { skew } => write!(f, "skewed +{}ms", skew.as_millis()),
            LinuxEvent::IpcDropped { qid } => write!(f, "drop -> q{qid}"),
            LinuxEvent::IpcDelayed { qid, delay } => {
                write!(f, "delay -> q{qid} +{}ms", delay.as_millis())
            }
            LinuxEvent::IpcDuplicated { qid } => write!(f, "duplicate -> q{qid}"),
        }
    }
}
