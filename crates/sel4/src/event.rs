//! The seL4 kernel's typed trace events.

use std::fmt;

use bas_sim::caps::ChurnKind;
use bas_sim::device::DeviceId;
use bas_sim::process::Pid;
use bas_sim::time::SimDuration;
use bas_sim::trace::{EventDetail, EventKind};

use crate::error::Sel4Error;
use crate::objects::ObjId;
use crate::syscall::RetypeKind;

/// The capability invocation a denial refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Invocation {
    /// `seL4_Send` / `seL4_NBSend`, including its capability transfers.
    Send,
    /// `seL4_Call`, including its capability transfers.
    Call,
    /// `seL4_Recv` / `seL4_NBRecv`.
    Recv,
    /// `seL4_Reply`, including its capability transfers.
    Reply,
    /// `seL4_Signal`.
    Signal,
    /// `seL4_Wait`.
    Wait,
    /// `seL4_CNode_Mint`.
    Mint,
    /// `seL4_Untyped_Retype`.
    Retype,
    /// `seL4_TCB_Suspend`.
    TcbSuspend,
    /// A device-frame read.
    DevRead,
    /// A device-frame write.
    DevWrite,
}

impl fmt::Display for Invocation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Invocation::Send => "send",
            Invocation::Call => "call",
            Invocation::Recv => "recv",
            Invocation::Reply => "reply",
            Invocation::Signal => "signal",
            Invocation::Wait => "wait",
            Invocation::Mint => "mint",
            Invocation::Retype => "retype",
            Invocation::TcbSuspend => "tcb suspend",
            Invocation::DevRead => "device read",
            Invocation::DevWrite => "device write",
        })
    }
}

/// What the seL4 kernel recorded. The event's pid is the thread the event
/// is attributed to: the receiver of a delivery, the invoker of a refused
/// or faulted invocation, the started or exiting thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sel4Event {
    /// The thread was made runnable for the first time.
    ThreadStart,
    /// The thread returned from its program.
    ThreadExit {
        /// Exit code.
        code: i32,
    },
    /// A message from `sender` reached the receiver. The badge is not
    /// kept: it is fixed by the capability the sender invoked.
    IpcDeliver {
        /// Sending thread.
        sender: Pid,
        /// Message label.
        label: u64,
    },
    /// A reply found `target` no longer awaiting it and was dropped.
    IpcReplyDropped {
        /// The caller the reply was meant for.
        target: Pid,
    },
    /// A transferred capability overflowed the receiver's CSpace.
    CapDropped,
    /// A driver wrote a device frame.
    DevWrite {
        /// The device.
        dev: DeviceId,
        /// The value written.
        value: i64,
    },
    /// Untyped memory was retyped into a new object.
    UntypedRetype {
        /// The new object's kind.
        kind: RetypeKind,
        /// The untyped region it came from.
        untyped: ObjId,
    },
    /// The invoker suspended `target` through its TCB capability.
    TcbSuspend {
        /// The suspended thread.
        target: Pid,
    },
    /// A capability lookup or rights check refused an invocation.
    CapDeny {
        /// The refused invocation.
        op: Invocation,
        /// Why the kernel refused it.
        err: Sel4Error,
    },
    /// Runtime churn changed `holder`'s capabilities to `obj`.
    CapChurn {
        /// Grant, attenuate or revoke.
        kind: ChurnKind,
        /// The thread whose capabilities changed.
        holder: Pid,
        /// The endpoint object in scope.
        obj: ObjId,
    },
    /// An injected crash killed the thread.
    FaultCrash,
    /// An injected tick skew advanced the clock.
    FaultClock {
        /// The jump.
        skew: SimDuration,
    },
    /// An injected fault dropped a message sent on `ep`.
    IpcDropped {
        /// The endpoint.
        ep: ObjId,
        /// Message label.
        label: u64,
    },
    /// An injected fault delayed a message sent on `ep`.
    IpcDelayed {
        /// The endpoint.
        ep: ObjId,
        /// Added latency.
        delay: SimDuration,
    },
    /// An injected duplicate on `ep` was absorbed by rendezvous IPC.
    IpcDuplicated {
        /// The endpoint.
        ep: ObjId,
    },
}

impl EventDetail for Sel4Event {
    fn kind(&self) -> EventKind {
        match self {
            Sel4Event::ThreadStart => EventKind::ThreadStart,
            Sel4Event::ThreadExit { .. } => EventKind::ThreadExit,
            Sel4Event::IpcDeliver { .. } => EventKind::IpcDeliver,
            Sel4Event::IpcReplyDropped { .. } => EventKind::IpcReplyDropped,
            Sel4Event::CapDropped => EventKind::CapDropped,
            Sel4Event::DevWrite { .. } => EventKind::DevWrite,
            Sel4Event::UntypedRetype { .. } => EventKind::UntypedRetype,
            Sel4Event::TcbSuspend { .. } => EventKind::TcbSuspend,
            Sel4Event::CapDeny { .. } => EventKind::CapDeny,
            Sel4Event::CapChurn { .. } => EventKind::CapChurn,
            Sel4Event::FaultCrash => EventKind::FaultCrash,
            Sel4Event::FaultClock { .. } => EventKind::FaultClock,
            Sel4Event::IpcDropped { .. }
            | Sel4Event::IpcDelayed { .. }
            | Sel4Event::IpcDuplicated { .. } => EventKind::FaultIpc,
        }
    }
}

impl fmt::Display for Sel4Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Sel4Event::ThreadStart => f.write_str("started"),
            Sel4Event::ThreadExit { code } => write!(f, "code={code}"),
            Sel4Event::IpcDeliver { sender, label } => write!(f, "from {sender} label={label}"),
            Sel4Event::IpcReplyDropped { target } => {
                write!(f, "target {target} not awaiting reply")
            }
            Sel4Event::CapDropped => f.write_str("transfer overflowed receiver cspace"),
            Sel4Event::DevWrite { dev, value } => write!(f, "{dev} <- {value}"),
            Sel4Event::UntypedRetype { kind, untyped } => write!(f, "{kind:?} from {untyped}"),
            Sel4Event::TcbSuspend { target } => write!(f, "suspended {target}"),
            Sel4Event::CapDeny { op, err } => write!(f, "{op}: {err}"),
            Sel4Event::CapChurn { kind, holder, obj } => {
                write!(f, "{} {holder} caps on {obj}", kind.label())
            }
            Sel4Event::FaultCrash => f.write_str("killed"),
            Sel4Event::FaultClock { skew } => write!(f, "skewed +{}ms", skew.as_millis()),
            Sel4Event::IpcDropped { ep, label } => write!(f, "drop ep={ep} label={label}"),
            Sel4Event::IpcDelayed { ep, delay } => {
                write!(f, "delay ep={ep} +{}ms", delay.as_millis())
            }
            Sel4Event::IpcDuplicated { ep } => write!(f, "duplicate absorbed ep={ep}"),
        }
    }
}
