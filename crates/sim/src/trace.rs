//! Typed kernel event recorder shared by the three simulated kernels.
//!
//! Each kernel records one [`KernelEvent`] at every enforcement point it
//! passes (an IPC delivery, a device write, a spawn, a denial, an injected
//! fault, ...). The event is a small `Copy` record: its detail is the
//! kernel's own event enum (`MinixEvent`, `Sel4Event`, `LinuxEvent`),
//! whose variants carry the endpoints, identities, message types and —
//! for denials — the reason the kernel computed, as integers and `Copy`
//! enums. Nothing is formatted when an event is recorded; text comes
//! from [`std::fmt::Display`], on demand.
//!
//! The [`Recorder`] keeps two things:
//! - exact per-kind counters, one per [`EventKind`], never truncated;
//! - a flight recorder: a ring of the last [`RING_LEN`] events, which
//!   grows on first use and then overwrites its oldest entry, so a
//!   steady-state kernel records without touching the heap.
//!
//! Experiment verdicts do not read this stream: the attack harness judges
//! a mechanism by the replies the attacker's syscalls received and its
//! impact by the plant's physical state. The counts back the kernels'
//! tests and the scenario-level `event_count` queries; the ring answers
//! "what did this kernel just do".

use std::fmt;

use crate::process::Pid;
use crate::time::SimTime;

/// Number of events the flight recorder retains.
pub const RING_LEN: usize = 256;

/// The category of a kernel event: what the per-kind counters count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A rendezvous IPC message reached its receiver.
    IpcDeliver,
    /// A message was enqueued on a POSIX message queue.
    MqSend,
    /// A reply found its caller no longer waiting and was dropped.
    IpcReplyDropped,
    /// A device register write succeeded.
    DevWrite,
    /// A process was created.
    ProcSpawn,
    /// A process exited.
    ProcExit,
    /// A thread was made runnable for the first time.
    ThreadStart,
    /// A thread exited.
    ThreadExit,
    /// The process manager killed a process on request.
    PmKill,
    /// A signal killed a process.
    SignalKill,
    /// A message queue was created.
    MqCreate,
    /// Untyped memory was retyped into a new kernel object.
    UntypedRetype,
    /// A thread was suspended through its TCB capability.
    TcbSuspend,
    /// A transferred capability did not fit the receiver's CSpace.
    CapDropped,
    /// The access-control matrix refused an IPC.
    AcmDeny,
    /// A capability lookup or rights check refused an invocation.
    CapDeny,
    /// Discretionary access control refused an open, an unlink, a device
    /// access or a `setuid`.
    DacDeny,
    /// A syscall quota was exhausted.
    QuotaDeny,
    /// A device access by a non-owner was refused.
    DevDeny,
    /// A memory-grant access was refused.
    GrantDeny,
    /// A kill or signal was refused by the permission check.
    SignalDeny,
    /// Runtime capability churn changed a right.
    CapChurn,
    /// An injected crash killed a process.
    FaultCrash,
    /// An injected clock skew jumped virtual time.
    FaultClock,
    /// An injected IPC fault dropped, delayed or duplicated a message.
    FaultIpc,
}

impl EventKind {
    /// Every kind, in counter order.
    pub const ALL: [EventKind; 25] = [
        EventKind::IpcDeliver,
        EventKind::MqSend,
        EventKind::IpcReplyDropped,
        EventKind::DevWrite,
        EventKind::ProcSpawn,
        EventKind::ProcExit,
        EventKind::ThreadStart,
        EventKind::ThreadExit,
        EventKind::PmKill,
        EventKind::SignalKill,
        EventKind::MqCreate,
        EventKind::UntypedRetype,
        EventKind::TcbSuspend,
        EventKind::CapDropped,
        EventKind::AcmDeny,
        EventKind::CapDeny,
        EventKind::DacDeny,
        EventKind::QuotaDeny,
        EventKind::DevDeny,
        EventKind::GrantDeny,
        EventKind::SignalDeny,
        EventKind::CapChurn,
        EventKind::FaultCrash,
        EventKind::FaultClock,
        EventKind::FaultIpc,
    ];

    /// Number of kinds (the length of the counter array).
    pub const COUNT: usize = Self::ALL.len();

    /// Stable dotted name, e.g. `"ipc.deliver"` or `"acm.deny"`.
    pub const fn name(self) -> &'static str {
        match self {
            EventKind::IpcDeliver => "ipc.deliver",
            EventKind::MqSend => "mq.send",
            EventKind::IpcReplyDropped => "ipc.reply_dropped",
            EventKind::DevWrite => "dev.write",
            EventKind::ProcSpawn => "proc.spawn",
            EventKind::ProcExit => "proc.exit",
            EventKind::ThreadStart => "thread.start",
            EventKind::ThreadExit => "thread.exit",
            EventKind::PmKill => "pm.kill",
            EventKind::SignalKill => "signal.kill",
            EventKind::MqCreate => "mq.create",
            EventKind::UntypedRetype => "untyped.retype",
            EventKind::TcbSuspend => "tcb.suspend",
            EventKind::CapDropped => "cap.dropped",
            EventKind::AcmDeny => "acm.deny",
            EventKind::CapDeny => "cap.deny",
            EventKind::DacDeny => "dac.deny",
            EventKind::QuotaDeny => "quota.deny",
            EventKind::DevDeny => "dev.deny",
            EventKind::GrantDeny => "grant.deny",
            EventKind::SignalDeny => "signal.deny",
            EventKind::CapChurn => "cap.churn",
            EventKind::FaultCrash => "fault.crash",
            EventKind::FaultClock => "fault.clock",
            EventKind::FaultIpc => "fault.ipc",
        }
    }

    /// True for the kinds a kernel records when it refuses an operation;
    /// each such event is one `KernelMetrics::access_denied`.
    pub const fn is_denial(self) -> bool {
        matches!(
            self,
            EventKind::AcmDeny
                | EventKind::CapDeny
                | EventKind::DacDeny
                | EventKind::QuotaDeny
                | EventKind::DevDeny
                | EventKind::GrantDeny
                | EventKind::SignalDeny
        )
    }
}

impl fmt::Display for EventKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A kernel's typed event detail: `Copy`, rendered only on demand.
pub trait EventDetail: Copy + fmt::Display {
    /// The counter this event increments.
    fn kind(&self) -> EventKind;
}

/// One recorded kernel event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelEvent<E> {
    /// Virtual time of the event.
    pub time: SimTime,
    /// Process the event is attributed to, if any.
    pub pid: Option<Pid>,
    /// What happened, with the fields the kernel checked.
    pub detail: E,
}

impl<E: EventDetail> KernelEvent<E> {
    /// The event's category.
    pub fn kind(&self) -> EventKind {
        self.detail.kind()
    }
}

impl<E: EventDetail> fmt::Display for KernelEvent<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] ", self.time)?;
        match self.pid {
            Some(pid) => write!(f, "{pid}")?,
            None => f.write_str("-")?,
        }
        write!(f, " {}: {}", self.kind(), self.detail)
    }
}

/// Exact per-kind counts plus a ring of the last [`RING_LEN`] events.
///
/// ```
/// use std::fmt;
/// use bas_sim::time::SimTime;
/// use bas_sim::trace::{EventDetail, EventKind, Recorder};
///
/// #[derive(Clone, Copy)]
/// struct Boot;
/// impl fmt::Display for Boot {
///     fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
///         f.write_str("kernel up")
///     }
/// }
/// impl EventDetail for Boot {
///     fn kind(&self) -> EventKind {
///         EventKind::ProcSpawn
///     }
/// }
///
/// let mut rec = Recorder::new();
/// rec.record(SimTime::ZERO, None, Boot);
/// assert_eq!(rec.count(EventKind::ProcSpawn), 1);
/// assert_eq!(rec.recent().count(), 1);
/// ```
#[derive(Debug)]
pub struct Recorder<E> {
    counts: [u64; EventKind::COUNT],
    ring: Vec<KernelEvent<E>>,
    /// Ring index the next event overwrites once the ring is full.
    next: usize,
    enabled: bool,
}

impl<E: EventDetail> Default for Recorder<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E: EventDetail> Recorder<E> {
    /// Creates an enabled, empty recorder. Allocates nothing until the
    /// first event.
    pub fn new() -> Self {
        Recorder {
            counts: [0; EventKind::COUNT],
            ring: Vec::new(),
            next: 0,
            enabled: true,
        }
    }

    /// Stops recording entirely, counts included (throughput probes that
    /// measure the kernel without its instrumentation).
    pub fn disable(&mut self) {
        self.enabled = false;
    }

    /// Counts the event and writes it into the ring.
    #[inline]
    pub fn record(&mut self, time: SimTime, pid: Option<Pid>, detail: E) {
        if !self.enabled {
            return;
        }
        self.counts[detail.kind() as usize] += 1;
        let event = KernelEvent { time, pid, detail };
        if self.ring.len() < RING_LEN {
            self.ring.push(event);
        } else {
            self.ring[self.next] = event;
        }
        self.next = (self.next + 1) % RING_LEN;
    }

    /// Exact number of events of `kind` since boot.
    pub fn count(&self, kind: EventKind) -> u64 {
        self.counts[kind as usize]
    }

    /// Exact number of denial events since boot (see
    /// [`EventKind::is_denial`]).
    pub fn denials(&self) -> u64 {
        EventKind::ALL
            .iter()
            .filter(|k| k.is_denial())
            .map(|&k| self.count(k))
            .sum()
    }

    /// The retained events, oldest first: every event while fewer than
    /// [`RING_LEN`] were recorded, else the last [`RING_LEN`].
    pub fn recent(&self) -> impl Iterator<Item = &KernelEvent<E>> {
        let oldest = if self.ring.len() < RING_LEN {
            0
        } else {
            self.next
        };
        let (newer, older) = self.ring.split_at(oldest);
        older.iter().chain(newer)
    }

    /// Zeroes the counters and empties the ring, keeping its allocation
    /// and the enabled flag (snapshot-fork boot).
    pub fn clear(&mut self) {
        self.counts = [0; EventKind::COUNT];
        self.ring.clear();
        self.next = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Ev {
        Deliver(u32),
        Deny(u32),
    }

    impl fmt::Display for Ev {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self {
                Ev::Deliver(n) => write!(f, "msg {n}"),
                Ev::Deny(n) => write!(f, "blocked {n}"),
            }
        }
    }

    impl EventDetail for Ev {
        fn kind(&self) -> EventKind {
            match self {
                Ev::Deliver(_) => EventKind::IpcDeliver,
                Ev::Deny(_) => EventKind::AcmDeny,
            }
        }
    }

    fn at(n: u64) -> SimTime {
        SimTime::from_nanos(n)
    }

    #[test]
    fn counts_are_exact_per_kind() {
        let mut rec = Recorder::new();
        rec.record(at(0), None, Ev::Deliver(1));
        rec.record(at(1), None, Ev::Deny(2));
        rec.record(at(2), None, Ev::Deliver(3));
        assert_eq!(rec.count(EventKind::IpcDeliver), 2);
        assert_eq!(rec.count(EventKind::AcmDeny), 1);
        assert_eq!(rec.count(EventKind::DacDeny), 0);
        assert_eq!(rec.denials(), 1);
    }

    #[test]
    fn ring_keeps_the_last_events_oldest_first() {
        let mut rec = Recorder::new();
        let total = RING_LEN as u32 + 10;
        for n in 0..total {
            rec.record(at(n.into()), None, Ev::Deliver(n));
        }
        assert_eq!(rec.count(EventKind::IpcDeliver), total.into());
        let kept: Vec<u32> = rec
            .recent()
            .map(|e| match e.detail {
                Ev::Deliver(n) | Ev::Deny(n) => n,
            })
            .collect();
        assert_eq!(kept.len(), RING_LEN);
        assert_eq!(kept[0], 10);
        assert_eq!(*kept.last().unwrap(), total - 1);
        assert_eq!(rec.ring.capacity(), RING_LEN);
    }

    #[test]
    fn partial_ring_iterates_in_order() {
        let mut rec = Recorder::new();
        rec.record(at(0), None, Ev::Deliver(7));
        rec.record(at(1), None, Ev::Deny(8));
        let kept: Vec<Ev> = rec.recent().map(|e| e.detail).collect();
        assert_eq!(kept, vec![Ev::Deliver(7), Ev::Deny(8)]);
    }

    #[test]
    fn clear_keeps_the_allocation() {
        let mut rec = Recorder::new();
        for n in 0..RING_LEN as u32 + 1 {
            rec.record(at(0), None, Ev::Deliver(n));
        }
        let cap = rec.ring.capacity();
        rec.clear();
        assert_eq!(rec.count(EventKind::IpcDeliver), 0);
        assert_eq!(rec.recent().count(), 0);
        assert_eq!(rec.ring.capacity(), cap);
        rec.record(at(0), None, Ev::Deny(1));
        assert_eq!(rec.recent().count(), 1);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut rec = Recorder::new();
        rec.disable();
        rec.record(at(0), None, Ev::Deliver(1));
        assert_eq!(rec.count(EventKind::IpcDeliver), 0);
        assert_eq!(rec.recent().count(), 0);
    }

    #[test]
    fn kinds_have_distinct_names_in_counter_order() {
        for (i, k) in EventKind::ALL.iter().enumerate() {
            assert_eq!(*k as usize, i);
        }
        let mut names: Vec<_> = EventKind::ALL.iter().map(|k| k.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), EventKind::COUNT);
    }

    #[test]
    fn display_mentions_kind_pid_and_detail() {
        let e = KernelEvent {
            time: at(1_000),
            pid: Some(Pid::new(4)),
            detail: Ev::Deny(3),
        };
        let s = e.to_string();
        assert!(s.contains("acm.deny"), "{s}");
        assert!(s.contains("pid4"), "{s}");
        assert!(s.contains("blocked 3"), "{s}");
    }
}
