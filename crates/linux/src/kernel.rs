//! The simulated monolithic Linux kernel.
//!
//! Contrast with `bas-minix`: IPC objects (message queues) are *globally
//! named* and guarded only by DAC mode bits at open time; delivered
//! messages carry no kernel identity; `kill` is a direct syscall gated by
//! uid comparison with a root bypass. Every attack in §IV-D.1 flows
//! through one of those three facts.
//!
//! Hot-path layout: queue names are interned at `mq_open` time, so a
//! descriptor carries a dense `u32` queue id and `mq_send`/`mq_receive`
//! never touch a `String`. Payload bytes are staged once into the kernel
//! [`MsgArena`] at the user→kernel boundary; queues and blocked-sender
//! PCBs move the 8-byte [`MsgRef`] handle, and the bytes are copied out
//! exactly once at delivery.

use std::collections::BTreeMap;

use bas_sim::arena::{MsgArena, MsgRef};
use bas_sim::caps::{CapChurnOp, CapLog, CapOp, CapTrace, ChurnKind};
use bas_sim::clock::{CostModel, VirtualClock};
use bas_sim::device::{DeviceBus, DeviceId};
use bas_sim::fault::{IpcFault, IpcFaultState};
use bas_sim::metrics::KernelMetrics;
use bas_sim::process::{Action, Pid, ProcState, ProgramFactory};
use bas_sim::sched::RunQueue;
use bas_sim::time::{SimDuration, SimTime};
use bas_sim::timer::TimerQueue;
use bas_sim::trace::{EventDetail, EventKind, Recorder};

use crate::cred::{Mode, Uid};
use crate::error::LinuxError;
use crate::event::LinuxEvent;
use crate::mq::{MessageQueue, MqMessage, MQ_MSG_MAX};
use crate::syscall::{MqAccess, Reply, Signal, Syscall};

/// A boxed Linux user process.
pub type LinuxProcess = Box<dyn bas_sim::process::Process<Syscall = Syscall, Reply = Reply>>;

/// `O_CREAT` attributes for `mq_open`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct MqCreate {
    /// Permission bits for the new queue.
    pub mode: u16,
    /// Maximum number of queued messages.
    pub capacity: usize,
}

/// Kernel construction parameters.
pub struct LinuxConfig {
    /// Maximum process count.
    pub max_procs: usize,
    /// Virtual-time cost model. The monolithic kernel performs mq
    /// operations in a single kernel entry with no extra context switches
    /// — the paper's performance contrast with the microkernels.
    pub cost_model: CostModel,
    /// `/dev` node ownership: device → (owner uid, mode).
    pub device_nodes: BTreeMap<DeviceId, (Uid, Mode)>,
}

impl Default for LinuxConfig {
    fn default() -> Self {
        LinuxConfig {
            max_procs: 64,
            cost_model: CostModel::default(),
            device_nodes: BTreeMap::new(),
        }
    }
}

/// An open descriptor: the interned queue id plus the access intents
/// granted at open time. `Copy`, so `mq_send`/`mq_receive` never clone a
/// queue name on the hot path.
#[derive(Debug, Clone, Copy)]
struct OpenQueue {
    qid: u32,
    access: MqAccess,
}

#[derive(Debug)]
enum Block {
    /// Blocked in `mq_send` on a full queue. The payload is already
    /// staged in the arena; the PCB parks only the handle.
    MqSendWait {
        qid: u32,
        msg: MsgRef,
        priority: u32,
        /// Capability-trace seq of the send's `Use` event, carried so the
        /// eventual enqueue (and delivery) keeps its provenance.
        use_seq: Option<u64>,
    },
    /// Blocked in `mq_receive` on an empty queue.
    MqRecvWait { qid: u32 },
}

struct ProcEntry {
    name: String,
    uid: Uid,
    fds: Vec<Option<OpenQueue>>,
    state: ProcState<Block>,
    logic: Option<LinuxProcess>,
    pending_reply: Option<Reply>,
}

/// The simulated Linux kernel.
pub struct LinuxKernel {
    procs: Vec<Option<ProcEntry>>,
    /// Queues addressed by interned id; `None` marks an unlinked slot
    /// (stale descriptors observe `ENOENT`, as before interning).
    queues: Vec<Option<MessageQueue>>,
    /// VFS name → interned queue id, consulted only at open/unlink.
    queue_ids: BTreeMap<String, u32>,
    /// Kernel message arena: payload bytes for queued and parked sends.
    arena: MsgArena,
    programs: Vec<(String, ProgramFactory<Syscall, Reply>)>,
    names: BTreeMap<String, Pid>,
    run_queue: RunQueue,
    timers: TimerQueue,
    clock: VirtualClock,
    metrics: KernelMetrics,
    events: Recorder<LinuxEvent>,
    devices: DeviceBus,
    device_nodes: BTreeMap<DeviceId, (Uid, Mode)>,
    max_procs: usize,
    last_run: Option<Pid>,
    ipc_faults: IpcFaultState,
    /// Structured capability-event stream (disabled by default).
    cap_log: CapLog,
    /// Churn ops armed to fire after the Nth successful open check.
    armed_churn: Vec<(CapChurnOp, u32)>,
}

/// The mode triple that governs `uid`'s access to a node owned by
/// `owner`: the owner bits, the group bits, or — mirroring the loose
/// no-group check in [`Mode::allows_with_group`] — the union of the group
/// and other triples.
fn class_bits(uid: Uid, owner: Uid, group: Option<Uid>) -> u16 {
    if uid == owner {
        0o700
    } else if group == Some(uid) {
        0o070
    } else if group.is_some() {
        0o007
    } else {
        0o077
    }
}

/// Queue-name lookup for capability-event records.
fn qname_of(queues: &[Option<MessageQueue>], qid: u32) -> &str {
    queues
        .get(qid as usize)
        .and_then(Option::as_ref)
        .map_or("?", |q| q.name.as_str())
}

impl std::fmt::Debug for LinuxKernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LinuxKernel")
            .field("now", &self.clock.now())
            .field("processes", &self.process_count())
            .field("queues", &self.queue_ids.len())
            .field("metrics", &self.metrics)
            .finish()
    }
}

impl LinuxKernel {
    /// Boots an empty kernel.
    pub fn new(config: LinuxConfig) -> Self {
        LinuxKernel {
            procs: Vec::new(),
            queues: Vec::new(),
            queue_ids: BTreeMap::new(),
            arena: MsgArena::with_capacity(config.max_procs),
            programs: Vec::new(),
            names: BTreeMap::new(),
            run_queue: RunQueue::new(),
            timers: TimerQueue::new(),
            clock: VirtualClock::new(config.cost_model),
            metrics: KernelMetrics::default(),
            events: Recorder::new(),
            devices: DeviceBus::new(),
            device_nodes: config.device_nodes,
            max_procs: config.max_procs,
            last_run: None,
            ipc_faults: IpcFaultState::default(),
            cap_log: CapLog::new(),
            armed_churn: Vec::new(),
        }
    }

    /// Returns the kernel to the state it had immediately after
    /// [`Self::new`] plus `register_program` calls — the snapshot-fork
    /// boot path. Registered programs, installed devices and the `/dev`
    /// node table survive (boot-template state); processes, queues, the
    /// VFS name table and every other mutable structure are emptied in
    /// place, reusing live allocations. The caller re-runs the same
    /// boot-time queue creation and spawns afterwards, which re-interns
    /// queue ids in creation order — byte-identical to a cold boot.
    pub fn reset_to_boot(&mut self) {
        self.procs.clear();
        self.queues.clear();
        self.queue_ids.clear();
        self.arena.reset_to_capacity(self.max_procs);
        self.names.clear();
        self.run_queue.clear();
        self.timers.clear();
        self.clock.reset();
        self.metrics = KernelMetrics::default();
        self.events.clear();
        self.last_run = None;
        self.ipc_faults = IpcFaultState::default();
        self.cap_log = CapLog::new();
        self.armed_churn.clear();
    }

    // ----- construction ------------------------------------------------------

    /// Registers a program image for `Fork`; returns nothing (forks refer
    /// to programs by name).
    pub fn register_program(
        &mut self,
        name: impl Into<String>,
        factory: ProgramFactory<Syscall, Reply>,
    ) {
        self.programs.push((name.into(), factory));
    }

    /// Spawns a process directly (init path).
    ///
    /// # Errors
    ///
    /// Returns [`LinuxError::ProcessTableFull`] when at capacity.
    pub fn spawn(
        &mut self,
        name: impl Into<String>,
        uid: u32,
        logic: LinuxProcess,
    ) -> Result<Pid, LinuxError> {
        if self.process_count() >= self.max_procs {
            return Err(LinuxError::ProcessTableFull);
        }
        let name = name.into();
        let slot = self
            .procs
            .iter()
            .position(Option::is_none)
            .unwrap_or_else(|| {
                self.procs.push(None);
                self.procs.len() - 1
            });
        let pid = Pid::new(slot as u32);
        self.procs[slot] = Some(ProcEntry {
            name: name.clone(),
            uid: Uid::new(uid),
            fds: Vec::new(),
            state: ProcState::Runnable,
            logic: Some(logic),
            pending_reply: None,
        });
        self.names.insert(name, pid);
        self.run_queue.enqueue(pid);
        self.metrics.processes_created += 1;
        self.record(Some(pid), LinuxEvent::ProcSpawn { uid: Uid::new(uid) });
        Ok(pid)
    }

    /// Mutable access to the device bus, for installing plant devices.
    pub fn devices_mut(&mut self) -> &mut DeviceBus {
        &mut self.devices
    }

    // ----- fault injection ---------------------------------------------------

    /// Armed one-shot IPC faults, consumed by `mq_send` calls *after* the
    /// descriptor and DAC checks pass.
    pub fn ipc_faults_mut(&mut self) -> &mut IpcFaultState {
        &mut self.ipc_faults
    }

    /// Read access to the IPC fault queue (applied/pending counters).
    pub fn ipc_faults(&self) -> &IpcFaultState {
        &self.ipc_faults
    }

    // ----- capability churn ---------------------------------------------------

    /// Starts recording the structured capability-event stream.
    pub fn enable_cap_trace(&mut self) {
        self.cap_log.enable();
    }

    /// Snapshot of the capability-event stream recorded so far.
    pub fn cap_trace(&self) -> CapTrace {
        self.cap_log.trace()
    }

    /// Applies a chmod-style churn op: edits the permission triple through
    /// which the live process named `op.subject` reaches the queue named
    /// `op.object`. Revoke clears the triple, attenuate strips its write
    /// bits, grant sets read+write. Returns false when the subject or
    /// queue is unknown or the bits were already in the requested state.
    ///
    /// Open descriptors are deliberately left untouched — exactly Linux's
    /// semantics, and exactly the window the race detector hunts:
    /// `mq_send` trusts the open-time DAC check forever after.
    pub fn apply_cap_churn(&mut self, op: &CapChurnOp) -> bool {
        let Some(uid) = self
            .pid_of(&op.subject)
            .and_then(|p| self.entry_ref(p))
            .map(|e| e.uid)
        else {
            return false;
        };
        let Some(&qid) = self.queue_ids.get(&op.object) else {
            return false;
        };
        let Some(q) = self.queues.get_mut(qid as usize).and_then(Option::as_mut) else {
            return false;
        };
        let class = class_bits(uid, q.owner, q.group);
        let old = q.mode.bits();
        let new = match op.kind {
            ChurnKind::Grant => old | (class & 0o666),
            ChurnKind::Attenuate => old & !(class & 0o222),
            ChurnKind::Revoke => old & !class,
        };
        q.mode = Mode::new(new);
        let changed = new != old;
        let cap_op = match op.kind {
            ChurnKind::Grant => CapOp::Grant,
            ChurnKind::Attenuate => CapOp::Attenuate,
            ChurnKind::Revoke => CapOp::Revoke,
        };
        let now = self.clock.now();
        self.cap_log.record_with(now, cap_op, changed, || {
            (
                op.actor.clone(),
                format!("mq:{}:{}", op.object, op.subject),
                op.object.clone(),
            )
        });
        self.record(
            None,
            LinuxEvent::CapChurn {
                kind: op.kind,
                qid,
                old,
                new,
            },
        );
        changed
    }

    /// Arms a churn op to fire immediately after the `after_checks`-th
    /// subsequent *successful* DAC open check by `op.subject` on
    /// `op.object` — deterministically inside the check→use window.
    pub fn arm_cap_churn(&mut self, op: &CapChurnOp, after_checks: u32) {
        self.armed_churn.push((op.clone(), after_checks));
    }

    fn fire_armed_churn(&mut self, opener: &str, qname: &str) {
        let mut due = Vec::new();
        self.armed_churn.retain_mut(|(op, remaining)| {
            if op.subject != opener || op.object != qname {
                return true;
            }
            if *remaining == 0 {
                due.push(op.clone());
                false
            } else {
                *remaining -= 1;
                true
            }
        });
        for op in due {
            self.apply_cap_churn(&op);
        }
    }

    /// Kills the named process outright (a simulated crash — distinct
    /// from `kill(2)`, which is subject to DAC). Returns false if no live
    /// process bears the name. There is no supervisor: nothing restarts it.
    pub fn kill_named(&mut self, name: &str) -> bool {
        let Some(pid) = self.pid_of(name) else {
            return false;
        };
        self.record(Some(pid), LinuxEvent::FaultCrash);
        self.terminate(pid);
        true
    }

    /// Jumps the kernel clock forward by `d` without running anyone — a
    /// tick-skew fault.
    pub fn skew_clock(&mut self, d: SimDuration) {
        self.clock.advance(d);
        self.record(None, LinuxEvent::FaultClock { skew: d });
    }

    /// Pre-creates a message queue owned by `owner` (scenario-loader
    /// path, mirroring the paper's "scenario process [...] creates 6
    /// message queues").
    pub fn create_queue(
        &mut self,
        name: impl Into<String>,
        owner: Uid,
        mode: Mode,
        capacity: usize,
    ) {
        let name = name.into();
        self.install_queue(MessageQueue::new(name, owner, mode, capacity));
    }

    /// Pre-creates a message queue whose mode's group triple applies to
    /// `group` — the "specifically configured to only allow the correct
    /// user account" setup the paper discusses.
    pub fn create_queue_grouped(
        &mut self,
        name: impl Into<String>,
        owner: Uid,
        group: Uid,
        mode: Mode,
        capacity: usize,
    ) {
        let name = name.into();
        self.install_queue(MessageQueue::new(name, owner, mode, capacity).with_group(group));
    }

    /// Interns (or replaces) a queue under its VFS name; returns the id.
    fn install_queue(&mut self, q: MessageQueue) -> u32 {
        if let Some(&qid) = self.queue_ids.get(&q.name) {
            // Same name re-created: release any payload the old queue
            // still holds before swapping the new one in.
            if let Some(old) = self.queues[qid as usize].take() {
                self.free_queue_slots(old);
            }
            self.queues[qid as usize] = Some(q);
            return qid;
        }
        let slot = self
            .queues
            .iter()
            .position(Option::is_none)
            .unwrap_or_else(|| {
                self.queues.push(None);
                self.queues.len() - 1
            });
        self.queue_ids.insert(q.name.clone(), slot as u32);
        self.queues[slot] = Some(q);
        slot as u32
    }

    /// Returns every queued payload slot of a detached queue to the arena.
    fn free_queue_slots(&mut self, mut q: MessageQueue) {
        while let Some(m) = q.pop() {
            self.arena.free(m.msg);
        }
    }

    fn queue_ref(&self, qid: u32) -> Option<&MessageQueue> {
        self.queues.get(qid as usize).and_then(Option::as_ref)
    }

    // ----- introspection -------------------------------------------------------

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.clock.now()
    }

    /// Kernel counters.
    pub fn metrics(&self) -> &KernelMetrics {
        &self.metrics
    }

    /// The event recorder: exact per-kind counts and the last events.
    pub fn events(&self) -> &Recorder<LinuxEvent> {
        &self.events
    }

    /// Exact number of `kind` events since boot.
    pub fn event_count(&self, kind: EventKind) -> u64 {
        self.events.count(kind)
    }

    /// Disables event recording (throughput benchmarks).
    pub fn disable_trace(&mut self) {
        self.events.disable();
    }

    /// True if the process is alive.
    pub fn is_alive(&self, pid: Pid) -> bool {
        self.entry_ref(pid).is_some()
    }

    /// Number of live processes.
    pub fn process_count(&self) -> usize {
        self.procs.iter().filter(|p| p.is_some()).count()
    }

    /// Looks up a live process by name.
    pub fn pid_of(&self, name: &str) -> Option<Pid> {
        self.names.get(name).copied().filter(|&p| self.is_alive(p))
    }

    /// Names of live processes, sorted.
    pub fn alive_process_names(&self) -> Vec<String> {
        let mut v: Vec<String> = self
            .procs
            .iter()
            .filter_map(|p| p.as_ref().map(|e| e.name.clone()))
            .collect();
        v.sort();
        v
    }

    /// Live queue names, for diagnostics.
    pub fn queue_names(&self) -> Vec<String> {
        self.queue_ids.keys().cloned().collect()
    }

    /// Depth of a queue, if it exists.
    pub fn queue_len(&self, name: &str) -> Option<usize> {
        self.queue_ids
            .get(name)
            .and_then(|&qid| self.queue_ref(qid))
            .map(MessageQueue::len)
    }

    // ----- execution -------------------------------------------------------------

    /// Runs until virtual time reaches `t`.
    pub fn run_until(&mut self, t: SimTime) {
        loop {
            self.fire_due_timers();
            if self.clock.now() >= t {
                return;
            }
            if let Some(pid) = self.run_queue.dequeue() {
                self.dispatch(pid);
            } else {
                match self.timers.next_deadline() {
                    Some(d) if d <= t => self.clock.advance_to(d),
                    _ => {
                        self.clock.advance_to(t);
                        return;
                    }
                }
            }
        }
    }

    /// Runs until nothing is runnable and no timer is armed.
    pub fn run_to_quiescence(&mut self) -> usize {
        let mut steps = 0;
        loop {
            self.fire_due_timers();
            let Some(pid) = self.run_queue.dequeue() else {
                match self.timers.next_deadline() {
                    Some(d) => {
                        self.clock.advance_to(d);
                        continue;
                    }
                    None => return steps,
                }
            };
            self.dispatch(pid);
            steps += 1;
            assert!(steps < 5_000_000, "kernel failed to quiesce");
        }
    }

    fn fire_due_timers(&mut self) {
        let now = self.clock.now();
        while let Some(pid) = self.timers.pop_due(now) {
            if let Some(entry) = self.entry_mut(pid) {
                if matches!(entry.state, ProcState::Sleeping) {
                    entry.state = ProcState::Runnable;
                    entry.pending_reply = Some(Reply::Ok);
                    self.run_queue.enqueue(pid);
                }
            }
        }
    }

    fn dispatch(&mut self, pid: Pid) {
        let Some(entry) = self.entry_mut(pid) else {
            return;
        };
        if !entry.state.is_runnable() {
            return;
        }
        let mut logic = entry.logic.take().expect("runnable process has logic");
        let reply = entry.pending_reply.take();

        if self.last_run != Some(pid) {
            self.clock.charge_context_switch();
            self.metrics.context_switches += 1;
            self.last_run = Some(pid);
        }
        self.clock.charge_user_compute();

        let action = logic.resume(reply);
        if let Some(entry) = self.entry_mut(pid) {
            entry.logic = Some(logic);
        }

        match action {
            Action::Syscall(sys) => {
                self.metrics.kernel_entries += 1;
                self.clock.charge_kernel_entry();
                self.clock.charge_syscall_dispatch();
                self.handle_syscall(pid, sys);
            }
            Action::Yield => self.run_queue.enqueue(pid),
            Action::Exit(code) => {
                self.record(Some(pid), LinuxEvent::ProcExit { code });
                self.terminate(pid);
            }
        }
    }

    // ----- syscalls ---------------------------------------------------------------

    fn handle_syscall(&mut self, pid: Pid, sys: Syscall) {
        match sys {
            Syscall::MqOpen {
                name,
                access,
                create,
            } => self.do_mq_open(pid, name, access, create),
            Syscall::MqSend {
                qd,
                data,
                priority,
                nonblocking,
            } => self.do_mq_send(pid, qd, data, priority, nonblocking),
            Syscall::MqReceive { qd, nonblocking } => self.do_mq_receive(pid, qd, nonblocking),
            Syscall::MqUnlink { name } => self.do_mq_unlink(pid, name),
            Syscall::Kill {
                pid: target,
                signal,
            } => self.do_kill(pid, target, signal),
            Syscall::Fork { program } => self.do_fork(pid, program),
            Syscall::SetUid { uid } => {
                let caller_uid = self.entry_ref(pid).expect("caller").uid;
                let r = if caller_uid.is_root() {
                    self.entry_mut(pid).expect("caller").uid = Uid::new(uid);
                    Reply::Ok
                } else {
                    self.deny(
                        pid,
                        LinuxEvent::SetUidDeny {
                            uid: caller_uid,
                            requested: Uid::new(uid),
                            err: LinuxError::NotPermitted,
                        },
                    );
                    Reply::Err(LinuxError::NotPermitted)
                };
                self.ready_with(pid, r);
            }
            Syscall::PidOf { name } => {
                let r = match self.pid_of(&name) {
                    Some(p) => Reply::Pid(p),
                    None => Reply::Err(LinuxError::NoSuchProcess),
                };
                self.ready_with(pid, r);
            }
            Syscall::GetPid => self.ready_with(pid, Reply::Pid(pid)),
            Syscall::GetUid => {
                let uid = self.entry_ref(pid).expect("caller").uid.as_u32();
                self.ready_with(pid, Reply::Uid(uid));
            }
            Syscall::Sleep { duration } => {
                let deadline = self.clock.now() + duration;
                self.timers.arm(deadline, pid);
                if let Some(entry) = self.entry_mut(pid) {
                    entry.state = ProcState::Sleeping;
                }
            }
            Syscall::GetTime => {
                let now = self.clock.now();
                self.ready_with(pid, Reply::Time(now));
            }
            Syscall::DevRead { dev } => self.do_device(pid, dev, None),
            Syscall::DevWrite { dev, value } => self.do_device(pid, dev, Some(value)),
        }
    }

    fn do_mq_open(&mut self, pid: Pid, name: String, access: MqAccess, create: Option<MqCreate>) {
        let uid = self.entry_ref(pid).expect("caller").uid;
        let qid = match self.queue_ids.get(&name).copied() {
            None => match create {
                Some(attr) => {
                    let qid = self.install_queue(MessageQueue::new(
                        name.clone(),
                        uid,
                        Mode::new(attr.mode),
                        attr.capacity,
                    ));
                    self.record(
                        Some(pid),
                        LinuxEvent::MqCreate {
                            qid,
                            mode: attr.mode,
                        },
                    );
                    if self.cap_log.enabled() {
                        let now = self.clock.now();
                        let subject = self.entry_ref(pid).expect("caller").name.clone();
                        self.cap_log.record_with(now, CapOp::Grant, true, || {
                            (
                                subject.clone(),
                                format!("mq:{name}:{subject}"),
                                name.clone(),
                            )
                        });
                    }
                    qid
                }
                None => {
                    self.ready_with(pid, Reply::Err(LinuxError::NoEntry));
                    return;
                }
            },
            Some(qid) => {
                let q = self.queue_ref(qid).expect("interned name maps to queue");
                let allowed =
                    q.mode
                        .allows_with_group(uid, q.owner, q.group, access.read, access.write);
                if self.cap_log.enabled() || !self.armed_churn.is_empty() {
                    let subject = self.entry_ref(pid).expect("caller").name.clone();
                    let now = self.clock.now();
                    self.cap_log.record_with(now, CapOp::Check, allowed, || {
                        (
                            subject.clone(),
                            format!("mq:{name}:{subject}"),
                            name.clone(),
                        )
                    });
                    if allowed {
                        // The armed revoke lands *after* the DAC check and
                        // *before* the descriptor is handed out — the
                        // descriptor then outlives the permission.
                        self.fire_armed_churn(&subject, &name);
                    }
                }
                if !allowed {
                    self.deny(
                        pid,
                        LinuxEvent::MqDeny {
                            uid,
                            qid,
                            err: LinuxError::AccessDenied,
                        },
                    );
                    self.ready_with(pid, Reply::Err(LinuxError::AccessDenied));
                    return;
                }
                qid
            }
        };
        let entry = self.entry_mut(pid).expect("caller");
        let fd = entry
            .fds
            .iter()
            .position(Option::is_none)
            .unwrap_or_else(|| {
                entry.fds.push(None);
                entry.fds.len() - 1
            });
        entry.fds[fd] = Some(OpenQueue { qid, access });
        self.ready_with(pid, Reply::Qd(fd as u32));
    }

    fn open_queue(&self, pid: Pid, qd: u32) -> Result<OpenQueue, LinuxError> {
        self.entry_ref(pid)
            .and_then(|e| e.fds.get(qd as usize))
            .copied()
            .flatten()
            .ok_or(LinuxError::BadDescriptor)
    }

    fn do_mq_send(&mut self, pid: Pid, qd: u32, data: Vec<u8>, priority: u32, nonblocking: bool) {
        let oq = match self.open_queue(pid, qd) {
            Ok(o) => o,
            Err(e) => return self.ready_with(pid, Reply::Err(e)),
        };
        if !oq.access.write {
            return self.ready_with(pid, Reply::Err(LinuxError::BadDescriptor));
        }
        if data.len() > MQ_MSG_MAX {
            return self.ready_with(pid, Reply::Err(LinuxError::MessageTooLong));
        }
        if self.queue_ref(oq.qid).is_none() {
            return self.ready_with(pid, Reply::Err(LinuxError::NoEntry));
        }

        // Scheduled IPC fault (`bas-faults` campaigns). Consumed only
        // after the descriptor checks pass, so an injected fault disturbs
        // authorized traffic but cannot widen authority.
        let fault = self.ipc_faults.pop();
        match fault {
            Some(IpcFault::Drop) => {
                self.record(Some(pid), LinuxEvent::IpcDropped { qid: oq.qid });
                // mq_send reports success; the message never lands.
                return self.ready_with(pid, Reply::Ok);
            }
            Some(IpcFault::Delay(d)) => {
                // The message sits in transit: the kernel pays the
                // latency, then enqueues normally.
                self.clock.advance(d);
                self.record(
                    Some(pid),
                    LinuxEvent::IpcDelayed {
                        qid: oq.qid,
                        delay: d,
                    },
                );
            }
            Some(IpcFault::Duplicate) | None => {}
        }

        // The send-side capability use. `still_ok` is an observer-only
        // recheck of the *current* mode bits: the kernel itself (like
        // Linux) consults only the stored descriptor, so a send through a
        // revoked-but-open descriptor proceeds — and is recorded with
        // ok=false, the stale-authority evidence the detector consumes.
        let use_seq = if self.cap_log.enabled() {
            let q = self.queue_ref(oq.qid).expect("checked above");
            let e = self.entry_ref(pid).expect("caller");
            let still_ok = q
                .mode
                .allows_with_group(e.uid, q.owner, q.group, false, true);
            let sender = e.name.clone();
            let qname = q.name.clone();
            let now = self.clock.now();
            self.cap_log.record_with(now, CapOp::Use, still_ok, || {
                (sender.clone(), format!("mq:{qname}:{sender}"), qname)
            })
        } else {
            None
        };

        // Stage the payload into the arena once (the user→kernel copy);
        // from here on only the handle moves.
        let msg = self.arena.alloc(&data);
        let q = self.queues[oq.qid as usize]
            .as_mut()
            .expect("checked above");
        if q.is_full() {
            if nonblocking {
                self.arena.free(msg);
                return self.ready_with(pid, Reply::Err(LinuxError::WouldBlock));
            }
            self.metrics.ipc_waits += 1;
            if let Some(entry) = self.entry_mut(pid) {
                entry.state = ProcState::Blocked(Block::MqSendWait {
                    qid: oq.qid,
                    msg,
                    priority,
                    use_seq,
                });
            }
            return;
        }
        // A duplicated send is a second reference to the same slot, not a
        // second copy of the bytes.
        let duplicate = matches!(fault, Some(IpcFault::Duplicate)).then(|| self.arena.dup(msg));
        q.push(MqMessage::new(priority, msg).with_use_seq(use_seq));
        self.note_ipc(oq.qid, pid);
        if let Some(dup) = duplicate {
            // The queue absorbs a duplicate only while it has room; a
            // full buffer loses the transport's re-presented copy.
            let q = self.queues[oq.qid as usize]
                .as_mut()
                .expect("checked above");
            if q.is_full() {
                self.arena.free(dup);
            } else {
                q.push(MqMessage::new(priority, dup).with_use_seq(use_seq));
                self.record(Some(pid), LinuxEvent::IpcDuplicated { qid: oq.qid });
                self.note_ipc(oq.qid, pid);
            }
        }
        self.ready_with(pid, Reply::Ok);
        self.pump_queue(oq.qid);
    }

    fn do_mq_receive(&mut self, pid: Pid, qd: u32, nonblocking: bool) {
        let oq = match self.open_queue(pid, qd) {
            Ok(o) => o,
            Err(e) => return self.ready_with(pid, Reply::Err(e)),
        };
        if !oq.access.read {
            return self.ready_with(pid, Reply::Err(LinuxError::BadDescriptor));
        }
        let Some(q) = self
            .queues
            .get_mut(oq.qid as usize)
            .and_then(Option::as_mut)
        else {
            return self.ready_with(pid, Reply::Err(LinuxError::NoEntry));
        };
        match q.pop() {
            Some(m) => {
                // The kernel→user copy: bytes leave the arena exactly
                // once, and the slot recycles immediately.
                let data = self.arena.get(m.msg).to_vec();
                self.arena.free(m.msg);
                self.note_cap_recv(oq.qid, pid, m.use_seq);
                self.ready_with(
                    pid,
                    Reply::Data {
                        data,
                        priority: m.priority,
                    },
                );
                self.pump_queue(oq.qid);
            }
            None if nonblocking => self.ready_with(pid, Reply::Err(LinuxError::WouldBlock)),
            None => {
                if let Some(entry) = self.entry_mut(pid) {
                    entry.state = ProcState::Blocked(Block::MqRecvWait { qid: oq.qid });
                }
            }
        }
    }

    fn do_mq_unlink(&mut self, pid: Pid, name: String) {
        let uid = self.entry_ref(pid).expect("caller").uid;
        match self.queue_ids.get(&name).copied() {
            None => self.ready_with(pid, Reply::Err(LinuxError::NoEntry)),
            Some(qid) => {
                let owner = self
                    .queue_ref(qid)
                    .expect("interned name maps to queue")
                    .owner;
                if uid.is_root() || uid == owner {
                    self.queue_ids.remove(&name);
                    if let Some(q) = self.queues[qid as usize].take() {
                        self.free_queue_slots(q);
                    }
                    // Processes blocked on the queue get ENOENT; parked
                    // send payloads return to the arena.
                    for p in self.blocked_on_queue(qid) {
                        let parked = self
                            .entry_mut(p)
                            .map(|e| std::mem::replace(&mut e.state, ProcState::Runnable));
                        if let Some(ProcState::Blocked(Block::MqSendWait { msg, .. })) = parked {
                            self.arena.free(msg);
                        }
                        self.ready_with(p, Reply::Err(LinuxError::NoEntry));
                    }
                    self.ready_with(pid, Reply::Ok);
                } else {
                    self.deny(
                        pid,
                        LinuxEvent::MqDeny {
                            uid,
                            qid,
                            err: LinuxError::AccessDenied,
                        },
                    );
                    self.ready_with(pid, Reply::Err(LinuxError::AccessDenied));
                }
            }
        }
    }

    fn do_kill(&mut self, caller: Pid, target: Pid, signal: Signal) {
        let caller_uid = self.entry_ref(caller).expect("caller").uid;
        let Some(target_uid) = self.entry_ref(target).map(|e| e.uid) else {
            return self.ready_with(caller, Reply::Err(LinuxError::NoSuchProcess));
        };
        // The entire permission model: same uid or root.
        if !caller_uid.is_root() && caller_uid != target_uid {
            self.deny(
                caller,
                LinuxEvent::SignalDeny {
                    uid: caller_uid,
                    target_uid,
                    err: LinuxError::NotPermitted,
                },
            );
            return self.ready_with(caller, Reply::Err(LinuxError::NotPermitted));
        }
        self.record(Some(caller), LinuxEvent::SignalKill { signal, target });
        self.terminate(target);
        if target != caller {
            self.ready_with(caller, Reply::Ok);
        }
    }

    fn do_fork(&mut self, caller: Pid, program: String) {
        let uid = self.entry_ref(caller).expect("caller").uid;
        let Some((name, factory)) = self.programs.iter().find(|(n, _)| *n == program) else {
            return self.ready_with(caller, Reply::Err(LinuxError::NoSuchProgram));
        };
        let child_logic = factory();
        let child_name = format!("{name}#{}", self.metrics.processes_created + 1);
        match self.spawn(child_name, uid.as_u32(), child_logic) {
            Ok(child) => self.ready_with(caller, Reply::Pid(child)),
            Err(e) => self.ready_with(caller, Reply::Err(e)),
        }
    }

    fn do_device(&mut self, pid: Pid, dev: DeviceId, write: Option<i64>) {
        let uid = self.entry_ref(pid).expect("caller").uid;
        let Some(&(owner, mode)) = self.device_nodes.get(&dev) else {
            return self.ready_with(pid, Reply::Err(LinuxError::NoEntry));
        };
        let (want_read, want_write) = (write.is_none(), write.is_some());
        if !mode.allows(uid, owner, want_read, want_write) {
            self.deny(
                pid,
                LinuxEvent::DevDeny {
                    uid,
                    dev,
                    err: LinuxError::AccessDenied,
                },
            );
            return self.ready_with(pid, Reply::Err(LinuxError::AccessDenied));
        }
        match write {
            Some(value) => match self.devices.write(dev, value) {
                Ok(()) => {
                    self.record(Some(pid), LinuxEvent::DevWrite { dev, value });
                    self.ready_with(pid, Reply::Ok);
                }
                Err(_) => self.ready_with(pid, Reply::Err(LinuxError::NoEntry)),
            },
            None => match self.devices.read(dev) {
                Ok(v) => self.ready_with(pid, Reply::DevValue(v)),
                Err(_) => self.ready_with(pid, Reply::Err(LinuxError::NoEntry)),
            },
        }
    }

    // ----- queue wake-ups -----------------------------------------------------------

    fn blocked_on_queue(&self, qid: u32) -> Vec<Pid> {
        self.procs
            .iter()
            .enumerate()
            .filter_map(|(i, p)| {
                let e = p.as_ref()?;
                let hit = match &e.state {
                    ProcState::Blocked(Block::MqSendWait { qid: q, .. })
                    | ProcState::Blocked(Block::MqRecvWait { qid: q }) => *q == qid,
                    _ => false,
                };
                hit.then(|| Pid::new(i as u32))
            })
            .collect()
    }

    /// Drains wake-up opportunities on a queue until no progress: deliver
    /// to waiting receivers while messages exist; admit waiting senders
    /// while space exists.
    fn pump_queue(&mut self, qid: u32) {
        loop {
            let mut progressed = false;

            // Wake one receiver if a message is available.
            if self.queue_ref(qid).is_some_and(|q| !q.is_empty()) {
                let receiver = self.procs.iter().enumerate().find_map(|(i, p)| {
                    let e = p.as_ref()?;
                    matches!(
                        &e.state,
                        ProcState::Blocked(Block::MqRecvWait { qid: q }) if *q == qid
                    )
                    .then(|| Pid::new(i as u32))
                });
                if let Some(r) = receiver {
                    let m = self.queues[qid as usize]
                        .as_mut()
                        .expect("exists")
                        .pop()
                        .expect("nonempty");
                    let data = self.arena.get(m.msg).to_vec();
                    self.arena.free(m.msg);
                    self.note_cap_recv(qid, r, m.use_seq);
                    self.ready_with(
                        r,
                        Reply::Data {
                            data,
                            priority: m.priority,
                        },
                    );
                    progressed = true;
                }
            }

            // Admit one sender if space is available. The parked handle
            // moves PCB→queue without touching the payload bytes.
            if self.queue_ref(qid).is_some_and(|q| !q.is_full()) {
                let sender = self.procs.iter().enumerate().find_map(|(i, p)| {
                    let e = p.as_ref()?;
                    matches!(
                        &e.state,
                        ProcState::Blocked(Block::MqSendWait { qid: q, .. }) if *q == qid
                    )
                    .then(|| Pid::new(i as u32))
                });
                if let Some(s) = sender {
                    let (msg, priority, use_seq) = {
                        let entry = self.entry_mut(s).expect("sender alive");
                        match std::mem::replace(&mut entry.state, ProcState::Runnable) {
                            ProcState::Blocked(Block::MqSendWait {
                                msg,
                                priority,
                                use_seq,
                                ..
                            }) => (msg, priority, use_seq),
                            _ => unreachable!("sender was send-waiting"),
                        }
                    };
                    self.queues[qid as usize]
                        .as_mut()
                        .expect("exists")
                        .push(MqMessage::new(priority, msg).with_use_seq(use_seq));
                    self.note_ipc(qid, s);
                    self.ready_with(s, Reply::Ok);
                    progressed = true;
                }
            }

            if !progressed {
                return;
            }
        }
    }

    /// Records the receiver-side `Recv` event and the happens-before edge
    /// from the message's send-side `Use`, if capability tracing is on.
    fn note_cap_recv(&mut self, qid: u32, receiver: Pid, use_seq: Option<u64>) {
        if !self.cap_log.enabled() {
            return;
        }
        let qname = qname_of(&self.queues, qid).to_string();
        let Some(who) = self.entry_ref(receiver).map(|e| e.name.clone()) else {
            return;
        };
        let now = self.clock.now();
        let recv_seq = self.cap_log.record_with(now, CapOp::Recv, true, || {
            (who.clone(), format!("mq:{qname}:{who}"), qname)
        });
        self.cap_log.edge(use_seq, recv_seq);
    }

    fn note_ipc(&mut self, qid: u32, sender: Pid) {
        self.metrics.ipc_messages += 1;
        self.clock.charge_ipc_copy(64);
        self.metrics.ipc_bytes += 64;
        self.metrics.hot_path_allocs = self.arena.heap_events();
        self.record(Some(sender), LinuxEvent::MqSend { qid });
    }

    /// Records a refusal: one `access_denied` and one denial event,
    /// always together, so the denial kinds' counts sum to
    /// `access_denied`. The caller sends the error reply.
    fn deny(&mut self, pid: Pid, detail: LinuxEvent) {
        debug_assert!(detail.kind().is_denial(), "{detail} is not a denial");
        self.metrics.access_denied += 1;
        self.record(Some(pid), detail);
    }

    fn record(&mut self, pid: Option<Pid>, detail: LinuxEvent) {
        self.events.record(self.clock.now(), pid, detail);
    }

    // ----- termination ----------------------------------------------------------------

    fn terminate(&mut self, pid: Pid) {
        let Some(entry) = self.procs.get_mut(pid.as_usize()).and_then(Option::take) else {
            return;
        };
        // A send parked on a full queue still owns its arena slot.
        if let ProcState::Blocked(Block::MqSendWait { msg, .. }) = &entry.state {
            self.arena.free(*msg);
        }
        self.run_queue.remove(pid);
        self.timers.cancel(pid);
        self.names.retain(|_, p| *p != pid);
        self.metrics.processes_reaped += 1;
        if self.last_run == Some(pid) {
            self.last_run = None;
        }
        drop(entry);
    }

    fn ready_with(&mut self, pid: Pid, reply: Reply) {
        if let Some(entry) = self.entry_mut(pid) {
            entry.pending_reply = Some(reply);
            entry.state = ProcState::Runnable;
            self.run_queue.enqueue(pid);
        }
    }

    fn entry_ref(&self, pid: Pid) -> Option<&ProcEntry> {
        self.procs.get(pid.as_usize()).and_then(Option::as_ref)
    }

    fn entry_mut(&mut self, pid: Pid) -> Option<&mut ProcEntry> {
        self.procs.get_mut(pid.as_usize()).and_then(Option::as_mut)
    }
}
