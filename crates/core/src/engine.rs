//! The generic scenario engine: one lockstep runner over every platform.
//!
//! Each platform stack ([`platform::minix::MinixStack`],
//! [`platform::sel4::Sel4Stack`], [`platform::linux::LinuxStack`])
//! implements [`PlatformKernel`] — boot the five-process scenario from its
//! policy artifact, step the kernel, expose trace and metrics — and keeps
//! its platform-free state in a [`StackState`]. [`ScenarioEngine`] runs the
//! kernel/plant lockstep loop, keeps the safety oracle's authorized
//! reference in step with the schedule, decides how a stack recycles,
//! and supplies the [`Scenario`] trait surface the experiments and the
//! attack harness consume.
//!
//! [`platform::minix::MinixStack`]: crate::platform::minix::MinixStack
//! [`platform::sel4::Sel4Stack`]: crate::platform::sel4::Sel4Stack
//! [`platform::linux::LinuxStack`]: crate::platform::linux::LinuxStack

use std::cell::RefCell;
use std::rc::Rc;

use bas_plant::world::PlantWorld;
use bas_plant::SharedPlant;
use bas_sim::caps::{CapChurnOp, CapTrace};
use bas_sim::device::DeviceBus;
use bas_sim::fault::IpcFault;
use bas_sim::metrics::KernelMetrics;
use bas_sim::time::{SimDuration, SimTime};
use bas_sim::trace::EventKind;

use crate::logic::web::{
    new_request_log, shared_schedule, RequestLog, RequestSample, SharedSchedule, WebSession,
};
use crate::proto::BasMsg;
use crate::scenario::{new_web_log, Platform, Scenario, ScenarioConfig, WebLog};

/// The state every platform stack keeps beside its kernel: the plant,
/// the benign web client's shared cells, and the two flags that decide
/// whether and how the stack recycles.
pub struct StackState {
    plant: SharedPlant,
    web_log: WebLog,
    /// The effective action schedule. The benign web client holds a
    /// cursor over this cell, so a recycled stack whose kernel was never
    /// reset still picks up the next instance's traffic.
    web_schedule: SharedSchedule,
    web_requests: RequestLog,
    /// False when the stack booted with attacker overrides (which may be
    /// stateful one-shots) or had its device bus touched (interposed
    /// fault devices survive a kernel reset): recycling could then not
    /// promise byte-identity with a cold boot.
    pub(crate) forkable: bool,
    /// True once anything mutated the kernel after boot (stepping, fault
    /// or churn injection); every mutating [`PlatformKernel`] method sets
    /// it. While false the kernel is still the boot template verbatim —
    /// only the plant carries the seed — so recycling skips the kernel
    /// reset and the respawns.
    pub(crate) ran: bool,
}

impl StackState {
    /// The boot-time state under `config`. `forkable` is false when
    /// attacker overrides booted the stack.
    pub(crate) fn new(config: &ScenarioConfig, forkable: bool) -> Self {
        StackState {
            plant: Rc::new(RefCell::new(PlantWorld::new(
                config.synced_plant(),
                config.seed,
            ))),
            web_log: new_web_log(),
            web_schedule: shared_schedule(config.effective_web_schedule()),
            web_requests: new_request_log(),
            forkable,
            ran: false,
        }
    }

    /// Handle to the physical world the kernel's devices are wired to.
    pub(crate) fn plant(&self) -> &SharedPlant {
        &self.plant
    }

    /// A fresh benign web session over this stack's shared cells.
    pub(crate) fn web_session(&self) -> WebSession {
        WebSession::new(
            self.web_schedule.clone(),
            self.web_log.clone(),
            self.web_requests.clone(),
        )
    }

    /// Re-images the platform-free state for the instance `config`
    /// describes. The plant is re-seeded in place, because its `Rc`
    /// identity is what the installed devices and the engine hold; the
    /// schedule is seed-derived under traffic, so its cell is re-imaged
    /// on every recycle; both logs start empty.
    fn reimage(&mut self, config: &ScenarioConfig) {
        *self.plant.borrow_mut() = PlantWorld::new(config.synced_plant(), config.seed);
        *self.web_schedule.borrow_mut() = config.effective_web_schedule();
        self.web_log.borrow_mut().clear();
        self.web_requests.borrow_mut().clear();
    }
}

/// One platform's bootable kernel stack, as seen by the generic engine
/// and the fleet layer.
///
/// Implementations own the simulated kernel and a [`StackState`]; the
/// engine owns the lockstep loop, the recycle policy and the
/// cross-platform [`Scenario`] surface. Attack injection and ablation
/// policies ride in through [`PlatformKernel::Overrides`].
pub trait PlatformKernel {
    /// The platform this stack models.
    const PLATFORM: Platform;

    /// Build-time knobs: attacker web-interface factories, replacement
    /// policies, fault injection, supervision.
    type Overrides: Default;

    /// Boots the five-process scenario from the platform's policy
    /// artifact (ACM / CapDL spec / mq ACL plan).
    fn boot(config: &ScenarioConfig, overrides: Self::Overrides) -> Self;

    /// The platform-free state beside the kernel.
    fn state(&self) -> &StackState;

    /// Mutable access to the platform-free state.
    fn state_mut(&mut self) -> &mut StackState;

    /// Resets the kernel and re-runs the boot-time spawns, so the kernel
    /// matches a cold boot under `config` — the kernel half of the
    /// snapshot-fork recycle. `config` is the boot template modulo
    /// `seed`. The engine calls it only on a forkable stack that ran.
    fn reboot(&mut self, config: &ScenarioConfig);

    /// Current virtual time.
    fn now(&self) -> SimTime;

    /// Advances the kernel's event loop to `target` virtual time.
    fn run_until(&mut self, target: SimTime);

    /// Kernel counters.
    fn metrics(&self) -> KernelMetrics;

    /// Names of live processes/threads.
    fn alive_names(&self) -> Vec<String>;

    /// Exact number of kernel events of `kind` since boot.
    fn event_count(&self, kind: EventKind) -> u64;

    // ----- fault-injection hooks (`bas-faults`) -----------------------------

    /// Mutable access to the kernel's device bus, so fault interposers
    /// can wrap plant devices (`DeviceBus::interpose`).
    fn devices_mut(&mut self) -> &mut DeviceBus;

    /// Kills the named process/thread outright — a simulated crash, not a
    /// policy-gated kill. Restart semantics are the platform's own: a
    /// supervised MINIX stack re-forks the victim, Linux and seL4 do not.
    /// Returns false if no live process bears the name.
    fn inject_crash(&mut self, name: &str) -> bool;

    /// Arms `count` one-shot IPC faults, consumed in order by subsequent
    /// application sends (after each platform's access-control gate).
    fn arm_ipc_fault(&mut self, fault: IpcFault, count: u32);

    /// Number of armed IPC faults consumed so far.
    fn ipc_faults_applied(&self) -> u64;

    /// Jumps the kernel clock forward by `d` — a tick-skew fault.
    fn skew_clock(&mut self, d: SimDuration);

    // ----- capability churn hooks (`bas-analysis::races`) -------------------

    /// Applies a mid-run capability mutation: `op.subject` and `op.object`
    /// are scenario instance names, and each platform maps them onto its
    /// own authority structure — a MINIX ACM row, an seL4 CDT revoke
    /// sweep, a Linux mq mode edit. Returns false when the platform
    /// cannot resolve the pair (or the op was already in effect).
    fn apply_cap_churn(&mut self, op: &CapChurnOp) -> bool;

    /// Arms `op` to fire immediately after the `after_checks`-th
    /// subsequent *successful* admission check by `op.subject` toward
    /// `op.object` — deterministically inside the platform's check→use
    /// window.
    fn arm_cap_churn(&mut self, op: &CapChurnOp, after_checks: u32);

    /// Starts recording the kernel's structured capability-event stream
    /// ([`bas_sim::caps::CapEvent`]). Off by default.
    fn enable_cap_trace(&mut self);

    /// Snapshot of the capability-event stream recorded so far. Empty
    /// when tracing was never enabled.
    fn cap_trace(&self) -> CapTrace;
}

/// Hook called with the platform stack at every lockstep chunk boundary
/// (see [`ScenarioEngine::set_tick_hook`]).
pub type TickHook<K> = Box<dyn FnMut(&mut K)>;

/// A booted scenario on some [`PlatformKernel`].
///
/// ```no_run
/// use bas_core::engine::ScenarioEngine;
/// use bas_core::platform::minix::MinixStack;
/// use bas_core::scenario::{critical_alive, Scenario, ScenarioConfig};
/// use bas_sim::time::SimDuration;
///
/// let mut s = ScenarioEngine::<MinixStack>::boot(&ScenarioConfig::default(), Default::default());
/// s.run_for(SimDuration::from_mins(30));
/// assert!(critical_alive(&s));
/// ```
pub struct ScenarioEngine<K: PlatformKernel> {
    /// The booted platform stack (public for experiment introspection:
    /// `s.stack.kernel`, and on seL4 `s.stack.spec` / `s.stack.sys`).
    pub stack: K,
    chunk: SimDuration,
    reference_changes: Vec<(SimTime, i32)>,
    next_reference: usize,
    tick_hook: Option<TickHook<K>>,
}

impl<K: PlatformKernel> ScenarioEngine<K> {
    /// Boots the scenario on `K` and prepares the lockstep runner.
    pub fn boot(config: &ScenarioConfig, overrides: K::Overrides) -> Self {
        ScenarioEngine {
            stack: K::boot(config, overrides),
            chunk: config.lockstep_chunk,
            reference_changes: config.reference_changes(),
            next_reference: 0,
            tick_hook: None,
        }
    }

    /// Installs a hook called with the stack at the start of every
    /// lockstep chunk in [`Scenario::run_for`] (so roughly every
    /// `config.lockstep_chunk` of virtual time). `bas-faults` uses this
    /// to fire scheduled fault events: anything due at or before the
    /// current virtual time fires on the next chunk boundary.
    pub fn set_tick_hook(&mut self, hook: impl FnMut(&mut K) + 'static) {
        self.tick_hook = Some(Box::new(hook));
    }
}

impl<K: PlatformKernel> Scenario for ScenarioEngine<K> {
    fn platform(&self) -> Platform {
        K::PLATFORM
    }

    fn run_for(&mut self, d: SimDuration) {
        let end = self.stack.now() + d;
        while self.stack.now() < end {
            if let Some(hook) = self.tick_hook.as_mut() {
                hook(&mut self.stack);
            }
            let target = {
                let t = self.stack.now() + self.chunk;
                if t > end {
                    end
                } else {
                    t
                }
            };
            self.stack.run_until(target);
            // Keep the safety oracle's authorized reference in sync with
            // the administrator's (in-range, in-order) setpoint changes.
            while let Some(&(t, mc)) = self.reference_changes.get(self.next_reference) {
                if t <= self.stack.now() {
                    self.stack
                        .state()
                        .plant()
                        .borrow_mut()
                        .set_reference(mc as f64 / 1000.0);
                    self.next_reference += 1;
                } else {
                    break;
                }
            }
            let now = self.stack.now();
            self.stack.state().plant().borrow_mut().step_to(now);
        }
    }

    fn now(&self) -> SimTime {
        self.stack.now()
    }

    fn plant(&self) -> SharedPlant {
        self.stack.state().plant().clone()
    }

    fn metrics(&self) -> KernelMetrics {
        self.stack.metrics()
    }

    fn alive_names(&self) -> Vec<String> {
        self.stack.alive_names()
    }

    fn event_count(&self, kind: EventKind) -> u64 {
        self.stack.event_count(kind)
    }

    fn web_responses(&self) -> Vec<BasMsg> {
        self.stack.state().web_log.borrow().clone()
    }

    fn request_samples(&self) -> Vec<RequestSample> {
        self.stack.state().web_requests.borrow().clone()
    }

    fn reset_to_boot(&mut self, config: &ScenarioConfig) -> bool {
        if !self.stack.state().forkable {
            return false;
        }
        if self.stack.state().ran {
            self.stack.reboot(config);
            self.stack.state_mut().ran = false;
        }
        self.stack.state_mut().reimage(config);
        self.chunk = config.lockstep_chunk;
        self.reference_changes = config.reference_changes();
        self.next_reference = 0;
        true
    }
}

/// Boots the scenario on the named platform with default overrides —
/// the one entry point experiments use instead of hand-wiring builders.
pub fn boot_platform(platform: Platform, config: &ScenarioConfig) -> Box<dyn Scenario> {
    match platform {
        Platform::Minix => Box::new(ScenarioEngine::<crate::platform::minix::MinixStack>::boot(
            config,
            Default::default(),
        )),
        Platform::Sel4 => Box::new(ScenarioEngine::<crate::platform::sel4::Sel4Stack>::boot(
            config,
            Default::default(),
        )),
        Platform::Linux => Box::new(ScenarioEngine::<crate::platform::linux::LinuxStack>::boot(
            config,
            Default::default(),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::critical_alive;

    #[test]
    fn boot_platform_runs_everywhere() {
        for platform in [Platform::Minix, Platform::Sel4, Platform::Linux] {
            let mut s = boot_platform(platform, &ScenarioConfig::quiet());
            assert_eq!(s.platform(), platform);
            s.run_for(SimDuration::from_mins(5));
            assert!(critical_alive(s.as_ref()), "{platform} lost a process");
            assert!(s.metrics().ipc_messages > 0, "{platform} ipc starved");
        }
    }
}
