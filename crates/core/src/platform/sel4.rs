//! The scenario on seL4/CAmkES (§IV-B).
//!
//! The assembly from [`crate::policy::scenario_assembly`] is compiled to a
//! CapDL spec, realized as the bootstrap process would, and *verified*
//! against the spec before any thread runs ("for high-assurance systems
//! this file can also be machine verified"). All IPC is `seL4RPCCall`
//! RPC — chosen by the paper "to avoid a scenario where the malicious web
//! interface could indefinitely block one of the temperature controller's
//! threads". The controller authenticates callers by endpoint badge, the
//! kernel-enforced identity of the capability system.

use std::collections::VecDeque;
use std::sync::Arc;

use bas_camkes::codegen::{compile, GlueMap};
use bas_camkes::glue::{RpcClient, RpcRequest, RpcServer};
use bas_capdl::realize::{realize, RealizedSystem};
use bas_capdl::spec::CapDlSpec;
use bas_capdl::verify::verify;
use bas_plant::devices::install_devices;
use bas_sel4::cap::CPtr;
use bas_sel4::kernel::{Sel4Config, Sel4Kernel, Sel4Thread};
use bas_sel4::syscall::{Reply, Syscall};
use bas_sim::metrics::KernelMetrics;
use bas_sim::process::{Action, Process};
use bas_sim::time::{SimDuration, SimTime};
use bas_sim::trace::EventKind;

use crate::engine::{PlatformKernel, ScenarioEngine, StackState};
use crate::logic::control::{ControlCore, Directive};
use crate::logic::web::{WebAction, WebSession, WebStep};
use crate::policy::{self, actuator_rpc, ctrl_rpc, instances};
use crate::proto::BasMsg;
use crate::scenario::{Platform, ScenarioConfig};

fn encode_i32(v: i32) -> u64 {
    u64::from(v as u32)
}

fn decode_i32(w: u64) -> i32 {
    w as u32 as i32
}

// ---------------------------------------------------------------------------
// Controller thread
// ---------------------------------------------------------------------------

/// The temperature controller as an RPC server plus actuator RPC client.
pub struct Sel4Control {
    core: ControlCore,
    server: RpcServer,
    fan: RpcClient,
    alarm: RpcClient,
    sensor_badge: u64,
    web_badge: u64,
    pending: Option<RpcRequest>,
    outbox: VecDeque<Syscall>,
    state: CtrlSt,
}

enum CtrlSt {
    Start,
    AwaitRecv,
    AwaitTime,
    Drain,
}

impl Sel4Control {
    /// Creates the controller thread from its glue slots and badges.
    pub fn new(
        core: ControlCore,
        server: RpcServer,
        fan: RpcClient,
        alarm: RpcClient,
        sensor_badge: u64,
        web_badge: u64,
    ) -> Self {
        Sel4Control {
            core,
            server,
            fan,
            alarm,
            sensor_badge,
            web_badge,
            pending: None,
            outbox: VecDeque::new(),
            state: CtrlSt::Start,
        }
    }

    fn handle(&mut self, req: RpcRequest, now: SimTime) {
        match req.label {
            ctrl_rpc::REPORT_READING => {
                // Badge authentication: only the sensor's connection may
                // report readings. A compromised web interface calling
                // with a forged label still carries *its own* badge.
                if req.badge != self.sensor_badge || req.args.is_empty() {
                    self.outbox.push_back(self.server.reply(1, vec![]));
                    return;
                }
                let milli_c = decode_i32(req.args[0]);
                for d in self.core.on_sensor_reading(now, milli_c) {
                    match d {
                        Directive::SetFan(on) => self
                            .outbox
                            .push_back(self.fan.call(actuator_rpc::SET, vec![u64::from(on)])),
                        Directive::SetAlarm(on) => self
                            .outbox
                            .push_back(self.alarm.call(actuator_rpc::SET, vec![u64::from(on)])),
                    }
                }
                self.outbox.push_back(self.server.reply(0, vec![]));
            }
            ctrl_rpc::SET_SETPOINT => {
                if req.badge != self.web_badge || req.args.is_empty() {
                    self.outbox.push_back(self.server.reply(1, vec![]));
                    return;
                }
                let code = match self.core.on_setpoint_update(now, decode_i32(req.args[0])) {
                    Ok(()) => 0u64,
                    Err(_) => 1u64,
                };
                let actual = encode_i32(self.core.status().setpoint_milli_c);
                // The reply label doubles as the result code so callers
                // (and the attack evidence classifier) see validation
                // failures at the RPC layer.
                self.outbox
                    .push_back(self.server.reply(code, vec![code, actual]));
            }
            ctrl_rpc::GET_STATUS => {
                if req.badge != self.web_badge {
                    self.outbox.push_back(self.server.reply(1, vec![]));
                    return;
                }
                let s = self.core.status();
                self.outbox.push_back(self.server.reply(
                    0,
                    vec![
                        encode_i32(s.last_reading_milli_c),
                        encode_i32(s.setpoint_milli_c),
                        u64::from(s.fan_on),
                        u64::from(s.alarm_on),
                    ],
                ));
            }
            _ => self.outbox.push_back(self.server.reply(1, vec![])),
        }
    }
}

impl Process for Sel4Control {
    type Syscall = Syscall;
    type Reply = Reply;

    fn resume(&mut self, mut reply: Option<Reply>) -> Action<Syscall> {
        loop {
            match self.state {
                CtrlSt::Start => {
                    self.state = CtrlSt::AwaitRecv;
                    return Action::Syscall(self.server.next_request());
                }
                CtrlSt::AwaitRecv => match reply.take() {
                    Some(Reply::Msg(m)) => {
                        self.pending = Some(self.server.decode(&m));
                        self.state = CtrlSt::AwaitTime;
                        return Action::Syscall(Syscall::GetTime);
                    }
                    _ => return Action::Syscall(self.server.next_request()),
                },
                CtrlSt::AwaitTime => {
                    let now = match reply.take() {
                        Some(Reply::Time(t)) => t,
                        _ => SimTime::ZERO,
                    };
                    if let Some(req) = self.pending.take() {
                        self.handle(req, now);
                    }
                    self.state = CtrlSt::Drain;
                }
                CtrlSt::Drain => match self.outbox.pop_front() {
                    // Actuator-call errors (e.g. suspended driver) are
                    // tolerated; the controller keeps serving.
                    Some(sys) => return Action::Syscall(sys),
                    None => {
                        self.state = CtrlSt::AwaitRecv;
                        return Action::Syscall(self.server.next_request());
                    }
                },
            }
        }
    }

    fn name(&self) -> &str {
        instances::CONTROL
    }
}

// ---------------------------------------------------------------------------
// Sensor thread
// ---------------------------------------------------------------------------

/// The sensor driver thread: read the device frame, `seL4_Call` the
/// controller, sleep, repeat.
pub struct Sel4Sensor {
    dev: CPtr,
    ctrl: RpcClient,
    period: SimDuration,
    seq: u32,
    state: SensorSt,
}

enum SensorSt {
    Start,
    AwaitDevRead,
    AwaitCall,
    AwaitSleep,
}

impl Sel4Sensor {
    /// Creates the sensor thread.
    pub fn new(dev: CPtr, ctrl: RpcClient, period: SimDuration) -> Self {
        Sel4Sensor {
            dev,
            ctrl,
            period,
            seq: 0,
            state: SensorSt::Start,
        }
    }
}

impl Process for Sel4Sensor {
    type Syscall = Syscall;
    type Reply = Reply;

    fn resume(&mut self, reply: Option<Reply>) -> Action<Syscall> {
        match self.state {
            SensorSt::Start => {
                self.state = SensorSt::AwaitDevRead;
                Action::Syscall(Syscall::DevRead { dev: self.dev })
            }
            SensorSt::AwaitDevRead => match reply {
                Some(Reply::DevValue(v)) => {
                    self.seq += 1;
                    self.state = SensorSt::AwaitCall;
                    Action::Syscall(self.ctrl.call(
                        ctrl_rpc::REPORT_READING,
                        vec![encode_i32(v as i32), u64::from(self.seq)],
                    ))
                }
                _ => Action::Exit(1),
            },
            SensorSt::AwaitCall => {
                // The RPC reply content is an ack; errors (controller
                // restart) just mean a dropped sample.
                self.state = SensorSt::AwaitSleep;
                Action::Syscall(Syscall::Sleep {
                    duration: self.period,
                })
            }
            SensorSt::AwaitSleep => {
                self.state = SensorSt::AwaitDevRead;
                Action::Syscall(Syscall::DevRead { dev: self.dev })
            }
        }
    }

    fn name(&self) -> &str {
        instances::SENSOR
    }
}

// ---------------------------------------------------------------------------
// Actuator threads
// ---------------------------------------------------------------------------

/// An actuator driver thread: serve `set(on)` RPCs, drive the device
/// frame, reply.
pub struct Sel4Actuator {
    server: RpcServer,
    dev: CPtr,
    which: &'static str,
    state: ActSt,
}

enum ActSt {
    Start,
    AwaitRecv,
    AwaitWrite,
    AwaitReply,
}

impl Sel4Actuator {
    /// Creates an actuator thread (`which` is its instance name).
    pub fn new(server: RpcServer, dev: CPtr, which: &'static str) -> Self {
        Sel4Actuator {
            server,
            dev,
            which,
            state: ActSt::Start,
        }
    }
}

impl Process for Sel4Actuator {
    type Syscall = Syscall;
    type Reply = Reply;

    fn resume(&mut self, reply: Option<Reply>) -> Action<Syscall> {
        match self.state {
            ActSt::Start => {
                self.state = ActSt::AwaitRecv;
                Action::Syscall(self.server.next_request())
            }
            ActSt::AwaitRecv => match reply {
                Some(Reply::Msg(m)) => {
                    let req = self.server.decode(&m);
                    if req.label == actuator_rpc::SET && !req.args.is_empty() {
                        self.state = ActSt::AwaitWrite;
                        Action::Syscall(Syscall::DevWrite {
                            dev: self.dev,
                            value: i64::from(req.args[0] != 0),
                        })
                    } else {
                        self.state = ActSt::AwaitReply;
                        Action::Syscall(self.server.reply(1, vec![]))
                    }
                }
                _ => Action::Syscall(self.server.next_request()),
            },
            ActSt::AwaitWrite => {
                self.state = ActSt::AwaitReply;
                Action::Syscall(self.server.reply(0, vec![]))
            }
            ActSt::AwaitReply => {
                self.state = ActSt::AwaitRecv;
                Action::Syscall(self.server.next_request())
            }
        }
    }

    fn name(&self) -> &str {
        self.which
    }
}

// ---------------------------------------------------------------------------
// Web interface thread (benign)
// ---------------------------------------------------------------------------

/// The benign web interface thread: scripted administrator RPCs. Its
/// [`WebSession`] decides what to send and when; this thread adds the
/// CAmkES RPC encoding and decodes the reply words by the request sent.
pub struct Sel4Web {
    ctrl: RpcClient,
    session: WebSession,
    state: WebSt,
}

enum WebSt {
    Start,
    AwaitTime,
    AwaitSleep,
    AwaitRpc,
}

impl Sel4Web {
    /// Creates the benign web interface calling the controller through
    /// `ctrl`.
    pub fn new(ctrl: RpcClient, session: WebSession) -> Self {
        Sel4Web {
            ctrl,
            session,
            state: WebSt::Start,
        }
    }

    fn read_clock(&mut self) -> Action<Syscall> {
        self.state = WebSt::AwaitTime;
        Action::Syscall(Syscall::GetTime)
    }

    fn send(&mut self, action: WebAction) -> Action<Syscall> {
        self.state = WebSt::AwaitRpc;
        match action {
            WebAction::SetSetpoint(mc) => {
                Action::Syscall(self.ctrl.call(ctrl_rpc::SET_SETPOINT, vec![encode_i32(mc)]))
            }
            WebAction::QueryStatus => Action::Syscall(self.ctrl.call(ctrl_rpc::GET_STATUS, vec![])),
        }
    }
}

impl Process for Sel4Web {
    type Syscall = Syscall;
    type Reply = Reply;

    fn resume(&mut self, reply: Option<Reply>) -> Action<Syscall> {
        match self.state {
            WebSt::Start | WebSt::AwaitSleep => self.read_clock(),
            WebSt::AwaitTime => {
                let now = match reply {
                    Some(Reply::Time(t)) => t,
                    _ => SimTime::ZERO,
                };
                match self.session.on_clock(now) {
                    WebStep::Send(action) => self.send(action),
                    WebStep::Sleep(duration) => {
                        self.state = WebSt::AwaitSleep;
                        Action::Syscall(Syscall::Sleep { duration })
                    }
                }
            }
            WebSt::AwaitRpc => {
                let decoded = match (reply, self.session.inflight()) {
                    (Some(Reply::Msg(m)), Some(WebAction::SetSetpoint(_)))
                        if !m.words.is_empty() =>
                    {
                        Some(BasMsg::Ack {
                            code: m.words[0] as u32,
                        })
                    }
                    (Some(Reply::Msg(m)), Some(WebAction::QueryStatus)) if m.words.len() >= 4 => {
                        Some(BasMsg::Status {
                            temp_milli_c: decode_i32(m.words[0]),
                            setpoint_milli_c: decode_i32(m.words[1]),
                            fan_on: m.words[2] != 0,
                            alarm_on: m.words[3] != 0,
                        })
                    }
                    _ => None,
                };
                match self.session.on_reply(decoded) {
                    Some(action) => self.send(action),
                    None => self.read_clock(),
                }
            }
        }
    }

    fn name(&self) -> &str {
        instances::WEB
    }
}

// ---------------------------------------------------------------------------
// Builder + runner
// ---------------------------------------------------------------------------

/// An extra capability deliberately granted after bootstrap — the
/// capability-misconfiguration ablation (the paper's security argument is
/// exactly that policy, not the kernel alone, provides the protection).
pub struct ExtraCap {
    /// The thread (instance name) receiving the capability.
    pub holder: &'static str,
    /// The endpoint to grant, named as `(server instance, interface)`.
    pub endpoint_of: (&'static str, &'static str),
    /// Rights on the granted capability.
    pub rights: bas_sel4::rights::CapRights,
    /// Badge on the granted capability.
    pub badge: u64,
}

/// Factory producing the web-interface thread from the glue map.
pub type WebThreadFactory = Box<dyn FnOnce(&GlueMap) -> Sel4Thread>;

/// Build-time knobs used by the attack harness.
#[derive(Default)]
pub struct Sel4Overrides {
    /// Replaces the web interface thread. The factory receives the glue
    /// map — the paper grants the attacker "access to the capability
    /// distribution information" (the CapDL file).
    pub web_factory: Option<WebThreadFactory>,
    /// Extra capability grants applied after boot-time verification.
    pub extra_caps: Vec<ExtraCap>,
    /// Pre-compiled CapDL artifacts shared behind `Arc` — the
    /// snapshot-fork boot path, where a fleet of instances realizes one
    /// compiled spec instead of re-running the CAmkES compiler per boot.
    pub compiled: Option<(Arc<CapDlSpec>, Arc<GlueMap>)>,
}

/// The booted seL4/CAmkES stack: kernel, compiled CapDL artifacts and
/// platform-free state.
pub struct Sel4Stack {
    /// The simulated kernel (public for experiment introspection).
    pub kernel: Sel4Kernel,
    /// The compiled CapDL spec (for live verification experiments).
    /// `Arc`: boot-time state, shareable across forked instances.
    pub spec: Arc<CapDlSpec>,
    /// Bootstrap name maps.
    pub sys: RealizedSystem,
    /// Slot/badge layout. `Arc`: boot-time state, shareable across forks.
    pub glue: Arc<GlueMap>,
    state: StackState,
}

impl Sel4Stack {
    /// Resolves an instance-level churn op into a kernel-level CDT sweep:
    /// the subject thread's capabilities to every endpoint the
    /// destination instance serves (`ep_<dest>_<iface>` in the realized
    /// CapDL spec). Returns `None` when either side doesn't resolve.
    fn churn_sweep(&self, op: &bas_sim::caps::CapChurnOp) -> Option<bas_sel4::kernel::ChurnSweep> {
        use bas_sel4::rights::CapRights;
        use bas_sim::caps::ChurnKind;

        let holder = *self.sys.threads.get(&op.subject)?;
        let prefix = format!("ep_{}_", op.object);
        let objs: Vec<_> = self
            .sys
            .objects
            .iter()
            .filter(|(name, _)| name.starts_with(&prefix))
            .map(|(_, &id)| id)
            .collect();
        if objs.is_empty() {
            return None;
        }
        let (rights, badge) = match op.kind {
            // A re-grant restores the client's RPC rights under its
            // original badge, so the server's caller authentication
            // still recognizes it.
            ChurnKind::Grant => {
                let badge = self.glue.badge_of(&op.subject, "ctrl").unwrap_or(0);
                (CapRights::WRITE_GRANT, badge)
            }
            ChurnKind::Attenuate => (CapRights::READ, 0),
            ChurnKind::Revoke => (CapRights::NONE, 0),
        };
        Some(bas_sel4::kernel::ChurnSweep {
            kind: op.kind,
            actor: op.actor.clone(),
            holder,
            objs,
            rights,
            badge,
        })
    }
}

/// A running seL4 scenario: the generic engine over [`Sel4Stack`].
pub type Sel4Scenario = ScenarioEngine<Sel4Stack>;

/// Builds and boots the scenario on seL4/CAmkES.
///
/// # Panics
///
/// Panics if the compiled system fails its boot-time CapDL verification —
/// that would mean the toolchain itself is broken.
pub fn build_sel4(config: &ScenarioConfig, overrides: Sel4Overrides) -> Sel4Scenario {
    ScenarioEngine::boot(config, overrides)
}

fn boot_sel4(config: &ScenarioConfig, overrides: Sel4Overrides) -> Sel4Stack {
    let (spec, glue) = match overrides.compiled {
        Some((spec, glue)) => (spec, glue),
        None => {
            let assembly = policy::scenario_assembly();
            let (spec, glue) = compile(&assembly).expect("scenario assembly is valid");
            (Arc::new(spec), Arc::new(glue))
        }
    };

    let state = StackState::new(
        config,
        overrides.web_factory.is_none() && overrides.extra_caps.is_empty(),
    );
    let mut kernel = Sel4Kernel::new(Sel4Config {
        max_threads: config.max_procs,
        cost_model: config.cost_model,
        ..Sel4Config::default()
    });
    install_devices(state.plant(), kernel.devices_mut());

    let mut loader = scenario_loader(
        config,
        glue.clone(),
        state.web_session(),
        overrides.web_factory,
    );

    let sys = realize(&spec, &mut kernel, &mut loader).expect("scenario realizes");

    // Boot-time machine verification of the capability distribution.
    let issues = verify(&spec, &kernel, &sys);
    assert!(
        issues.is_empty(),
        "boot-time capdl verification failed: {issues:?}"
    );

    // Deliberate misconfigurations for ablation experiments.
    for extra in overrides.extra_caps {
        let pid = sys.threads[extra.holder];
        let obj_name = format!("ep_{}_{}", extra.endpoint_of.0, extra.endpoint_of.1);
        let obj = sys.objects[obj_name.as_str()];
        kernel
            .grant_cap(
                pid,
                bas_sel4::cap::Capability::to_object(obj, extra.rights, extra.badge),
            )
            .expect("ablation cap fits");
    }

    start_threads(&mut kernel, &sys);

    Sel4Stack {
        kernel,
        spec,
        sys,
        glue,
        state,
    }
}

/// Starts the five scenario threads realized from the spec.
fn start_threads(kernel: &mut Sel4Kernel, sys: &RealizedSystem) {
    for name in [
        instances::CONTROL,
        instances::HEATER,
        instances::ALARM,
        instances::SENSOR,
        instances::WEB,
    ] {
        kernel.start_thread(sys.threads[name]);
    }
}

/// The boot-time thread loader over a compiled glue map, shared verbatim
/// between cold boot and [`PlatformKernel::reboot`]: the realizer calls
/// it once per CapDL instance, in spec order.
fn scenario_loader(
    config: &ScenarioConfig,
    glue: Arc<GlueMap>,
    web: WebSession,
    mut web_factory: Option<WebThreadFactory>,
) -> impl FnMut(&str) -> Option<Sel4Thread> {
    let control_config = config.control;
    let period = config.sensor_period;
    move |name: &str| -> Option<Sel4Thread> {
        let g = &*glue;
        match name {
            x if x == instances::CONTROL => Some(Box::new(Sel4Control::new(
                ControlCore::new(control_config),
                RpcServer::new(g.server_slot(instances::CONTROL, "ctrl")?),
                RpcClient::new(g.client_slot(instances::CONTROL, "fan")?),
                RpcClient::new(g.client_slot(instances::CONTROL, "alarm")?),
                g.badge_of(instances::SENSOR, "ctrl")?,
                g.badge_of(instances::WEB, "ctrl")?,
            ))),
            x if x == instances::SENSOR => Some(Box::new(Sel4Sensor::new(
                g.device_slot(instances::SENSOR, "temp")?,
                RpcClient::new(g.client_slot(instances::SENSOR, "ctrl")?),
                period,
            ))),
            x if x == instances::HEATER => Some(Box::new(Sel4Actuator::new(
                RpcServer::new(g.server_slot(instances::HEATER, "cmd")?),
                g.device_slot(instances::HEATER, "fan")?,
                instances::HEATER,
            ))),
            x if x == instances::ALARM => Some(Box::new(Sel4Actuator::new(
                RpcServer::new(g.server_slot(instances::ALARM, "cmd")?),
                g.device_slot(instances::ALARM, "alarm")?,
                instances::ALARM,
            ))),
            x if x == instances::WEB => match web_factory.take() {
                Some(factory) => Some(factory(g)),
                None => Some(Box::new(Sel4Web::new(
                    RpcClient::new(g.client_slot(instances::WEB, "ctrl")?),
                    web.clone(),
                ))),
            },
            _ => None,
        }
    }
}

impl PlatformKernel for Sel4Stack {
    const PLATFORM: Platform = Platform::Sel4;
    type Overrides = Sel4Overrides;

    fn boot(config: &ScenarioConfig, overrides: Sel4Overrides) -> Self {
        boot_sel4(config, overrides)
    }

    fn state(&self) -> &StackState {
        &self.state
    }

    fn state_mut(&mut self) -> &mut StackState {
        &mut self.state
    }

    fn reboot(&mut self, config: &ScenarioConfig) {
        self.kernel.reset_to_boot();
        // Re-realize the shared spec: objects and threads come back in
        // spec order, so ids and CSpace layouts match a cold boot. The
        // boot-time CapDL verification is skipped — `verify` is a pure
        // function of (spec, kernel, sys), all reconstructed identically
        // to the template boot that already passed it.
        let mut loader = scenario_loader(config, self.glue.clone(), self.state.web_session(), None);
        self.sys = realize(&self.spec, &mut self.kernel, &mut loader).expect("scenario realizes");
        start_threads(&mut self.kernel, &self.sys);
    }

    fn now(&self) -> SimTime {
        self.kernel.now()
    }

    fn run_until(&mut self, target: SimTime) {
        self.state.ran = true;
        self.kernel.run_until(target);
    }

    fn metrics(&self) -> KernelMetrics {
        *self.kernel.metrics()
    }

    fn alive_names(&self) -> Vec<String> {
        self.kernel.alive_thread_names()
    }

    fn event_count(&self, kind: EventKind) -> u64 {
        self.kernel.event_count(kind)
    }

    fn devices_mut(&mut self) -> &mut bas_sim::device::DeviceBus {
        self.state.forkable = false;
        self.kernel.devices_mut()
    }

    fn inject_crash(&mut self, name: &str) -> bool {
        self.state.ran = true;
        self.kernel.kill_named(name)
    }

    fn arm_ipc_fault(&mut self, fault: bas_sim::fault::IpcFault, count: u32) {
        self.state.ran = true;
        self.kernel.ipc_faults_mut().arm(fault, count);
    }

    fn ipc_faults_applied(&self) -> u64 {
        self.kernel.ipc_faults().applied()
    }

    fn skew_clock(&mut self, d: SimDuration) {
        self.state.ran = true;
        self.kernel.skew_clock(d);
    }

    fn apply_cap_churn(&mut self, op: &bas_sim::caps::CapChurnOp) -> bool {
        self.state.ran = true;
        match self.churn_sweep(op) {
            Some(sweep) => self.kernel.apply_churn_sweep(&sweep),
            None => false,
        }
    }

    fn arm_cap_churn(&mut self, op: &bas_sim::caps::CapChurnOp, after_checks: u32) {
        self.state.ran = true;
        if let Some(sweep) = self.churn_sweep(op) {
            self.kernel.arm_churn_sweep(sweep, after_checks);
        }
    }

    fn enable_cap_trace(&mut self) {
        self.state.ran = true;
        self.kernel.enable_cap_trace();
    }

    fn cap_trace(&self) -> bas_sim::caps::CapTrace {
        self.kernel.cap_trace()
    }
}
