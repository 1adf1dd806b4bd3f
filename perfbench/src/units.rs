//! Isolated unit costs of the kernel primitives and the layer cost model.
//!
//! Each primitive is timed on the policy artifacts the workloads boot —
//! the scenario ACM, the controller's CSpace from the compiled CapDL
//! spec, the shared-account message queues — and, for whole IPC round
//! trips, on a two-process ping-pong per kernel. The cost model then
//! multiplies the per-message and per-plant-step costs by the counts a
//! workload's own report gives, and compares the sum with the measured
//! advance time of that platform.

use std::hint::black_box;
use std::time::Instant;

use bas_acm::{AcId, AccessControlMatrix, MsgType};
use bas_core::proto::{BasMsg, AC_ALARM, AC_CONTROL, AC_HEATER, AC_SCENARIO, AC_SENSOR, AC_WEB};
use bas_core::scenario::ScenarioConfig;
use bas_sim::process::{Action, Process};

use crate::measure::median;

/// Per-operation costs in nanoseconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct UnitCosts {
    /// One scenario-ACM admission check.
    pub acm_check_ns: f64,
    /// One controller CSpace slot lookup.
    pub cspace_lookup_ns: f64,
    /// DAC check plus arena-backed push and pop on a scenario queue.
    pub mq_push_pop_ns: f64,
    /// One 16-byte message-arena allocation plus free.
    pub arena_alloc_free_ns: f64,
    /// MINIX sendrec ping-pong, per delivered message.
    pub minix_sendrec_ns: f64,
    /// seL4 call/reply ping-pong, per delivered message.
    pub sel4_call_reply_ns: f64,
    /// Linux mq request/response ping-pong, per delivered message.
    pub linux_mq_roundtrip_ns: f64,
    /// One plant step over one 100 ms lockstep chunk.
    pub plant_step_ns: f64,
    /// One sensor-reading encode/decode round trip.
    pub proto_roundtrip_ns: f64,
}

/// Median over `reps` runs of the per-operation cost of `run`, which
/// performs and returns its operation count.
fn per_op_ns(reps: usize, mut run: impl FnMut() -> u64) -> f64 {
    let mut samples = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t0 = Instant::now();
        let ops = run();
        samples.push(t0.elapsed().as_nanos() as f64 / ops.max(1) as f64);
    }
    median(&samples)
}

const REPS: usize = 7;

impl UnitCosts {
    /// Measures every unit cost (about a quarter of a second).
    pub fn measure() -> UnitCosts {
        UnitCosts {
            acm_check_ns: acm_check(),
            cspace_lookup_ns: cspace_lookup(),
            mq_push_pop_ns: mq_push_pop(),
            arena_alloc_free_ns: arena_alloc_free(),
            minix_sendrec_ns: per_op_ns(REPS, || minix_pingpong(ROUNDTRIPS)),
            sel4_call_reply_ns: per_op_ns(REPS, || sel4_pingpong(ROUNDTRIPS)),
            linux_mq_roundtrip_ns: per_op_ns(REPS, || linux_pingpong(ROUNDTRIPS)),
            plant_step_ns: plant_step(),
            proto_roundtrip_ns: proto_roundtrip(),
        }
    }

    /// Modelled seconds of one platform's advance: every delivered
    /// message pays one ping-pong message, one admission primitive and
    /// one codec round trip; every lockstep chunk pays one plant step.
    pub fn modelled_s(&self, platform: &str, ipc_messages: u64, plant_steps: f64) -> f64 {
        let (ipc, admit) = match platform {
            "minix" => (self.minix_sendrec_ns, self.acm_check_ns),
            "sel4" => (self.sel4_call_reply_ns, self.cspace_lookup_ns),
            _ => (self.linux_mq_roundtrip_ns, self.mq_push_pop_ns),
        };
        (ipc_messages as f64 * (ipc + admit + self.proto_roundtrip_ns)
            + plant_steps * self.plant_step_ns)
            * 1e-9
    }
}

const OPS: u64 = 200_000;
const ROUNDTRIPS: u64 = 5_000;

fn acm_check() -> f64 {
    let acm: AccessControlMatrix = bas_core::policy::scenario_acm();
    let ids = [
        AC_SENSOR,
        AC_CONTROL,
        AC_HEATER,
        AC_ALARM,
        AC_WEB,
        AC_SCENARIO,
    ];
    let mut triples: Vec<(AcId, AcId, MsgType)> = Vec::new();
    for &s in &ids {
        for &r in &ids {
            for t in 0..6 {
                triples.push((s, r, MsgType::new(t)));
            }
        }
    }
    per_op_ns(REPS, || {
        for i in 0..OPS as usize {
            let (s, r, t) = triples[i % triples.len()];
            black_box(acm.check(black_box(s), black_box(r), black_box(t)));
        }
        OPS
    })
}

fn cspace_lookup() -> f64 {
    use bas_sel4::cap::{CPtr, Capability};
    use bas_sel4::cspace::CSpace;
    use bas_sel4::objects::ObjId;

    let (spec, _glue) = bas_camkes::codegen::compile(&bas_core::policy::scenario_assembly())
        .expect("the scenario assembly compiles");
    // The thread holding the most capabilities: the controller.
    let holder = spec
        .threads
        .iter()
        .max_by_key(|t| spec.caps_of(&t.name).count())
        .map(|t| t.name.clone())
        .expect("the spec declares threads");
    let caps: Vec<_> = spec.caps_of(&holder).collect();
    let size = caps.iter().map(|c| c.slot as usize + 1).max().unwrap_or(1);
    let mut cspace = CSpace::new(size.next_power_of_two());
    let mut slots = Vec::new();
    for (k, c) in caps.iter().enumerate() {
        let cap = Capability::to_object(ObjId::new(k as u32), c.rights, c.badge);
        if cspace.insert_at(CPtr::new(c.slot), cap).is_ok() {
            slots.push(CPtr::new(c.slot));
        }
    }
    per_op_ns(REPS, || {
        for i in 0..OPS as usize {
            black_box(cspace.lookup(black_box(slots[i % slots.len()])).is_ok());
        }
        OPS
    })
}

fn mq_push_pop() -> f64 {
    use bas_core::platform::linux::uids;
    use bas_linux::cred::{Mode, Uid};
    use bas_linux::mq::{MessageQueue, MqMessage};
    use bas_sim::arena::MsgArena;

    let owner = Uid::new(uids::SHARED);
    let mode = Mode::new(0o600);
    let mut arena = MsgArena::with_capacity(64);
    let mut q = MessageQueue::new("/sensor", owner, mode, 64);
    let payload = BasMsg::SensorReading {
        milli_c: 21_500,
        seq: 1,
    }
    .to_bytes();
    per_op_ns(REPS, || {
        for _ in 0..OPS {
            let allowed = mode.allows(black_box(owner), owner, false, true);
            let msg = arena.alloc(black_box(&payload));
            q.push(MqMessage::new(u32::from(allowed), msg));
            let m = q.pop().expect("just pushed");
            arena.free(m.msg);
        }
        OPS
    })
}

fn arena_alloc_free() -> f64 {
    use bas_sim::arena::MsgArena;
    let mut arena = MsgArena::with_capacity(64);
    let payload = [7u8; 16];
    per_op_ns(REPS, || {
        for _ in 0..OPS {
            let m = arena.alloc(black_box(&payload));
            arena.free(black_box(m));
        }
        OPS
    })
}

fn plant_step() -> f64 {
    use bas_plant::world::PlantWorld;
    use bas_sim::time::SimTime;

    let config = ScenarioConfig::quiet();
    let chunk = config.lockstep_chunk;
    let mut world = PlantWorld::new(config.synced_plant(), 1);
    let mut t = SimTime::ZERO;
    per_op_ns(REPS, || {
        let steps = OPS / 10;
        for _ in 0..steps {
            t += chunk;
            world.step_to(t);
        }
        black_box(world.temperature_c());
        steps
    })
}

fn proto_roundtrip() -> f64 {
    let msg = BasMsg::SensorReading {
        milli_c: 21_500,
        seq: 42,
    };
    per_op_ns(REPS, || {
        for _ in 0..OPS {
            let bytes = black_box(msg).to_bytes();
            black_box(BasMsg::from_bytes(&bytes).expect("round trip"));
        }
        OPS
    })
}

/// MINIX: a client `sendrec`s to a server that replies, `roundtrips`
/// times. Returns the delivered message count.
fn minix_pingpong(roundtrips: u64) -> u64 {
    use bas_minix::endpoint::Endpoint;
    use bas_minix::kernel::{MinixConfig, MinixKernel};
    use bas_minix::syscall::{Reply, Syscall};

    struct Server;
    impl Process for Server {
        type Syscall = Syscall;
        type Reply = Reply;
        fn resume(&mut self, reply: Option<Reply>) -> Action<Syscall> {
            match reply {
                Some(Reply::Msg(m)) => Action::Syscall(Syscall::send(m.source, 0, [])),
                _ => Action::Syscall(Syscall::Receive { from: None }),
            }
        }
    }
    struct Client {
        server: Endpoint,
        remaining: u64,
    }
    impl Process for Client {
        type Syscall = Syscall;
        type Reply = Reply;
        fn resume(&mut self, _reply: Option<Reply>) -> Action<Syscall> {
            if self.remaining == 0 {
                return Action::Exit(0);
            }
            self.remaining -= 1;
            Action::Syscall(Syscall::sendrec(self.server, 1, []))
        }
    }

    let acm = AccessControlMatrix::builder()
        .allow_all_types(AcId::new(1), AcId::new(2))
        .allow_all_types(AcId::new(2), AcId::new(1))
        .build();
    let mut k = MinixKernel::new(MinixConfig {
        acm,
        ..MinixConfig::default()
    });
    k.disable_trace();
    let server = k
        .spawn("server", AcId::new(2), 0, Box::new(Server))
        .expect("spawn server");
    let client = Client {
        server,
        remaining: roundtrips,
    };
    k.spawn("client", AcId::new(1), 0, Box::new(client))
        .expect("spawn client");
    k.run_to_quiescence();
    k.metrics().ipc_messages
}

/// seL4: a client `Call`s an endpoint a server `Recv`s and `Reply`s on.
fn sel4_pingpong(roundtrips: u64) -> u64 {
    use bas_sel4::cap::CPtr;
    use bas_sel4::kernel::{Sel4Config, Sel4Kernel};
    use bas_sel4::message::IpcMessage;
    use bas_sel4::rights::CapRights;
    use bas_sel4::syscall::{Reply, Syscall};

    struct Server;
    impl Process for Server {
        type Syscall = Syscall;
        type Reply = Reply;
        fn resume(&mut self, reply: Option<Reply>) -> Action<Syscall> {
            match reply {
                Some(Reply::Msg(_)) => Action::Syscall(Syscall::Reply {
                    msg: IpcMessage::with_label(0),
                }),
                _ => Action::Syscall(Syscall::Recv { ep: CPtr::new(0) }),
            }
        }
    }
    struct Client {
        remaining: u64,
    }
    impl Process for Client {
        type Syscall = Syscall;
        type Reply = Reply;
        fn resume(&mut self, _reply: Option<Reply>) -> Action<Syscall> {
            if self.remaining == 0 {
                return Action::Exit(0);
            }
            self.remaining -= 1;
            Action::Syscall(Syscall::Call {
                ep: CPtr::new(0),
                msg: IpcMessage::with_label(1),
            })
        }
    }

    let mut k = Sel4Kernel::new(Sel4Config::default());
    k.disable_trace();
    let ep = k.create_endpoint();
    let server = k.create_thread("server", Box::new(Server));
    let client = k.create_thread(
        "client",
        Box::new(Client {
            remaining: roundtrips,
        }),
    );
    k.grant_endpoint(server, ep, CapRights::READ, 0)
        .expect("grant server");
    k.grant_endpoint(client, ep, CapRights::WRITE_GRANT, 1)
        .expect("grant client");
    k.start_thread(server);
    k.start_thread(client);
    k.run_to_quiescence();
    k.metrics().ipc_messages
}

/// Linux: a client sends on `/req` and waits on `/resp`; the server
/// echoes.
fn linux_pingpong(roundtrips: u64) -> u64 {
    use bas_linux::cred::{Mode, Uid};
    use bas_linux::kernel::{LinuxConfig, LinuxKernel};
    use bas_linux::syscall::{MqAccess, Reply, Syscall};

    fn open(name: &str, access: MqAccess) -> Action<Syscall> {
        Action::Syscall(Syscall::MqOpen {
            name: name.into(),
            access,
            create: None,
        })
    }
    fn send(qd: u32) -> Action<Syscall> {
        Action::Syscall(Syscall::MqSend {
            qd,
            data: vec![1],
            priority: 0,
            nonblocking: false,
        })
    }
    fn receive(qd: u32) -> Action<Syscall> {
        Action::Syscall(Syscall::MqReceive {
            qd,
            nonblocking: false,
        })
    }

    struct Server {
        state: u8,
    }
    impl Process for Server {
        type Syscall = Syscall;
        type Reply = Reply;
        fn resume(&mut self, reply: Option<Reply>) -> Action<Syscall> {
            self.state = self.state.saturating_add(1);
            match (self.state, reply) {
                (1, _) => open("/req", MqAccess::READ),
                (2, _) => open("/resp", MqAccess::WRITE),
                (_, Some(Reply::Data { .. })) => send(1),
                _ => receive(0),
            }
        }
    }
    struct Client {
        state: u8,
        awaiting: bool,
        remaining: u64,
    }
    impl Process for Client {
        type Syscall = Syscall;
        type Reply = Reply;
        fn resume(&mut self, _reply: Option<Reply>) -> Action<Syscall> {
            self.state = self.state.saturating_add(1);
            match self.state {
                1 => return open("/req", MqAccess::WRITE),
                2 => return open("/resp", MqAccess::READ),
                _ => {}
            }
            if self.awaiting {
                self.awaiting = false;
                return receive(1);
            }
            if self.remaining == 0 {
                return Action::Exit(0);
            }
            self.remaining -= 1;
            self.awaiting = true;
            send(0)
        }
    }

    let mut k = LinuxKernel::new(LinuxConfig::default());
    k.disable_trace();
    let owner = Uid::new(1);
    k.create_queue("/req", owner, Mode::new(0o666), 8);
    k.create_queue("/resp", owner, Mode::new(0o666), 8);
    k.spawn("server", 1, Box::new(Server { state: 0 }))
        .expect("spawn server");
    let client = Client {
        state: 0,
        awaiting: false,
        remaining: roundtrips,
    };
    k.spawn("client", 1, Box::new(client))
        .expect("spawn client");
    k.run_to_quiescence();
    k.metrics().ipc_messages
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ping_pongs_deliver_two_messages_per_round_trip() {
        assert_eq!(minix_pingpong(50), 100);
        assert_eq!(sel4_pingpong(50), 100);
        assert_eq!(linux_pingpong(50), 100);
    }
}
