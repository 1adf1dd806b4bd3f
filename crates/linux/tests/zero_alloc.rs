//! A steady-state Linux mq round trip must never touch the heap, with the
//! kernel's event recorder on.
//!
//! A client sends on `/req` and waits on `/resp`; a server echoes; a third
//! process sleeps 1 ms at a time. After a warmup that fills the flight
//! recorder's ring past its length, a counting `#[global_allocator]`
//! watches a window of tens of thousands of messages and timer wake-ups
//! and must see zero allocations. Messages are empty: `mq_send` takes and
//! `mq_receive` returns an owned `Vec<u8>`, so an empty payload keeps the
//! count about the kernel itself — descriptor lookup, the arena, the
//! queues, the scheduler, the timers and the recorder.
//!
//! This lives in its own integration-test binary, as its only test,
//! because a `#[global_allocator]` is process-wide: a second test would
//! run on another thread and the harness's allocations for it would be
//! counted here.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use bas_linux::cred::{Mode, Uid};
use bas_linux::kernel::{LinuxConfig, LinuxKernel};
use bas_linux::syscall::{MqAccess, Reply, Syscall};
use bas_linux::LinuxEvent;
use bas_sim::process::{Action, Process};
use bas_sim::time::{SimDuration, SimTime};
use bas_sim::trace::{EventKind, KernelEvent, RING_LEN};

struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // Frees are uncounted: recycling may legitimately return memory.
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

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
        data: Vec::new(),
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

/// Opens `/req` (fd 0) and `/resp` (fd 1), then echoes forever.
struct Server {
    opened: u8,
}

impl Process for Server {
    type Syscall = Syscall;
    type Reply = Reply;
    fn resume(&mut self, reply: Option<Reply>) -> Action<Syscall> {
        self.opened = self.opened.saturating_add(1);
        match (self.opened, reply) {
            (1, _) => open("/req", MqAccess::READ),
            (2, _) => open("/resp", MqAccess::WRITE),
            (_, Some(Reply::Data { .. })) => send(1),
            _ => receive(0),
        }
    }
}

/// Opens `/req` (fd 0) and `/resp` (fd 1), then sends and awaits the
/// echo forever.
struct Client {
    opened: u8,
    awaiting: bool,
}

impl Process for Client {
    type Syscall = Syscall;
    type Reply = Reply;
    fn resume(&mut self, _reply: Option<Reply>) -> Action<Syscall> {
        self.opened = self.opened.saturating_add(1);
        match self.opened {
            1 => return open("/req", MqAccess::WRITE),
            2 => return open("/resp", MqAccess::READ),
            _ => {}
        }
        self.awaiting = !self.awaiting;
        if self.awaiting {
            send(0)
        } else {
            receive(1)
        }
    }
}

/// Sleeps 1 ms at a time, forever.
struct Sleeper;

impl Process for Sleeper {
    type Syscall = Syscall;
    type Reply = Reply;
    fn resume(&mut self, _reply: Option<Reply>) -> Action<Syscall> {
        Action::Syscall(Syscall::Sleep {
            duration: SimDuration::from_millis(1),
        })
    }
}

#[test]
fn steady_state_mq_round_trip_does_not_allocate() {
    // The recorder's ring holds 256 of these per kernel.
    assert!(std::mem::size_of::<KernelEvent<LinuxEvent>>() <= 32);

    let mut k = LinuxKernel::new(LinuxConfig::default());
    let owner = Uid::new(1);
    k.create_queue("/req", owner, Mode::new(0o666), 8);
    k.create_queue("/resp", owner, Mode::new(0o666), 8);
    k.spawn("server", 1, Box::new(Server { opened: 0 }))
        .expect("spawn server");
    k.spawn(
        "client",
        1,
        Box::new(Client {
            opened: 0,
            awaiting: false,
        }),
    )
    .expect("spawn client");
    k.spawn("sleeper", 1, Box::new(Sleeper))
        .expect("spawn sleeper");

    // Warmup: descriptors, queues, arena, timer heap and the recorder's
    // ring all reach their steady size here, uncounted.
    k.run_until(SimTime::ZERO + SimDuration::from_millis(50));
    let warm_messages = k.metrics().ipc_messages;
    let warm_sends = k.event_count(EventKind::MqSend);
    assert!(warm_messages > 0, "warmup must deliver messages");
    assert_eq!(k.events().recent().count(), RING_LEN, "ring is full");

    ALLOCS.store(0, Ordering::SeqCst);
    COUNTING.store(true, Ordering::SeqCst);
    k.run_until(SimTime::ZERO + SimDuration::from_millis(500));
    COUNTING.store(false, Ordering::SeqCst);

    let sent = k.metrics().ipc_messages - warm_messages;
    let allocs = ALLOCS.load(Ordering::SeqCst);
    assert!(
        sent > 10_000,
        "counted window too small to be meaningful: {sent} messages"
    );
    assert_eq!(
        allocs, 0,
        "steady-state mq round trips hit the global allocator {allocs} time(s) \
         across {sent} messages"
    );
    assert_eq!(
        k.event_count(EventKind::MqSend) - warm_sends,
        sent,
        "every send in the window was recorded"
    );
}
