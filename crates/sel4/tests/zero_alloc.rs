//! Steady-state seL4 call/reply IPC must never touch the heap, with the
//! kernel's event recorder on.
//!
//! A client `Call`s an endpoint that a server `Recv`s and `Reply`s on,
//! and a third thread sleeps 1 ms at a time. After a warmup that fills
//! the flight recorder's ring past its length, a counting
//! `#[global_allocator]` watches a window of tens of thousands of round
//! trips and timer wake-ups and must see zero allocations. Messages carry
//! a label and no words: a delivered `words` vector is owned by the
//! receiver, so an empty one keeps the count about the kernel itself —
//! the arena, the endpoint queues, the scheduler, the timers and the
//! recorder.
//!
//! This lives in its own integration-test binary, as its only test,
//! because a `#[global_allocator]` is process-wide: a second test would
//! run on another thread and the harness's allocations for it would be
//! counted here.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use bas_sel4::cap::CPtr;
use bas_sel4::kernel::{Sel4Config, Sel4Kernel};
use bas_sel4::message::IpcMessage;
use bas_sel4::rights::CapRights;
use bas_sel4::syscall::{Reply, Syscall};
use bas_sel4::Sel4Event;
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

/// Receives on slot 0 and replies to every message, forever.
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

/// Calls slot 0 forever.
struct Client;

impl Process for Client {
    type Syscall = Syscall;
    type Reply = Reply;
    fn resume(&mut self, _reply: Option<Reply>) -> Action<Syscall> {
        Action::Syscall(Syscall::Call {
            ep: CPtr::new(0),
            msg: IpcMessage::with_label(1),
        })
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
fn steady_state_call_reply_does_not_allocate() {
    // The recorder's ring holds 256 of these per kernel.
    assert!(std::mem::size_of::<KernelEvent<Sel4Event>>() <= 32);
    let mut k = Sel4Kernel::new(Sel4Config::default());
    let ep = k.create_endpoint();
    let server = k.create_thread("server", Box::new(Server));
    let client = k.create_thread("client", Box::new(Client));
    let sleeper = k.create_thread("sleeper", Box::new(Sleeper));
    k.grant_endpoint(server, ep, CapRights::READ, 0)
        .expect("grant server");
    k.grant_endpoint(client, ep, CapRights::WRITE_GRANT, 1)
        .expect("grant client");
    for t in [server, client, sleeper] {
        k.start_thread(t);
    }

    // Warmup: thread table, arena, timer heap and the recorder's ring
    // all reach their steady size here, uncounted.
    k.run_until(SimTime::ZERO + SimDuration::from_millis(50));
    let warm_messages = k.metrics().ipc_messages;
    let warm_deliveries = k.event_count(EventKind::IpcDeliver);
    assert!(warm_messages > 0, "warmup must deliver messages");
    assert_eq!(k.events().recent().count(), RING_LEN, "ring is full");

    ALLOCS.store(0, Ordering::SeqCst);
    COUNTING.store(true, Ordering::SeqCst);
    k.run_until(SimTime::ZERO + SimDuration::from_millis(500));
    COUNTING.store(false, Ordering::SeqCst);

    let delivered = k.metrics().ipc_messages - warm_messages;
    let allocs = ALLOCS.load(Ordering::SeqCst);
    assert!(
        delivered > 10_000,
        "counted window too small to be meaningful: {delivered} messages"
    );
    assert_eq!(
        allocs, 0,
        "steady-state call/reply hit the global allocator {allocs} time(s) \
         across {delivered} messages"
    );
    assert!(
        k.event_count(EventKind::IpcDeliver) - warm_deliveries > 0,
        "deliveries in the window were recorded"
    );
}
