//! Steady-state IPC must never touch the heap.
//!
//! The arena refactor's contract is "one copy in, one copy out, zero
//! allocations": once a kernel is booted and its message arena warm,
//! the send/rendezvous/deliver loop moves 8-byte `MsgRef` handles and
//! recycles fixed slots. This test pins that contract with a counting
//! `#[global_allocator]`: it warms a ping-pong pair up, switches the
//! counter on mid-stream, runs tens of thousands more messages, and
//! asserts the allocation count stayed at zero. The arena's own
//! `heap_events` counter (surfaced as `KernelMetrics::hot_path_allocs`)
//! is cross-checked against the same window.
//!
//! The kernel runs as every deployment runs it: with its event recorder
//! on, warmed past the flight recorder's ring length so the ring wraps
//! inside the counted window. A sleeping process wakes periodically so
//! timer firing is inside the window too.
//!
//! This lives in its own integration-test binary, as its only test,
//! because a `#[global_allocator]` is process-wide: a second test would
//! run on another thread and the harness's allocations for it would be
//! counted here.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use bas_acm::{AcId, AccessControlMatrix};
use bas_minix::endpoint::Endpoint;
use bas_minix::kernel::{MinixConfig, MinixKernel};
use bas_minix::message::Payload;
use bas_minix::syscall::{Reply, Syscall};
use bas_minix::MinixEvent;
use bas_sim::clock::CostModel;
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

const TX: AcId = AcId::new(10);
const RX: AcId = AcId::new(11);

/// Sends rendezvous messages to `dest` forever (bounded by the kernel's
/// virtual-time run window, never by the process).
struct Pump {
    dest: Endpoint,
}

impl Process for Pump {
    type Syscall = Syscall;
    type Reply = Reply;
    fn resume(&mut self, _reply: Option<Reply>) -> Action<Syscall> {
        Action::Syscall(Syscall::Send {
            dest: self.dest,
            mtype: 1,
            payload: Payload::zeroed(),
        })
    }
    fn name(&self) -> &str {
        "pump"
    }
}

/// Receives forever.
struct Sink;

/// Sleeps 1 ms at a time, forever: every wake-up goes through the
/// kernel's timer queue.
struct Sleeper;

impl Process for Sleeper {
    type Syscall = Syscall;
    type Reply = Reply;
    fn resume(&mut self, _reply: Option<Reply>) -> Action<Syscall> {
        Action::Syscall(Syscall::Sleep {
            duration: SimDuration::from_millis(1),
        })
    }
    fn name(&self) -> &str {
        "sleeper"
    }
}

impl Process for Sink {
    type Syscall = Syscall;
    type Reply = Reply;
    fn resume(&mut self, _reply: Option<Reply>) -> Action<Syscall> {
        Action::Syscall(Syscall::Receive { from: None })
    }
    fn name(&self) -> &str {
        "sink"
    }
}

#[test]
fn steady_state_ipc_does_not_allocate() {
    // The recorder's ring holds 256 of these per kernel.
    assert!(std::mem::size_of::<KernelEvent<MinixEvent>>() <= 32);
    let acm = AccessControlMatrix::builder()
        .allow_all_types(TX, RX)
        .build();
    // The default cost model advances virtual time per syscall, which is
    // what bounds the run windows below (the processes never exit).
    let mut k = MinixKernel::new(MinixConfig {
        acm,
        cost_model: CostModel::default(),
        ..MinixConfig::default()
    });
    let sink = k.spawn("sink", RX, 1000, Box::new(Sink)).expect("sink");
    k.spawn("pump", TX, 1000, Box::new(Pump { dest: sink }))
        .expect("pump");
    k.spawn("sleeper", TX, 1000, Box::new(Sleeper))
        .expect("sleeper");

    // Warmup: boot-time growth (run queue words, process slots, the
    // pre-warmed arena, the recorder's ring, the timer heap) all happens
    // here, uncounted.
    k.run_until(SimTime::ZERO + SimDuration::from_millis(50));
    let warm_messages = k.metrics().ipc_messages;
    let warm_heap_events = k.metrics().hot_path_allocs;
    let warm_deliveries = k.event_count(EventKind::IpcDeliver);
    assert!(warm_messages > 0, "warmup must deliver messages");
    assert_eq!(k.events().recent().count(), RING_LEN, "ring is full");

    // Counted window: steady-state send/deliver traffic plus timer
    // wake-ups, all recorded.
    ALLOCS.store(0, Ordering::SeqCst);
    COUNTING.store(true, Ordering::SeqCst);
    k.run_until(SimTime::ZERO + SimDuration::from_millis(500));
    COUNTING.store(false, Ordering::SeqCst);

    let delivered = k.metrics().ipc_messages - warm_messages;
    let heap_events = k.metrics().hot_path_allocs - warm_heap_events;
    let allocs = ALLOCS.load(Ordering::SeqCst);
    assert!(
        delivered > 10_000,
        "counted window too small to be meaningful: {delivered} messages"
    );
    assert_eq!(
        heap_events, 0,
        "arena reported slot growth or spills in steady state"
    );
    assert_eq!(
        allocs, 0,
        "steady-state IPC hit the global allocator {allocs} time(s) \
         across {delivered} messages"
    );
    assert_eq!(
        k.event_count(EventKind::IpcDeliver) - warm_deliveries,
        delivered,
        "every delivery in the window was recorded"
    );
}
