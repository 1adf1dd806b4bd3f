//! Timer queue for sleep and periodic wakeups.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::process::Pid;
use crate::time::SimTime;

/// A min-heap of `(deadline, pid)` wakeups.
///
/// Ties on deadline are broken by insertion sequence so wakeup order is
/// deterministic.
///
/// ```
/// use bas_sim::process::Pid;
/// use bas_sim::time::SimTime;
/// use bas_sim::timer::TimerQueue;
///
/// let mut tq = TimerQueue::new();
/// tq.arm(SimTime::from_nanos(20), Pid::new(2));
/// tq.arm(SimTime::from_nanos(10), Pid::new(1));
/// assert_eq!(tq.next_deadline(), Some(SimTime::from_nanos(10)));
/// assert_eq!(tq.pop_due(SimTime::from_nanos(15)), Some(Pid::new(1)));
/// assert_eq!(tq.pop_due(SimTime::from_nanos(15)), None);
/// ```
#[derive(Debug, Default)]
pub struct TimerQueue {
    heap: BinaryHeap<Reverse<(SimTime, u64, Pid)>>,
    seq: u64,
}

impl TimerQueue {
    /// Creates an empty timer queue.
    pub fn new() -> Self {
        TimerQueue {
            heap: BinaryHeap::new(),
            seq: 0,
        }
    }

    /// Arms a wakeup for `pid` at `deadline`.
    pub fn arm(&mut self, deadline: SimTime, pid: Pid) {
        self.heap.push(Reverse((deadline, self.seq, pid)));
        self.seq += 1;
    }

    /// The earliest armed deadline, if any.
    pub fn next_deadline(&self) -> Option<SimTime> {
        self.heap.peek().map(|Reverse((t, _, _))| *t)
    }

    /// Pops the earliest wakeup with `deadline <= now`, if any. Repeated
    /// calls yield the due wakeups in deadline order, ties in arm order.
    pub fn pop_due(&mut self, now: SimTime) -> Option<Pid> {
        match self.heap.peek() {
            Some(Reverse((t, _, _))) if *t <= now => {
                self.heap.pop().map(|Reverse((_, _, pid))| pid)
            }
            _ => None,
        }
    }

    /// Cancels every wakeup armed for `pid` (used when a process dies while
    /// sleeping).
    pub fn cancel(&mut self, pid: Pid) {
        let entries: Vec<_> = self
            .heap
            .drain()
            .filter(|Reverse((_, _, p))| *p != pid)
            .collect();
        self.heap = entries.into();
    }

    /// Disarms everything and rewinds the tie-breaking sequence to zero,
    /// keeping the heap allocation (snapshot-fork boot: insertion order
    /// after a reset must tie-break exactly like a fresh queue's).
    pub fn clear(&mut self) {
        self.heap.clear();
        self.seq = 0;
    }

    /// Number of armed wakeups.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True if nothing is armed.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(tq: &mut TimerQueue, now: SimTime) -> Vec<Pid> {
        std::iter::from_fn(|| tq.pop_due(now)).collect()
    }

    #[test]
    fn pops_in_deadline_order() {
        let mut tq = TimerQueue::new();
        tq.arm(SimTime::from_nanos(30), Pid::new(3));
        tq.arm(SimTime::from_nanos(10), Pid::new(1));
        tq.arm(SimTime::from_nanos(20), Pid::new(2));
        let due = drain(&mut tq, SimTime::from_nanos(100));
        assert_eq!(due, vec![Pid::new(1), Pid::new(2), Pid::new(3)]);
    }

    #[test]
    fn equal_deadlines_pop_in_arm_order() {
        let mut tq = TimerQueue::new();
        let t = SimTime::from_nanos(5);
        tq.arm(t, Pid::new(9));
        tq.arm(t, Pid::new(4));
        tq.arm(t, Pid::new(7));
        assert_eq!(
            drain(&mut tq, t),
            vec![Pid::new(9), Pid::new(4), Pid::new(7)]
        );
    }

    #[test]
    fn cancel_removes_only_target() {
        let mut tq = TimerQueue::new();
        tq.arm(SimTime::from_nanos(10), Pid::new(1));
        tq.arm(SimTime::from_nanos(20), Pid::new(2));
        tq.arm(SimTime::from_nanos(30), Pid::new(1));
        tq.cancel(Pid::new(1));
        assert_eq!(tq.len(), 1);
        assert_eq!(drain(&mut tq, SimTime::from_nanos(100)), vec![Pid::new(2)]);
    }

    #[test]
    fn clear_rewinds_tie_breaking_sequence() {
        let mut tq = TimerQueue::new();
        tq.arm(SimTime::from_nanos(5), Pid::new(1));
        tq.arm(SimTime::from_nanos(5), Pid::new(2));
        tq.clear();
        assert!(tq.is_empty());
        // Post-clear arms tie-break exactly like a fresh queue's.
        let t = SimTime::from_nanos(5);
        tq.arm(t, Pid::new(9));
        tq.arm(t, Pid::new(4));
        assert_eq!(drain(&mut tq, t), vec![Pid::new(9), Pid::new(4)]);
    }

    #[test]
    fn not_due_entries_stay() {
        let mut tq = TimerQueue::new();
        tq.arm(SimTime::from_nanos(50), Pid::new(1));
        assert_eq!(tq.pop_due(SimTime::from_nanos(49)), None);
        assert_eq!(tq.len(), 1);
        assert_eq!(tq.next_deadline(), Some(SimTime::from_nanos(50)));
    }
}
