//! Benign web-interface behavior: a scripted administrator session.
//!
//! §II: the web interface "provides administrators a way to change the
//! desired room temperature setpoint". The benign schedule drives that
//! legitimate channel; attack variants (in `bas-attack`) replace the whole
//! process, modeling remote compromise.
//!
//! [`WebSession`] is the platform-free half of the benign client: it
//! decides what to send and when, and records the outcomes. Each platform
//! adapter wraps it with only its own syscall encoding and reply decoding.
//!
//! For multi-tenant traffic (E18) the schedule is shared between the
//! platform stack and its web process through a [`SharedSchedule`] cell:
//! the stack re-images the cell on snapshot recycling, and the process
//! reads it lazily through a [`ScheduleCursor`], so per-instance traffic
//! survives the warm-boot path without respawning anything. Completed
//! requests are stamped into a [`RequestLog`] for latency accounting.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

use bas_sim::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

use crate::proto::BasMsg;
use crate::scenario::WebLog;

/// One administrator action.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum WebAction {
    /// Change the setpoint (milli-°C).
    SetSetpoint(i32),
    /// Poll controller status.
    QueryStatus,
}

impl From<WebAction> for BasMsg {
    /// The controller request carrying `action`.
    fn from(action: WebAction) -> Self {
        match action {
            WebAction::SetSetpoint(milli_c) => BasMsg::SetpointUpdate { milli_c },
            WebAction::QueryStatus => BasMsg::StatusQuery,
        }
    }
}

/// A schedule's action list shared between a platform stack and its web
/// process. The stack overwrites the cell on boot re-imaging; cursors
/// pick the new contents up on their next wake.
pub type SharedSchedule = Rc<RefCell<Vec<(SimTime, WebAction)>>>;

/// Builds a [`SharedSchedule`] from an action list, sorted stably by time.
pub fn shared_schedule(mut actions: Vec<(SimTime, WebAction)>) -> SharedSchedule {
    actions.sort_by_key(|(t, _)| *t);
    Rc::new(RefCell::new(actions))
}

/// A web process's read position into a [`SharedSchedule`].
///
/// The actions live behind the shared cell, so a snapshot-recycled stack
/// can swap in the next instance's traffic without reconstructing the
/// process that reads it. The cursor resets to the front whenever the
/// cell is re-imaged (the stack rebuilds the process state on the `ran`
/// path and the pristine path never moved the cursor, so `next == 0` is
/// always correct after a swap).
#[derive(Debug, Clone)]
pub struct ScheduleCursor {
    actions: SharedSchedule,
    next: usize,
}

impl ScheduleCursor {
    /// A cursor at the front of `actions`.
    pub fn new(actions: SharedSchedule) -> Self {
        ScheduleCursor { actions, next: 0 }
    }

    /// The time of the next pending action.
    pub fn next_time(&self) -> Option<SimTime> {
        self.actions.borrow().get(self.next).map(|(t, _)| *t)
    }

    /// Appends every action due at `now` (scheduled time ≤ `now`) to
    /// `out`, with its scheduled time, advancing past all of them.
    pub fn drain_due(&mut self, now: SimTime, out: &mut VecDeque<(SimTime, WebAction)>) {
        let actions = self.actions.borrow();
        while let Some(&(t, action)) = actions.get(self.next) {
            if t > now {
                break;
            }
            self.next += 1;
            out.push_back((t, action));
        }
    }

    /// Actions not yet drained.
    pub fn remaining(&self) -> usize {
        self.actions.borrow().len().saturating_sub(self.next)
    }
}

/// How long the web server idles once its session script is exhausted
/// (it keeps serving, modeled as long sleeps).
const IDLE_SLEEP: SimDuration = SimDuration::from_secs(3_600);

/// What the web client does after reading the clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WebStep {
    /// Issue this request to the controller.
    Send(WebAction),
    /// Nothing is due: sleep this long, then read the clock again.
    Sleep(SimDuration),
}

/// The benign web client's platform-free state: the schedule cursor, the
/// response and request logs, and the requests between schedule and log.
///
/// A platform adapter drives it with two calls. After every clock read
/// it calls [`WebSession::on_clock`] and issues the returned request or
/// sleep; after every request's reply it calls [`WebSession::on_reply`]
/// and issues the returned request, or reads the clock on `None`.
///
/// Same-tick bursts (high-rate traffic, E18) drain in one wake: every
/// due action is collected at one clock read and the requests issue
/// back-to-back with no clock read between them, so a burst costs one
/// wake cycle instead of one cycle per request. Each completed request
/// is stamped into the [`RequestLog`] at the first clock read after its
/// reply, so the measured latency includes the open-loop queueing delay.
///
/// ```
/// use bas_core::logic::web::{
///     new_request_log, shared_schedule, WebAction, WebSession, WebStep,
/// };
/// use bas_core::proto::BasMsg;
/// use bas_core::scenario::new_web_log;
/// use bas_sim::time::{SimDuration, SimTime};
///
/// let at = |s| SimTime::ZERO + SimDuration::from_secs(s);
/// let schedule = shared_schedule(vec![(at(10), WebAction::QueryStatus)]);
/// let requests = new_request_log();
/// let mut web = WebSession::new(schedule, new_web_log(), requests.clone());
/// assert_eq!(web.on_clock(at(0)), WebStep::Sleep(SimDuration::from_secs(10)));
/// assert_eq!(web.on_clock(at(10)), WebStep::Send(WebAction::QueryStatus));
/// assert_eq!(web.on_reply(Some(BasMsg::Ack { code: 0 })), None);
/// web.on_clock(at(11));
/// assert_eq!(requests.borrow()[0].completed, at(11));
/// ```
#[derive(Debug, Clone)]
pub struct WebSession {
    schedule: ScheduleCursor,
    responses: WebLog,
    requests: RequestLog,
    /// Due actions drained but not yet sent (same-tick burst tail).
    pending: VecDeque<(SimTime, WebAction)>,
    /// The action whose request is in flight.
    inflight: Option<(SimTime, WebAction)>,
    /// Replied requests awaiting a completion timestamp.
    unstamped: Vec<(SimTime, WebAction, bool)>,
}

impl WebSession {
    /// A session at the front of `schedule`, logging decoded replies to
    /// `responses` and completed requests to `requests`.
    pub fn new(schedule: SharedSchedule, responses: WebLog, requests: RequestLog) -> Self {
        WebSession {
            schedule: ScheduleCursor::new(schedule),
            responses,
            requests,
            pending: VecDeque::new(),
            inflight: None,
            unstamped: Vec::new(),
        }
    }

    /// The clock read `now`: stamps every replied request with `now` as
    /// its completion time, drains the actions due at `now`, and returns
    /// the first of them to send, or how long to sleep until the next.
    pub fn on_clock(&mut self, now: SimTime) -> WebStep {
        self.stamp_completions(now);
        if self.pending.is_empty() {
            self.schedule.drain_due(now, &mut self.pending);
        }
        match self.next_request() {
            Some(action) => WebStep::Send(action),
            None => WebStep::Sleep(match self.schedule.next_time() {
                Some(t) => t - now,
                None => IDLE_SLEEP,
            }),
        }
    }

    /// The in-flight request's reply, `None` when it failed or did not
    /// decode. Returns the next request of the current burst, or `None`
    /// when the client should read the clock.
    pub fn on_reply(&mut self, reply: Option<BasMsg>) -> Option<WebAction> {
        let ok = reply.is_some();
        if let Some(msg) = reply {
            self.responses.borrow_mut().push(msg);
        }
        if let Some((scheduled, action)) = self.inflight.take() {
            self.unstamped.push((scheduled, action, ok));
        }
        self.next_request()
    }

    /// The action whose reply is awaited, if any.
    pub fn inflight(&self) -> Option<WebAction> {
        self.inflight.map(|(_, action)| action)
    }

    fn next_request(&mut self) -> Option<WebAction> {
        let (scheduled, action) = self.pending.pop_front()?;
        self.inflight = Some((scheduled, action));
        Some(action)
    }

    fn stamp_completions(&mut self, now: SimTime) {
        if self.unstamped.is_empty() {
            return;
        }
        let mut log = self.requests.borrow_mut();
        for (scheduled, action, ok) in self.unstamped.drain(..) {
            log.push(RequestSample {
                scheduled,
                completed: now,
                action,
                ok,
            });
        }
    }
}

/// One completed web request, stamped by the web process.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RequestSample {
    /// When the open-loop generator scheduled the request.
    pub scheduled: SimTime,
    /// When the web process observed the reply (the `GetTime`-class
    /// syscall after the RPC round-trip), so the latency
    /// `completed - scheduled` includes open-loop queueing delay.
    pub completed: SimTime,
    /// The action that was issued.
    pub action: WebAction,
    /// The reply decoded as a well-formed response.
    pub ok: bool,
}

/// Completed-request log shared between a platform stack and its web
/// process; cleared by the stack on boot re-imaging.
pub type RequestLog = Rc<RefCell<Vec<RequestSample>>>;

/// An empty [`RequestLog`].
pub fn new_request_log() -> RequestLog {
    Rc::new(RefCell::new(Vec::new()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::new_web_log;

    fn at(secs: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs(secs)
    }

    #[test]
    fn shared_schedule_sorts_by_time() {
        let cell = shared_schedule(vec![
            (at(20), WebAction::QueryStatus),
            (at(10), WebAction::SetSetpoint(24_000)),
        ]);
        let mut cursor = ScheduleCursor::new(cell);
        assert_eq!(cursor.next_time(), Some(at(10)));
        let mut out = VecDeque::new();
        cursor.drain_due(at(5), &mut out);
        assert!(out.is_empty(), "not due yet");
        cursor.drain_due(at(30), &mut out);
        assert_eq!(
            out,
            [
                (at(10), WebAction::SetSetpoint(24_000)),
                (at(20), WebAction::QueryStatus),
            ]
        );
        assert_eq!(cursor.remaining(), 0);
    }

    #[test]
    fn drain_due_delivers_same_tick_bursts_at_once() {
        let mut cursor = ScheduleCursor::new(shared_schedule(vec![
            (at(10), WebAction::QueryStatus),
            (at(10), WebAction::SetSetpoint(23_000)),
            (at(20), WebAction::QueryStatus),
        ]));
        let mut out = VecDeque::new();
        cursor.drain_due(at(10), &mut out);
        assert_eq!(
            out,
            [
                (at(10), WebAction::QueryStatus),
                (at(10), WebAction::SetSetpoint(23_000)),
            ]
        );
        assert_eq!(cursor.remaining(), 1);
    }

    #[test]
    fn cursor_follows_shared_cell_reimaging() {
        let cell = shared_schedule(vec![(at(10), WebAction::QueryStatus)]);
        let mut cursor = ScheduleCursor::new(cell.clone());
        let mut out = VecDeque::new();
        cursor.drain_due(at(10), &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(cursor.remaining(), 0);
        // Stack re-images the cell for the next instance; a fresh cursor
        // (rebuilt boot state) sees the new traffic.
        *cell.borrow_mut() = vec![
            (at(1), WebAction::SetSetpoint(22_100)),
            (at(2), WebAction::QueryStatus),
        ];
        let mut cursor = ScheduleCursor::new(cell);
        assert_eq!(cursor.next_time(), Some(at(1)));
        out.clear();
        cursor.drain_due(at(2), &mut out);
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn idle_session_sleeps_for_an_hour() {
        let mut web = WebSession::new(
            shared_schedule(Vec::new()),
            new_web_log(),
            new_request_log(),
        );
        assert_eq!(web.on_clock(at(1_000_000)), WebStep::Sleep(IDLE_SLEEP));
        assert_eq!(web.inflight(), None);
    }

    #[test]
    fn session_sends_a_burst_back_to_back_and_stamps_it_once() {
        let requests = new_request_log();
        let responses = new_web_log();
        let mut web = WebSession::new(
            shared_schedule(vec![
                (at(10), WebAction::QueryStatus),
                (at(10), WebAction::SetSetpoint(23_000)),
                (at(30), WebAction::QueryStatus),
            ]),
            responses.clone(),
            requests.clone(),
        );
        assert_eq!(web.on_clock(at(10)), WebStep::Send(WebAction::QueryStatus));
        assert_eq!(web.inflight(), Some(WebAction::QueryStatus));
        let ack = BasMsg::Ack { code: 0 };
        assert_eq!(
            web.on_reply(Some(ack)),
            Some(WebAction::SetSetpoint(23_000)),
            "burst tail follows without a clock read"
        );
        assert_eq!(web.on_reply(None), None, "burst done: read the clock");
        assert!(
            requests.borrow().is_empty(),
            "stamped at the next clock read"
        );

        assert_eq!(
            web.on_clock(at(12)),
            WebStep::Sleep(SimDuration::from_secs(18))
        );
        let log = requests.borrow().clone();
        assert_eq!(log.len(), 2);
        assert!(log
            .iter()
            .all(|r| r.scheduled == at(10) && r.completed == at(12)));
        assert_eq!((log[0].ok, log[1].ok), (true, false));
        assert_eq!(*responses.borrow(), vec![ack]);
    }
}
