//! Cross-client batch coalescing (paper §8.1; Wally's cross-user
//! batching): a per-shard scheduler that queues concurrently arriving
//! requests and flushes them through a batched kernel, so `N`
//! concurrent queries cost one database scan instead of `N`.
//!
//! # Lanes
//!
//! A lane is a queue in front of a batched kernel, plus one deadline
//! for the batch forming in that queue (see `DESIGN.md` §15 for the
//! state machine). Every flush runs on a submitter's own thread: the
//! kernel borrows server state with a non-`'static` lifetime, and the
//! submitters are the threads that hold it.
//!
//! - **A complete batch flushes on its last arrival.** Every
//!   submitter raises the lane's (and its cohort's) in-flight gauge
//!   before it enqueues, so an arriving submitter that finds the queue
//!   at least as long as that gauge knows nobody who could join is
//!   still missing; if the queue is also at least as long as the
//!   lane's previous batch (submitters are outside the gauge for the
//!   microseconds between leaving one lane and entering the next, and
//!   "expect the last batch again" keeps those batches whole), waiting
//!   cannot batch anything more: the arriving thread drains and runs
//!   the kernel inline (reason `complete`; `solo` is its batch-of-one
//!   case, so a lone client pays kernel latency, not `max_wait`). `N`
//!   lock-stepped closed-loop submitters therefore pay
//!   `Σ_lanes flush(N)` per operation and no timer at all (`DESIGN.md`
//!   §15 states the bound). The arrival that fills a batch to
//!   `max_batch` flushes it the same way (reason `full`), so the queue
//!   never holds more than one batch.
//! - **An incomplete batch waits out its deadline, and its own members
//!   hold the timer.** The submitter whose request enters an empty
//!   queue sets the deadline for the forming batch; every member parks
//!   on its reply channel until then. The first to wake with its
//!   request still queued drains the batch and runs the kernel (reason
//!   `deadline`); the others find their requests gone and wait for the
//!   reply the drainer owes them.
//! - **A deadline is set only when someone in flight has not arrived
//!   yet:** a co-submitter still in a sibling lane or inside a running
//!   flush, or a lane whose population just shrank (one deadline wait
//!   per decrease; the drained batch then resets the expectation). The
//!   deadline is the forming batch's first arrival plus the policy's
//!   `max_wait`, a fixed, configured window.
//!
//! Two invariants make every path safe to race: a request leaves the
//! queue exactly once, under the queue lock (drained into a batch, or
//! withdrawn by its own submitter); and the thread that drained it
//! replies to it exactly once (its response, or the crash marker of
//! the flush it rode in). A drain always takes the whole queue, so a
//! queued request's deadline never moves.
//!
//! Results are bit-identical to unbatched serving as long as the
//! flush function is (the workspace's batched kernels guarantee it),
//! because batch composition only groups independent requests — it
//! never mixes their data.
//!
//! Two failure modes are contained here rather than propagated:
//!
//! - **Lane crashes.** A panicking batched kernel must not take the
//!   whole plane down (every co-batched query would hang waiting on a
//!   reply that never comes). The flusher catches the panic, fails
//!   every request of the crashed flush, and lets each submitter
//!   re-enqueue into a fresh batch up to [`MAX_LANE_RETRIES`] times
//!   before returning a typed [`ServeError::LaneFailed`].
//! - **Deadline overruns.** [`Coalescer::submit_within`] bounds how
//!   long a request may sit in the lane. A request still *queued*
//!   when its deadline expires withdraws itself (typed
//!   [`ServeError::DeadlineExceeded`]); one already drained into an
//!   in-flight flush waits for that imminent result — a response,
//!   once computed, is never dropped on the floor.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use crate::overload::{ConfigError, ServeError};

/// Re-enqueue attempts a submitter makes after its flush crashed
/// before giving up with [`ServeError::LaneFailed`].
pub const MAX_LANE_RETRIES: u32 = 3;

/// Knobs of one coalescing queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoalescePolicy {
    /// Requests flushed together at most (the batched kernel's `B`).
    pub max_batch: usize,
    /// How long a forming batch waits for co-batched requests before
    /// one of its members flushes what is pending.
    pub max_wait: Duration,
}

impl Default for CoalescePolicy {
    /// Defaults chosen for the serving benches' shard scans (hundreds
    /// of microseconds): a 1 ms window is long enough to fill an
    /// 8-batch at any arrival rate worth batching, while the
    /// completion rule keeps a lane whose submitters have all arrived
    /// (a lone client included) at kernel cost. (The previous
    /// cooperative scheduler defaulted to 2 ms and made lone queries
    /// wait all of it.)
    fn default() -> Self {
        Self { max_batch: 8, max_wait: Duration::from_millis(1) }
    }
}

impl CoalescePolicy {
    /// Checks internal consistency.
    ///
    /// # Errors
    ///
    /// [`ConfigError`] on a zero batch size or a zero wait.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.max_batch < 1 {
            return Err(ConfigError {
                field: "coalesce.max_batch",
                reason: "batch size must be positive",
            });
        }
        if self.max_wait == Duration::ZERO {
            return Err(ConfigError {
                field: "coalesce.max_wait",
                reason: "max wait must be positive",
            });
        }
        Ok(())
    }
}

/// Why a batch left the queue (span attribute + counter label).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FlushReason {
    /// The batch reached `max_batch`.
    Full,
    /// The forming batch's deadline passed and a member flushed it.
    Deadline,
    /// The last submitter in flight arrived and flushed the whole
    /// batch inline, without a timer.
    Complete,
    /// [`FlushReason::Complete`] with a batch of one: a lone request
    /// with no co-submitters flushed itself inline.
    Solo,
}

impl FlushReason {
    fn as_str(self) -> &'static str {
        match self {
            FlushReason::Full => "full",
            FlushReason::Deadline => "deadline",
            FlushReason::Complete => "complete",
            FlushReason::Solo => "solo",
        }
    }

    /// Flight-recorder code (the `flush_reason` vocabulary in
    /// `tiptoe_obs::recorder`).
    fn code(self) -> u64 {
        use tiptoe_obs::recorder::flush_reason as fr;
        match self {
            FlushReason::Full => fr::FULL,
            FlushReason::Deadline => fr::DEADLINE,
            FlushReason::Complete => fr::COMPLETE,
            FlushReason::Solo => fr::SOLO,
        }
    }
}

/// Marker delivered to every member of a flush whose kernel panicked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct LaneCrashed;

/// What arrives on a waiter's reply channel: its response, or the
/// crash marker of the flush it rode in.
type Reply<Resp> = Result<Resp, LaneCrashed>;

/// A flushed batch member's reply channel plus its recorder query id,
/// kept after the request itself is moved into the kernel.
type Member<Resp> = (mpsc::Sender<Reply<Resp>>, u64);

/// One queued request: its payload, the channel its response returns
/// on, a withdrawal ticket, when it arrived (for queue-wait
/// accounting), and the submitter's trace context — captured at
/// enqueue so a flush that runs on *another* thread (a co-submitter's
/// full or deadline drain) can still attach its span to the
/// originating queries instead of orphaning under the flushing
/// thread's unrelated stack.
struct Pending<Req, Resp> {
    ticket: u64,
    req: Req,
    reply: mpsc::Sender<Reply<Resp>>,
    enqueued: Instant,
    ctx: tiptoe_obs::TraceCtx,
}

/// Lane-id allocator (process-wide, so recorder timelines from
/// different planes never collide).
static NEXT_LANE_ID: AtomicU64 = AtomicU64::new(0);

struct LaneInner<Req, Resp> {
    /// The forming batch (never more than `max_batch` requests).
    queue: VecDeque<Pending<Req, Resp>>,
    /// When the forming batch flushes if it has not completed: set by
    /// the request that starts it, meaningless while the queue is
    /// empty.
    deadline: Instant,
    /// Size of the batch drained last: what a complete batch is
    /// expected to reach again (0 before the first drain).
    last_batch: usize,
}

impl<Req, Resp> LaneInner<Req, Resp> {
    /// Takes the whole forming batch and records its size as the
    /// lane's `last_batch`.
    fn drain(&mut self) -> Vec<Pending<Req, Resp>> {
        self.last_batch = self.queue.len();
        self.queue.drain(..).collect()
    }
}

/// Instantaneous occupancy of one coalescer lane (see
/// [`Coalescer::lane_status`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaneStatus {
    /// Process-unique lane id.
    pub id: u64,
    /// Requests queued in the forming batch right now.
    pub queued: usize,
    /// Submitters inside `submit_*` on this lane right now.
    pub inflight: usize,
    /// The policy's wait: how long a batch forming now waits before
    /// its deadline.
    pub max_wait: Duration,
    /// The policy's batch size.
    pub max_batch: usize,
    /// Size of the batch drained last (what the completion rule
    /// expects to assemble again).
    pub last_batch: usize,
    /// Flushes this lane has run, indexed by
    /// `tiptoe_obs::recorder::flush_reason` code.
    pub flushes: [u64; tiptoe_obs::recorder::flush_reason::COUNT],
    /// Requests those flushes served (`served / Σ flushes` is the
    /// lane's mean batch).
    pub served: u64,
}

/// A batching scheduler in front of a batched kernel: concurrent
/// [`Coalescer::submit`] calls are grouped and answered by one
/// `flush` invocation per batch.
///
/// `flush` receives the batch's requests in queue order and must
/// return exactly one response per request, in the same order.
pub struct Coalescer<'a, Req, Resp> {
    /// Process-unique lane id (flight-recorder + introspection key).
    id: u64,
    policy: CoalescePolicy,
    inner: Mutex<LaneInner<Req, Resp>>,
    next_ticket: AtomicU64,
    /// Submitters currently inside `submit_*` on this lane: with the
    /// cohort gauge, how many requests a complete batch holds.
    inflight: AtomicUsize,
    /// Optional plane-wide in-flight gauge shared by sibling lanes
    /// (see [`Coalescer::with_cohort`]).
    cohort: Option<Arc<AtomicUsize>>,
    /// Flushes this lane ran, by [`FlushReason::code`], and the
    /// requests they served (introspection only).
    flushes: [AtomicU64; tiptoe_obs::recorder::flush_reason::COUNT],
    served: AtomicU64,
    #[allow(clippy::type_complexity)]
    flush: Box<dyn Fn(Vec<Req>) -> Vec<Resp> + Send + Sync + 'a>,
}

impl<'a, Req, Resp> Coalescer<'a, Req, Resp> {
    /// Creates a coalescer over a batched kernel.
    ///
    /// # Panics
    ///
    /// Panics if the policy is invalid (validate the policy through
    /// config loading to get a typed error instead).
    pub fn new(
        policy: CoalescePolicy,
        flush: impl Fn(Vec<Req>) -> Vec<Resp> + Send + Sync + 'a,
    ) -> Self {
        policy.validate().expect("invalid coalescer policy");
        Self {
            id: NEXT_LANE_ID.fetch_add(1, Ordering::Relaxed),
            policy,
            inner: Mutex::new(LaneInner {
                queue: VecDeque::new(),
                deadline: Instant::now(),
                last_batch: 0,
            }),
            next_ticket: AtomicU64::new(0),
            inflight: AtomicUsize::new(0),
            cohort: None,
            flushes: std::array::from_fn(|_| AtomicU64::new(0)),
            served: AtomicU64::new(0),
            flush: Box::new(flush),
        }
    }

    /// Shares a plane-wide in-flight gauge across sibling lanes. A
    /// client's query crosses several lanes (every ranking shard, the
    /// URL server, token generation) one at a time, so under
    /// concurrent load any single lane is routinely empty the moment
    /// a request arrives — but companions for its batch are right
    /// behind, parked in sibling lanes. With a cohort installed, a
    /// batch is complete only when it holds every submitter in flight
    /// across the *whole cohort*, not merely everyone on this lane;
    /// until then it waits for them (at most its deadline). Without a
    /// cohort the lane's own in-flight count is the only signal
    /// (correct for standalone coalescers).
    pub fn with_cohort(mut self, cohort: Arc<AtomicUsize>) -> Self {
        self.cohort = Some(cohort);
        self
    }

    /// The policy this coalescer runs under.
    pub fn policy(&self) -> CoalescePolicy {
        self.policy
    }

    /// Live occupancy snapshot of this lane (for `ServingPlane`
    /// introspection; values are instantaneous and unsynchronized).
    pub fn lane_status(&self) -> LaneStatus {
        let (queued, last_batch) = {
            let inner = self.lock();
            (inner.queue.len(), inner.last_batch)
        };
        LaneStatus {
            id: self.id,
            queued,
            inflight: self.inflight.load(Ordering::SeqCst),
            max_wait: self.policy.max_wait,
            max_batch: self.policy.max_batch,
            last_batch,
            flushes: std::array::from_fn(|i| self.flushes[i].load(Ordering::Relaxed)),
            served: self.served.load(Ordering::Relaxed),
        }
    }

    fn lock(&self) -> MutexGuard<'_, LaneInner<Req, Resp>> {
        self.inner.lock().expect("coalescer queue lock")
    }

    /// Submits one request and blocks until its response arrives —
    /// either from a batch this thread flushed or from one a
    /// co-submitter flushed.
    ///
    /// # Panics
    ///
    /// Panics if the lane crashes [`MAX_LANE_RETRIES`] + 1 times in a
    /// row for this request ([`Coalescer::submit_within`] returns the
    /// typed error instead).
    pub fn submit(&self, req: Req) -> Resp
    where
        Req: Clone,
    {
        match self.submit_bounded(req, None) {
            Ok(resp) => resp,
            Err(e) => panic!("coalescer lane failed permanently: {e}"),
        }
    }

    /// Submits one request with a deadline measured from this call:
    /// the request waits in the lane at most `deadline` before
    /// withdrawing itself.
    ///
    /// # Errors
    ///
    /// - [`ServeError::DeadlineExceeded`] if the request was still
    ///   queued when the deadline expired (it is withdrawn; the
    ///   kernel never sees it).
    /// - [`ServeError::LaneFailed`] if the lane's kernel crashed
    ///   repeatedly under this request.
    pub fn submit_within(&self, req: Req, deadline: Duration) -> Result<Resp, ServeError>
    where
        Req: Clone,
    {
        self.submit_bounded(req, Some(deadline))
    }

    fn submit_bounded(&self, req: Req, deadline: Option<Duration>) -> Result<Resp, ServeError>
    where
        Req: Clone,
    {
        let start = Instant::now();
        // RAII inflight count: the completion rule must see every
        // submitter that could still contribute to a batch, including
        // ones sleeping between crash retries.
        let _inflight = InflightGuard::enter(&self.inflight);
        let _cohort = self.cohort.as_deref().map(InflightGuard::enter);
        let mut crashes = 0u32;
        loop {
            match self.submit_once(req.clone(), deadline, start)? {
                Ok(resp) => return Ok(resp),
                Err(LaneCrashed) => {
                    crashes += 1;
                    if crashes > MAX_LANE_RETRIES {
                        return Err(ServeError::LaneFailed { crashes });
                    }
                    // Re-enqueue into a fresh batch; the poisoned
                    // batch composition is gone, so a transient
                    // kernel failure gets a clean retry.
                }
            }
        }
    }

    /// One enqueue/wait round. The outer `Err` is a typed deadline
    /// failure; the inner `Err` a crashed flush (retryable).
    fn submit_once(
        &self,
        req: Req,
        deadline: Option<Duration>,
        start: Instant,
    ) -> Result<Reply<Resp>, ServeError> {
        let ticket = self.next_ticket.fetch_add(1, Ordering::Relaxed);
        let (tx, rx) = mpsc::channel();
        // One critical section: the enqueue, the flush decision and,
        // for a full or complete batch, its drain.
        let (len, present, last_batch, batch_deadline, inline) = {
            let mut inner = self.lock();
            let now = Instant::now();
            inner.queue.push_back(Pending {
                ticket,
                req,
                reply: tx,
                enqueued: now,
                ctx: tiptoe_obs::TraceCtx::current(),
            });
            let len = inner.queue.len();
            // Every submitter raises the gauges before it enqueues, so
            // a queue this long is missing nobody who is in flight.
            let present = self
                .inflight
                .load(Ordering::SeqCst)
                .max(self.cohort.as_ref().map_or(0, |c| c.load(Ordering::SeqCst)));
            let last_batch = inner.last_batch;
            let reason = if len >= self.policy.max_batch {
                Some(FlushReason::Full)
            } else if len >= present.max(last_batch) {
                // Everyone in flight is queued here, and the batch is
                // no smaller than the last one (whose members may be
                // between lanes, outside the gauge): waiting cannot
                // batch anything more, so serve it now.
                Some(if len == 1 { FlushReason::Solo } else { FlushReason::Complete })
            } else {
                if len == 1 {
                    // Someone is still missing and a batch starts
                    // forming: its members will wait until this.
                    inner.deadline = now + self.policy.max_wait;
                }
                None
            };
            let inline = reason.map(|r| (inner.drain(), r));
            (len, present, last_batch, inner.deadline, inline)
        };
        tiptoe_obs::recorder::record(
            tiptoe_obs::recorder::EventKind::LaneEnqueued,
            self.id,
            len as u64,
            present as u64,
            last_batch as u64,
        );
        if let Some((batch, reason)) = inline {
            self.run_batch(batch, reason);
        }
        // Park until our reply arrives, the forming batch's deadline,
        // or the caller's own deadline, whichever comes first.
        let budget = deadline.and_then(|d| start.checked_add(d));
        loop {
            let until = budget.map_or(batch_deadline, |b| b.min(batch_deadline));
            match rx.recv_timeout(until.saturating_duration_since(Instant::now())) {
                Ok(reply) => return Ok(reply),
                // The sender can only vanish if the flush died without
                // delivering; treat it as a crash.
                Err(mpsc::RecvTimeoutError::Disconnected) => return Ok(Err(LaneCrashed)),
                Err(mpsc::RecvTimeoutError::Timeout) => {}
            }
            let mut inner = self.lock();
            if !inner.queue.iter().any(|p| p.ticket == ticket) {
                // Drained into a flush: whoever drained it owes us
                // exactly one reply, and a response, once computed, is
                // never dropped — the caller charges any overrun to
                // its budget.
                drop(inner);
                return Ok(rx.recv().unwrap_or(Err(LaneCrashed)));
            }
            if let Some(d) = deadline.filter(|&d| start.elapsed() >= d) {
                // Withdraw: the kernel never saw the request, so
                // failing it loses nothing.
                inner.queue.retain(|p| p.ticket != ticket);
                drop(inner);
                let spent = start.elapsed();
                tiptoe_obs::metrics().counter("net.coalesce.abandoned").inc();
                tiptoe_obs::recorder::record(
                    tiptoe_obs::recorder::EventKind::LaneWithdrawn,
                    self.id,
                    spent.as_micros() as u64,
                    0,
                    0,
                );
                return Err(ServeError::DeadlineExceeded { budget: d, spent });
            }
            if Instant::now() >= inner.deadline {
                let batch = inner.drain();
                drop(inner);
                // Our request is in the batch, so its reply is waiting
                // when the loop parks again.
                self.run_batch(batch, FlushReason::Deadline);
            }
        }
    }

    /// Runs the batched kernel over a drained batch (outside the
    /// queue lock, so co-submitters keep enqueueing — and other
    /// batches keep flushing — concurrently), then answers every
    /// member through its channel.
    ///
    /// A kernel panic is contained: every member of the crashed batch
    /// is failed with [`LaneCrashed`] so its submitter can retry or
    /// surface a typed error — no waiter is left hanging, and no
    /// request is silently duplicated (a request leaves the queue
    /// exactly once, and the crashed batch's requests only re-enter
    /// it through their own submitters).
    fn run_batch(&self, batch: Vec<Pending<Req, Resp>>, reason: FlushReason) {
        use tiptoe_obs::recorder::{self, EventKind};
        // The flush serves *the batch's* queries, not whatever the
        // flushing thread happens to be doing: parent the span
        // explicitly under the first member's submission span (under
        // a co-submitter's drain the implicit thread-local parent
        // would be a different query, leaving this batch's queries
        // without the span). Every other member is attached with a
        // follow-from link, so each batched query's trace reaches
        // this span.
        let mut span = tiptoe_obs::span_under("net.coalesce.flush", batch[0].ctx.span_id);
        let m = tiptoe_obs::metrics();
        let queue_wait_us =
            batch.iter().map(|p| p.enqueued.elapsed().as_micros() as u64).max().unwrap_or(0);
        if tiptoe_obs::enabled() {
            span.set_label(reason.as_str());
        }
        span.attr_u64("batch", batch.len() as u64);
        span.attr_u64("queue_wait_us", queue_wait_us);
        for p in &batch {
            if let Some(s) = p.ctx.span_id {
                span.follow_from(s);
            }
            recorder::record_for(
                p.ctx.trace_id,
                EventKind::LaneFlushed,
                self.id,
                batch.len() as u64,
                reason.code(),
                p.enqueued.elapsed().as_micros() as u64,
            );
        }
        m.histogram("net.coalesce.batch_size").record(batch.len() as u64);
        m.histogram("net.coalesce.queue_wait_us").record(queue_wait_us);
        m.counter_with("net.coalesce.flushes", Some(reason.as_str().into())).inc();
        self.flushes[reason.code() as usize].fetch_add(1, Ordering::Relaxed);
        self.served.fetch_add(batch.len() as u64, Ordering::Relaxed);

        let (reqs, members): (Vec<Req>, Vec<Member<Resp>>) =
            batch.into_iter().map(|p| (p.req, (p.reply, p.ctx.trace_id))).unzip();
        let n = reqs.len();
        let kernel_start = Instant::now();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let resps = (self.flush)(reqs);
            assert_eq!(resps.len(), n, "batched kernel must answer every request");
            resps
        }));
        match outcome {
            Ok(resps) => {
                m.histogram("net.coalesce.flush_us")
                    .record(kernel_start.elapsed().as_micros() as u64);
                for ((reply, _), resp) in members.iter().zip(resps) {
                    // A receiver can only be gone if its submitter
                    // panicked; the rest of the batch must still be
                    // delivered.
                    let _ = reply.send(Ok(resp));
                }
            }
            Err(_) => {
                let crashes = {
                    let c = m.counter("net.coalesce.lane_crashes");
                    c.inc();
                    c.get()
                };
                span.attr_u64("crashed", 1);
                for (reply, query) in &members {
                    recorder::record_for(
                        *query,
                        EventKind::LaneCrashed,
                        self.id,
                        crashes,
                        0,
                        0,
                    );
                    let _ = reply.send(Err(LaneCrashed));
                }
            }
        }
    }
}

/// RAII counter of submitters inside `submit_*` on one lane.
struct InflightGuard<'g> {
    counter: &'g AtomicUsize,
}

impl<'g> InflightGuard<'g> {
    fn enter(counter: &'g AtomicUsize) -> Self {
        counter.fetch_add(1, Ordering::SeqCst);
        Self { counter }
    }
}

impl Drop for InflightGuard<'_> {
    fn drop(&mut self) {
        self.counter.fetch_sub(1, Ordering::SeqCst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn single_submit_round_trips() {
        let c = Coalescer::new(CoalescePolicy::default(), |reqs: Vec<u64>| {
            reqs.into_iter().map(|r| r * 2).collect()
        });
        assert_eq!(c.submit(21), 42);
    }

    #[test]
    fn solo_submits_flush_immediately_not_after_max_wait() {
        // A deliberately huge max_wait: if the lone submitter waited
        // for the deadline (as the old cooperative scheduler did),
        // this test would take 200 ms; the solo fast path answers at
        // kernel latency.
        let policy = CoalescePolicy {
            max_wait: Duration::from_millis(200),
            ..CoalescePolicy::default()
        };
        let c = Coalescer::new(policy, |reqs: Vec<u64>| reqs);
        let before = solo_flushes();
        let start = Instant::now();
        assert_eq!(c.submit(9), 9);
        assert!(
            start.elapsed() < Duration::from_millis(100),
            "solo submit must not wait out max_wait (took {:?})",
            start.elapsed()
        );
        assert!(solo_flushes() > before, "flush must be accounted as solo");
    }

    fn solo_flushes() -> u64 {
        tiptoe_obs::metrics().counter_with("net.coalesce.flushes", Some("solo".into())).get()
    }

    #[test]
    fn concurrent_submits_share_flushes_and_keep_order() {
        let flushes = AtomicUsize::new(0);
        let policy =
            CoalescePolicy { max_batch: 8, max_wait: Duration::from_millis(50) };
        let c = Coalescer::new(policy, |reqs: Vec<u64>| {
            flushes.fetch_add(1, Ordering::Relaxed);
            reqs.into_iter().map(|r| r + 1000).collect()
        });
        std::thread::scope(|scope| {
            for i in 0..16u64 {
                let c = &c;
                scope.spawn(move || {
                    assert_eq!(c.submit(i), i + 1000, "response matched to its request");
                });
            }
        });
        // 16 requests, batches of up to 8: at least 2 flushes, and
        // (the point of coalescing) far fewer than 16.
        let n = flushes.load(Ordering::Relaxed);
        assert!(n >= 2, "{n} flushes");
        assert!(n <= 16, "{n} flushes");
    }

    #[test]
    fn deadline_flushes_partial_batches() {
        let policy =
            CoalescePolicy { max_batch: 8, max_wait: Duration::from_millis(5) };
        let c = Coalescer::new(policy, |reqs: Vec<u64>| reqs);
        // Simulate a second in-flight submitter so the solo fast path
        // stays closed and the request must wait out its batch's
        // deadline, then flush itself.
        let _other = InflightGuard::enter(&c.inflight);
        let start = Instant::now();
        assert_eq!(c.submit(9), 9);
        let elapsed = start.elapsed();
        assert!(
            elapsed >= Duration::from_millis(5),
            "partial batch must wait for its deadline (took {elapsed:?})"
        );
        assert!(elapsed < Duration::from_millis(250), "deadline overslept (took {elapsed:?})");
        assert_eq!(flushes(&c, FlushReason::Deadline), 1);
    }

    /// A policy under which only a quarter-second stall fires a
    /// deadline, so the flush counts below are decided by arrivals alone.
    fn patient(max_batch: usize) -> CoalescePolicy {
        CoalescePolicy { max_batch, max_wait: Duration::from_millis(250) }
    }

    /// Puts a lane in the state a population of `n` leaves it in. (From
    /// a cold start the first batches depend on thread start order;
    /// `last_batch` is what makes that irrelevant afterwards.)
    fn warmed<'a>(c: Coalescer<'a, u64, u64>, n: usize) -> Coalescer<'a, u64, u64> {
        c.lock().last_batch = n;
        c
    }

    /// Runs `threads` closed-loop submitters for `rounds` rounds, each
    /// round crossing `lanes` in order; lane `l` must answer `r` with
    /// `2r + l`.
    fn closed_loop(lanes: &[Coalescer<'_, u64, u64>], threads: u64, rounds: u64) {
        std::thread::scope(|scope| {
            for t in 0..threads {
                scope.spawn(move || {
                    for round in 0..rounds {
                        let req = t * rounds + round;
                        for (l, lane) in lanes.iter().enumerate() {
                            assert_eq!(lane.submit(req), 2 * req + l as u64, "response matched");
                        }
                    }
                });
            }
        });
    }

    fn flushes(c: &Coalescer<'_, u64, u64>, reason: FlushReason) -> u64 {
        c.lane_status().flushes[reason.code() as usize]
    }

    #[test]
    fn closed_loop_batches_flush_complete_on_the_last_arrival() {
        // The bound of DESIGN §15: N lock-stepped submitters pay one
        // flush per lane and no timer, so every flush holds all N and
        // is labelled `complete`.
        const N: u64 = 4;
        const ROUNDS: u64 = 200;
        let cohort = Arc::new(AtomicUsize::new(0));
        let whole = [AtomicUsize::new(0), AtomicUsize::new(0)];
        let lanes: Vec<_> = (0..2)
            .map(|l| {
                let whole = &whole[l];
                let c = Coalescer::new(patient(8), move |reqs: Vec<u64>| {
                    if reqs.len() as u64 == N {
                        whole.fetch_add(1, Ordering::Relaxed);
                    }
                    reqs.into_iter().map(|r| 2 * r + l as u64).collect()
                });
                warmed(c.with_cohort(cohort.clone()), N as usize)
            })
            .collect();
        closed_loop(&lanes, N, ROUNDS);
        for (lane, whole) in lanes.iter().zip(&whole) {
            let status = lane.lane_status();
            let total: u64 = status.flushes.iter().sum();
            assert_eq!(status.served, N * ROUNDS, "requests in = responses out");
            let whole = whole.load(Ordering::Relaxed) as u64;
            assert!(whole * 10 >= total * 8, "{whole} of {total} flushes held all {N}");
            let complete = flushes(lane, FlushReason::Complete);
            assert!(complete * 10 >= total * 8, "{complete} of {total} flushes complete");
            let deadline = flushes(lane, FlushReason::Deadline);
            assert!(deadline * 10 <= total, "{deadline} of {total} flushes waited out a deadline");
        }
    }

    #[test]
    fn a_shrinking_population_costs_one_deadline_per_departure() {
        const ROUNDS: u64 = 20;
        let lane = [warmed(
            Coalescer::new(patient(8), |reqs: Vec<u64>| reqs.into_iter().map(|r| 2 * r).collect()),
            4,
        )];
        let lane_ref = &lane[0];
        let mut seen = [0u64; tiptoe_obs::recorder::flush_reason::COUNT];
        let mut delta = move || {
            let now = lane_ref.lane_status().flushes;
            let d: Vec<u64> = now.iter().zip(seen).map(|(n, s)| n - s).collect();
            seen = now;
            d
        };
        let (deadline, complete, solo) = (
            FlushReason::Deadline.code() as usize,
            FlushReason::Complete.code() as usize,
            FlushReason::Solo.code() as usize,
        );
        closed_loop(&lane, 4, ROUNDS);
        let d = delta();
        assert_eq!((d[deadline], d[complete]), (0, ROUNDS), "4 in lock-step: {d:?}");
        // 4 -> 3: the first batch waits once for the submitter that
        // left, then three is the expectation.
        closed_loop(&lane, 3, ROUNDS);
        let d = delta();
        assert_eq!((d[deadline], d[complete]), (1, ROUNDS - 1), "4 -> 3: {d:?}");
        // 3 -> 1: one more wait, then the lone submitter flushes solo.
        closed_loop(&lane, 1, ROUNDS);
        let d = delta();
        assert_eq!((d[deadline], d[solo]), (1, ROUNDS - 1), "3 -> 1: {d:?}");
    }

    #[test]
    fn a_population_above_max_batch_still_flushes_full() {
        // A fifth submitter that never arrives keeps every batch
        // incomplete, so reaching `max_batch` is what flushes.
        let sizes = Mutex::new(Vec::new());
        let lane = [Coalescer::new(patient(2), |reqs: Vec<u64>| {
            sizes.lock().expect("sizes").push(reqs.len());
            reqs.into_iter().map(|r| 2 * r).collect()
        })];
        let _absent = InflightGuard::enter(&lane[0].inflight);
        closed_loop(&lane, 4, 10);
        assert!(flushes(&lane[0], FlushReason::Full) >= 1);
        assert_eq!(flushes(&lane[0], FlushReason::Complete), 0);
        assert_eq!(flushes(&lane[0], FlushReason::Solo), 0);
        assert!(sizes.lock().expect("sizes").iter().all(|&n| n <= 2), "max_batch respected");
    }

    #[test]
    fn submit_within_answers_in_time_requests() {
        let c = Coalescer::new(CoalescePolicy::default(), |reqs: Vec<u64>| {
            reqs.into_iter().map(|r| r * 3).collect()
        });
        let resp = c.submit_within(5, Duration::from_secs(5)).expect("ample deadline");
        assert_eq!(resp, 15);
    }

    #[test]
    fn expired_requests_withdraw_with_a_typed_error() {
        // A policy whose max_wait exceeds the request's deadline, and
        // a simulated co-submitter holding the solo path closed: the
        // submitter's deadline fires while the request is still
        // queued, so it withdraws with a typed error.
        let policy =
            CoalescePolicy { max_batch: 8, max_wait: Duration::from_millis(100) };
        let c = Coalescer::new(policy, |reqs: Vec<u64>| reqs);
        let _other = InflightGuard::enter(&c.inflight);
        let before = tiptoe_obs::metrics().counter("net.coalesce.abandoned").get();
        let err = c.submit_within(1, Duration::from_millis(5)).expect_err("deadline expires");
        assert!(matches!(err, ServeError::DeadlineExceeded { .. }), "{err:?}");
        assert!(tiptoe_obs::metrics().counter("net.coalesce.abandoned").get() > before);
        // The withdrawn request must not leak into the next batch.
        assert_eq!(c.submit(7), 7, "queue is clean after withdrawal");
    }

    #[test]
    fn crashed_lanes_fail_over_to_a_fresh_flush() {
        let crash_next = AtomicUsize::new(1);
        let c = Coalescer::new(CoalescePolicy::default(), |reqs: Vec<u64>| {
            if crash_next
                .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |v| Some(v.saturating_sub(1)))
                .expect("update")
                > 0
            {
                panic!("injected lane crash");
            }
            reqs.into_iter().map(|r| r + 1).collect()
        });
        let before = tiptoe_obs::metrics().counter("net.coalesce.lane_crashes").get();
        // First flush crashes; the submitter re-enqueues and the
        // retry flush answers correctly.
        assert_eq!(c.submit(41), 42);
        assert!(tiptoe_obs::metrics().counter("net.coalesce.lane_crashes").get() > before);
    }

    #[test]
    fn permanently_crashed_lanes_return_a_typed_error() {
        let c: Coalescer<'_, u64, u64> =
            Coalescer::new(CoalescePolicy::default(), |_reqs| panic!("kernel always crashes"));
        let err = c.submit_within(1, Duration::from_secs(10)).expect_err("lane never recovers");
        assert!(
            matches!(err, ServeError::LaneFailed { crashes } if crashes == MAX_LANE_RETRIES + 1),
            "{err:?}"
        );
    }

    #[test]
    fn invalid_policies_are_rejected() {
        for bad in [
            CoalescePolicy { max_batch: 0, ..CoalescePolicy::default() },
            CoalescePolicy { max_wait: Duration::ZERO, ..CoalescePolicy::default() },
        ] {
            assert!(bad.validate().is_err(), "{bad:?}");
        }
        assert!(CoalescePolicy::default().validate().is_ok());
    }
}
