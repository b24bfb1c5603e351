//! Overload safety: deadline budgets, admission control, and
//! per-shard circuit breakers for the typed service plane.
//!
//! Tiptoe's server work is scan-bound — every query costs a full
//! database scan — so a burst past capacity cannot be absorbed, only
//! shed or deadlined (Wally reaches the million-user regime by
//! scheduling load against explicit capacity budgets). This module
//! holds the three cooperating mechanisms:
//!
//! - [`DeadlineBudget`] — a per-query wall-clock allowance carried
//!   from the client's `query` through [`crate::dispatch`] into coalescer
//!   lanes and the per-shard fan-out. A query that cannot finish in
//!   budget fails early with a typed [`ServeError::DeadlineExceeded`]
//!   instead of queueing forever.
//! - [`AdmissionController`] — a bounded admission queue over a
//!   capacity model derived from the observed batched-scan latency
//!   histogram (`net.coalesce.flush_us`). Queries past
//!   `capacity + queue_depth` inflight are shed deterministically (by
//!   arrival order) with [`ServeError::Overloaded`].
//! - [`BreakerBank`] — per-shard circuit breakers layered on
//!   [`crate::FaultPolicy`]: a shard whose responses degrade past a
//!   failure or straggler-latency threshold is *opened* (its traffic
//!   skipped, queries degrade to survivor-subset decryption over the
//!   remaining shards) and half-open probed for recovery.
//!
//! Everything here is mechanism; policy lives in the corresponding
//! `*Policy` structs, validated into [`ConfigError`] rather than
//! panicking so misconfiguration surfaces through config loading.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// A policy knob failed validation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConfigError {
    /// The knob that failed.
    pub field: &'static str,
    /// Why it is invalid.
    pub reason: &'static str,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid {}: {}", self.field, self.reason)
    }
}

impl std::error::Error for ConfigError {}

/// Why a query was rejected by the overload-safe serving path.
///
/// These are *typed, expected* outcomes under overload — never
/// panics. A shed or deadlined query costs the client a retry, not a
/// privacy or correctness loss: admission happens before any token is
/// consumed, and a deadline abort never returns a partial answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeError {
    /// Admission control shed the query: `inflight` queries were
    /// already running or queued against a plane sized for `capacity`.
    Overloaded {
        /// Inflight queries observed at the shed decision.
        inflight: usize,
        /// The plane's derived concurrent-query capacity.
        capacity: usize,
    },
    /// The query's deadline budget ran out before it completed.
    DeadlineExceeded {
        /// The query's total budget.
        budget: Duration,
        /// Wall-clock already charged when the budget was exceeded.
        spent: Duration,
    },
    /// A coalescer lane crashed repeatedly; the request was retried
    /// `crashes` times and abandoned.
    LaneFailed {
        /// Crashed flush attempts observed by this request.
        crashes: u32,
    },
    /// A fault/coalesce policy failed validation at dispatch time.
    InvalidPolicy(ConfigError),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Overloaded { inflight, capacity } => {
                write!(f, "overloaded: {inflight} inflight against capacity {capacity}")
            }
            ServeError::DeadlineExceeded { budget, spent } => {
                write!(f, "deadline exceeded: spent {spent:?} of {budget:?}")
            }
            ServeError::LaneFailed { crashes } => {
                write!(f, "coalescer lane failed after {crashes} crashed flushes")
            }
            ServeError::InvalidPolicy(e) => write!(f, "invalid policy: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl ServeError {
    /// Flight-recorder result code plus detail words for a
    /// [`tiptoe_obs::recorder::EventKind::Finished`] event: numeric
    /// occupancy/budget facts only — never query content.
    pub fn recorder_code(&self) -> (u64, u64, u64) {
        use tiptoe_obs::recorder::result_code as rc;
        match *self {
            ServeError::Overloaded { inflight, capacity } => {
                (rc::OVERLOADED, inflight as u64, capacity as u64)
            }
            ServeError::DeadlineExceeded { budget, spent } => {
                (rc::DEADLINE_EXCEEDED, budget.as_micros() as u64, spent.as_micros() as u64)
            }
            ServeError::LaneFailed { crashes } => (rc::LANE_FAILED, u64::from(crashes), 0),
            ServeError::InvalidPolicy(_) => (rc::INVALID_POLICY, 0, 0),
        }
    }
}

impl From<ConfigError> for ServeError {
    fn from(e: ConfigError) -> Self {
        ServeError::InvalidPolicy(e)
    }
}

/// A per-query wall-clock allowance, charged as the query moves
/// through dispatch phases (ranking, then URL retrieval).
///
/// The budget is shared by reference across phases; charging is
/// atomic so a query whose phases overlap lanes on other threads
/// still accounts exactly once per phase.
#[derive(Debug)]
pub struct DeadlineBudget {
    total: Duration,
    spent_ns: AtomicU64,
}

impl DeadlineBudget {
    /// A fresh budget of `total` wall-clock time.
    pub fn new(total: Duration) -> Self {
        Self { total, spent_ns: AtomicU64::new(0) }
    }

    /// The total allowance.
    pub fn total(&self) -> Duration {
        self.total
    }

    /// Wall-clock charged so far.
    pub fn spent(&self) -> Duration {
        Duration::from_nanos(self.spent_ns.load(Ordering::Relaxed))
    }

    /// Time left, saturating at zero.
    pub fn remaining(&self) -> Duration {
        self.total.saturating_sub(self.spent())
    }

    /// Returns the remaining allowance, or a typed error if the
    /// budget is already exhausted.
    ///
    /// # Errors
    ///
    /// [`ServeError::DeadlineExceeded`] when nothing remains.
    pub fn check(&self) -> Result<Duration, ServeError> {
        let spent = self.spent();
        if spent >= self.total {
            return Err(ServeError::DeadlineExceeded { budget: self.total, spent });
        }
        Ok(self.total - spent)
    }

    /// Charges `elapsed` against the budget.
    ///
    /// # Errors
    ///
    /// [`ServeError::DeadlineExceeded`] if the charge overdraws the
    /// budget — the work already happened, but the query fails typed
    /// rather than returning late past its promise.
    pub fn charge(&self, elapsed: Duration) -> Result<(), ServeError> {
        let add = u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
        let prev = self.spent_ns.fetch_add(add, Ordering::Relaxed);
        let spent = Duration::from_nanos(prev.saturating_add(add));
        tiptoe_obs::recorder::record(
            tiptoe_obs::recorder::EventKind::BudgetCharged,
            elapsed.as_micros() as u64,
            spent.as_micros() as u64,
            self.total.as_micros() as u64,
            0,
        );
        if spent > self.total {
            // The charge that *crosses* the budget is the miss; later
            // checks against an already-overdrawn budget re-report the
            // same failure and must not double-count the SLO.
            if Duration::from_nanos(prev) <= self.total {
                tiptoe_obs::slo::slo().deadline_miss.record();
            }
            return Err(ServeError::DeadlineExceeded { budget: self.total, spent });
        }
        Ok(())
    }
}

/// Admission-control knobs for a serving plane.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdmissionPolicy {
    /// Master switch; disabled planes admit everything.
    pub enabled: bool,
    /// Concurrent queries served at once. `0` derives capacity from
    /// the observed batched-scan latency histogram (see
    /// [`AdmissionPolicy::capacity_from_flush_histogram`]).
    pub max_inflight: usize,
    /// Queries allowed to queue beyond capacity before shedding.
    pub queue_depth: usize,
    /// Per-admitted-query deadline budget.
    pub deadline: Duration,
}

impl Default for AdmissionPolicy {
    fn default() -> Self {
        Self {
            enabled: false,
            max_inflight: 0,
            queue_depth: 16,
            deadline: Duration::from_secs(2),
        }
    }
}

impl AdmissionPolicy {
    /// Checks internal consistency.
    ///
    /// # Errors
    ///
    /// [`ConfigError`] on a zero deadline.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.deadline == Duration::ZERO {
            return Err(ConfigError {
                field: "admission.deadline",
                reason: "deadline budget must be positive",
            });
        }
        Ok(())
    }

    /// The capacity model: how many queries this plane can run
    /// concurrently and still finish each within `deadline`.
    ///
    /// With `max_inflight > 0` the operator's number wins. Otherwise
    /// capacity is derived from the observed batched-scan latency
    /// (the `net.coalesce.flush_us` histogram): a deadline admits
    /// `deadline / p95(scan)` sequential scans, each serving up to
    /// `max_batch` coalesced queries. An empty histogram (cold plane)
    /// falls back to two batches.
    pub fn capacity_from_flush_histogram(
        &self,
        flush_us: &tiptoe_obs::Histogram,
        max_batch: usize,
    ) -> usize {
        if self.max_inflight > 0 {
            return self.max_inflight;
        }
        let batch = max_batch.max(1);
        if flush_us.count() == 0 {
            return 2 * batch;
        }
        let p95 = flush_us.quantile(0.95).max(1);
        let deadline_us = u64::try_from(self.deadline.as_micros()).unwrap_or(u64::MAX).max(1);
        let scans = (deadline_us / p95).clamp(1, 64) as usize;
        (scans * batch).min(4096)
    }
}

/// Bounded admission over a fixed capacity: deterministic shed
/// decisions (a query is shed iff `capacity + queue_depth` queries
/// were already admitted and unfinished when it arrived), an RAII
/// permit per admitted query, and an arrival-ordered shed log.
#[derive(Debug)]
pub struct AdmissionController {
    policy: AdmissionPolicy,
    capacity: usize,
    inflight: AtomicUsize,
    arrivals: AtomicU64,
    admitted: AtomicU64,
    shed: AtomicU64,
    shed_log: Mutex<Vec<u64>>,
}

impl AdmissionController {
    /// A controller admitting up to `capacity + policy.queue_depth`
    /// concurrent queries.
    pub fn new(policy: AdmissionPolicy, capacity: usize) -> Self {
        Self {
            policy,
            capacity: capacity.max(1),
            inflight: AtomicUsize::new(0),
            arrivals: AtomicU64::new(0),
            admitted: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            shed_log: Mutex::new(Vec::new()),
        }
    }

    /// The policy this controller runs under.
    pub fn policy(&self) -> AdmissionPolicy {
        self.policy
    }

    /// The derived concurrent-query capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Queries currently admitted and unfinished.
    pub fn inflight(&self) -> usize {
        self.inflight.load(Ordering::SeqCst)
    }

    /// Admits one query or sheds it.
    ///
    /// # Errors
    ///
    /// [`ServeError::Overloaded`] when `capacity + queue_depth`
    /// queries are already inflight; the arrival is appended to the
    /// shed log and the `net.shed` counter.
    pub fn try_admit(&self) -> Result<AdmissionPermit<'_>, ServeError> {
        let seq = self.arrivals.fetch_add(1, Ordering::SeqCst);
        let bound = self.capacity + self.policy.queue_depth;
        loop {
            let cur = self.inflight.load(Ordering::SeqCst);
            if cur >= bound {
                self.shed.fetch_add(1, Ordering::SeqCst);
                self.shed_log.lock().expect("shed log lock").push(seq);
                tiptoe_obs::metrics().counter("net.shed").inc();
                tiptoe_obs::recorder::record(
                    tiptoe_obs::recorder::EventKind::Shed,
                    cur as u64,
                    self.capacity as u64,
                    0,
                    0,
                );
                tiptoe_obs::slo::slo().shed.record();
                return Err(ServeError::Overloaded { inflight: cur, capacity: self.capacity });
            }
            if self
                .inflight
                .compare_exchange(cur, cur + 1, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok()
            {
                self.admitted.fetch_add(1, Ordering::SeqCst);
                tiptoe_obs::metrics().counter("net.admitted").inc();
                tiptoe_obs::recorder::record(
                    tiptoe_obs::recorder::EventKind::Admitted,
                    (cur + 1) as u64,
                    self.capacity as u64,
                    0,
                    0,
                );
                return Ok(AdmissionPermit { ctrl: self });
            }
        }
    }

    /// Total queries admitted so far.
    pub fn admitted(&self) -> u64 {
        self.admitted.load(Ordering::SeqCst)
    }

    /// Total queries shed so far.
    pub fn sheds(&self) -> u64 {
        self.shed.load(Ordering::SeqCst)
    }

    /// Arrival sequence numbers of every shed query, in shed order —
    /// the deterministic record the robustness tests replay.
    pub fn shed_log(&self) -> Vec<u64> {
        self.shed_log.lock().expect("shed log lock").clone()
    }
}

/// RAII admission permit: dropping it releases the inflight slot.
#[derive(Debug)]
#[must_use = "dropping the permit releases the admission slot"]
pub struct AdmissionPermit<'a> {
    ctrl: &'a AdmissionController,
}

impl Drop for AdmissionPermit<'_> {
    fn drop(&mut self) {
        self.ctrl.inflight.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Circuit-breaker knobs, shared by every shard in a bank.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BreakerPolicy {
    /// Master switch; a disabled bank gates everything `Serve`.
    pub enabled: bool,
    /// Consecutive degraded outcomes that open a closed breaker.
    pub failure_threshold: u32,
    /// A *successful* response slower than this still counts as
    /// degraded (straggler-aware: a limping shard is rerouted before
    /// it times whole queries out).
    pub latency_threshold: Duration,
    /// Skipped dispatches an open breaker waits before half-open
    /// probing the shard.
    pub open_cooldown: u32,
    /// Consecutive healthy probes that close a half-open breaker.
    pub close_after: u32,
}

impl Default for BreakerPolicy {
    fn default() -> Self {
        Self {
            enabled: false,
            failure_threshold: 3,
            latency_threshold: Duration::from_millis(150),
            open_cooldown: 8,
            close_after: 2,
        }
    }
}

impl BreakerPolicy {
    /// Checks internal consistency.
    ///
    /// # Errors
    ///
    /// [`ConfigError`] on zero thresholds or cooldowns.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.failure_threshold == 0 {
            return Err(ConfigError {
                field: "breaker.failure_threshold",
                reason: "must tolerate at least one failure before opening",
            });
        }
        if self.latency_threshold == Duration::ZERO {
            return Err(ConfigError {
                field: "breaker.latency_threshold",
                reason: "straggler threshold must be positive",
            });
        }
        if self.open_cooldown == 0 {
            return Err(ConfigError {
                field: "breaker.open_cooldown",
                reason: "an open breaker must cool down before probing",
            });
        }
        if self.close_after == 0 {
            return Err(ConfigError {
                field: "breaker.close_after",
                reason: "closing must require at least one healthy probe",
            });
        }
        Ok(())
    }
}

/// Breaker state machine: `Closed` → (failures) → `Open` →
/// (cooldown) → `HalfOpen` → (healthy probes) `Closed` / (degraded
/// probe) back to `Open`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: traffic flows.
    Closed,
    /// Tripped: traffic skips the shard (degraded-mode serving).
    Open,
    /// Probing: traffic flows, watched for recovery.
    HalfOpen,
}

impl BreakerState {
    /// Flight-recorder code (the `breaker_state` vocabulary in
    /// `tiptoe_obs::recorder`).
    pub fn recorder_code(self) -> u64 {
        use tiptoe_obs::recorder::breaker_state as bs;
        match self {
            BreakerState::Closed => bs::CLOSED,
            BreakerState::Open => bs::OPEN,
            BreakerState::HalfOpen => bs::HALF_OPEN,
        }
    }

    /// Stable display name (introspection snapshots).
    pub fn as_str(self) -> &'static str {
        match self {
            BreakerState::Closed => "closed",
            BreakerState::Open => "open",
            BreakerState::HalfOpen => "half-open",
        }
    }
}

/// Per-dispatch verdict for one shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardGate {
    /// Dispatch normally.
    Serve,
    /// Dispatch normally, but this is a recovery probe.
    Probe,
    /// Skip the shard; the query degrades to the survivor subset.
    Skip,
}

#[derive(Debug)]
struct BreakerCore {
    state: BreakerState,
    /// Consecutive degraded outcomes while `Closed`.
    failures: u32,
    /// Consecutive healthy probes while `HalfOpen`.
    successes: u32,
    /// Skipped dispatches left before an `Open` breaker half-opens.
    cooldown: u32,
}

/// One circuit breaker per shard in a plan's address space (ranking
/// shards `0..W`, the URL server at `W`).
///
/// Gating and recording are driven by [`crate::dispatch`] under an
/// enabled fault policy only: a skipped shard leaves the one summed
/// token undecryptable, so a disabled policy neither consults nor
/// trains the bank.
#[derive(Debug)]
pub struct BreakerBank {
    policy: BreakerPolicy,
    shards: Vec<Mutex<BreakerCore>>,
}

impl BreakerBank {
    /// A bank of `num_shards` closed breakers.
    pub fn new(policy: BreakerPolicy, num_shards: usize) -> Self {
        let shards = (0..num_shards)
            .map(|_| {
                Mutex::new(BreakerCore {
                    state: BreakerState::Closed,
                    failures: 0,
                    successes: 0,
                    cooldown: 0,
                })
            })
            .collect();
        Self { policy, shards }
    }

    /// The policy this bank runs under.
    pub fn policy(&self) -> BreakerPolicy {
        self.policy
    }

    /// Number of breakers in the bank.
    pub fn len(&self) -> usize {
        self.shards.len()
    }

    /// Whether the bank is empty.
    pub fn is_empty(&self) -> bool {
        self.shards.is_empty()
    }

    /// Gates one dispatch to `shard` (plan address space). An open
    /// breaker counts the skip against its cooldown and half-opens
    /// when it reaches zero. Unknown shards are served.
    pub fn gate(&self, shard: usize) -> ShardGate {
        if !self.policy.enabled {
            return ShardGate::Serve;
        }
        let Some(slot) = self.shards.get(shard) else {
            return ShardGate::Serve;
        };
        let mut core = slot.lock().expect("breaker lock");
        match core.state {
            BreakerState::Closed => ShardGate::Serve,
            BreakerState::Open => {
                core.cooldown = core.cooldown.saturating_sub(1);
                if core.cooldown == 0 {
                    core.state = BreakerState::HalfOpen;
                    core.successes = 0;
                    ShardGate::Probe
                } else {
                    ShardGate::Skip
                }
            }
            BreakerState::HalfOpen => ShardGate::Probe,
        }
    }

    /// Trains the breaker with one served (non-skipped) outcome:
    /// `ok` is whether the shard delivered a verified answer, `wall`
    /// its response latency. A slow success past the straggler
    /// threshold counts as degraded.
    pub fn record(&self, shard: usize, ok: bool, wall: Duration) {
        if !self.policy.enabled {
            return;
        }
        let Some(slot) = self.shards.get(shard) else {
            return;
        };
        let degraded = !ok || wall > self.policy.latency_threshold;
        let mut core = slot.lock().expect("breaker lock");
        match core.state {
            BreakerState::Closed => {
                if degraded {
                    core.failures += 1;
                    if core.failures >= self.policy.failure_threshold {
                        core.state = BreakerState::Open;
                        core.cooldown = self.policy.open_cooldown;
                        core.failures = 0;
                        tiptoe_obs::metrics().counter("net.breaker.opened").inc();
                    }
                } else {
                    core.failures = 0;
                }
            }
            BreakerState::HalfOpen => {
                if degraded {
                    core.state = BreakerState::Open;
                    core.cooldown = self.policy.open_cooldown;
                    core.successes = 0;
                    tiptoe_obs::metrics().counter("net.breaker.reopened").inc();
                } else {
                    core.successes += 1;
                    if core.successes >= self.policy.close_after {
                        core.state = BreakerState::Closed;
                        core.failures = 0;
                        tiptoe_obs::metrics().counter("net.breaker.closed").inc();
                    }
                }
            }
            // A recorded outcome for an `Open` breaker can only be a
            // dispatch that was gated before the breaker tripped;
            // the open state already distrusts the shard, so ignore.
            BreakerState::Open => {}
        }
    }

    /// The current state of `shard`'s breaker (`Closed` for unknown
    /// shards).
    pub fn state(&self, shard: usize) -> BreakerState {
        self.shards
            .get(shard)
            .map_or(BreakerState::Closed, |s| s.lock().expect("breaker lock").state)
    }

    /// Shards whose breakers are currently not closed.
    pub fn degraded_shards(&self) -> Vec<usize> {
        (0..self.shards.len()).filter(|&w| self.state(w) != BreakerState::Closed).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const FAST: Duration = Duration::from_millis(1);
    const SLOW: Duration = Duration::from_millis(500);

    fn enabled_breakers() -> BreakerPolicy {
        BreakerPolicy { enabled: true, ..BreakerPolicy::default() }
    }

    #[test]
    fn budget_charges_and_rejects_when_exhausted() {
        let b = DeadlineBudget::new(Duration::from_millis(10));
        assert_eq!(b.check().expect("fresh budget"), Duration::from_millis(10));
        b.charge(Duration::from_millis(4)).expect("within budget");
        assert_eq!(b.remaining(), Duration::from_millis(6));
        assert!(matches!(
            b.charge(Duration::from_millis(9)),
            Err(ServeError::DeadlineExceeded { .. })
        ));
        assert!(b.check().is_err(), "exhausted budget rejects further phases");
    }

    #[test]
    fn admission_sheds_past_capacity_plus_queue() {
        let policy = AdmissionPolicy {
            enabled: true,
            max_inflight: 2,
            queue_depth: 1,
            deadline: Duration::from_secs(1),
        };
        let ctrl = AdmissionController::new(policy, 2);
        let p1 = ctrl.try_admit().expect("slot 1");
        let p2 = ctrl.try_admit().expect("slot 2");
        let p3 = ctrl.try_admit().expect("queue slot");
        let shed = ctrl.try_admit();
        assert!(matches!(shed, Err(ServeError::Overloaded { inflight: 3, capacity: 2 })));
        assert_eq!(ctrl.sheds(), 1);
        assert_eq!(ctrl.shed_log(), vec![3], "fourth arrival (seq 3) was shed");
        drop(p1);
        let p4 = ctrl.try_admit().expect("freed slot readmits");
        drop((p2, p3, p4));
        assert_eq!(ctrl.inflight(), 0, "permits release their slots");
        assert_eq!(ctrl.admitted(), 4);
    }

    #[test]
    fn capacity_model_scales_with_observed_scan_latency() {
        let policy = AdmissionPolicy {
            enabled: true,
            max_inflight: 0,
            queue_depth: 0,
            deadline: Duration::from_millis(100),
        };
        let h = tiptoe_obs::metrics().histogram("test.overload.flush_us");
        assert_eq!(policy.capacity_from_flush_histogram(&h, 8), 16, "cold plane: two batches");
        for _ in 0..100 {
            h.record(10_000); // 10 ms scans -> ~10 scans per 100 ms deadline
        }
        let cap = policy.capacity_from_flush_histogram(&h, 8);
        // The histogram's conservative quantile rounds the p95 up, so
        // the derived scan count may land just under 10.
        assert!((4 * 8..=10 * 8).contains(&cap), "{cap}");
        let pinned = AdmissionPolicy { max_inflight: 3, ..policy };
        assert_eq!(pinned.capacity_from_flush_histogram(&h, 8), 3, "operator override wins");
    }

    #[test]
    fn breaker_opens_after_consecutive_failures_and_recovers() {
        let policy = enabled_breakers();
        let bank = BreakerBank::new(policy, 2);
        assert_eq!(bank.state(0), BreakerState::Closed);
        // Two failures + one fast success: the streak resets.
        bank.record(0, false, FAST);
        bank.record(0, false, FAST);
        bank.record(0, true, FAST);
        assert_eq!(bank.state(0), BreakerState::Closed);
        // Three consecutive failures: open.
        for _ in 0..policy.failure_threshold {
            bank.record(0, false, FAST);
        }
        assert_eq!(bank.state(0), BreakerState::Open);
        assert_eq!(bank.degraded_shards(), vec![0]);
        // Open: skipped for `open_cooldown` dispatches, then probed.
        for _ in 1..policy.open_cooldown {
            assert_eq!(bank.gate(0), ShardGate::Skip);
        }
        assert_eq!(bank.gate(0), ShardGate::Probe, "cooldown elapsed: half-open probe");
        assert_eq!(bank.state(0), BreakerState::HalfOpen);
        // Healthy probes close it again.
        for _ in 0..policy.close_after {
            assert_eq!(bank.gate(0), ShardGate::Probe);
            bank.record(0, true, FAST);
        }
        assert_eq!(bank.state(0), BreakerState::Closed);
        assert_eq!(bank.gate(0), ShardGate::Serve);
        // The neighbor shard never moved.
        assert_eq!(bank.state(1), BreakerState::Closed);
    }

    #[test]
    fn stragglers_and_failed_probes_reopen() {
        let policy = BreakerPolicy { failure_threshold: 2, open_cooldown: 1, ..enabled_breakers() };
        let bank = BreakerBank::new(policy, 1);
        // Successful but slow responses count as degraded.
        bank.record(0, true, SLOW);
        bank.record(0, true, SLOW);
        assert_eq!(bank.state(0), BreakerState::Open, "stragglers open the breaker");
        assert_eq!(bank.gate(0), ShardGate::Probe, "cooldown of 1: first gate probes");
        // The probe fails: straight back to open.
        bank.record(0, false, FAST);
        assert_eq!(bank.state(0), BreakerState::Open);
    }

    #[test]
    fn disabled_bank_gates_everything_through() {
        let bank = BreakerBank::new(BreakerPolicy::default(), 1);
        for _ in 0..10 {
            bank.record(0, false, SLOW);
        }
        assert_eq!(bank.gate(0), ShardGate::Serve);
        assert_eq!(bank.state(0), BreakerState::Closed);
    }

    #[test]
    fn policies_validate_into_typed_errors() {
        assert!(AdmissionPolicy::default().validate().is_ok());
        assert!(BreakerPolicy::default().validate().is_ok());
        let bad = AdmissionPolicy { deadline: Duration::ZERO, ..AdmissionPolicy::default() };
        let err = bad.validate().expect_err("zero deadline");
        assert_eq!(err.field, "admission.deadline");
        for bad in [
            BreakerPolicy { failure_threshold: 0, ..BreakerPolicy::default() },
            BreakerPolicy { latency_threshold: Duration::ZERO, ..BreakerPolicy::default() },
            BreakerPolicy { open_cooldown: 0, ..BreakerPolicy::default() },
            BreakerPolicy { close_after: 0, ..BreakerPolicy::default() },
        ] {
            assert!(bad.validate().is_err(), "{bad:?}");
        }
        let serve_err: ServeError = ConfigError { field: "x", reason: "y" }.into();
        assert!(format!("{serve_err}").contains("invalid x: y"));
    }
}
