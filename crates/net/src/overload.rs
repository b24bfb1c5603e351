//! Overload safety: deadline budgets and admission control for the
//! typed service plane, and the typed errors a query fails with.
//!
//! Tiptoe's server work is scan-bound — every query costs a full
//! database scan — so a burst past capacity cannot be absorbed, only
//! shed or deadlined (Wally reaches the million-user regime by
//! scheduling load against explicit capacity budgets). This module
//! holds the two cooperating mechanisms:
//!
//! - [`DeadlineBudget`] — a per-query wall-clock allowance carried
//!   from the client's `query` through [`crate::dispatch`] into coalescer
//!   lanes and the per-shard fan-out. A query that cannot finish in
//!   budget fails early with a typed [`ServeError::DeadlineExceeded`]
//!   instead of queueing forever.
//! - [`AdmissionController`] — a bound on concurrent queries, the
//!   operator's configured capacity ([`AdmissionPolicy::max_inflight`]).
//!   A query arriving with `capacity` already inflight is shed
//!   deterministically (by arrival order) with
//!   [`ServeError::Overloaded`].
//!
//! A shard that stays down is not routed around: every ranking query
//! fans out to every shard, so one that still has no verified answer
//! after [`crate::FaultPolicy`]'s retries, hedges and deadline fails
//! the query with [`ServeError::ShardFailed`], and the client may
//! retry.
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
/// These are *typed, expected* outcomes under overload or shard
/// failure — never panics. A failed query costs the client a retry,
/// not a privacy or correctness loss: admission happens before any
/// token is consumed, and no failure returns a partial answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeError {
    /// Admission control shed the query: `inflight` queries were
    /// already running or queued against a plane sized for `capacity`.
    Overloaded {
        /// Inflight queries observed at the shed decision.
        inflight: usize,
        /// The plane's configured concurrent-query capacity.
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
    /// A shard still had no verified answer after its retries, hedges
    /// and deadline. The whole fan-out ran and its bytes are
    /// accounted; only the answer is withheld.
    ShardFailed {
        /// The first failed shard, in the fault plan's address space
        /// (ranking shards `0..W`, the URL server `W`).
        shard: usize,
        /// How many of the fan-out's shards failed.
        failed: usize,
    },
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
            ServeError::ShardFailed { shard, failed } => {
                write!(f, "shard {shard} failed ({failed} failed shards)")
            }
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
            ServeError::ShardFailed { shard, failed } => {
                (rc::SHARD_FAILED, shard as u64, failed as u64)
            }
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
    /// Concurrent queries served at once: the plane's capacity. Must
    /// be positive when admission is enabled.
    pub max_inflight: usize,
    /// Per-admitted-query deadline budget.
    pub deadline: Duration,
}

impl Default for AdmissionPolicy {
    fn default() -> Self {
        Self { enabled: false, max_inflight: 0, deadline: Duration::from_secs(2) }
    }
}

impl AdmissionPolicy {
    /// Checks internal consistency.
    ///
    /// # Errors
    ///
    /// [`ConfigError`] on a zero deadline, or on a zero capacity when
    /// admission is enabled.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.deadline == Duration::ZERO {
            return Err(ConfigError {
                field: "admission.deadline",
                reason: "deadline budget must be positive",
            });
        }
        if self.enabled && self.max_inflight == 0 {
            return Err(ConfigError {
                field: "admission.max_inflight",
                reason: "capacity must be positive when admission is enabled",
            });
        }
        Ok(())
    }
}

/// Bounded admission over a fixed capacity: deterministic shed
/// decisions (a query is shed iff `capacity` queries were already
/// admitted and unfinished when it arrived), an RAII
/// permit per admitted query, and an arrival-ordered shed log.
#[derive(Debug)]
pub struct AdmissionController {
    policy: AdmissionPolicy,
    inflight: AtomicUsize,
    arrivals: AtomicU64,
    admitted: AtomicU64,
    shed: AtomicU64,
    shed_log: Mutex<Vec<u64>>,
}

impl AdmissionController {
    /// A controller admitting up to `policy.max_inflight` concurrent
    /// queries.
    ///
    /// # Panics
    ///
    /// Panics if the policy is invalid (validate the policy through
    /// config loading to get a typed error instead).
    pub fn new(policy: AdmissionPolicy) -> Self {
        policy.validate().expect("invalid admission policy");
        Self {
            policy,
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

    /// The configured concurrent-query capacity.
    pub fn capacity(&self) -> usize {
        self.policy.max_inflight
    }

    /// Queries currently admitted and unfinished.
    pub fn inflight(&self) -> usize {
        self.inflight.load(Ordering::SeqCst)
    }

    /// Admits one query or sheds it.
    ///
    /// # Errors
    ///
    /// [`ServeError::Overloaded`] when `capacity` queries are already
    /// inflight; the arrival is appended to the
    /// shed log and the `net.shed` counter.
    pub fn try_admit(&self) -> Result<AdmissionPermit<'_>, ServeError> {
        let seq = self.arrivals.fetch_add(1, Ordering::SeqCst);
        let capacity = self.capacity();
        loop {
            let cur = self.inflight.load(Ordering::SeqCst);
            if cur >= capacity {
                self.shed.fetch_add(1, Ordering::SeqCst);
                self.shed_log.lock().expect("shed log lock").push(seq);
                tiptoe_obs::metrics().counter("net.shed").inc();
                tiptoe_obs::recorder::record(
                    tiptoe_obs::recorder::EventKind::Shed,
                    cur as u64,
                    capacity as u64,
                    0,
                    0,
                );
                tiptoe_obs::slo::slo().shed.record();
                return Err(ServeError::Overloaded { inflight: cur, capacity });
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
                    capacity as u64,
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

#[cfg(test)]
mod tests {
    use super::*;

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
    fn admission_sheds_past_capacity() {
        let policy =
            AdmissionPolicy { enabled: true, max_inflight: 3, deadline: Duration::from_secs(1) };
        let ctrl = AdmissionController::new(policy);
        let p1 = ctrl.try_admit().expect("slot 1");
        let p2 = ctrl.try_admit().expect("slot 2");
        let p3 = ctrl.try_admit().expect("slot 3");
        let shed = ctrl.try_admit();
        assert!(matches!(shed, Err(ServeError::Overloaded { inflight: 3, capacity: 3 })));
        assert_eq!(ctrl.sheds(), 1);
        assert_eq!(ctrl.shed_log(), vec![3], "fourth arrival (seq 3) was shed");
        drop(p1);
        let p4 = ctrl.try_admit().expect("freed slot readmits");
        drop((p2, p3, p4));
        assert_eq!(ctrl.inflight(), 0, "permits release their slots");
        assert_eq!(ctrl.admitted(), 4);
    }

    #[test]
    fn policies_validate_into_typed_errors() {
        assert!(AdmissionPolicy::default().validate().is_ok());
        let bad = AdmissionPolicy { deadline: Duration::ZERO, ..AdmissionPolicy::default() };
        let err = bad.validate().expect_err("zero deadline");
        assert_eq!(err.field, "admission.deadline");
        let serve_err: ServeError = ConfigError { field: "x", reason: "y" }.into();
        assert!(format!("{serve_err}").contains("invalid x: y"));
    }

    #[test]
    fn a_failed_shard_is_a_numeric_recorder_code() {
        let e = ServeError::ShardFailed { shard: 0, failed: 2 };
        assert_eq!(e.recorder_code(), (tiptoe_obs::recorder::result_code::SHARD_FAILED, 0, 2));
        assert_eq!(e.to_string(), "shard 0 failed (2 failed shards)");
    }
}
