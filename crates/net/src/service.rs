//! The typed service plane: one dispatch engine for every
//! request/response service in the deployment.
//!
//! Every query-path fan-out (direct or coalesced, with or without a
//! fault policy) goes through this module, so dispatch, transcript
//! accounting, fault handling and span instrumentation are written
//! once:
//!
//! - [`Service`] — a typed shard service: how many shards it has, how
//!   a shard serializes its answer to the wire, how the coordinator
//!   parses and combines the parts.
//! - [`Ledger`] — the transcript-accounting middleware: exact
//!   per-phase upload/download bytes (mirrored into the metrics
//!   registry by [`crate::Transcript`]).
//! - [`dispatch`] — the engine. It runs one per-shard loop, one shard
//!   after another, under spans named by the service; every response
//!   crosses the checksummed `TPT2` envelope, and the first serve
//!   error aborts the fan-out. `policy.enabled` selects the policy
//!   that loop runs under: the caller's timeouts, retries and hedging,
//!   or one untimed attempt per shard. A shard that never delivers
//!   fails the query with [`ServeError::ShardFailed`] after the
//!   fan-out has run and its bytes are accounted.
//!
//! Batch coalescing composes *underneath* this plane: a service's
//! `serve` may route its shard computation through a
//! [`crate::Coalescer`], so concurrently dispatched requests share one
//! database scan while accounting, faults, and spans stay per-request.

use tiptoe_math::wire::WireError;

use crate::fault::dispatch_faulty;
use crate::overload::{DeadlineBudget, ServeError};
use crate::{FaultPlan, FaultPolicy, FaultReport, ParallelTiming, Phase, Transcript};

/// A typed, sharded request/response service.
///
/// Implementations describe *what* each shard computes and how it
/// crosses the wire; [`dispatch`] decides *how* it runs (under which
/// fault policy) and layers accounting and spans around it.
pub trait Service {
    /// The per-query request (e.g. a query ciphertext).
    type Request: ?Sized;
    /// One shard's parsed partial answer.
    type Part;
    /// The combined response the coordinator returns.
    type Response;

    /// Name of the span wrapping the whole fan-out (e.g. `rank.answer`).
    fn outer_span(&self) -> &'static str;

    /// Name of the per-shard span (e.g. `rank.shard`, labeled with
    /// the shard index), which carries the shard's `attempts`,
    /// `hedged` and `ok` attributes and its virtual wall time.
    fn shard_span(&self) -> &'static str;

    /// Number of worker shards.
    fn num_shards(&self) -> usize;

    /// Computes shard `idx`'s answer and serializes it as a wire
    /// payload (which [`dispatch`] seals in the checksummed envelope).
    ///
    /// # Errors
    ///
    /// Returns a [`ServeError`] when the shard cannot answer within
    /// the query's deadline budget (e.g. its coalescer lane refused
    /// the request in time) — the error aborts the whole dispatch
    /// with a typed failure rather than degrading silently.
    fn serve(&self, idx: usize, req: &Self::Request) -> Result<Vec<u8>, ServeError>;

    /// Parses and validates one shard's payload.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] on truncated, malformed, or
    /// wrong-shaped payloads (an enabled fault policy retries these).
    fn parse(&self, idx: usize, payload: &[u8]) -> Result<Self::Part, WireError>;

    /// Combines the per-shard parts, one per shard in shard order, into
    /// the response ([`dispatch`] calls it only when every shard
    /// delivered).
    fn combine(&self, parts: Vec<Self::Part>) -> Self::Response;
}

/// Transcript-accounting middleware for one dispatched phase.
///
/// Upload and download sizes are *fixed by the protocol shape*, never
/// by the outcome: a failed or retried query must keep the same
/// observable wire footprint as a healthy one (the privacy argument
/// extends to traffic analysis), so the caller supplies both sizes up
/// front.
#[derive(Debug)]
pub struct Ledger<'a> {
    /// The ledger to record into.
    pub transcript: &'a Transcript,
    /// Phase of the request/response pair.
    pub phase: Phase,
    /// Phase charged for wasted (retried/hedged) response bytes.
    pub retry_phase: Phase,
    /// Exact request upload bytes.
    pub up_bytes: u64,
    /// Exact response download bytes (outcome-independent).
    pub down_bytes: u64,
}

/// Outcome of one dispatched fan-out.
#[derive(Debug)]
pub struct Dispatched<R> {
    /// The combined response.
    pub response: R,
    /// Virtual timing of the §4.3 coordinator fan-out: `wall` =
    /// slowest shard, `cpu` = summed work.
    pub timing: ParallelTiming,
    /// Per-shard outcomes and retry/timeout/hedge accounting (one
    /// attempt per shard and nothing else under a disabled policy).
    pub report: FaultReport,
}

/// Everything that shapes *how* one dispatch runs: the fault plan,
/// the recovery policy, and the query's deadline budget, if any.
///
/// Built with [`DispatchContext::new`] plus
/// [`DispatchContext::with_budget`].
#[derive(Clone, Copy)]
pub struct DispatchContext<'a> {
    /// The deterministic fault schedule.
    pub plan: &'a FaultPlan,
    /// The coordinator's recovery policy.
    pub policy: &'a FaultPolicy,
    /// The query's deadline budget, if admission control issued one.
    /// Checked before the fan-out (a query that cannot fit one more
    /// attempt fails early) and charged with the fan-out's wall time
    /// after.
    pub budget: Option<&'a DeadlineBudget>,
}

impl<'a> DispatchContext<'a> {
    /// A context with no deadline budget.
    pub fn new(plan: &'a FaultPlan, policy: &'a FaultPolicy) -> Self {
        Self { plan, policy, budget: None }
    }

    /// Attaches a deadline budget.
    pub fn with_budget(mut self, budget: Option<&'a DeadlineBudget>) -> Self {
        self.budget = budget;
        self
    }
}

/// Dispatches one request through a [`Service`]: accounting, spans,
/// fan-out, fault recovery, and overload safety in one place.
///
/// Middleware order (outermost first): budget check → upload
/// accounting → outer span → per-shard fan-out → download + retry
/// accounting → budget charge → failed-shard check → combine.
///
/// With `policy.enabled` the fan-out runs under the caller's policy,
/// its per-shard deadline capped by the remaining budget. Otherwise
/// it runs under `FaultPolicy::OFF`: one attempt per shard, never
/// timed out, hedged or retried.
///
/// `shard_base` offsets the fault plan's shard address space so
/// several services can share one plan (ranking takes `0..W`, the URL
/// server `W`).
///
/// Under a disabled policy, without a budget and with an infallible
/// service, this function cannot fail.
///
/// # Errors
///
/// - [`ServeError::ShardFailed`] if any shard still has no verified
///   answer after its retries, hedges and deadline. The whole fan-out
///   has run by then, and the phase's upload, download and retry
///   bytes are recorded and its wall time charged as for an answered
///   query, so the server sees the same message pattern either way.
/// - [`ServeError::DeadlineExceeded`] if the query's budget cannot
///   fit one more attempt, or the fan-out's wall time overdraws it.
/// - [`ServeError::InvalidPolicy`] on an invalid enabled policy.
/// - Any typed error the service's `serve` raises.
///
/// # Panics
///
/// Panics under a disabled policy if the plan can inject a fault, or
/// if a shard's own payload fails its own parser — that is a
/// programming error, not a fault.
pub fn dispatch<S: Service>(
    svc: &S,
    req: &S::Request,
    shard_base: usize,
    ctx: DispatchContext<'_>,
    ledger: Option<&Ledger<'_>>,
) -> Result<Dispatched<S::Response>, ServeError> {
    let policy = ctx.policy;
    assert!(policy.enabled || ctx.plan.is_benign(), "a fault plan needs an enabled fault policy");
    // Budget gate: a query that cannot fit even one more attempt in
    // its remaining budget is rejected before any bytes move.
    if let Some(b) = ctx.budget {
        let remaining = b.check()?;
        if policy.enabled && remaining < policy.attempt_timeout {
            return Err(ServeError::DeadlineExceeded { budget: b.total(), spent: b.spent() });
        }
    }
    // The remaining budget also caps the per-shard deadline, so a
    // late-phase fan-out cannot spend time the query no longer has.
    let eff_policy = match (policy.enabled, ctx.budget) {
        (false, _) => FaultPolicy::OFF,
        (true, None) => *policy,
        (true, Some(b)) => FaultPolicy {
            deadline: policy.deadline.min(b.remaining().max(policy.attempt_timeout)),
            ..*policy
        },
    };

    if let Some(l) = ledger {
        l.transcript.record_up(l.phase, l.up_bytes);
    }

    let _outer = tiptoe_obs::span(svc.outer_span());
    let (parts, report) = dispatch_faulty(
        svc.shard_span(),
        svc.num_shards(),
        shard_base,
        ctx.plan,
        &eff_policy,
        |idx| svc.serve(idx, req),
        |idx, payload| svc.parse(idx, payload),
    )?;
    assert!(policy.enabled || report.all_ok(), "a shard's own payload must parse");

    if let Some(l) = ledger {
        l.transcript.record_down(l.phase, l.down_bytes);
        if report.wasted_response_bytes > 0 {
            l.transcript.record_down(l.retry_phase, report.wasted_response_bytes);
        }
    }

    // Charge the fan-out's (virtual) wall time. The charge can fail
    // *after* the work — the bytes above stay accounted (they did
    // cross the wire) but the caller gets a typed late failure
    // instead of a response past its deadline promise.
    let charged = ctx.budget.map_or(Ok(()), |b| b.charge(report.timing.wall));
    // A shard that never delivered is the cause of any overdraw its
    // timeouts made, so it is the error reported.
    let failed = report.failed_shards();
    if let Some(&first) = failed.first() {
        return Err(ServeError::ShardFailed { shard: shard_base + first, failed: failed.len() });
    }
    charged?;

    let response = svc.combine(parts.into_iter().flatten().collect());
    Ok(Dispatched { response, timing: report.timing, report })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Direction;
    use tiptoe_math::wire::{WireReader, WireWriter};

    /// A toy service: shard `w` answers `base + w`, the coordinator
    /// sums.
    struct SumService {
        shards: usize,
        base: u64,
    }

    impl Service for SumService {
        type Request = u64;
        type Part = u64;
        type Response = u64;

        fn outer_span(&self) -> &'static str {
            "test.sum"
        }

        fn shard_span(&self) -> &'static str {
            "test.sum_shard"
        }

        fn num_shards(&self) -> usize {
            self.shards
        }

        fn serve(&self, idx: usize, req: &u64) -> Result<Vec<u8>, ServeError> {
            let mut w = WireWriter::new();
            w.put_u64(self.base + idx as u64 + req);
            Ok(w.finish())
        }

        fn parse(&self, _idx: usize, payload: &[u8]) -> Result<u64, WireError> {
            let mut r = WireReader::new(payload);
            let v = r.get_u64()?;
            r.finish()?;
            Ok(v)
        }

        fn combine(&self, parts: Vec<u64>) -> u64 {
            parts.into_iter().sum()
        }
    }

    /// A service whose shard `w` stalls `(w + 1) · stall` on each of
    /// `workers` kernel threads and then answers `w`, or fails typed
    /// when `fail` is set; counts `serve` calls.
    struct StallService {
        stall: std::time::Duration,
        workers: usize,
        fail: bool,
        calls: std::sync::atomic::AtomicUsize,
    }

    impl Service for StallService {
        type Request = ();
        type Part = u64;
        type Response = u64;

        fn outer_span(&self) -> &'static str {
            "test.stall"
        }

        fn shard_span(&self) -> &'static str {
            "test.stall_shard"
        }

        fn num_shards(&self) -> usize {
            4
        }

        fn serve(&self, idx: usize, _req: &()) -> Result<Vec<u8>, ServeError> {
            self.calls.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            let stall = self.stall * (idx as u32 + 1);
            let mut spans = vec![0u8; self.workers];
            tiptoe_math::par::par_spans_mut(&mut spans, 1, self.workers, |_, _| {
                std::thread::sleep(stall)
            });
            if self.fail {
                return Err(ServeError::DeadlineExceeded { budget: self.stall, spent: self.stall });
            }
            let mut w = WireWriter::new();
            w.put_u64(idx as u64);
            Ok(w.finish())
        }

        fn parse(&self, _idx: usize, payload: &[u8]) -> Result<u64, WireError> {
            let mut r = WireReader::new(payload);
            let v = r.get_u64()?;
            r.finish()?;
            Ok(v)
        }

        fn combine(&self, parts: Vec<u64>) -> u64 {
            parts.into_iter().sum()
        }
    }

    #[test]
    fn a_serve_error_aborts_the_fan_out_under_both_policies() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::time::Duration;
        let stall = Duration::from_millis(1);
        let plan = FaultPlan::none();
        for policy in [FaultPolicy::default(), FaultPolicy::tolerant()] {
            let svc = StallService { stall, workers: 1, fail: true, calls: AtomicUsize::new(0) };
            let err = dispatch(&svc, &(), 0, DispatchContext::new(&plan, &policy), None)
                .expect_err("the first shard's failure is the dispatch's");
            assert!(matches!(err, ServeError::DeadlineExceeded { .. }), "{err:?}");
            assert_eq!(
                svc.calls.load(Ordering::Relaxed),
                1,
                "no shard is asked after one failed typed (enabled = {})",
                policy.enabled
            );
        }
    }

    #[test]
    fn healthy_timing_is_the_slowest_shard_and_the_summed_work() {
        use std::sync::atomic::AtomicUsize;
        use std::time::Duration;
        let stall = Duration::from_millis(3);
        let svc = StallService { stall, workers: 1, fail: false, calls: AtomicUsize::new(0) };
        let plan = FaultPlan::none();
        let policy = FaultPolicy::default();
        let d = dispatch(&svc, &(), 0, DispatchContext::new(&plan, &policy), None)
            .expect("healthy dispatch");
        assert_eq!(d.response, 1 + 2 + 3);
        // Shards stall 3, 6, 9 and 12 ms: wall is the last one alone,
        // cpu all four.
        assert!(d.timing.wall >= stall * 4, "wall {:?}", d.timing.wall);
        assert!(d.timing.cpu >= stall * 10, "cpu {:?}", d.timing.cpu);
        assert!(d.timing.cpu >= d.timing.wall + stall * 6, "{:?}", d.timing);
    }

    #[test]
    fn a_shard_kernel_on_several_threads_is_paid_for_on_each() {
        use std::sync::atomic::AtomicUsize;
        use std::time::Duration;
        let stall = Duration::from_millis(3);
        let svc = StallService { stall, workers: 3, fail: false, calls: AtomicUsize::new(0) };
        let plan = FaultPlan::none();
        let policy = FaultPolicy::default();
        let d = dispatch(&svc, &(), 0, DispatchContext::new(&plan, &policy), None)
            .expect("healthy dispatch");
        // Three threads stall 3, 6, 9 and 12 ms a shard: wall is the
        // last shard's span, cpu every thread's.
        assert!(d.timing.wall >= stall * 4, "wall {:?}", d.timing.wall);
        assert!(d.timing.cpu >= stall * 30, "cpu {:?}", d.timing.cpu);
    }

    #[test]
    fn a_disabled_policy_runs_one_untimed_attempt_per_shard() {
        use std::sync::atomic::AtomicUsize;
        use std::time::Duration;
        let stall = Duration::from_millis(3);
        let plan = FaultPlan::none();
        // Every one of these knobs would cut the 3–12 ms shards short.
        let knobs = FaultPolicy {
            enabled: false,
            attempt_timeout: Duration::from_millis(1),
            hedge_after: Some(Duration::from_micros(500)),
            deadline: Duration::from_millis(1),
            ..FaultPolicy::default()
        };
        let svc = StallService { stall, workers: 1, fail: false, calls: AtomicUsize::new(0) };
        let d = dispatch(&svc, &(), 0, DispatchContext::new(&plan, &knobs), None)
            .expect("disabled dispatch");
        assert_eq!(d.response, 1 + 2 + 3);
        assert!(d.report.shards.iter().all(|s| s.ok && s.attempts == 1 && !s.hedged));
        assert_eq!((d.report.hedges, d.report.timeouts, d.report.retries), (0, 0, 0));

        let enabled = FaultPolicy { enabled: true, ..knobs };
        let err = dispatch(&svc, &(), 0, DispatchContext::new(&plan, &enabled), None)
            .expect_err("the same knobs enabled time the shards out");
        assert!(matches!(err, ServeError::ShardFailed { shard: 0, .. }), "{err:?}");
    }

    #[test]
    fn healthy_and_faulty_paths_agree_on_benign_plans() {
        let svc = SumService { shards: 4, base: 100 };
        let plan = FaultPlan::none();
        let healthy_policy = FaultPolicy::default();
        let faulty_policy = FaultPolicy::tolerant();
        let healthy =
            dispatch(&svc, &1, 0, DispatchContext::new(&plan, &healthy_policy), None)
                .expect("healthy dispatch");
        let faulty = dispatch(&svc, &1, 0, DispatchContext::new(&plan, &faulty_policy), None)
            .expect("faulty dispatch");
        assert_eq!(healthy.response, 101 + 102 + 103 + 104);
        assert_eq!(healthy.response, faulty.response);
        assert!(healthy.report.all_ok());
        assert!(faulty.report.all_ok());
    }

    #[test]
    fn failed_shards_degrade_the_combine_and_report() {
        // A shard still down after its retries fails the dispatch,
        // named in the plan's address space, after the whole fan-out
        // ran: every byte of the phase is on the ledger and its wall
        // time on the budget.
        let svc = SumService { shards: 4, base: 10 };
        let plan = FaultPlan::none().crash_shard(3).crash_shard(5);
        let mut policy = FaultPolicy::tolerant();
        policy.hedge_after = None;
        let t = Transcript::new();
        let ledger = Ledger {
            transcript: &t,
            phase: Phase::Ranking,
            retry_phase: Phase::RankingRetries,
            up_bytes: 640,
            down_bytes: 320,
        };
        let budget = DeadlineBudget::new(std::time::Duration::from_secs(60));
        let ctx = DispatchContext::new(&plan, &policy).with_budget(Some(&budget));
        let err = dispatch(&svc, &0, 2, ctx, Some(&ledger)).expect_err("two shards down");
        assert_eq!(err, ServeError::ShardFailed { shard: 3, failed: 2 });
        assert_eq!(t.phase_total(Phase::Ranking, Direction::Upload), 640);
        assert_eq!(t.phase_total(Phase::Ranking, Direction::Download), 320);
        let attempts = policy.max_retries + 1;
        assert!(budget.spent() >= policy.attempt_timeout.saturating_mul(attempts));
    }

    #[test]
    fn ledger_records_fixed_sizes_and_retry_bytes() {
        let t = Transcript::new();
        let svc = SumService { shards: 2, base: 0 };
        let ledger = Ledger {
            transcript: &t,
            phase: Phase::Ranking,
            retry_phase: Phase::RankingRetries,
            up_bytes: 640,
            down_bytes: 320,
        };
        // A corrupt first response wastes bytes into the retry phase.
        let plan = FaultPlan::none().with_fault(0, 0, crate::FaultKind::Corrupt);
        let mut policy = FaultPolicy::tolerant();
        policy.hedge_after = None;
        let d = dispatch(&svc, &7, 0, DispatchContext::new(&plan, &policy), Some(&ledger))
            .expect("dispatch");
        assert_eq!(d.response, 7 + 8);
        assert_eq!(t.phase_total(Phase::Ranking, Direction::Upload), 640);
        assert_eq!(t.phase_total(Phase::Ranking, Direction::Download), 320);
        assert_eq!(
            t.phase_total(Phase::RankingRetries, Direction::Download),
            d.report.wasted_response_bytes
        );
    }

    #[test]
    fn exhausted_budgets_reject_before_any_work() {
        use std::time::Duration;
        let svc = SumService { shards: 2, base: 0 };
        let plan = FaultPlan::none();
        let policy = FaultPolicy::tolerant();
        let t = Transcript::new();
        let ledger = Ledger {
            transcript: &t,
            phase: Phase::Ranking,
            retry_phase: Phase::RankingRetries,
            up_bytes: 100,
            down_bytes: 100,
        };
        // Less than one attempt_timeout left: reject up front.
        let budget = DeadlineBudget::new(Duration::from_millis(300));
        budget.charge(Duration::from_millis(100)).expect("within budget");
        let ctx = DispatchContext::new(&plan, &policy).with_budget(Some(&budget));
        let err = dispatch(&svc, &1, 0, ctx, Some(&ledger)).expect_err("budget too thin");
        assert!(matches!(err, ServeError::DeadlineExceeded { .. }), "{err:?}");
        assert_eq!(t.grand_total(), 0, "rejected queries move no bytes");
    }

    #[test]
    fn dispatch_charges_its_wall_time_to_the_budget() {
        use std::time::Duration;
        let svc = SumService { shards: 2, base: 0 };
        let plan = FaultPlan::none().straggle_shard(0, 1.0, Duration::from_millis(40));
        let mut policy = FaultPolicy::tolerant();
        policy.hedge_after = None;
        let budget = DeadlineBudget::new(Duration::from_secs(2));
        let ctx = DispatchContext::new(&plan, &policy).with_budget(Some(&budget));
        let d = dispatch(&svc, &1, 0, ctx, None).expect("within budget");
        assert_eq!(d.response, 1 + 2);
        assert!(
            budget.spent() >= Duration::from_millis(40),
            "fan-out wall {:?} charged to the budget (spent {:?})",
            d.timing.wall,
            budget.spent()
        );
    }
}
