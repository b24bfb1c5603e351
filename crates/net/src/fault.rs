//! Deterministic fault injection and the coordinator's one fan-out.
//!
//! The paper's threat model (§2) disclaims availability under
//! *malicious* servers, but its 45-machine deployment (§8) still has
//! to survive the honest-but-failing cluster: crashed workers, tail
//! stragglers, and corrupted or truncated responses. This module adds
//! that robustness layer to the simulated cluster:
//!
//! - [`FaultPlan`]: a seeded, fully deterministic schedule of injected
//!   faults, addressed by `(shard, attempt)`. Forced faults (a shard
//!   that always crashes, a flaky shard that recovers after `k`
//!   failures) compose with seeded per-attempt fault *rates*.
//! - [`FaultPolicy`]: the coordinator's recovery knobs — per-attempt
//!   timeout, bounded retry with exponential backoff, an optional
//!   hedged backup request, and an overall per-shard deadline.
//! - [`seal_traced`]/[`open_traced`]: the checksummed TPT2 response
//!   envelope every shard response crosses, so corrupted or truncated
//!   payloads are *detected* (and fail into the retry path as
//!   [`WireError`]s) instead of being decoded as garbage.
//! - `dispatch_faulty`: the per-shard loop behind every
//!   [`crate::dispatch`]. It executes shards sequentially but
//!   accounts for them in **virtual time**: a crashed worker costs one
//!   attempt timeout of wall-clock and no CPU; a straggler's virtual
//!   latency is `measured · factor + extra`; retries add backoff;
//!   hedged requests launch at `hedge_after`. The resulting
//!   [`FaultReport`] carries the fan-out's [`ParallelTiming`], so
//!   injected faults are visible in latency numbers. A disabled policy
//!   runs it under `FaultPolicy::OFF`: one untimed attempt per shard.
//!
//! Determinism: every fault decision derives from the plan seed and
//! the `(shard, attempt)` address, never from wall-clock time. The
//! `Straggle::factor` knob scales *measured* compute (and is therefore
//! machine-dependent), while `Straggle::extra` adds a fixed virtual
//! delay — tests that must be deterministic use `extra` delays large
//! enough to dominate any plausible measured time.

use std::time::Duration;

use tiptoe_math::wire::{WireError, WireReader, WireWriter};

use crate::overload::{ConfigError, ServeError};
use crate::{timed, ParallelTiming};

/// Hard cap on an envelope payload (bounds allocation from hostile
/// length fields).
pub const MAX_ENVELOPE_PAYLOAD: usize = 1 << 30;

/// Bytes added by [`seal_traced`]: magic, length, trace id, checksum.
pub const TRACED_ENVELOPE_OVERHEAD: usize = 24;

const TRACED_ENVELOPE_MAGIC: u32 = 0x5450_5432; // "TPT2"

/// Attempt-number namespace bit for hedged backup requests, so a
/// hedge draws its own deterministic fault decision.
const HEDGE_FLAG: u32 = 1 << 16;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Checksum of a traced envelope: covers the trace id *and* the
/// payload, so a flipped header bit is detected exactly like a
/// flipped payload bit.
///
/// FNV-1a 64-bit: cheap, deterministic, and plenty to detect the
/// random corruption this harness injects; not cryptographic.
fn traced_checksum(trace_id: u64, payload: &[u8]) -> u64 {
    fnv1a(fnv1a(FNV_OFFSET, &trace_id.to_le_bytes()), payload)
}

/// Wraps a shard response in the TPT2 envelope, which additionally
/// carries the originating query's trace id — metadata, not content:
/// the id is a process-local sequence number minted at `client.query`,
/// independent of what is being searched. The fixed 24-byte overhead
/// is identical for every query, so the wire footprint stays
/// outcome-independent (the Tiptoe privacy argument is untouched).
///
/// # Panics
///
/// Panics if the payload exceeds [`MAX_ENVELOPE_PAYLOAD`].
pub fn seal_traced(payload: &[u8], trace_id: u64) -> Vec<u8> {
    assert!(payload.len() <= MAX_ENVELOPE_PAYLOAD, "envelope payload too large");
    let mut w = WireWriter::with_capacity(payload.len() + TRACED_ENVELOPE_OVERHEAD);
    w.put_u32(TRACED_ENVELOPE_MAGIC);
    w.put_u32(payload.len() as u32);
    w.put_u64(trace_id);
    w.put_u64(traced_checksum(trace_id, payload));
    w.put_bytes(payload);
    w.finish()
}

/// Verifies and unwraps a [`seal_traced`] envelope, returning the
/// carried trace id alongside the payload.
///
/// # Errors
///
/// Fails on truncation, a bad magic, an oversize declared length,
/// trailing bytes, or a checksum mismatch — every corruption mode the
/// fault plan can inject maps onto one of these. The checksum covers
/// the trace id, so header flips are caught too.
pub fn open_traced(bytes: &[u8]) -> Result<(u64, &[u8]), WireError> {
    let mut r = WireReader::new(bytes);
    if r.get_u32()? != TRACED_ENVELOPE_MAGIC {
        return Err(WireError::Invalid("bad traced-envelope magic"));
    }
    let len = r.get_u32()? as usize;
    if len > MAX_ENVELOPE_PAYLOAD {
        return Err(WireError::Invalid("envelope payload too large"));
    }
    let trace_id = r.get_u64()?;
    let sum = r.get_u64()?;
    let payload = r.get_bytes(len)?;
    if r.remaining() != 0 {
        return Err(WireError::Invalid("trailing bytes after envelope"));
    }
    if traced_checksum(trace_id, payload) != sum {
        return Err(WireError::Invalid("envelope checksum mismatch"));
    }
    Ok((trace_id, payload))
}

/// One injected fault.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// The worker never answers; the coordinator waits out the attempt
    /// timeout.
    Crash,
    /// The worker answers correctly but slowly: its virtual latency is
    /// `measured · factor + extra`. `factor` scales measured compute
    /// (machine-dependent); `extra` is a fixed, fully deterministic
    /// virtual delay.
    Straggle {
        /// Multiplier on the measured per-attempt compute time.
        factor: f64,
        /// Fixed additional virtual delay.
        extra: Duration,
    },
    /// The response arrives with flipped bits (caught by the envelope
    /// checksum).
    Corrupt,
    /// The response is cut off mid-stream.
    Truncate,
}

/// Seeded per-attempt fault probabilities (each attempt of each shard
/// draws independently and deterministically from the plan seed).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultRates {
    /// Probability of a [`FaultKind::Crash`].
    pub crash: f64,
    /// Probability of a [`FaultKind::Straggle`].
    pub straggle: f64,
    /// Probability of a [`FaultKind::Corrupt`].
    pub corrupt: f64,
    /// Probability of a [`FaultKind::Truncate`].
    pub truncate: f64,
    /// Compute multiplier applied by rate-drawn stragglers.
    pub straggle_factor: f64,
    /// Fixed virtual delay added by rate-drawn stragglers.
    pub straggle_extra: Duration,
}

impl Default for FaultRates {
    fn default() -> Self {
        Self {
            crash: 0.0,
            straggle: 0.0,
            corrupt: 0.0,
            truncate: 0.0,
            straggle_factor: 10.0,
            straggle_extra: Duration::ZERO,
        }
    }
}

impl FaultRates {
    /// Splits a single aggregate fault rate across the four kinds
    /// (40% crash, 30% straggle, 20% corrupt, 10% truncate) — the
    /// mix used by the `bench_faults` sweep.
    pub fn mixed(rate: f64) -> Self {
        Self {
            crash: rate * 0.4,
            straggle: rate * 0.3,
            corrupt: rate * 0.2,
            truncate: rate * 0.1,
            ..Self::default()
        }
    }
}

/// A deterministic, seeded schedule of injected faults.
///
/// Lookup order for `(shard, attempt)`: one-shot forced faults, then
/// sticky per-shard faults, then the seeded rates. The default plan
/// injects nothing.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    seed: u64,
    rates: Option<FaultRates>,
    /// Faults applied on every attempt of a shard.
    sticky: Vec<(usize, FaultKind)>,
    /// Faults applied at one specific `(shard, attempt)` address.
    once: Vec<(usize, u32, FaultKind)>,
    /// AZ-correlated crash groups: every member of a group crashed
    /// together (members also appear in `sticky`).
    correlated: Vec<Vec<usize>>,
}

impl FaultPlan {
    /// A plan that injects no faults.
    pub fn none() -> Self {
        Self::default()
    }

    /// A plan drawing faults from seeded per-attempt rates.
    pub fn from_rates(seed: u64, rates: FaultRates) -> Self {
        Self { seed, rates: Some(rates), ..Self::default() }
    }

    /// Forces `kind` at one specific `(shard, attempt)`.
    pub fn with_fault(mut self, shard: usize, attempt: u32, kind: FaultKind) -> Self {
        self.once.push((shard, attempt, kind));
        self
    }

    /// Forces `kind` on every attempt of `shard`.
    pub fn with_shard_fault(mut self, shard: usize, kind: FaultKind) -> Self {
        self.sticky.push((shard, kind));
        self
    }

    /// A shard that never answers (hard crash).
    pub fn crash_shard(self, shard: usize) -> Self {
        self.with_shard_fault(shard, FaultKind::Crash)
    }

    /// A persistent straggler.
    pub fn straggle_shard(self, shard: usize, factor: f64, extra: Duration) -> Self {
        self.with_shard_fault(shard, FaultKind::Straggle { factor, extra })
    }

    /// A flaky shard: crashes on its first `failures` attempts, then
    /// recovers.
    pub fn flaky_then_recover(mut self, shard: usize, failures: u32) -> Self {
        for attempt in 0..failures {
            self.once.push((shard, attempt, FaultKind::Crash));
        }
        self
    }

    /// An AZ-correlated crash: every shard in `group` shares a fate —
    /// one availability-zone failure takes all of them down at once
    /// (the cloud failure mode independent per-shard rates cannot
    /// model). Members crash on every attempt, and the group is
    /// recorded for [`FaultPlan::correlated_groups`].
    pub fn correlated_crash(mut self, group: &[usize]) -> Self {
        for &shard in group {
            self.sticky.push((shard, FaultKind::Crash));
        }
        self.correlated.push(group.to_vec());
        self
    }

    /// The AZ-correlated crash groups injected into this plan.
    pub fn correlated_groups(&self) -> &[Vec<usize>] {
        &self.correlated
    }

    /// Whether this plan can never inject a fault.
    pub fn is_benign(&self) -> bool {
        self.sticky.is_empty()
            && self.once.is_empty()
            && self.rates.is_none_or(|r| {
                r.crash <= 0.0 && r.straggle <= 0.0 && r.corrupt <= 0.0 && r.truncate <= 0.0
            })
    }

    /// The fault injected at `(shard, attempt)`, if any. Deterministic
    /// in the plan alone.
    pub fn fault_for(&self, shard: usize, attempt: u32) -> Option<FaultKind> {
        if let Some(&(_, _, kind)) =
            self.once.iter().find(|&&(s, a, _)| s == shard && a == attempt)
        {
            return Some(kind);
        }
        if let Some(&(_, kind)) = self.sticky.iter().find(|&&(s, _)| s == shard) {
            return Some(kind);
        }
        let rates = self.rates?;
        let u = unit_draw(self.seed, shard as u64, attempt as u64);
        let mut bar = rates.crash;
        if u < bar {
            return Some(FaultKind::Crash);
        }
        bar += rates.straggle;
        if u < bar {
            return Some(FaultKind::Straggle {
                factor: rates.straggle_factor,
                extra: rates.straggle_extra,
            });
        }
        bar += rates.corrupt;
        if u < bar {
            return Some(FaultKind::Corrupt);
        }
        bar += rates.truncate;
        if u < bar {
            return Some(FaultKind::Truncate);
        }
        None
    }

    /// The plan seed (drives deterministic corruption positions).
    pub fn seed(&self) -> u64 {
        self.seed
    }
}

/// SplitMix64-style mix of the plan seed and an attempt address into
/// a uniform draw in `[0, 1)`.
fn unit_draw(seed: u64, shard: u64, attempt: u64) -> f64 {
    let mut x = seed
        .wrapping_add(shard.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(attempt.wrapping_mul(0xbf58_476d_1ce4_e5b9));
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^= x >> 31;
    (x >> 11) as f64 / (1u64 << 53) as f64
}

/// The coordinator's recovery policy.
///
/// Disabled by default: with `enabled == false` [`crate::dispatch`]
/// ignores the other knobs and gives every shard one attempt that is
/// never timed out, hedged or retried, so the answers are the
/// fault-oblivious protocol's. Either way the policy changes only how
/// a shard is asked, never what a query needs from it: every shard
/// must answer, and one that still has not after the knobs below are
/// spent fails the query with [`ServeError::ShardFailed`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPolicy {
    /// Whether the recovery knobs below are active.
    pub enabled: bool,
    /// Per-attempt, per-shard timeout: a worker that has not delivered
    /// a verifiable response by then is abandoned.
    pub attempt_timeout: Duration,
    /// Additional attempts after the first (so a shard is tried at
    /// most `max_retries + 1` times).
    pub max_retries: u32,
    /// Base backoff before retry `i` (waits `backoff · 2^(i-1)`).
    pub backoff: Duration,
    /// If set, a backup request is hedged at this offset whenever the
    /// primary has not succeeded by then; the shard completes at the
    /// earlier of the two arrivals.
    pub hedge_after: Option<Duration>,
    /// Per-shard budget across all attempts and backoffs; once spent,
    /// the shard is declared failed and so is the query
    /// ([`ServeError::ShardFailed`]).
    pub deadline: Duration,
}

impl Default for FaultPolicy {
    fn default() -> Self {
        Self {
            enabled: false,
            attempt_timeout: Duration::from_millis(250),
            max_retries: 2,
            backoff: Duration::from_millis(5),
            hedge_after: Some(Duration::from_millis(100)),
            deadline: Duration::from_secs(2),
        }
    }
}

impl FaultPolicy {
    /// What [`crate::dispatch`] runs a disabled policy as: one attempt
    /// per shard, never timed out, hedged or retried.
    pub(crate) const OFF: FaultPolicy = FaultPolicy {
        enabled: false,
        attempt_timeout: Duration::MAX,
        max_retries: 0,
        backoff: Duration::ZERO,
        hedge_after: None,
        deadline: Duration::MAX,
    };

    /// The default recovery knobs with fault tolerance switched on.
    pub fn tolerant() -> Self {
        Self { enabled: true, ..Self::default() }
    }

    /// Checks internal consistency.
    ///
    /// # Errors
    ///
    /// [`ConfigError`] if the timeout is zero or exceeds the
    /// deadline, or a hedge would launch after the attempt already
    /// timed out.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.attempt_timeout == Duration::ZERO {
            return Err(ConfigError {
                field: "fault_policy.attempt_timeout",
                reason: "attempt timeout must be positive",
            });
        }
        if self.attempt_timeout > self.deadline {
            return Err(ConfigError {
                field: "fault_policy.deadline",
                reason: "deadline shorter than one attempt",
            });
        }
        if let Some(h) = self.hedge_after {
            if h >= self.attempt_timeout {
                return Err(ConfigError {
                    field: "fault_policy.hedge_after",
                    reason: "hedge must launch before the attempt times out",
                });
            }
        }
        Ok(())
    }
}

/// Per-shard outcome of a dispatch.
#[derive(Debug, Clone)]
pub struct ShardReport {
    /// Whether the shard delivered a verified answer in time.
    pub ok: bool,
    /// Attempts launched (excluding hedges).
    pub attempts: u32,
    /// Whether a hedged backup request was launched.
    pub hedged: bool,
    /// Virtual wall-clock from dispatch to answer (or to giving up),
    /// including timeouts and backoff waits.
    pub wall: Duration,
}

/// Aggregate outcome of one fan-out.
#[derive(Debug, Clone, Default)]
pub struct FaultReport {
    /// Per-shard outcomes, in shard order.
    pub shards: Vec<ShardReport>,
    /// Retries launched beyond each shard's first attempt.
    pub retries: u32,
    /// Attempts abandoned at the timeout (crashes and slow stragglers).
    pub timeouts: u32,
    /// Responses rejected by the envelope or the payload parser.
    pub corrupted: u32,
    /// Hedged backup requests launched.
    pub hedges: u32,
    /// Bytes of rejected responses (re-downloaded on retry; feeds the
    /// transcript's retry accounting).
    pub wasted_response_bytes: u64,
    /// Virtual timing: `wall` = slowest shard including its waits,
    /// `cpu` = every executed attempt (wasted work included).
    pub timing: ParallelTiming,
}

impl FaultReport {
    /// Indices of shards that never delivered.
    pub fn failed_shards(&self) -> Vec<usize> {
        self.shards.iter().enumerate().filter(|(_, s)| !s.ok).map(|(i, _)| i).collect()
    }

    /// Whether every shard answered.
    pub fn all_ok(&self) -> bool {
        self.shards.iter().all(|s| s.ok)
    }
}

/// The observed response-time histogram (microseconds of virtual
/// wall-clock per successful delivery) for plan shard address
/// `plan_shard` — i.e. `shard_base + idx` as seen by
/// `dispatch_faulty`; the unlabeled `net.shard_response_us` series
/// aggregates all shards.
fn shard_response_histogram(plan_shard: usize) -> tiptoe_obs::Histogram {
    tiptoe_obs::metrics()
        .histogram_with("net.shard_response_us", Some(format!("shard{plan_shard}")))
}

/// How one attempt resolved, in virtual time relative to its launch.
enum Delivery<R> {
    /// A verified answer arrived at `at`.
    Ok { value: R, at: Duration },
    /// Nothing verifiable arrived by the attempt timeout.
    TimedOut,
    /// A response arrived at `at` but failed the envelope or parser.
    Bad { at: Duration, bytes: u64 },
}

/// The coordinator's per-shard loop, which every [`crate::dispatch`]
/// runs (a disabled policy as [`FaultPolicy::OFF`]).
///
/// Each shard runs under one span named `shard_span` and labelled
/// with its index in `0..num_shards`, carrying the shard's `attempts`,
/// `hedged` and `ok` attributes and its virtual wall time. `serve`
/// produces shard `idx`'s raw response payload (the worker
/// compute) or fails typed (e.g. a coalescer lane refused the request
/// within the query's deadline budget — a serve error aborts the
/// whole dispatch, since the query can no longer finish in budget);
/// the dispatcher seals the payload in the TPT2 envelope,
/// injects any planned fault, verifies the envelope, and hands it to
/// `parse`. A shard whose attempts are exhausted (or whose deadline
/// is spent) yields `None`, and [`crate::dispatch`] fails the query
/// with [`ServeError::ShardFailed`] once the fan-out has finished.
///
/// `shard_base` offsets the plan's shard address space, so several
/// services can share one plan (the ranking shards take `0..W`, the
/// URL server `W`).
///
/// Timing is virtual (see the module docs) and deterministic in the
/// plan wherever fault delays are expressed as fixed `extra` delays.
///
/// # Errors
///
/// [`ServeError::InvalidPolicy`] on an invalid policy; any
/// [`ServeError`] from `serve` is propagated.
pub(crate) fn dispatch_faulty<R>(
    shard_span: &'static str,
    num_shards: usize,
    shard_base: usize,
    plan: &FaultPlan,
    policy: &FaultPolicy,
    mut serve: impl FnMut(usize) -> Result<Vec<u8>, ServeError>,
    mut parse: impl FnMut(usize, &[u8]) -> Result<R, WireError>,
) -> Result<(Vec<Option<R>>, FaultReport), ServeError> {
    policy.validate()?;
    let mut report = FaultReport::default();
    let mut results: Vec<Option<R>> = Vec::with_capacity(num_shards);
    let mut cpu_total = Duration::ZERO;
    let mut wall_max = Duration::ZERO;

    for idx in 0..num_shards {
        let mut span = tiptoe_obs::span(shard_span);
        if tiptoe_obs::enabled() {
            span.set_label(format!("{idx}"));
        }
        let mut shard_wall = Duration::ZERO;
        let mut shard_cpu = Duration::ZERO;
        let mut attempts = 0u32;
        let mut hedged = false;
        let mut value: Option<R> = None;

        while attempts <= policy.max_retries {
            if attempts > 0 {
                report.retries += 1;
                shard_wall += policy.backoff.saturating_mul(1u32 << (attempts - 1).min(10));
            }
            if shard_wall >= policy.deadline {
                break;
            }

            // Primary attempt.
            let (primary, cpu) =
                run_attempt(idx, attempts, shard_base, plan, policy, &mut serve, &mut parse)?;
            shard_cpu += cpu;
            let primary_fail_at = match &primary {
                Delivery::Ok { .. } => None,
                Delivery::TimedOut => Some(policy.attempt_timeout),
                Delivery::Bad { at, .. } => Some(*at),
            };
            let mut best: Option<(R, Duration)> = None;
            match primary {
                Delivery::Ok { value: v, at } => best = Some((v, at)),
                Delivery::TimedOut => report.timeouts += 1,
                Delivery::Bad { bytes, .. } => {
                    report.corrupted += 1;
                    report.wasted_response_bytes += bytes;
                }
            }

            // Hedged backup: launches at `hedge_after` if the primary
            // has not succeeded by then.
            let mut hedge_fail_at: Option<Duration> = None;
            if let Some(h) = policy.hedge_after {
                let primary_ok_by_h = matches!(&best, Some((_, at)) if *at <= h);
                if !primary_ok_by_h {
                    report.hedges += 1;
                    hedged = true;
                    let (backup, hcpu) = run_attempt(
                        idx,
                        attempts | HEDGE_FLAG,
                        shard_base,
                        plan,
                        policy,
                        &mut serve,
                        &mut parse,
                    )?;
                    shard_cpu += hcpu;
                    match backup {
                        Delivery::Ok { value: v, at } => {
                            let arrival = h + at;
                            if best.as_ref().is_none_or(|(_, p)| arrival < *p) {
                                best = Some((v, arrival));
                            }
                        }
                        Delivery::TimedOut => {
                            report.timeouts += 1;
                            hedge_fail_at = Some(h + policy.attempt_timeout);
                        }
                        Delivery::Bad { at, bytes } => {
                            report.corrupted += 1;
                            report.wasted_response_bytes += bytes;
                            hedge_fail_at = Some(h + at);
                        }
                    }
                }
            }

            attempts += 1;
            match best {
                Some((v, at)) => {
                    shard_wall += at;
                    value = Some(v);
                    break;
                }
                None => {
                    // Both primary and any hedge failed; the
                    // coordinator notices at the later failure.
                    let p = primary_fail_at.unwrap_or(policy.attempt_timeout);
                    shard_wall += hedge_fail_at.map_or(p, |hf| p.max(hf));
                }
            }
        }

        let ok = value.is_some();
        if ok {
            // Successful deliveries feed the response-time histograms.
            let us = shard_wall.as_micros() as u64;
            shard_response_histogram(shard_base + idx).record(us);
            tiptoe_obs::metrics().histogram("net.shard_response_us").record(us);
        }
        span.attr_u64("attempts", attempts as u64);
        span.attr_u64("hedged", hedged as u64);
        span.attr_u64("ok", ok as u64);
        span.set_virtual(shard_wall);
        drop(span);
        tiptoe_obs::recorder::record(
            tiptoe_obs::recorder::EventKind::ShardOutcome,
            (shard_base + idx) as u64,
            u64::from(ok) | (u64::from(hedged) << 1),
            attempts as u64,
            shard_wall.as_micros() as u64,
        );
        report.shards.push(ShardReport { ok, attempts, hedged, wall: shard_wall });
        results.push(value);
        cpu_total += shard_cpu;
        wall_max = wall_max.max(shard_wall);
    }

    report.timing = ParallelTiming { wall: wall_max, cpu: cpu_total };
    mirror_report_metrics(&report);
    Ok((results, report))
}

/// Folds one dispatch's [`FaultReport`] counters into the global
/// metrics registry, so `metrics.json` carries cumulative
/// retry/timeout/corruption/hedge totals without a second accounting
/// path ([`FaultReport`] stays the per-dispatch view).
fn mirror_report_metrics(report: &FaultReport) {
    let m = tiptoe_obs::metrics();
    m.counter("net.dispatches").inc();
    m.counter("net.retries").add(report.retries as u64);
    m.counter("net.timeouts").add(report.timeouts as u64);
    m.counter("net.corrupted").add(report.corrupted as u64);
    m.counter("net.hedges").add(report.hedges as u64);
    m.counter("net.wasted_response_bytes").add(report.wasted_response_bytes);
    m.counter("net.failed_shards").add(report.shards.iter().filter(|s| !s.ok).count() as u64);
}

/// Dynamic view of the caller's payload parser, passed down to the
/// delivery closure.
type ParseFn<'a, R> = &'a mut dyn FnMut(usize, &[u8]) -> Result<R, WireError>;

/// Executes one attempt (identified by its plan address) in virtual
/// time; returns the delivery outcome and the real CPU spent, or
/// propagates a typed serve failure (which aborts the dispatch).
fn run_attempt<R>(
    idx: usize,
    attempt_no: u32,
    shard_base: usize,
    plan: &FaultPlan,
    policy: &FaultPolicy,
    serve: &mut impl FnMut(usize) -> Result<Vec<u8>, ServeError>,
    parse: &mut impl FnMut(usize, &[u8]) -> Result<R, WireError>,
) -> Result<(Delivery<R>, Duration), ServeError> {
    let plan_shard = shard_base + idx;
    // `run_attempt` executes on the query's own dispatching thread,
    // so the thread-local query id *is* the originating query: the
    // TPT2 envelope carries it to (and back from) the shard, which is
    // how per-shard work stays attributable after the response hops
    // threads.
    let trace_id = tiptoe_obs::current_query();
    let deliver = |payload: Vec<u8>, at: Duration, parse: ParseFn<'_, R>| {
        let sealed = seal_traced(&payload, trace_id);
        let bytes = sealed.len() as u64;
        match open_traced(&sealed).and_then(|(_, p)| parse(idx, p)) {
            Ok(value) => Delivery::Ok { value, at },
            Err(_) => Delivery::Bad { at, bytes },
        }
    };
    match plan.fault_for(plan_shard, attempt_no) {
        Some(FaultKind::Crash) => Ok((Delivery::TimedOut, Duration::ZERO)),
        Some(FaultKind::Straggle { factor, extra }) => {
            let (payload, t) = timed(|| serve(idx));
            let payload = payload?;
            let virtual_t = t.mul_f64(factor.max(0.0)) + extra;
            if virtual_t > policy.attempt_timeout {
                Ok((Delivery::TimedOut, t))
            } else {
                Ok((deliver(payload, virtual_t, parse), t))
            }
        }
        Some(FaultKind::Corrupt) => {
            let (payload, t) = timed(|| serve(idx));
            let mut sealed = seal_traced(&payload?, trace_id);
            corrupt_in_place(&mut sealed, plan.seed(), plan_shard, attempt_no);
            let bytes = sealed.len() as u64;
            let outcome = match open_traced(&sealed).and_then(|(_, p)| parse(idx, p)) {
                Ok(value) => Delivery::Ok { value, at: t },
                Err(_) => Delivery::Bad { at: t, bytes },
            };
            Ok((outcome, t))
        }
        Some(FaultKind::Truncate) => {
            let (payload, t) = timed(|| serve(idx));
            let sealed = seal_traced(&payload?, trace_id);
            let cut = &sealed[..sealed.len() / 2];
            let bytes = cut.len() as u64;
            let outcome = match open_traced(cut).and_then(|(_, p)| parse(idx, p)) {
                Ok(value) => Delivery::Ok { value, at: t },
                Err(_) => Delivery::Bad { at: t, bytes },
            };
            Ok((outcome, t))
        }
        None => {
            let (payload, t) = timed(|| serve(idx));
            let payload = payload?;
            if t > policy.attempt_timeout {
                Ok((Delivery::TimedOut, t))
            } else {
                Ok((deliver(payload, t, parse), t))
            }
        }
    }
}

/// Deterministically flips one payload byte of a sealed response (the
/// envelope checksum is guaranteed to catch a single-byte change).
fn corrupt_in_place(sealed: &mut [u8], seed: u64, shard: usize, attempt: u32) {
    let draw = unit_draw(seed ^ 0xc0de, shard as u64, attempt as u64);
    if sealed.len() > TRACED_ENVELOPE_OVERHEAD {
        let span = sealed.len() - TRACED_ENVELOPE_OVERHEAD;
        let pos = TRACED_ENVELOPE_OVERHEAD + ((draw * span as f64) as usize).min(span - 1);
        sealed[pos] ^= 0xa5;
    } else if let Some(b) = sealed.last_mut() {
        *b ^= 0xa5;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn serve_ok(idx: usize) -> Result<Vec<u8>, ServeError> {
        let mut w = WireWriter::new();
        w.put_u64(idx as u64 * 10);
        Ok(w.finish())
    }

    fn parse_ok(_: usize, p: &[u8]) -> Result<u64, WireError> {
        let mut r = WireReader::new(p);
        let v = r.get_u64()?;
        r.finish()?;
        Ok(v)
    }

    #[test]
    fn traced_envelope_roundtrips_and_covers_the_trace_id() {
        let payload = b"ranking shard answer".to_vec();
        let trace_id = 0xfeed_beef_u64;
        let sealed = seal_traced(&payload, trace_id);
        assert_eq!(sealed.len(), payload.len() + TRACED_ENVELOPE_OVERHEAD);
        let (id, opened) = open_traced(&sealed).expect("opens");
        assert_eq!(id, trace_id);
        assert_eq!(opened, &payload[..]);
        // Any single-byte flip — header (incl. trace id) or payload —
        // is detected.
        for pos in 0..sealed.len() {
            let mut bad = sealed.clone();
            bad[pos] ^= 0x01;
            assert!(open_traced(&bad).is_err(), "flip at {pos} not detected");
        }
        // Truncation at every length is detected.
        for cut in 0..sealed.len() {
            assert!(open_traced(&sealed[..cut]).is_err(), "cut at {cut} not detected");
        }
        // Oversize declared length is rejected without allocating.
        let mut w = WireWriter::new();
        w.put_u32(TRACED_ENVELOPE_MAGIC);
        w.put_u32(u32::MAX);
        w.put_u64(trace_id);
        w.put_u64(0);
        assert!(open_traced(&w.finish()).is_err());
        // Query id 0 (outside any scope) round-trips too.
        let (id0, _) = open_traced(&seal_traced(&payload, 0)).expect("opens");
        assert_eq!(id0, 0);
    }

    #[test]
    fn benign_plan_dispatch_answers_every_shard() {
        let shards = 4;
        let (results, report) = dispatch_faulty(
            "test.shard",
            shards,
            0,
            &FaultPlan::none(),
            &FaultPolicy::tolerant(),
            serve_ok,
            parse_ok,
        )
        .expect("dispatch");
        assert_eq!(results, vec![Some(0), Some(10), Some(20), Some(30)]);
        assert!(report.all_ok());
        assert_eq!(report.retries, 0);
        assert_eq!(report.timeouts, 0);
        assert_eq!(report.corrupted, 0);
        assert!(report.timing.cpu >= report.timing.wall);
    }

    #[test]
    fn crashed_shard_fails_with_timeout_accounting() {
        let shards = 3;
        let plan = FaultPlan::none().crash_shard(1);
        let mut policy = FaultPolicy::tolerant();
        policy.hedge_after = None;
        let (results, report) =
            dispatch_faulty("test.shard", shards, 0, &plan, &policy, serve_ok, parse_ok)
                .expect("dispatch");
        assert_eq!(results[0], Some(0));
        assert_eq!(results[1], None);
        assert_eq!(results[2], Some(20));
        assert_eq!(report.failed_shards(), vec![1]);
        // 3 attempts, each waiting out the full timeout, plus backoff.
        let s = &report.shards[1];
        assert_eq!(s.attempts, policy.max_retries + 1);
        assert!(s.wall >= policy.attempt_timeout.saturating_mul(policy.max_retries + 1));
        assert_eq!(report.timeouts, policy.max_retries + 1);
        assert!(report.timing.wall >= s.wall);
    }

    #[test]
    fn flaky_shard_recovers_after_retries() {
        let shards = 2;
        let plan = FaultPlan::none().flaky_then_recover(0, 2);
        let mut policy = FaultPolicy::tolerant();
        policy.hedge_after = None;
        let (results, report) =
            dispatch_faulty("test.shard", shards, 0, &plan, &policy, serve_ok, parse_ok)
                .expect("dispatch");
        assert_eq!(results, vec![Some(0), Some(10)]);
        assert!(report.all_ok());
        assert_eq!(report.retries, 2);
        assert_eq!(report.shards[0].attempts, 3);
        // Two timeouts plus exponential backoff are on the shard wall.
        let floor = policy.attempt_timeout.saturating_mul(2) + policy.backoff.saturating_mul(3);
        assert!(report.shards[0].wall >= floor, "{:?} < {floor:?}", report.shards[0].wall);
    }

    #[test]
    fn corrupt_and_truncated_responses_fail_into_retry() {
        let shards = 2;
        for kind in [FaultKind::Corrupt, FaultKind::Truncate] {
            let plan = FaultPlan::none().with_fault(1, 0, kind);
            let mut policy = FaultPolicy::tolerant();
            policy.hedge_after = None;
            let (results, report) =
                dispatch_faulty("test.shard", shards, 0, &plan, &policy, serve_ok, parse_ok)
                    .expect("dispatch");
            assert_eq!(results, vec![Some(0), Some(10)], "{kind:?}");
            assert_eq!(report.corrupted, 1, "{kind:?}");
            assert_eq!(report.retries, 1, "{kind:?}");
            assert!(report.wasted_response_bytes > 0, "{kind:?}");
        }
    }

    #[test]
    fn hedge_beats_deterministic_straggler() {
        let shards = 3;
        // Shard 2 straggles by a fixed 10 s — far beyond the timeout —
        // so the primary is abandoned and the hedge (healthy) wins.
        let plan = FaultPlan::none().straggle_shard(2, 1.0, Duration::from_secs(10));
        let policy = FaultPolicy::tolerant();
        let (results, report) =
            dispatch_faulty("test.shard", shards, 0, &plan, &policy, serve_ok, parse_ok)
                .expect("dispatch");
        // The sticky straggler also delays the hedge, which still
        // arrives... no: sticky applies to every attempt, so the hedge
        // straggles too and the shard exhausts its attempts.
        assert_eq!(results[2], None);
        assert!(report.hedges >= 1);
        assert!(report.shards[2].hedged);

        // A one-shot straggler instead: the hedge is healthy and the
        // shard completes near hedge_after, well under the deadline.
        let plan = FaultPlan::none().with_fault(
            2,
            0,
            FaultKind::Straggle { factor: 10.0, extra: Duration::from_secs(10) },
        );
        let (results, report) =
            dispatch_faulty("test.shard", shards, 0, &plan, &policy, serve_ok, parse_ok)
                .expect("dispatch");
        assert_eq!(results[2], Some(20));
        assert!(report.shards[2].ok);
        assert_eq!(report.shards[2].attempts, 1, "hedge consumed no retry");
        assert!(report.hedges >= 1);
        let h = policy.hedge_after.expect("hedging on");
        assert!(report.shards[2].wall >= h);
        assert!(report.shards[2].wall < policy.attempt_timeout + h);
        assert!(report.timing.wall < policy.deadline);
    }

    #[test]
    fn slow_straggler_within_timeout_just_arrives_late() {
        let shards = 2;
        let mut policy = FaultPolicy::tolerant();
        policy.hedge_after = None;
        // 60 ms fixed virtual delay < 250 ms timeout: arrives, verified.
        let plan = FaultPlan::none().straggle_shard(0, 1.0, Duration::from_millis(60));
        let (results, report) =
            dispatch_faulty("test.shard", shards, 0, &plan, &policy, serve_ok, parse_ok)
                .expect("dispatch");
        assert_eq!(results, vec![Some(0), Some(10)]);
        assert!(report.all_ok());
        assert!(report.shards[0].wall >= Duration::from_millis(60));
        assert_eq!(report.retries, 0);
    }

    #[test]
    fn rates_are_deterministic_and_roughly_calibrated() {
        let plan = FaultPlan::from_rates(7, FaultRates::mixed(0.4));
        let a: Vec<_> = (0..64).map(|s| plan.fault_for(s, 0)).collect();
        let b: Vec<_> = (0..64).map(|s| plan.fault_for(s, 0)).collect();
        assert_eq!(a, b, "same plan, same draws");
        let faults = a.iter().filter(|f| f.is_some()).count();
        assert!((10..=40).contains(&faults), "fault count {faults} far from 40% of 64");
        // A different seed reshuffles the schedule.
        let other = FaultPlan::from_rates(8, FaultRates::mixed(0.4));
        let c: Vec<_> = (0..64).map(|s| other.fault_for(s, 0)).collect();
        assert_ne!(a, c);
        // Zero rates are benign; forced faults are not.
        assert!(FaultPlan::from_rates(7, FaultRates::mixed(0.0)).is_benign());
        assert!(!FaultPlan::none().crash_shard(0).is_benign());
    }

    #[test]
    fn shard_base_offsets_the_plan_address_space() {
        let shards = 1;
        let plan = FaultPlan::none().crash_shard(5);
        let mut policy = FaultPolicy::tolerant();
        policy.hedge_after = None;
        let (hit, _) = dispatch_faulty("test.shard", shards, 5, &plan, &policy, serve_ok, parse_ok)
            .expect("dispatch");
        assert_eq!(hit, vec![None]);
        let (miss, _) = dispatch_faulty("test.shard", shards, 0, &plan, &policy, serve_ok, parse_ok)
            .expect("dispatch");
        assert_eq!(miss, vec![Some(0)]);
    }

    #[test]
    fn deadline_caps_retry_spending() {
        let shards = 1;
        let plan = FaultPlan::none().crash_shard(0);
        let mut policy = FaultPolicy::tolerant();
        policy.hedge_after = None;
        policy.max_retries = 100;
        policy.deadline = Duration::from_millis(600);
        let (results, report) =
            dispatch_faulty("test.shard", shards, 0, &plan, &policy, serve_ok, parse_ok)
                .expect("dispatch");
        assert_eq!(results, vec![None]);
        // 600 ms budget / 250 ms timeouts: at most 3 attempts launch.
        assert!(report.shards[0].attempts <= 3, "{}", report.shards[0].attempts);
        assert!(report.shards[0].wall < Duration::from_millis(1200));
    }

    #[test]
    fn policy_validation_rejects_nonsense() {
        assert!(FaultPolicy::tolerant().validate().is_ok());
        let mut p = FaultPolicy::tolerant();
        p.attempt_timeout = Duration::ZERO;
        assert_eq!(p.validate().expect_err("zero timeout").field, "fault_policy.attempt_timeout");
        let mut p = FaultPolicy::tolerant();
        p.deadline = Duration::from_millis(1);
        assert_eq!(p.validate().expect_err("tiny deadline").field, "fault_policy.deadline");
        let mut p = FaultPolicy::tolerant();
        p.hedge_after = Some(p.attempt_timeout);
        assert_eq!(p.validate().expect_err("late hedge").field, "fault_policy.hedge_after");
        // An invalid policy surfaces through dispatch as a typed
        // error, not a panic.
        let err = dispatch_faulty("test.shard", 1, 0, &FaultPlan::none(), &p, serve_ok, parse_ok)
            .expect_err("invalid policy rejected");
        assert!(matches!(err, ServeError::InvalidPolicy(_)), "{err:?}");
    }

    #[test]
    fn correlated_crash_takes_down_the_whole_group() {
        let shards = 4;
        let plan = FaultPlan::none().correlated_crash(&[1, 2]);
        assert!(!plan.is_benign());
        assert_eq!(plan.correlated_groups(), &[vec![1, 2]]);
        let mut policy = FaultPolicy::tolerant();
        policy.hedge_after = None;
        policy.max_retries = 0;
        let (results, report) =
            dispatch_faulty("test.shard", shards, 0, &plan, &policy, serve_ok, parse_ok)
                .expect("dispatch");
        assert_eq!(results, vec![Some(0), None, None, Some(30)]);
        assert_eq!(report.failed_shards(), vec![1, 2], "the whole AZ fails together");
    }

    #[test]
    fn serve_errors_abort_the_dispatch() {
        let shards = 2;
        let budget_err = ServeError::DeadlineExceeded {
            budget: Duration::from_millis(5),
            spent: Duration::from_millis(9),
        };
        let err = dispatch_faulty(
            "test.shard",
            shards,
            0,
            &FaultPlan::none(),
            &FaultPolicy::tolerant(),
            |idx| if idx == 1 { Err(budget_err) } else { serve_ok(idx) },
            parse_ok,
        )
        .expect_err("serve failure propagates");
        assert_eq!(err, budget_err);
    }
}
