//! Simulated cluster runtime: sharded dispatch, exact communication
//! accounting, and the client-link latency model of the paper's
//! evaluation (§8.1: "the simulated link between the client and the
//! coordinator has 100 Mbps bandwidth with a 50 ms RTT").
//!
//! The paper runs on 45 AWS machines; this workspace runs on one. The
//! cluster is therefore *simulated with full structural fidelity*:
//! shards execute the same code a worker machine would, one at a time,
//! and [`dispatch`] reports a [`ParallelTiming`]:
//!
//! - `cpu`: the summed execution time (→ the paper's "core-seconds",
//!   which count every vCPU paid for), and
//! - `wall`: the maximum per-shard time (→ the latency a perfectly
//!   parallel fan-out would achieve).
//!
//! Every protocol message crosses a [`Transcript`], which records its
//! exact wire size per phase and direction; the end-to-end latency of
//! a phase is then reconstructed with [`LinkModel::phase_latency`].
//!
//! Every shard of a fan-out must answer: under an enabled
//! [`FaultPolicy`] a shard is retried and hedged up to its deadline,
//! and one still without a verified answer fails the dispatch with
//! [`ServeError::ShardFailed`] once the round is accounted.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod coalesce;
pub mod fault;
pub mod overload;
pub mod service;

pub use coalesce::{CoalescePolicy, Coalescer, LaneStatus, MAX_LANE_RETRIES};
pub use fault::{
    open_traced, seal_traced, FaultKind, FaultPlan, FaultPolicy, FaultRates, FaultReport,
    ShardReport, TRACED_ENVELOPE_OVERHEAD,
};
pub use overload::{
    AdmissionController, AdmissionPermit, AdmissionPolicy, ConfigError, DeadlineBudget, ServeError,
};
pub use service::{dispatch, DispatchContext, Dispatched, Ledger, Service};

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Canonical protocol phases of the transcript ledger.
///
/// Phases used to be free-form `&str`s, so `record_up("ranking")` vs
/// a `"rank"` typo silently split the ledger; the enum makes the
/// phase vocabulary a compile-time fact. [`Phase::as_str`] (and the
/// `Display`/`From` impls) keep the string form for display and JSON.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// One-time client setup (hint download, underhood keys).
    Setup,
    /// Per-query underhood token fetch.
    Token,
    /// Ranking PIR round.
    Ranking,
    /// Extra ranking bytes spent on retried/hedged attempts.
    RankingRetries,
    /// URL PIR round.
    Url,
    /// Extra URL bytes spent on retried/hedged attempts.
    UrlRetries,
}

impl Phase {
    /// Every phase, in protocol order.
    pub const ALL: [Phase; 6] = [
        Phase::Setup,
        Phase::Token,
        Phase::Ranking,
        Phase::RankingRetries,
        Phase::Url,
        Phase::UrlRetries,
    ];

    /// The canonical display name (stable across releases; used in
    /// JSON artifacts and metric labels).
    pub fn as_str(self) -> &'static str {
        match self {
            Phase::Setup => "setup",
            Phase::Token => "token",
            Phase::Ranking => "ranking",
            Phase::RankingRetries => "ranking-retries",
            Phase::Url => "url",
            Phase::UrlRetries => "url-retries",
        }
    }
}

impl std::fmt::Display for Phase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

impl From<Phase> for &'static str {
    fn from(p: Phase) -> Self {
        p.as_str()
    }
}

/// Transfer direction, from the client's point of view.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    /// Client → server.
    Upload,
    /// Server → client.
    Download,
}

/// A per-phase, per-direction ledger of exact wire bytes.
///
/// Each instance keeps its own exact totals (tests assert on them
/// per-query): one `[upload, download]` pair a phase, the phases in
/// the order their first message was recorded, so a ledger's size and
/// the cost of a lookup stay fixed however many queries it serves.
/// Every record is additionally mirrored into the global
/// [`tiptoe_obs::metrics()`] registry as `net.bytes_up`/`net.bytes_down`
/// counters labeled by phase, so the metrics snapshot reproduces the
/// Table-7-style byte breakdown without a second accounting path.
#[derive(Debug, Default)]
pub struct Transcript {
    totals: Mutex<Vec<(Phase, [u64; 2])>>,
    sheds: AtomicU64,
}

impl Transcript {
    /// An empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    fn record(&self, phase: Phase, dir: Direction, bytes: u64) {
        let mut totals = self.totals.lock().expect("transcript lock");
        let at = match totals.iter().position(|(p, _)| *p == phase) {
            Some(at) => at,
            None => {
                totals.push((phase, [0; 2]));
                totals.len() - 1
            }
        };
        totals[at].1[dir as usize] += bytes;
    }

    /// Records a client→server message.
    pub fn record_up(&self, phase: Phase, bytes: u64) {
        self.record(phase, Direction::Upload, bytes);
        tiptoe_obs::metrics().counter_with("net.bytes_up", Some(phase.as_str().into())).add(bytes);
    }

    /// Records a server→client message.
    pub fn record_down(&self, phase: Phase, bytes: u64) {
        self.record(phase, Direction::Download, bytes);
        tiptoe_obs::metrics().counter_with("net.bytes_down", Some(phase.as_str().into())).add(bytes);
    }

    /// Total bytes in one direction across all phases.
    pub fn total(&self, dir: Direction) -> u64 {
        self.totals.lock().expect("transcript lock").iter().map(|(_, b)| b[dir as usize]).sum()
    }

    /// Bytes for one phase and direction.
    pub fn phase_total(&self, phase: Phase, dir: Direction) -> u64 {
        let totals = self.totals.lock().expect("transcript lock");
        totals.iter().find(|(p, _)| *p == phase).map_or(0, |(_, b)| b[dir as usize])
    }

    /// All phases with recorded traffic, in first-appearance order.
    pub fn phases(&self) -> Vec<Phase> {
        self.totals.lock().expect("transcript lock").iter().map(|&(p, _)| p).collect()
    }

    /// Total traffic in both directions.
    pub fn grand_total(&self) -> u64 {
        self.total(Direction::Upload) + self.total(Direction::Download)
    }

    /// Records a query shed by admission control before any bytes
    /// crossed the wire. A shed query has *zero* transcript entries —
    /// the fixed wire footprint only applies to admitted queries —
    /// but its rejection is accounted here and in the `net.shed`
    /// counter so overload behavior is observable.
    pub fn record_shed(&self) {
        self.sheds.fetch_add(1, Ordering::Relaxed);
    }

    /// Queries shed since the last [`Transcript::reset`].
    pub fn sheds(&self) -> u64 {
        self.sheds.load(Ordering::Relaxed)
    }

    /// Clears the ledger (e.g. between measured queries).
    pub fn reset(&self) {
        self.totals.lock().expect("transcript lock").clear();
        self.sheds.store(0, Ordering::Relaxed);
    }
}

/// The client↔service network link model.
#[derive(Debug, Clone, Copy)]
pub struct LinkModel {
    /// Link bandwidth in bits per second.
    pub bandwidth_bps: f64,
    /// Round-trip time.
    pub rtt: Duration,
}

impl LinkModel {
    /// The paper's evaluation link: 100 Mbit/s, 50 ms RTT.
    pub fn paper() -> Self {
        Self { bandwidth_bps: 100e6, rtt: Duration::from_millis(50) }
    }

    /// Pure transfer time for a payload.
    pub fn transfer_time(&self, bytes: u64) -> Duration {
        Duration::from_secs_f64(bytes as f64 * 8.0 / self.bandwidth_bps)
    }

    /// End-to-end latency of one request/response phase: one RTT plus
    /// both transfers plus the server's (parallel) compute time.
    pub fn phase_latency(&self, up_bytes: u64, down_bytes: u64, server_wall: Duration) -> Duration {
        self.rtt + self.transfer_time(up_bytes) + self.transfer_time(down_bytes) + server_wall
    }
}

/// Timing of a simulated parallel fan-out.
#[derive(Debug, Clone, Copy, Default)]
pub struct ParallelTiming {
    /// Maximum per-shard time: the wall-clock latency of a perfectly
    /// parallel cluster.
    pub wall: Duration,
    /// Summed per-shard time: the total core-seconds paid for.
    pub cpu: Duration,
}

impl ParallelTiming {
    /// Combines two phases executed one after the other.
    pub fn then(self, next: ParallelTiming) -> ParallelTiming {
        ParallelTiming { wall: self.wall + next.wall, cpu: self.cpu + next.cpu }
    }
}

/// A stopwatch for single-machine (client or coordinator) steps.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, Duration) {
    let start = Instant::now();
    let r = f();
    (r, start.elapsed())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transcript_accumulates_per_phase() {
        let t = Transcript::new();
        t.record_up(Phase::Token, 100);
        t.record_up(Phase::Ranking, 50);
        t.record_down(Phase::Ranking, 25);
        t.record_up(Phase::Ranking, 10);
        assert_eq!(t.total(Direction::Upload), 160);
        assert_eq!(t.total(Direction::Download), 25);
        assert_eq!(t.phase_total(Phase::Ranking, Direction::Upload), 60);
        assert_eq!(t.phases(), vec![Phase::Token, Phase::Ranking]);
        assert_eq!(t.grand_total(), 185);
        t.record_shed();
        t.record_shed();
        assert_eq!(t.sheds(), 2);
        t.reset();
        assert_eq!(t.grand_total(), 0);
        assert_eq!(t.sheds(), 0);
    }

    #[test]
    fn transcript_keeps_one_total_a_phase_whatever_it_serves() {
        let t = Transcript::new();
        for _ in 0..10_000 {
            t.record_up(Phase::Ranking, 3);
            t.record_down(Phase::Url, 2);
        }
        t.record_up(Phase::Token, 0);
        assert_eq!(t.totals.lock().expect("transcript lock").len(), 3);
        assert_eq!(t.phases(), vec![Phase::Ranking, Phase::Url, Phase::Token]);
        assert_eq!(t.phase_total(Phase::Ranking, Direction::Upload), 30_000);
        assert_eq!(t.phase_total(Phase::Url, Direction::Download), 20_000);
        assert_eq!(t.phase_total(Phase::Url, Direction::Upload), 0);
        assert_eq!(t.phase_total(Phase::Setup, Direction::Upload), 0);
        assert_eq!(t.grand_total(), 50_000);
    }

    #[test]
    fn phase_names_are_canonical() {
        assert_eq!(Phase::ALL.len(), 6);
        for p in Phase::ALL {
            let s: &'static str = p.into();
            assert_eq!(s, p.as_str());
            assert_eq!(format!("{p}"), s);
        }
        assert_eq!(Phase::RankingRetries.as_str(), "ranking-retries");
    }

    #[test]
    fn paper_link_transfer_times() {
        let link = LinkModel::paper();
        // 12.5 MB/s -> 1 MiB in ~0.084 s.
        let t = link.transfer_time(1 << 20);
        assert!((t.as_secs_f64() - 0.0839).abs() < 0.001, "{t:?}");
        // A phase with no payload still costs one RTT.
        let lat = link.phase_latency(0, 0, Duration::ZERO);
        assert_eq!(lat, Duration::from_millis(50));
    }

    #[test]
    fn timing_then_composes() {
        let a = ParallelTiming { wall: Duration::from_millis(5), cpu: Duration::from_millis(20) };
        let b = ParallelTiming { wall: Duration::from_millis(3), cpu: Duration::from_millis(6) };
        let c = a.then(b);
        assert_eq!(c.wall, Duration::from_millis(8));
        assert_eq!(c.cpu, Duration::from_millis(26));
    }

    #[test]
    fn timed_measures_closure() {
        let (v, d) = timed(|| 42);
        assert_eq!(v, 42);
        assert!(d < Duration::from_secs(1));
    }
}
