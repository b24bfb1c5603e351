//! The query flight recorder: a fixed-size, lock-free ring buffer of
//! per-query event timelines.
//!
//! Spans answer "where did the time go" for *sampled* queries; the
//! recorder answers "what happened to **this** query" for *every*
//! query, always on, even when `TIPTOE_TRACE_SAMPLE` sampled the span
//! tree out. Each event is a fixed-width record of `(query id,
//! timestamp, kind, four numeric arguments)` — **content-free by
//! construction**: kinds are a closed enum, arguments are occupancy
//! counts, lane ids, durations, and typed result codes. No
//! query-derived data (embeddings, cluster indices, ciphertexts,
//! URLs) can enter the ring, so the recorder adds no privacy surface
//! beyond what the metrics registry already exposes.
//!
//! Concurrency: writers claim a slot with one `fetch_add` and publish
//! it under a per-slot seqlock (odd version = write in progress, even
//! version = generation tag), all plain atomics — no locks, no
//! `unsafe`. Readers retry torn slots a bounded number of times and
//! otherwise skip them; under a wrapping ring the oldest events are
//! overwritten first. The ring holds [`CAPACITY`] events (~a few
//! hundred queries of history at the serving plane's event rate).
//!
//! On any typed `ServeError` the owning query's timeline is dumped to
//! stderr automatically (rate-limited to [`AUTO_DUMP_LIMIT`] dumps
//! per process so an overload storm cannot flood the console);
//! [`timeline`], [`render_timeline`], and [`timeline_json`] serve the
//! on-demand paths.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// Ring capacity in events (power of two; the slot index is
/// `seq & (CAPACITY - 1)`).
pub const CAPACITY: usize = 4096;

/// Automatic `ServeError` dumps emitted per process before the
/// recorder goes quiet (the data stays in the ring for on-demand
/// dumps; only the unsolicited stderr output is rate-limited).
pub const AUTO_DUMP_LIMIT: u64 = 8;

/// What happened. Kinds form a closed vocabulary; every argument is a
/// count, id, duration, or code — never query content.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum EventKind {
    /// Admission control admitted the query. `a` = inflight after
    /// admit, `b` = capacity.
    Admitted = 1,
    /// Admission control shed the query. `a` = inflight at the
    /// verdict, `b` = capacity.
    Shed = 2,
    /// The query joined a coalescer lane's queue. `a` = lane id,
    /// `b` = queue depth after enqueue, `c` = submitters in flight
    /// (the larger of the lane's and its cohort's gauge), `d` = size
    /// of the lane's previous batch. The lane flushed on this arrival
    /// iff `b ≥ max(c, d)` (or `b` reached `max_batch`); otherwise the
    /// query waits for a later arrival or the armed deadline.
    LaneEnqueued = 3,
    /// The query's batch flushed. `a` = lane id, `b` = batch size,
    /// `c` = flush reason code (see [`flush_reason`]), `d` =
    /// queue-wait in microseconds for *this* query.
    LaneFlushed = 4,
    /// The query withdrew from a lane queue (deadline budget spent
    /// before the flush). `a` = lane id, `b` = waited microseconds.
    LaneWithdrawn = 5,
    /// The query's lane crashed while serving it. `a` = lane id,
    /// `b` = lane crash count so far.
    LaneCrashed = 6,
    /// One shard's dispatch outcome. `a` = shard id, `b` = flags
    /// (bit 0 = ok, bit 1 = hedged), `c` = attempts, `d` = per-shard
    /// wall in microseconds.
    ShardOutcome = 7,
    /// Wall time charged to the query's deadline budget. `a` =
    /// charged microseconds, `b` = total spent after the charge,
    /// `c` = budget in microseconds.
    BudgetCharged = 9,
    /// The query finished with a typed result. `a` = result code
    /// (see [`result_code`]); for deadline failures `b` = budget µs
    /// and `c` = spent µs, for sheds `b` = inflight and `c` =
    /// capacity, for lane failures `b` = crash count, for shard
    /// failures `b` = first failed shard and `c` = failed shards.
    Finished = 10,
}

impl EventKind {
    fn from_u64(v: u64) -> Option<Self> {
        Some(match v {
            1 => Self::Admitted,
            2 => Self::Shed,
            3 => Self::LaneEnqueued,
            4 => Self::LaneFlushed,
            5 => Self::LaneWithdrawn,
            6 => Self::LaneCrashed,
            7 => Self::ShardOutcome,
            9 => Self::BudgetCharged,
            10 => Self::Finished,
            _ => return None,
        })
    }

    /// Stable display name (used by dumps and the JSON exporter).
    pub fn name(self) -> &'static str {
        match self {
            Self::Admitted => "admitted",
            Self::Shed => "shed",
            Self::LaneEnqueued => "lane-enqueued",
            Self::LaneFlushed => "lane-flushed",
            Self::LaneWithdrawn => "lane-withdrawn",
            Self::LaneCrashed => "lane-crashed",
            Self::ShardOutcome => "shard-outcome",
            Self::BudgetCharged => "budget-charged",
            Self::Finished => "finished",
        }
    }
}

/// Typed result codes for [`EventKind::Finished`] events.
/// `tiptoe-net`'s `ServeError` maps onto these (the mapping lives
/// here so dumps can name codes without depending on `tiptoe-net`).
pub mod result_code {
    /// The query succeeded.
    pub const OK: u64 = 0;
    /// `ServeError::Overloaded` — shed by admission control.
    pub const OVERLOADED: u64 = 1;
    /// `ServeError::DeadlineExceeded` — deadline budget spent.
    pub const DEADLINE_EXCEEDED: u64 = 2;
    /// `ServeError::LaneFailed` — a coalescer lane crashed for good.
    pub const LANE_FAILED: u64 = 3;
    /// `ServeError::InvalidPolicy` — rejected configuration.
    pub const INVALID_POLICY: u64 = 4;
    /// `ServeError::ShardFailed` — a shard never delivered a verified
    /// answer within its retries, hedges and deadline.
    pub const SHARD_FAILED: u64 = 5;

    /// Display name for a result code.
    pub fn name(code: u64) -> &'static str {
        match code {
            OK => "ok",
            OVERLOADED => "overloaded",
            DEADLINE_EXCEEDED => "deadline-exceeded",
            LANE_FAILED => "lane-failed",
            INVALID_POLICY => "invalid-policy",
            SHARD_FAILED => "shard-failed",
            _ => "unknown",
        }
    }
}

/// Flush reason codes for [`EventKind::LaneFlushed`] events, matching
/// the coalescer's flush-reason vocabulary.
pub mod flush_reason {
    /// The batch reached `max_batch`.
    pub const FULL: u64 = 0;
    /// The forming batch's deadline passed; a member flushed it.
    pub const DEADLINE: u64 = 1;
    /// A lone submitter flushed without waiting.
    pub const SOLO: u64 = 2;
    /// The last submitter in flight arrived and flushed the whole
    /// batch without waiting (`SOLO` is its batch-of-one case).
    pub const COMPLETE: u64 = 3;
    /// Number of reason codes (`0..COUNT` are all named).
    pub const COUNT: usize = 4;

    /// Display name for a flush reason code.
    pub fn name(code: u64) -> &'static str {
        match code {
            FULL => "full",
            DEADLINE => "deadline",
            SOLO => "solo",
            COMPLETE => "complete",
            _ => "unknown",
        }
    }
}

/// One decoded flight-recorder event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Global sequence number (total order across all queries).
    pub seq: u64,
    /// Owning query id (0 = outside any query scope).
    pub query: u64,
    /// Microseconds since the recorder epoch.
    pub at_us: u64,
    /// What happened.
    pub kind: EventKind,
    /// First argument (meaning depends on `kind`).
    pub a: u64,
    /// Second argument.
    pub b: u64,
    /// Third argument.
    pub c: u64,
    /// Fourth argument.
    pub d: u64,
}

impl Event {
    /// Named arguments for display, in `key=value` order. Arguments
    /// that are meaningless for the kind are omitted.
    pub fn describe(&self) -> Vec<(&'static str, String)> {
        let n = |v: u64| v.to_string();
        match self.kind {
            EventKind::Admitted => {
                vec![("inflight", n(self.a)), ("capacity", n(self.b))]
            }
            EventKind::Shed => vec![("inflight", n(self.a)), ("capacity", n(self.b))],
            EventKind::LaneEnqueued => vec![
                ("lane", n(self.a)),
                ("depth", n(self.b)),
                ("present", n(self.c)),
                ("last_batch", n(self.d)),
            ],
            EventKind::LaneFlushed => vec![
                ("lane", n(self.a)),
                ("batch", n(self.b)),
                ("reason", flush_reason::name(self.c).to_string()),
                ("wait_us", n(self.d)),
            ],
            EventKind::LaneWithdrawn => vec![("lane", n(self.a)), ("waited_us", n(self.b))],
            EventKind::LaneCrashed => vec![("lane", n(self.a)), ("crashes", n(self.b))],
            EventKind::ShardOutcome => vec![
                ("shard", n(self.a)),
                ("ok", n(self.b & 1)),
                ("hedged", n((self.b >> 1) & 1)),
                ("attempts", n(self.c)),
                ("wall_us", n(self.d)),
            ],
            EventKind::BudgetCharged => vec![
                ("charged_us", n(self.a)),
                ("spent_us", n(self.b)),
                ("budget_us", n(self.c)),
            ],
            EventKind::Finished => {
                let mut args = vec![("result", result_code::name(self.a).to_string())];
                if self.b != 0 || self.c != 0 {
                    args.push(("detail_b", n(self.b)));
                    args.push(("detail_c", n(self.c)));
                }
                args
            }
        }
    }
}

/// One ring slot: a seqlock version plus the event's seven words.
struct Slot {
    /// 0 = never written; odd = write in progress; even `2·seq + 2` =
    /// complete record of generation `seq`.
    version: AtomicU64,
    words: [AtomicU64; 7],
}

impl Slot {
    fn empty() -> Self {
        Self { version: AtomicU64::new(0), words: std::array::from_fn(|_| AtomicU64::new(0)) }
    }

    /// Reads the slot under the seqlock; `None` on empty, torn, or
    /// undecodable slots.
    fn read(&self) -> Option<Event> {
        for _ in 0..4 {
            let v1 = self.version.load(Ordering::Acquire);
            if v1 == 0 {
                return None;
            }
            if v1 % 2 == 1 {
                continue; // write in progress; retry
            }
            let w: Vec<u64> = self.words.iter().map(|x| x.load(Ordering::Relaxed)).collect();
            if self.version.load(Ordering::Acquire) != v1 {
                continue; // torn by a wrapping writer; retry
            }
            let kind = EventKind::from_u64(w[2])?;
            return Some(Event {
                seq: (v1 - 2) / 2,
                query: w[0],
                at_us: w[1],
                kind,
                a: w[3],
                b: w[4],
                c: w[5],
                d: w[6],
            });
        }
        None
    }
}

struct Ring {
    epoch: Instant,
    head: AtomicU64,
    auto_dumps: AtomicU64,
    slots: Vec<Slot>,
}

fn ring() -> &'static Ring {
    static R: OnceLock<Ring> = OnceLock::new();
    R.get_or_init(|| Ring {
        epoch: Instant::now(),
        head: AtomicU64::new(0),
        auto_dumps: AtomicU64::new(0),
        slots: (0..CAPACITY).map(|_| Slot::empty()).collect(),
    })
}

/// Records one event for `query`. Lock-free: one `fetch_add` plus
/// nine relaxed stores. Use this form when the owning query is not
/// the calling thread's (e.g. a lane flush recording on behalf of
/// every batched member); use [`record`] for same-thread events.
pub fn record_for(query: u64, kind: EventKind, a: u64, b: u64, c: u64, d: u64) {
    let r = ring();
    let seq = r.head.fetch_add(1, Ordering::Relaxed);
    let slot = &r.slots[(seq as usize) & (CAPACITY - 1)];
    let at_us = r.epoch.elapsed().as_micros() as u64;
    slot.version.store(seq * 2 + 1, Ordering::Release);
    let words = [query, at_us, kind as u64, a, b, c, d];
    for (w, v) in slot.words.iter().zip(words) {
        w.store(v, Ordering::Relaxed);
    }
    slot.version.store(seq * 2 + 2, Ordering::Release);
}

/// Records one event for the calling thread's current query (query 0,
/// "unattributed", outside any query scope).
pub fn record(kind: EventKind, a: u64, b: u64, c: u64, d: u64) {
    record_for(crate::current_query(), kind, a, b, c, d);
}

/// A snapshot of every decodable event in the ring, in sequence
/// order. Slots being overwritten concurrently are skipped.
pub fn events() -> Vec<Event> {
    let r = ring();
    let mut out: Vec<Event> = r.slots.iter().filter_map(Slot::read).collect();
    out.sort_by_key(|e| e.seq);
    out
}

/// The timeline of one query: every ring event with its id, in order.
pub fn timeline(query: u64) -> Vec<Event> {
    events().into_iter().filter(|e| e.query == query).collect()
}

/// Renders a query's timeline as human-readable text (one event per
/// line, timestamps relative to the first event).
pub fn render_timeline(query: u64) -> String {
    use std::fmt::Write as _;
    let events = timeline(query);
    let mut out = format!("query {query}: {} recorded events\n", events.len());
    let t0 = events.first().map_or(0, |e| e.at_us);
    for e in &events {
        let _ = write!(out, "  +{:>8}us {:<16}", e.at_us - t0, e.kind.name());
        for (k, v) in e.describe() {
            let _ = write!(out, " {k}={v}");
        }
        out.push('\n');
    }
    out
}

/// Renders a query's timeline as a JSON array (hand-rolled, like
/// every exporter in the workspace).
pub fn timeline_json(query: u64) -> String {
    use std::fmt::Write as _;
    let events = timeline(query);
    let mut out = String::from("[");
    for (i, e) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\n  {{\"seq\": {}, \"query\": {}, \"at_us\": {}, \"kind\": \"{}\"",
            e.seq,
            e.query,
            e.at_us,
            e.kind.name()
        );
        for (k, v) in e.describe() {
            let quoted = v.parse::<u64>().is_err();
            if quoted {
                let _ = write!(out, ", \"{k}\": \"{v}\"");
            } else {
                let _ = write!(out, ", \"{k}\": {v}");
            }
        }
        out.push('}');
    }
    out.push_str("\n]\n");
    out
}

/// Renders the whole ring as one JSON document grouped by query —
/// the flight-recorder dump artifact CI uploads next to the trace.
/// Queries appear in order of their first recorded event; query 0
/// (unattributed events) is included last when present.
pub fn ring_json() -> String {
    use std::fmt::Write as _;
    let events = events();
    let mut queries: Vec<u64> = Vec::new();
    for e in &events {
        if !queries.contains(&e.query) {
            queries.push(e.query);
        }
    }
    if let Some(pos) = queries.iter().position(|&q| q == 0) {
        let zero = queries.remove(pos);
        queries.push(zero);
    }
    let mut out = String::from("{\n\"queries\": [");
    for (i, q) in queries.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\n{{\"query\": {q}, \"events\": {}}}", timeline_json(*q).trim_end());
    }
    let _ = write!(out, "\n],\n\"events\": {}\n}}\n", events.len());
    out
}

/// Dumps a query's timeline to stderr, rate-limited to
/// [`AUTO_DUMP_LIMIT`] unsolicited dumps per process. The serve path
/// calls this automatically on every typed `ServeError`; the timeline
/// stays available via [`timeline`] regardless of the limit.
pub fn dump_on_error(query: u64, context: &str) {
    let n = ring().auto_dumps.fetch_add(1, Ordering::Relaxed);
    if n >= AUTO_DUMP_LIMIT {
        if n == AUTO_DUMP_LIMIT {
            eprintln!(
                "tiptoe-obs: flight-recorder auto-dump limit ({AUTO_DUMP_LIMIT}) reached; \
                 further timelines stay in the ring (use the on-demand dump)"
            );
        }
        return;
    }
    eprintln!("tiptoe-obs: flight recorder [{context}]\n{}", render_timeline(query));
}

/// Clears the ring and the auto-dump budget (tests only — concurrent
/// writers may interleave with the wipe).
pub fn reset() {
    let r = ring();
    for s in &r.slots {
        s.version.store(0, Ordering::Release);
    }
    r.head.store(0, Ordering::Release);
    r.auto_dumps.store(0, Ordering::Release);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// Serializes tests that reset the global ring.
    fn guard() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn events_record_and_filter_by_query() {
        let _g = guard();
        reset();
        record_for(7, EventKind::Admitted, 1, 8, 0, 0);
        record_for(9, EventKind::Shed, 8, 8, 0, 0);
        record_for(7, EventKind::LaneFlushed, 2, 5, flush_reason::DEADLINE, 123);
        record_for(7, EventKind::Finished, result_code::OK, 0, 0, 0);
        let t7 = timeline(7);
        assert_eq!(t7.len(), 3);
        assert_eq!(t7[0].kind, EventKind::Admitted);
        assert_eq!(t7[1].kind, EventKind::LaneFlushed);
        assert_eq!(t7[1].b, 5);
        assert_eq!(t7[2].kind, EventKind::Finished);
        assert_eq!(timeline(9).len(), 1);
        assert!(t7.windows(2).all(|w| w[0].seq < w[1].seq), "sequence-ordered");
    }

    #[test]
    fn ring_wraps_without_losing_recent_events() {
        let _g = guard();
        reset();
        for i in 0..(CAPACITY as u64 + 100) {
            record_for(i, EventKind::Admitted, i, 0, 0, 0);
        }
        let all = events();
        assert_eq!(all.len(), CAPACITY);
        // The newest events survive; the oldest were overwritten.
        assert!(all.iter().any(|e| e.query == CAPACITY as u64 + 99));
        assert!(all.iter().all(|e| e.query >= 100));
    }

    #[test]
    fn concurrent_writers_never_produce_torn_reads() {
        let _g = guard();
        reset();
        std::thread::scope(|s| {
            for t in 0..4u64 {
                s.spawn(move || {
                    for i in 0..2000u64 {
                        // Every writer marks all four args with its
                        // own tag, so a torn slot would mix tags.
                        record_for(t + 1, EventKind::BudgetCharged, t, t, t, 0);
                        let _ = i;
                    }
                });
            }
        });
        for e in events() {
            assert_eq!(e.query, e.a + 1, "query/tag mismatch: torn slot {e:?}");
            assert_eq!(e.a, e.b);
            assert_eq!(e.b, e.c);
        }
    }

    #[test]
    fn rendering_names_kinds_and_codes() {
        let _g = guard();
        reset();
        record_for(42, EventKind::LaneFlushed, 1, 3, flush_reason::SOLO, 17);
        record_for(42, EventKind::LaneEnqueued, 2, 4, 4, 3);
        record_for(42, EventKind::LaneFlushed, 2, 4, flush_reason::COMPLETE, 9);
        record_for(42, EventKind::ShardOutcome, 2, 0b10, 3, 750);
        record_for(42, EventKind::Finished, result_code::DEADLINE_EXCEEDED, 500, 900, 0);
        record_for(42, EventKind::Finished, result_code::SHARD_FAILED, 0, 2, 0);
        let text = render_timeline(42);
        assert!(text.contains("lane-flushed"), "{text}");
        assert!(text.contains("reason=solo"), "{text}");
        assert!(text.contains("depth=4 present=4 last_batch=3"), "{text}");
        assert!(text.contains("reason=complete"), "{text}");
        assert!((0..flush_reason::COUNT as u64).all(|c| flush_reason::name(c) != "unknown"));
        assert!(text.contains("shard=2 ok=0 hedged=1 attempts=3 wall_us=750"), "{text}");
        assert!(text.contains("result=deadline-exceeded"), "{text}");
        assert!(text.contains("result=shard-failed"), "{text}");
        let json = timeline_json(42);
        assert!(json.contains("\"kind\": \"shard-outcome\""), "{json}");
        assert!(json.contains("\"reason\": \"solo\""), "{json}");
        assert!(json.starts_with('[') && json.trim_end().ends_with(']'), "{json}");
    }

    #[test]
    fn ring_json_groups_by_query_with_unattributed_last() {
        let _g = guard();
        reset();
        record_for(0, EventKind::BudgetCharged, 1, 0, 0, 0);
        record_for(5, EventKind::Admitted, 1, 8, 0, 0);
        record_for(5, EventKind::Finished, result_code::OK, 0, 0, 0);
        record_for(6, EventKind::Shed, 8, 8, 0, 0);
        let json = ring_json();
        let q5 = json.find("\"query\": 5").expect("query 5 present");
        let q6 = json.find("\"query\": 6").expect("query 6 present");
        let q0 = json.find("\"query\": 0").expect("query 0 present");
        assert!(q5 < q6 && q6 < q0, "unattributed events must sort last: {json}");
        assert!(json.contains("\"events\": 4"), "{json}");
    }
}
