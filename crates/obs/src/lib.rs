//! Unified observability for the Tiptoe workspace: a thread-safe
//! **span tree** tracer plus a **metrics registry** (counters, gauges,
//! log-scaled histograms) and exporters for Chrome `trace_event` JSON,
//! flamegraph-foldable stacks, and a flat `metrics.json` snapshot.
//!
//! Design constraints, in order:
//!
//! 1. **Zero cost when off.** Tracing defaults to disabled; a disabled
//!    [`span`] call is one relaxed atomic load and returns an inert
//!    guard. The hot kernels (`tiptoe-lwe`'s matvec, the PIR scan) are
//!    instrumented at kernel granularity, never per row, so tier-1
//!    throughput does not move.
//! 2. **Deterministic shape.** Spans are only opened from sequential
//!    protocol code (the per-shard fan-out in `tiptoe-net` executes
//!    shards one at a time); worker threads inside
//!    `tiptoe_math::par::par_spans_mut` never open spans. The span
//!    tree for a query is therefore identical at any `TIPTOE_THREADS`
//!    setting — only thread ids and durations vary.
//! 3. **No dependencies.** Everything is `std`; JSON is hand-rolled
//!    like the workspace's bench emitters.
//!
//! Enablement: [`init_from_env`] reads `TIPTOE_TRACE=path`; code
//! calls [`enable_with_path`] (and [`set_span_sample`]) directly. Each
//! query then overwrites `path` (Chrome trace), `path` with a
//! `.metrics.json` extension (metrics snapshot), and a `.folded`
//! sibling (flamegraph stacks).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod clock;
pub mod export;
pub mod metrics;
pub mod recorder;
pub mod slo;

pub use metrics::{
    metrics, Counter, Gauge, Histogram, HistogramSnapshot, MetricsSnapshot, Registry,
};

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Duration;

/// Global tracing switch. Metrics are always live (they are a handful
/// of atomic ops per query); only span recording is gated.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Span-tree sampling rate: trace 1-in-N queries (`1` = every query).
static SAMPLE_EVERY: AtomicU64 = AtomicU64::new(1);

/// The first query id minted after the sampling rate was set: query
/// `id` is sampled iff `(id - SAMPLE_BASE) % SAMPLE_EVERY == 0`, a
/// function of the query alone, so one client's query never turns
/// another's spans on or off.
static SAMPLE_BASE: AtomicU64 = AtomicU64::new(1);

/// Monotonic query-id mint ([`query_scope`]); 0 means "no query".
static NEXT_QUERY: AtomicU64 = AtomicU64::new(1);

/// Queries currently inside a [`query_scope`] across all threads.
/// Guards the per-query span-buffer clear: with concurrent clients,
/// clearing on every boundary would erase in-flight neighbours.
static ACTIVE_QUERIES: AtomicU64 = AtomicU64::new(0);

/// One recorded span: a node of the per-query span tree.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    /// Unique id (monotonic within the process).
    pub id: u64,
    /// Parent span id, `None` for roots.
    pub parent: Option<u64>,
    /// Static span name (e.g. `"client.embed"`).
    pub name: &'static str,
    /// Optional dynamic label (e.g. a shard index).
    pub label: Option<String>,
    /// Start offset from the process epoch ([`clock`]), microseconds.
    pub start_us: u64,
    /// Measured wall-clock duration, microseconds.
    pub dur_us: u64,
    /// Optional virtual-time duration (the fault dispatcher's
    /// simulated clock), microseconds.
    pub virtual_us: Option<u64>,
    /// Recording thread (small dense id, not the OS tid).
    pub tid: u64,
    /// Numeric attributes (`rows`, `cols`, `bytes`, ...).
    pub attrs: Vec<(&'static str, u64)>,
    /// Ids of spans this span *follows from*: causal, non-parental
    /// links. A coalesced flush span follows from every batched
    /// member's submission span, so each member's query tree reaches
    /// the shared flush even though only one tree parents it.
    pub follows: Vec<u64>,
}

impl SpanRecord {
    /// `name` or `name[label]` — the display name used by exporters.
    pub fn display_name(&self) -> String {
        match &self.label {
            Some(l) => format!("{}[{}]", self.name, l),
            None => self.name.to_string(),
        }
    }
}

struct TraceState {
    spans: Mutex<Vec<SpanRecord>>,
    next_span: AtomicU64,
    next_tid: AtomicU64,
    trace_path: Mutex<Option<String>>,
}

fn state() -> &'static TraceState {
    static S: OnceLock<TraceState> = OnceLock::new();
    S.get_or_init(|| TraceState {
        spans: Mutex::new(Vec::new()),
        next_span: AtomicU64::new(1),
        next_tid: AtomicU64::new(1),
        trace_path: Mutex::new(None),
    })
}

thread_local! {
    /// Stack of open span ids on this thread (for implicit parentage).
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    /// Small dense per-thread id, assigned on first span.
    static TID: RefCell<Option<u64>> = const { RefCell::new(None) };
    /// The query id owning this thread (0 = outside any query scope).
    static CURRENT_QUERY: Cell<u64> = const { Cell::new(0) };
}

fn thread_tid() -> u64 {
    TID.with(|t| {
        let mut t = t.borrow_mut();
        *t.get_or_insert_with(|| state().next_tid.fetch_add(1, Ordering::Relaxed))
    })
}

/// Whether span recording is on *for the calling thread's query*:
/// the master switch gated by that query's sampling decision. Outside
/// any query it is the master switch alone, so ad-hoc spans record.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed) && sampled(current_query())
}

fn sampled(query: u64) -> bool {
    query == 0
        || query
            .wrapping_sub(SAMPLE_BASE.load(Ordering::Relaxed))
            .is_multiple_of(SAMPLE_EVERY.load(Ordering::Relaxed).max(1))
}

/// Sets the span-sampling rate: trace 1-in-`every` queries. `every`
/// below 1 is clamped to 1 (every query). The next query minted is
/// sampled — deterministic for tests and benchmarks.
pub fn set_span_sample(every: u64) {
    SAMPLE_BASE.store(NEXT_QUERY.load(Ordering::Relaxed), Ordering::Relaxed);
    SAMPLE_EVERY.store(every.max(1), Ordering::Relaxed);
}

/// The current span-sampling rate (1 = every query).
pub fn span_sample() -> u64 {
    SAMPLE_EVERY.load(Ordering::Relaxed).max(1)
}

/// Turns span recording on (without configuring an export path).
pub fn enable() {
    ENABLED.store(true, Ordering::Relaxed);
}

/// Turns span recording off again (tests use this to restore the
/// default).
pub fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
}

/// Sets (or clears) the per-query trace export path.
pub fn set_trace_path(path: Option<String>) {
    *state().trace_path.lock().expect("trace path lock") = path;
}

/// The configured trace export path, if any.
pub fn trace_path() -> Option<String> {
    state().trace_path.lock().expect("trace path lock").clone()
}

/// Enables tracing with an export path (the `Config` knob entry
/// point).
pub fn enable_with_path(path: impl Into<String>) {
    set_trace_path(Some(path.into()));
    enable();
}

/// Reads `TIPTOE_TRACE` (a non-empty value enables tracing and sets
/// the export path) and `TIPTOE_TRACE_SAMPLE` (a positive integer
/// sets the 1-in-N span-sampling rate). Idempotent.
pub fn init_from_env() {
    if let Ok(p) = std::env::var("TIPTOE_TRACE") {
        if !p.is_empty() {
            enable_with_path(p);
        }
    }
    if let Ok(s) = std::env::var("TIPTOE_TRACE_SAMPLE") {
        if let Ok(every) = s.trim().parse::<u64>() {
            if every >= 1 {
                set_span_sample(every);
            }
        }
    }
}

/// Drops every recorded span (the per-query trace boundary).
pub fn clear_spans() {
    state().spans.lock().expect("span lock").clear();
}

/// The query id owning the calling thread (0 outside any
/// [`query_scope`]). Query ids are minted even when tracing is
/// disabled or the query is sampled out — the flight recorder
/// ([`recorder`]) keys its always-on timelines by them.
pub fn current_query() -> u64 {
    CURRENT_QUERY.with(Cell::get)
}

/// RAII guard for one query boundary ([`query_scope`]) or adopted
/// query ([`adopt_query`]): gives the thread its own query back on drop.
pub struct QueryScope {
    own: u64,
    fresh: bool,
}

impl QueryScope {
    /// The query id in effect inside this scope.
    pub fn id(&self) -> u64 {
        current_query()
    }
}

impl Drop for QueryScope {
    fn drop(&mut self) {
        CURRENT_QUERY.with(|q| q.set(self.own));
        if self.fresh {
            ACTIVE_QUERIES.fetch_sub(1, Ordering::Relaxed);
        }
    }
}

/// Enters a query boundary on this thread: mints a process-unique
/// query id (the flight-recorder key and [`TraceCtx::trace_id`]),
/// which also decides whether the query is in the 1-in-N span sample.
/// A sampled query clears the span buffer, so the exported trace holds
/// that query, but only when no other query is active: concurrent
/// clients' in-flight spans survive each other's boundaries and a
/// post-cohort snapshot holds every query's tree. An unsampled query
/// records no spans ([`enabled`] reports false on its thread). Nested
/// calls on the same thread adopt the existing scope (the guard is
/// then inert).
pub fn query_scope() -> QueryScope {
    if current_query() != 0 {
        return QueryScope { own: current_query(), fresh: false };
    }
    let id = NEXT_QUERY.fetch_add(1, Ordering::Relaxed);
    CURRENT_QUERY.with(|q| q.set(id));
    let active = ACTIVE_QUERIES.fetch_add(1, Ordering::Relaxed) + 1;
    if active == 1 && enabled() {
        clear_spans();
    }
    QueryScope { own: 0, fresh: true }
}

/// Runs the calling thread as query `id` (a [`TraceCtx::trace_id`])
/// until the guard drops: work done for another thread's query, a
/// coalesced batch's flush, records under that query's sampling
/// decision and flight-recorder key, not the thread's own.
pub fn adopt_query(id: u64) -> QueryScope {
    QueryScope { own: CURRENT_QUERY.with(|q| q.replace(id)), fresh: false }
}

/// A copy of every span recorded since the last [`clear_spans`].
pub fn spans_snapshot() -> Vec<SpanRecord> {
    state().spans.lock().expect("span lock").clone()
}

/// An opaque span identity, used to attach children across threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(u64);

/// The innermost open span on this thread, if tracing is enabled.
pub fn current_span() -> Option<SpanId> {
    if !enabled() {
        return None;
    }
    STACK.with(|s| s.borrow().last().copied().map(SpanId))
}

/// An explicit trace context: the query id minted at the query
/// boundary plus the innermost open span at capture time.
///
/// Capture one with [`TraceCtx::current`] *before* handing work to
/// another thread (a coalescer submission, a pool job, a wire
/// envelope) and use it on the far side for explicit parenting
/// ([`span_under`]) and [`Span::follow_from`] links — implicit
/// thread-local parentage attaches cross-thread work to whatever the
/// executing thread happens to have open, which is the wrong query
/// under delegated flushes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceCtx {
    /// The originating query id (0 outside any [`query_scope`]).
    /// Always minted, even when tracing is disabled or the query is
    /// sampled out, so the flight recorder can attribute events.
    pub trace_id: u64,
    /// The innermost open span at capture time (`None` when tracing
    /// is off or the query was sampled out).
    pub span_id: Option<SpanId>,
}

impl TraceCtx {
    /// Captures the calling thread's context.
    pub fn current() -> Self {
        Self { trace_id: current_query(), span_id: current_span() }
    }

    /// The empty context (no query, no span).
    pub fn none() -> Self {
        Self { trace_id: 0, span_id: None }
    }
}

impl Default for TraceCtx {
    fn default() -> Self {
        Self::none()
    }
}

struct Pending {
    id: u64,
    parent: Option<u64>,
    name: &'static str,
    label: Option<String>,
    start_us: u64,
    virtual_us: Option<u64>,
    attrs: Vec<(&'static str, u64)>,
    follows: Vec<u64>,
}

/// RAII guard for one span: records wall time from construction to
/// drop. Inert (all methods no-ops) when tracing is disabled.
pub struct Span {
    pending: Option<Pending>,
}

/// Opens a span named `name`, parented to the innermost open span on
/// this thread.
#[inline]
pub fn span(name: &'static str) -> Span {
    if !enabled() {
        return Span { pending: None };
    }
    let parent = STACK.with(|s| s.borrow().last().copied());
    open_span(name, parent)
}

/// Opens a span with an explicit parent — the fan-out form: capture
/// [`current_span`] before handing work to another thread, then
/// parent the worker's spans to it.
#[inline]
pub fn span_under(name: &'static str, parent: Option<SpanId>) -> Span {
    if !enabled() {
        return Span { pending: None };
    }
    open_span(name, parent.map(|p| p.0))
}

fn open_span(name: &'static str, parent: Option<u64>) -> Span {
    let st = state();
    let id = st.next_span.fetch_add(1, Ordering::Relaxed);
    let start_us = clock::now_us();
    STACK.with(|s| s.borrow_mut().push(id));
    Span {
        pending: Some(Pending {
            id,
            parent,
            name,
            label: None,
            start_us,
            virtual_us: None,
            attrs: Vec::new(),
            follows: Vec::new(),
        }),
    }
}

impl Span {
    /// This span's id (for explicit child parenting), when recording.
    pub fn id(&self) -> Option<SpanId> {
        self.pending.as_ref().map(|p| SpanId(p.id))
    }

    /// Attaches a numeric attribute (no-op when disabled — callers
    /// pay no formatting cost).
    pub fn attr_u64(&mut self, key: &'static str, value: u64) {
        if let Some(p) = self.pending.as_mut() {
            p.attrs.push((key, value));
        }
    }

    /// Attaches a dynamic label, rendered as `name[label]`.
    pub fn set_label(&mut self, label: impl Into<String>) {
        if let Some(p) = self.pending.as_mut() {
            p.label = Some(label.into());
        }
    }

    /// Records a virtual-time duration alongside the measured one
    /// (the fault dispatcher's simulated clock).
    pub fn set_virtual(&mut self, d: Duration) {
        if let Some(p) = self.pending.as_mut() {
            p.virtual_us = Some(d.as_micros() as u64);
        }
    }

    /// Records a *follow-from* link to `src`: this span is causally
    /// downstream of `src` without being its child. The coalesced
    /// flush span follows from every batched member's submission
    /// span, so each member's tree reaches the shared flush.
    pub fn follow_from(&mut self, src: SpanId) {
        if let Some(p) = self.pending.as_mut() {
            if !p.follows.contains(&src.0) {
                p.follows.push(src.0);
            }
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(p) = self.pending.take() else { return };
        STACK.with(|s| {
            let mut stack = s.borrow_mut();
            if stack.last() == Some(&p.id) {
                stack.pop();
            } else {
                // Out-of-order drop (guards held across each other):
                // remove by value so the stack stays consistent.
                stack.retain(|&x| x != p.id);
            }
        });
        let rec = SpanRecord {
            id: p.id,
            parent: p.parent,
            name: p.name,
            label: p.label,
            start_us: p.start_us,
            dur_us: clock::now_us().saturating_sub(p.start_us),
            virtual_us: p.virtual_us,
            tid: thread_tid(),
            attrs: p.attrs,
            follows: p.follows,
        };
        state().spans.lock().expect("span lock").push(rec);
    }
}

/// Runs `f` inside a span and returns its result plus the measured
/// wall-clock duration ([`clock::timed`]), so benchmarks and the
/// tracer cannot disagree about phase boundaries. The duration is
/// measured whether or not tracing is enabled.
pub fn timed_span<R>(name: &'static str, f: impl FnOnce() -> R) -> (R, Duration) {
    let _span = span(name);
    clock::timed(f)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serializes tests that toggle the global tracer.
    fn guard() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disabled_spans_record_nothing() {
        let _g = guard();
        disable();
        clear_spans();
        {
            let mut s = span("nothing");
            s.attr_u64("rows", 5);
        }
        assert!(spans_snapshot().is_empty());
        assert!(current_span().is_none());
    }

    #[test]
    fn span_tree_parentage_is_nested() {
        let _g = guard();
        enable();
        clear_spans();
        {
            let root = span("root");
            let root_id = root.id().expect("recording");
            {
                let _child = span("child");
                let _grand = span("grand");
            }
            let _sibling = span_under("sibling", Some(root_id));
        }
        disable();
        let spans = spans_snapshot();
        assert_eq!(spans.len(), 4);
        let by_name = |n: &str| spans.iter().find(|s| s.name == n).expect("span");
        assert_eq!(by_name("root").parent, None);
        assert_eq!(by_name("child").parent, Some(by_name("root").id));
        assert_eq!(by_name("grand").parent, Some(by_name("child").id));
        assert_eq!(by_name("sibling").parent, Some(by_name("root").id));
    }

    #[test]
    fn attrs_labels_and_virtual_time_are_recorded() {
        let _g = guard();
        enable();
        clear_spans();
        {
            let mut s = span("rank.shard");
            s.set_label("3");
            s.attr_u64("bytes", 128);
            s.set_virtual(Duration::from_millis(7));
        }
        disable();
        let spans = spans_snapshot();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].display_name(), "rank.shard[3]");
        assert_eq!(spans[0].attrs, vec![("bytes", 128)]);
        assert_eq!(spans[0].virtual_us, Some(7000));
    }

    #[test]
    fn spans_from_scoped_threads_attach_to_the_captured_parent() {
        let _g = guard();
        enable();
        clear_spans();
        {
            let root = span("fanout");
            let parent = root.id();
            std::thread::scope(|scope| {
                for _ in 0..3 {
                    scope.spawn(move || {
                        let _s = span_under("worker", parent.map(|_| parent.unwrap()));
                    });
                }
            });
        }
        disable();
        let spans = spans_snapshot();
        let root_id = spans.iter().find(|s| s.name == "fanout").expect("root").id;
        let workers: Vec<_> = spans.iter().filter(|s| s.name == "worker").collect();
        assert_eq!(workers.len(), 3);
        for w in workers {
            assert_eq!(w.parent, Some(root_id));
        }
    }

    #[test]
    fn span_sampling_traces_one_in_n_queries() {
        let _g = guard();
        enable();
        set_span_sample(3);
        let mut recorded = Vec::new();
        for _ in 0..6 {
            let _q = query_scope();
            let sampled = enabled();
            {
                let _s = span("q");
            }
            recorded.push(sampled);
        }
        // 1-in-3, starting sampled: queries 0 and 3.
        assert_eq!(recorded, vec![true, false, false, true, false, false]);
        // The last sampled query's spans are in the buffer (unsampled
        // queries recorded nothing on top).
        assert_eq!(spans_snapshot().len(), 1);
        set_span_sample(1);
        disable();
        assert_eq!(span_sample(), 1);
    }

    #[test]
    fn a_sampled_query_keeps_its_spans_when_another_query_opens() {
        let _g = guard();
        enable();
        set_span_sample(2);
        let a = query_scope();
        let (opened, done) = (std::sync::Barrier::new(2), std::sync::Barrier::new(2));
        std::thread::scope(|sc| {
            sc.spawn(|| {
                let _b = query_scope();
                let sampled = enabled();
                opened.wait();
                done.wait();
                assert!(!sampled, "the second query at 1-in-2 is sampled out");
            });
            opened.wait();
            drop(span("a.after_b"));
            done.wait();
        });
        drop(a);
        set_span_sample(1);
        disable();
        let names: Vec<_> = spans_snapshot().iter().map(|s| s.name).collect();
        assert_eq!(names, vec!["a.after_b"]);
    }

    #[test]
    fn timed_span_measures_and_returns() {
        let _g = guard();
        let (v, d) = timed_span("t", || 41 + 1);
        assert_eq!(v, 42);
        assert!(d < Duration::from_secs(1));
    }

    #[test]
    fn query_scopes_mint_ids_and_nest() {
        let _g = guard();
        disable();
        assert_eq!(current_query(), 0);
        let outer = query_scope();
        let id = outer.id();
        assert_ne!(id, 0);
        {
            let inner = query_scope();
            assert_eq!(inner.id(), id, "nested scopes adopt the outer id");
        }
        assert_eq!(current_query(), id, "inner drop keeps the outer scope");
        drop(outer);
        assert_eq!(current_query(), 0);
        // With tracing off the query id is still minted (the flight
        // recorder keys on it) while the span side stays empty.
        let scope = query_scope();
        let ctx = TraceCtx::current();
        assert_eq!(ctx.trace_id, scope.id());
        assert!(ctx.span_id.is_none());
        drop(scope);
        assert_eq!(TraceCtx::current(), TraceCtx::none());
    }

    #[test]
    fn concurrent_scopes_preserve_each_others_spans() {
        let _g = guard();
        enable();
        set_span_sample(1);
        clear_spans();
        let a = query_scope();
        {
            let _s = span("a.one");
        }
        // A second query begins while `a` is active: its boundary must
        // not clear a's spans out of the shared buffer.
        std::thread::scope(|sc| {
            sc.spawn(|| {
                let _b = query_scope();
                let _s = span("b.one");
            });
        });
        {
            let _s = span("a.two");
        }
        drop(a);
        disable();
        let names: Vec<_> = spans_snapshot().iter().map(|s| s.name).collect();
        for want in ["a.one", "b.one", "a.two"] {
            assert!(names.contains(&want), "missing {want} in {names:?}");
        }
    }

    #[test]
    fn follow_from_links_are_recorded_and_deduplicated() {
        let _g = guard();
        enable();
        clear_spans();
        {
            let member = span("member");
            let src = member.id().expect("recording");
            let mut flush = span_under("flush", None);
            flush.follow_from(src);
            flush.follow_from(src);
        }
        disable();
        let spans = spans_snapshot();
        let member = spans.iter().find(|s| s.name == "member").expect("member");
        let flush = spans.iter().find(|s| s.name == "flush").expect("flush");
        assert_eq!(flush.follows, vec![member.id]);
        assert_eq!(flush.parent, None, "explicit parent overrides the open stack");
    }
}
