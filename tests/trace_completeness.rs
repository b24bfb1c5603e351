//! Trace-completeness suite: every query served through the
//! coalescing plane must own a span tree rooted at `client.query`
//! from which the shared flush spans (and the kernel work under them)
//! are reachable — via parent edges or the flush's *follows* links —
//! with zero orphans, at any cohort size. The tracing switch and the
//! span-sampling rate must never change results, and the flight
//! recorder keeps per-query timelines even for queries the sampler
//! traced out.
//!
//! The obs span buffer, recorder ring, and metrics registry are
//! process-global, so these tests serialize on a mutex and reset the
//! relevant state before each scenario.

use std::collections::{HashMap, HashSet};
use std::sync::{Mutex, MutexGuard};

use tiptoe_core::config::TiptoeConfig;
use tiptoe_core::instance::TiptoeInstance;
use tiptoe_corpus::synth::{generate, Corpus, CorpusConfig};
use tiptoe_embed::text::TextEmbedder;
use tiptoe_obs::recorder::{self, EventKind};
use tiptoe_obs::SpanRecord;

const DOCS: usize = 200;
const SEED: u64 = 83;
const SHARDS: usize = 3;

/// Serializes tests touching the global obs state and resets tracing,
/// sampling, spans, and the flight recorder on entry and exit.
struct ObsGuard(#[allow(dead_code)] MutexGuard<'static, ()>);

fn obs_lock() -> ObsGuard {
    static LOCK: Mutex<()> = Mutex::new(());
    let guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    reset_obs();
    ObsGuard(guard)
}

impl Drop for ObsGuard {
    fn drop(&mut self) {
        reset_obs();
    }
}

fn reset_obs() {
    tiptoe_obs::disable();
    tiptoe_obs::set_trace_path(None);
    tiptoe_obs::set_span_sample(1);
    tiptoe_obs::clear_spans();
    recorder::reset();
}

fn build() -> (Corpus, TiptoeInstance<TextEmbedder>) {
    let corpus = generate(&CorpusConfig::small(DOCS, SEED), 24);
    let mut config = TiptoeConfig::test_small(DOCS, SEED);
    config.num_shards = SHARDS;
    config.validate();
    let embedder = TextEmbedder::new(config.d_embed, SEED, 0);
    let instance = TiptoeInstance::build(&config, embedder, &corpus);
    (corpus, instance)
}

/// Runs `clients` concurrent served searches (one query each) and
/// returns their (cluster, hits) results in client order.
///
/// The driver thread holds an open query scope for the whole cohort:
/// a client whose scope opens while no other query is active clears
/// the span buffer (the intended boundary semantics for sequential
/// CLI queries), so on a loaded box where the cohort's threads
/// serialize, a later client would wipe an earlier client's spans and
/// the completeness asserts would see missing roots.
fn run_cohort(
    corpus: &Corpus,
    instance: &TiptoeInstance<TextEmbedder>,
    clients: usize,
) -> Vec<(usize, Vec<tiptoe_core::client::RankedUrl>)> {
    let _cohort_scope = tiptoe_obs::query_scope();
    let plane = instance.serving_plane();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|i| {
                let (plane, corpus, instance) = (&plane, corpus, instance);
                scope.spawn(move || {
                    let mut c = instance.new_client(700 + i as u64);
                    let q = &corpus.queries[i % corpus.queries.len()];
                    let r = c
                        .try_search_served(instance, &q.text, 10, plane)
                        .expect("admission is off");
                    (r.cluster, r.hits)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread")).collect()
    })
}

/// Ids reachable from the `client.query` roots by following parent
/// edges downward and *follows* edges forward, to a fixpoint.
fn reachable_from_roots(spans: &[SpanRecord]) -> HashSet<u64> {
    let mut reachable: HashSet<u64> =
        spans.iter().filter(|s| s.name == "client.query").map(|s| s.id).collect();
    loop {
        let before = reachable.len();
        for s in spans {
            if reachable.contains(&s.id) {
                continue;
            }
            let via_parent = s.parent.is_some_and(|p| reachable.contains(&p));
            let via_follows = s.follows.iter().any(|f| reachable.contains(f));
            if via_parent || via_follows {
                reachable.insert(s.id);
            }
        }
        if reachable.len() == before {
            return reachable;
        }
    }
}

/// Asserts the snapshot is a complete forest for `clients` queries:
/// one `client.query` root per query, flush spans present and linked
/// to every batched member, and no span unreachable from the roots.
fn assert_complete(spans: &[SpanRecord], clients: usize) {
    let roots: Vec<&SpanRecord> = spans.iter().filter(|s| s.name == "client.query").collect();
    assert_eq!(roots.len(), clients, "one client.query root per query");
    for r in &roots {
        assert!(r.parent.is_none(), "client.query must be a root span");
    }

    let flushes: Vec<&SpanRecord> =
        spans.iter().filter(|s| s.name == "net.coalesce.flush").collect();
    assert!(!flushes.is_empty(), "served queries must record flush spans");
    for f in &flushes {
        assert!(
            f.parent.is_some(),
            "a flush span must be parented under its delegate's submission"
        );
        assert!(!f.follows.is_empty(), "a flush span must follow from its batched members");
    }
    // The kernel work runs *under* the flush spans, not beside them.
    let by_id: HashMap<u64, &SpanRecord> = spans.iter().map(|s| (s.id, s)).collect();
    let flush_ids: HashSet<u64> = flushes.iter().map(|f| f.id).collect();
    assert!(
        spans.iter().any(|s| s.parent.is_some_and(|p| flush_ids.contains(&p))),
        "flush spans must have kernel children"
    );

    let reachable = reachable_from_roots(spans);
    let orphans: Vec<String> = spans
        .iter()
        .filter(|s| !reachable.contains(&s.id))
        .map(|s| {
            let parent = s.parent.and_then(|p| by_id.get(&p)).map(|p| p.display_name());
            format!("{} (parent {:?}, follows {:?})", s.display_name(), parent, s.follows)
        })
        .collect();
    assert!(orphans.is_empty(), "{} orphan spans: {:?}", orphans.len(), orphans);
}

/// Every query in a coalesced cohort — below, at, and well past the
/// coalescer's batch size — yields a span tree rooted at its own
/// `client.query`, with the shared flush spans reachable through the
/// delegated-flush path and zero orphans (the defect this suite
/// pins: flush spans used to be parentless on the delegate's
/// thread-local stack).
#[test]
fn every_coalesced_query_yields_a_complete_span_tree() {
    let _guard = obs_lock();
    let (corpus, instance) = build();
    for clients in [1usize, 3, 19] {
        tiptoe_obs::clear_spans();
        tiptoe_obs::enable();
        let results = run_cohort(&corpus, &instance, clients);
        let spans = tiptoe_obs::spans_snapshot();
        tiptoe_obs::disable();
        assert_eq!(results.len(), clients);
        assert!(!spans.is_empty(), "tracing enabled but no spans recorded");
        assert_complete(&spans, clients);
    }
}

/// The tracing switch is behaviorally invisible through the
/// delegated-flush path: the same cohort traced and untraced returns
/// bit-identical clusters and hits.
#[test]
fn tracing_switch_never_changes_coalesced_results() {
    let _guard = obs_lock();
    let (corpus, instance) = build();
    let clients = 7usize;
    let untraced = run_cohort(&corpus, &instance, clients);
    tiptoe_obs::enable();
    let traced = run_cohort(&corpus, &instance, clients);
    tiptoe_obs::disable();
    assert_eq!(untraced, traced, "tracing on/off must be bit-identical");
}

/// Span sampling (`TIPTOE_TRACE_SAMPLE`) composes with the flight
/// recorder: a sampled-out query records no spans but still gets a
/// full per-query timeline (lane events plus its typed outcome), and
/// sampling never changes results or the transcript's wire
/// accounting.
#[test]
fn sampled_out_queries_still_get_recorder_timelines() {
    let _guard = obs_lock();
    let (corpus, instance) = build();
    let q = &corpus.queries[0];

    // Baseline: trace every query.
    let plane = instance.serving_plane();
    let baseline = {
        let mut c = instance.new_client(900);
        c.try_search_served(&instance, &q.text, 10, &plane).expect("admission is off")
    };

    // 1-in-1000 sampling: queries after the first are sampled out.
    tiptoe_obs::enable();
    tiptoe_obs::set_span_sample(1000);
    recorder::reset();
    let up_before = instance.transcript.total(tiptoe_net::Direction::Upload);
    let down_before = instance.transcript.total(tiptoe_net::Direction::Download);
    let mut c = instance.new_client(901);
    let first = c.try_search_served(&instance, &q.text, 10, &plane).expect("admission is off");
    tiptoe_obs::clear_spans();
    let mut c = instance.new_client(900);
    let sampled_out = c.try_search_served(&instance, &q.text, 10, &plane).expect("admission is off");
    let spans = tiptoe_obs::spans_snapshot();
    tiptoe_obs::disable();
    tiptoe_obs::set_span_sample(1);

    // The sampler actually suppressed the second query's spans ...
    assert!(
        !spans.iter().any(|s| s.name == "client.query"),
        "the sampled-out query must record no spans"
    );
    // ... without changing what either query returned or shipped.
    assert_eq!(sampled_out.hits, baseline.hits, "sampling must not change results");
    assert_eq!(first.hits, baseline.hits, "the sampled query must match too");
    assert_eq!(
        sampled_out.cost.rank_up, baseline.cost.rank_up,
        "sampling must not change wire accounting"
    );
    assert_eq!(sampled_out.cost.rank_down, baseline.cost.rank_down);
    assert!(
        instance.transcript.total(tiptoe_net::Direction::Upload) > up_before
            && instance.transcript.total(tiptoe_net::Direction::Download) > down_before,
        "both queries reached the transcript"
    );

    // The flight recorder is always on: both queries (the traced one
    // and the sampled-out one) own complete timelines ending in an OK
    // outcome, with the coalescer's lane events inside.
    let finished: Vec<u64> = recorder::events()
        .into_iter()
        .filter(|e| e.kind == EventKind::Finished)
        .map(|e| e.query)
        .collect();
    assert!(
        finished.len() >= 2,
        "both queries must close their timelines (got {finished:?})"
    );
    for query in finished.iter().rev().take(2) {
        let timeline = recorder::timeline(*query);
        assert!(
            timeline.iter().any(|e| e.kind == EventKind::LaneEnqueued),
            "query {query} timeline lacks lane events: {timeline:?}"
        );
        assert!(
            timeline.iter().any(|e| e.kind == EventKind::LaneFlushed),
            "query {query} timeline lacks flush events: {timeline:?}"
        );
        let last = timeline.last().expect("non-empty timeline");
        assert_eq!(last.kind, EventKind::Finished);
        assert_eq!(last.a, tiptoe_obs::recorder::result_code::OK);
    }
}

/// Under 1-in-N sampling a coalesced batch keeps its flush span, and
/// the kernel spans under it, when the member that flushes it was
/// sampled out: the flush runs as the first member whose submission
/// span was recorded.
#[test]
fn a_flush_run_by_a_sampled_out_member_is_traced_for_the_sampled_one() {
    use std::sync::atomic::AtomicUsize;
    use std::sync::Arc;
    use std::time::Duration;
    use tiptoe_net::{CoalescePolicy, Coalescer};

    let _guard = obs_lock();
    tiptoe_obs::enable();
    // The next query minted is sampled, the one after it is not.
    tiptoe_obs::set_span_sample(2);
    let policy = CoalescePolicy { max_batch: 2, max_wait: Duration::from_secs(10) };
    // Two submitters in flight: the first parks, the second fills the
    // batch and flushes it on its own thread.
    let kernel = |reqs: Vec<u64>| {
        let _kernel = tiptoe_obs::span("kernel");
        reqs
    };
    let lane = Coalescer::new(policy, kernel).with_cohort(Arc::new(AtomicUsize::new(2)));
    std::thread::scope(|scope| {
        let lane = &lane;
        scope.spawn(move || {
            let _query = tiptoe_obs::query_scope();
            let _member = tiptoe_obs::span("member.sampled");
            assert_eq!(lane.submit(1), 1);
        });
        while lane.lane_status().queued == 0 {
            std::thread::yield_now();
        }
        let _query = tiptoe_obs::query_scope();
        assert!(!tiptoe_obs::enabled(), "the flushing member is sampled out");
        assert_eq!(lane.submit(2), 2);
    });
    let spans = tiptoe_obs::spans_snapshot();
    tiptoe_obs::disable();
    let member = spans.iter().find(|s| s.name == "member.sampled").expect("sampled member span");
    let flush = spans
        .iter()
        .find(|s| s.name == "net.coalesce.flush")
        .expect("the batch's flush span is recorded for its sampled member");
    assert_eq!(flush.parent, Some(member.id));
    assert_eq!(flush.follows, [member.id]);
    assert_eq!(flush.display_name(), "net.coalesce.flush[full]");
    let kernel = spans.iter().find(|s| s.name == "kernel").expect("the flush's kernel span");
    assert_eq!(kernel.parent, Some(flush.id));
}
