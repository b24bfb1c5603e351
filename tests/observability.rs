//! Integration tests for the unified tracing & metrics layer
//! (`tiptoe-obs`): span-tree determinism across thread counts,
//! metrics/Transcript agreement, and zero behavioral impact of the
//! tracing switch.
//!
//! The obs registry and span buffer are process-global, so these tests
//! serialize on a mutex and reset both before each scenario.

use std::sync::{Mutex, MutexGuard};

use tiptoe_core::client::SearchResults;
use tiptoe_core::config::TiptoeConfig;
use tiptoe_core::instance::TiptoeInstance;
use tiptoe_corpus::synth::{generate, CorpusConfig};
use tiptoe_embed::text::TextEmbedder;
use tiptoe_net::{Direction, Phase};

/// Serializes tests touching the global obs state, and leaves tracing
/// disabled afterwards whichever way the test exits.
struct ObsGuard(#[allow(dead_code)] MutexGuard<'static, ()>);

fn obs_lock() -> ObsGuard {
    static LOCK: Mutex<()> = Mutex::new(());
    let guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    tiptoe_obs::disable();
    tiptoe_obs::set_trace_path(None);
    tiptoe_obs::clear_spans();
    tiptoe_obs::metrics().reset();
    ObsGuard(guard)
}

impl Drop for ObsGuard {
    fn drop(&mut self) {
        tiptoe_obs::disable();
        tiptoe_obs::set_trace_path(None);
        tiptoe_obs::clear_spans();
    }
}

const DOCS: usize = 120;
const SEED: u64 = 17;
const QUERY: &str = "museum history archive";

fn build(num_threads: usize) -> TiptoeInstance<TextEmbedder> {
    let corpus = generate(&CorpusConfig::small(DOCS, SEED), 4);
    let mut config = TiptoeConfig::test_small(DOCS, SEED);
    config.parallelism.num_threads = num_threads;
    let embedder = TextEmbedder::new(config.d_embed, SEED, 0);
    TiptoeInstance::build(&config, embedder, &corpus)
}

fn run_query(instance: &TiptoeInstance<TextEmbedder>) -> SearchResults {
    let mut client = instance.new_client(1);
    client.search(instance, QUERY, 10)
}

/// The span tree as (name, parent-name) pairs in completion order —
/// the thread-count-independent shape of a trace.
fn tree_shape(spans: &[tiptoe_obs::SpanRecord]) -> Vec<(String, Option<String>)> {
    let by_id: std::collections::HashMap<u64, &tiptoe_obs::SpanRecord> =
        spans.iter().map(|s| (s.id, s)).collect();
    spans
        .iter()
        .map(|s| {
            let parent =
                s.parent.and_then(|p| by_id.get(&p)).map(|p| p.display_name());
            (s.display_name(), parent)
        })
        .collect()
}

#[test]
fn span_tree_is_deterministic_across_thread_counts() {
    let _guard = obs_lock();
    let shapes: Vec<Vec<(String, Option<String>)>> = [1usize, 0]
        .iter()
        .map(|&threads| {
            let instance = build(threads);
            tiptoe_obs::enable();
            let _ = run_query(&instance);
            let spans = tiptoe_obs::spans_snapshot();
            tiptoe_obs::disable();
            tiptoe_obs::clear_spans();
            assert!(!spans.is_empty(), "tracing enabled but no spans recorded");
            tree_shape(&spans)
        })
        .collect();
    assert_eq!(
        shapes[0], shapes[1],
        "span names and parentage must not depend on the kernel thread count"
    );

    // The trace covers every client phase and the per-shard server work.
    let names: Vec<&str> = shapes[0].iter().map(|(n, _)| n.as_str()).collect();
    for want in [
        "client.query",
        "client.embed",
        "client.route",
        "client.encrypt",
        "client.rank_phase",
        "client.rank_decrypt",
        "client.url_phase",
        "client.token_fetch",
        "client.token_decrypt",
        "client.token_pad",
        "client.recover",
        "rank.answer",
        "rank.shard[0]",
        "url.answer",
        "lwe.matvec",
    ] {
        assert!(names.contains(&want), "missing span {want:?} in {names:?}");
    }
    // Phase spans must nest under the query root; the query pads are
    // computed with the token, not online.
    for (name, parent) in &shapes[0] {
        if name == "client.token_pad" {
            assert_eq!(parent.as_deref(), Some("client.token_fetch"));
        }
        if name.starts_with("client.") && name != "client.query" {
            assert!(
                parent.is_some(),
                "client phase span {name:?} must have a parent"
            );
        }
    }
}

#[test]
fn metrics_byte_counters_match_the_transcript_exactly() {
    let _guard = obs_lock();
    // The registry was reset by the lock; every byte the transcript
    // sees from here on is mirrored into the global counters.
    let instance = build(1);
    let _ = run_query(&instance);

    let m = tiptoe_obs::metrics();
    for phase in Phase::ALL {
        let up = m.counter_with("net.bytes_up", Some(phase.as_str().to_owned())).get();
        let down = m.counter_with("net.bytes_down", Some(phase.as_str().to_owned())).get();
        assert_eq!(
            up,
            instance.transcript.phase_total(phase, Direction::Upload),
            "upload counter for phase {phase} diverged from the transcript"
        );
        assert_eq!(
            down,
            instance.transcript.phase_total(phase, Direction::Download),
            "download counter for phase {phase} diverged from the transcript"
        );
    }
    let total_up: u64 =
        Phase::ALL.iter().map(|p| instance.transcript.phase_total(*p, Direction::Upload)).sum();
    let total_down: u64 = Phase::ALL
        .iter()
        .map(|p| instance.transcript.phase_total(*p, Direction::Download))
        .sum();
    assert_eq!(total_up, instance.transcript.total(Direction::Upload));
    assert_eq!(total_down, instance.transcript.total(Direction::Download));
    assert!(total_down > 0, "the query must have downloaded something");
}

#[test]
fn tracing_on_off_is_bit_identical() {
    let _guard = obs_lock();
    let baseline = {
        let instance = build(1);
        run_query(&instance)
    };
    let traced = {
        let instance = build(1);
        tiptoe_obs::enable();
        let r = run_query(&instance);
        tiptoe_obs::disable();
        tiptoe_obs::clear_spans();
        r
    };
    assert_eq!(baseline.cluster, traced.cluster);
    assert_eq!(baseline.hits, traced.hits, "tracing must not perturb results");
    let bits =
        |r: &SearchResults| r.hits.iter().map(|h| (h.doc, h.score.to_bits())).collect::<Vec<_>>();
    assert_eq!(bits(&baseline), bits(&traced));
}
