//! End-to-end fault-injection tests for the fault-tolerant query path.
//!
//! The simulated cluster (see `tiptoe-net::fault`) injects crashes,
//! stragglers, corruption, and truncation deterministically from a
//! seeded [`FaultPlan`]; the coordinator recovers with timeouts,
//! bounded retries, and hedged requests per [`FaultPolicy`]. These
//! tests drive full private searches through that machinery: a shard
//! it rescues leaves the answer bit-identical, and one still down
//! after the policy is spent fails the query with
//! [`ServeError::ShardFailed`].

use std::time::Duration;

use tiptoe_core::client::{QueryOptions, SearchResults, TiptoeClient};
use tiptoe_core::config::TiptoeConfig;
use tiptoe_core::instance::TiptoeInstance;
use tiptoe_corpus::synth::{generate, CorpusConfig};
use tiptoe_embed::text::TextEmbedder;
use tiptoe_net::{FaultKind, FaultPlan, FaultPolicy, ServeError};
use tiptoe_obs::recorder::{Event, EventKind};

mod support;
use support::assert_shard_failed;

const DOCS: usize = 220;
const SEED: u64 = 51;

/// Builds matching instances; only the fault policy differs.
fn build(enabled: bool, num_shards: usize) -> TiptoeInstance<TextEmbedder> {
    build_with_policy(
        if enabled { Some(FaultPolicy::tolerant()) } else { None },
        num_shards,
    )
}

fn build_with_policy(
    policy: Option<FaultPolicy>,
    num_shards: usize,
) -> TiptoeInstance<TextEmbedder> {
    let corpus = generate(&CorpusConfig::small(DOCS, SEED), 20);
    let mut config = TiptoeConfig::test_small(DOCS, SEED);
    config.num_shards = num_shards;
    if let Some(policy) = policy {
        config.fault_policy = policy;
    }
    config.validate();
    let embedder = TextEmbedder::new(config.d_embed, SEED, 0);
    TiptoeInstance::build(&config, embedder, &corpus)
}

/// The tolerant policy with hedging off, so first-attempt faults must
/// go through the retry path instead of being absorbed by the hedge.
fn no_hedge() -> FaultPolicy {
    FaultPolicy { hedge_after: None, ..FaultPolicy::tolerant() }
}

fn client(instance: &TiptoeInstance<TextEmbedder>) -> TiptoeClient {
    instance.new_client(7)
}

fn with_faults(plan: &FaultPlan) -> QueryOptions<'_> {
    QueryOptions { faults: Some(plan), ..Default::default() }
}

/// One direct search under an explicit fault plan.
fn search_with_faults(
    client: &mut TiptoeClient,
    instance: &TiptoeInstance<TextEmbedder>,
    query: &str,
    k: usize,
    plan: &FaultPlan,
) -> SearchResults {
    client.query(instance, query, k, with_faults(plan)).expect("the policy rescues every shard")
}

/// Runs `query` under `plan`, which must fail it with `want`, after
/// an answered run of the same query gives the phase sizes to check
/// the failed one's bytes against (see [`assert_shard_failed`]).
fn fails_with(
    instance: &TiptoeInstance<TextEmbedder>,
    query: &str,
    plan: &FaultPlan,
    want: ServeError,
) -> Vec<Event> {
    let healthy = search_with_faults(&mut client(instance), instance, query, 10, &FaultPlan::none());
    let opts = with_faults(plan);
    assert_shard_failed(instance, &mut client(instance), query, opts, &healthy.cost, want)
}

#[test]
fn benign_plan_results_are_bit_identical_to_the_plain_path() {
    // Acceptance bar: with no faults injected, the fault-tolerant path
    // (timeouts, retries and hedges armed) returns byte-for-byte the
    // hits of the raw fan-out.
    let plain = build(false, 3);
    let tolerant = build(true, 3);
    let mut c_plain = client(&plain);
    let mut c_tol = client(&tolerant);
    for query in ["museum history archive", "health doctor symptoms", "travel island beach"] {
        let a = c_plain.search(&plain, query, 10);
        let b = search_with_faults(&mut c_tol, &tolerant, query, 10, &FaultPlan::none());
        assert_eq!(a.cluster, b.cluster, "{query}: cluster drifted");
        assert_eq!(a.hits, b.hits, "{query}: hits drifted");
        let (rank, url) = (&b.cost.rank_faults, &b.cost.url_faults);
        assert!(rank.all_ok() && url.all_ok());
        assert_eq!(rank.retries + url.retries, 0);
    }
}

#[test]
fn crashed_shard_plus_straggler_degrades_within_the_deadline() {
    // The headline scenario: one ranking shard is hard-crashed and
    // another is 10x slow. The hedge rescues the straggler, the crash
    // burns every retry inside the policy deadline, and the query
    // fails naming the crashed shard: the summed token decrypts only
    // the sum over every shard.
    let tolerant = build(true, 3);
    let policy = tolerant.config.fault_policy;
    let (crashed, straggler) = (1, 2);
    let plan = FaultPlan::none().crash_shard(crashed).with_fault(
        straggler,
        0,
        FaultKind::Straggle { factor: 10.0, extra: Duration::from_secs(10) },
    );

    let want = ServeError::ShardFailed { shard: crashed, failed: 1 };
    let timeline = fails_with(&tolerant, "museum history archive", &plan, want);

    // The failed query's shard outcomes, from its recorder timeline:
    // `a` = shard, `b` bit 0 = ok and bit 1 = hedged, `c` = attempts,
    // `d` = wall in µs.
    let outcomes: Vec<_> =
        timeline.iter().filter(|e| e.kind == EventKind::ShardOutcome).collect();
    assert_eq!(outcomes.len(), 3, "the whole fan-out ran: {outcomes:?}");
    let crash = outcomes[crashed];
    assert_eq!(crash.b & 1, 0, "the crashed shard never delivered");
    assert_eq!(crash.c, u64::from(policy.max_retries) + 1, "the crash burned every retry");
    let slow = outcomes[straggler];
    assert_eq!(slow.b, 0b11, "the straggler was rescued by the hedged second request");
    assert!(outcomes.iter().all(|e| e.d <= policy.deadline.as_micros() as u64));
}

#[test]
fn hedged_request_beats_a_ten_x_straggler() {
    // Deterministic hedging proof: the straggler's first attempt is
    // 10x slow (plus a 10 s fixed delay, far beyond any timeout), so
    // only the hedge can save the shard — and it must, well before the
    // attempt timeout would even expire.
    let tolerant = build(true, 3);
    let policy = tolerant.config.fault_policy;
    let hedge_after = policy.hedge_after.expect("default policy hedges");
    let plan = FaultPlan::none().with_fault(
        1,
        0,
        FaultKind::Straggle { factor: 10.0, extra: Duration::from_secs(10) },
    );
    let results = search_with_faults(&mut client(&tolerant), &tolerant, "travel island beach", 5, &plan);
    let rank = &results.cost.rank_faults;
    assert!(rank.all_ok(), "hedge must rescue the straggler");
    assert_eq!(rank.retries, 0, "no retry: the hedge races the primary");
    assert!(rank.hedges >= 1);
    assert!(rank.shards[1].hedged);
    assert!(rank.shards[1].wall >= hedge_after);
    assert!(rank.timing.wall <= policy.deadline);
    assert!(!results.hits.is_empty());
}

#[test]
fn flaky_shard_recovers_via_retry() {
    let plain = build(false, 3);
    let tolerant = build_with_policy(Some(no_hedge()), 3);
    let query = "health doctor symptoms";
    let reference = client(&plain).search(&plain, query, 10);
    let plan = FaultPlan::none().flaky_then_recover(2, 1);
    let results = search_with_faults(&mut client(&tolerant), &tolerant, query, 10, &plan);
    let rank = &results.cost.rank_faults;
    assert!(rank.all_ok(), "one crash then recovery must succeed");
    assert!(rank.retries >= 1);
    assert_eq!(results.hits, reference.hits, "recovered run matches the healthy run");
}

#[test]
fn corrupted_and_truncated_responses_are_rejected_and_retried() {
    let plain = build(false, 3);
    let tolerant = build_with_policy(Some(no_hedge()), 3);
    let query = "recipe kitchen cooking";
    let reference = client(&plain).search(&plain, query, 10);
    let plan = FaultPlan::none()
        .with_fault(0, 0, FaultKind::Corrupt)
        .with_fault(1, 0, FaultKind::Truncate);
    let results = search_with_faults(&mut client(&tolerant), &tolerant, query, 10, &plan);
    let rank = &results.cost.rank_faults;
    assert!(rank.all_ok());
    assert!(rank.corrupted >= 2, "both tampered responses must be caught");
    assert!(rank.retries >= 2);
    assert!(
        rank.wasted_response_bytes > 0,
        "rejected responses must be charged to the retry ledger"
    );
    assert_eq!(results.hits, reference.hits);
    // Wasted bytes surfaced in the shared transcript.
    use tiptoe_net::{Direction, Phase};
    assert_eq!(
        tolerant.transcript.phase_total(Phase::RankingRetries, Direction::Download),
        rank.wasted_response_bytes
    );
}

#[test]
fn url_server_crash_degrades_to_empty_hits_not_a_panic() {
    // The URL server lives at plan address W, after the ranking
    // shards. Crashing it fails the query at the URL phase, typed and
    // named, after both phases moved their full fixed-size bytes (the
    // observable wire footprint must not depend on faults).
    let tolerant = build(true, 3);
    let url_addr = tolerant.ranking.num_shards();
    let plan = FaultPlan::none().crash_shard(url_addr);
    let want = ServeError::ShardFailed { shard: url_addr, failed: 1 };
    let timeline = fails_with(&tolerant, "museum history archive", &plan, want);
    let outcomes: Vec<(u64, u64)> = timeline
        .iter()
        .filter(|e| e.kind == EventKind::ShardOutcome)
        .map(|e| (e.a, e.b & 1))
        .collect();
    assert_eq!(outcomes, vec![(0, 1), (1, 1), (2, 1), (3, 0)], "ranking shards were healthy");
}

#[test]
fn searched_cluster_crash_is_reported_and_scores_zero() {
    // When the searched cluster's own shard dies the client must not
    // return garbage rankings: the query fails naming that shard,
    // exactly as a crash of any other shard does.
    let tolerant = build(true, 3);
    let query = "travel island beach";
    // Find the shard that owns the searched cluster via a benign probe.
    let probe = search_with_faults(&mut client(&tolerant), &tolerant, query, 5, &FaultPlan::none());
    let owner = (0..tolerant.ranking.num_shards())
        .find(|&w| {
            let (lo, hi) = tolerant.ranking.shard_clusters(w);
            (lo..hi).contains(&probe.cluster)
        })
        .expect("cluster has a shard");
    let plan = FaultPlan::none().crash_shard(owner);
    fails_with(&tolerant, query, &plan, ServeError::ShardFailed { shard: owner, failed: 1 });
}

#[test]
fn all_ranking_shards_down_still_returns_cleanly() {
    let tolerant = build(true, 2);
    let plan = FaultPlan::none().crash_shard(0).crash_shard(1);
    fails_with(&tolerant, "health doctor", &plan, ServeError::ShardFailed { shard: 0, failed: 2 });
}
