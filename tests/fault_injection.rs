//! End-to-end fault-injection tests for the degraded-mode query path.
//!
//! The simulated cluster (see `tiptoe-net::fault`) injects crashes,
//! stragglers, corruption, and truncation deterministically from a
//! seeded [`FaultPlan`]; the coordinator recovers with timeouts,
//! bounded retries, and hedged requests per [`FaultPolicy`]. These
//! tests drive full private searches through that machinery.

use std::time::Duration;

use tiptoe_core::client::{QueryOptions, SearchResults, TiptoeClient};
use tiptoe_core::config::TiptoeConfig;
use tiptoe_core::instance::TiptoeInstance;
use tiptoe_corpus::synth::{generate, CorpusConfig};
use tiptoe_embed::text::TextEmbedder;
use tiptoe_net::{FaultKind, FaultPlan, FaultPolicy};

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

/// One direct search under an explicit fault plan.
fn search_with_faults(
    client: &mut TiptoeClient,
    instance: &TiptoeInstance<TextEmbedder>,
    query: &str,
    k: usize,
    plan: &FaultPlan,
) -> SearchResults {
    client
        .query(instance, query, k, QueryOptions { faults: Some(plan), ..Default::default() })
        .expect("unbudgeted search cannot fail")
}

#[test]
fn benign_plan_results_are_bit_identical_to_the_plain_path() {
    // Acceptance bar: with no faults injected, the fault-tolerant path
    // (per-shard tokens, enveloped dispatch, survivor-subset
    // decryption) returns byte-for-byte the hits of the raw fan-out.
    let plain = build(false, 3);
    let tolerant = build(true, 3);
    let mut c_plain = client(&plain);
    let mut c_tol = client(&tolerant);
    for query in ["museum history archive", "health doctor symptoms", "travel island beach"] {
        let a = c_plain.search(&plain, query, 10);
        let b = search_with_faults(&mut c_tol, &tolerant, query, 10, &FaultPlan::none());
        assert_eq!(a.cluster, b.cluster, "{query}: cluster drifted");
        assert_eq!(a.hits, b.hits, "{query}: hits drifted");
        let dq = b.degraded.expect("fault-tolerant searches report degraded state");
        assert!(dq.missing_clusters.is_empty());
        assert!(!dq.url_failed && !dq.searched_cluster_missing);
        assert!(dq.rank_report.all_ok() && dq.url_report.all_ok());
        assert_eq!(dq.rank_report.retries + dq.url_report.retries, 0);
    }
}

#[test]
fn crashed_shard_plus_straggler_degrades_within_the_deadline() {
    // The headline scenario: one ranking shard is hard-crashed and
    // another is 10x slow. The query must still complete within the
    // policy deadline, return ranked results over the surviving
    // shards, and report exactly the crashed shard's clusters missing.
    let plain = build(false, 3);
    let tolerant = build(true, 3);
    let policy = tolerant.config.fault_policy;
    let query = "museum history archive";

    // Learn which shard owns the searched cluster, then crash one of
    // the *other* shards so the searched scores survive.
    let reference = client(&plain).search(&plain, query, 10);
    let owner = (0..tolerant.ranking.num_shards())
        .find(|&w| {
            let (lo, hi) = tolerant.ranking.shard_clusters(w);
            (lo..hi).contains(&reference.cluster)
        })
        .expect("every cluster has a shard");
    let crashed = (owner + 1) % tolerant.ranking.num_shards();
    let straggler = (owner + 2) % tolerant.ranking.num_shards();
    let plan = FaultPlan::none().crash_shard(crashed).with_fault(
        straggler,
        0,
        FaultKind::Straggle { factor: 10.0, extra: Duration::from_secs(10) },
    );

    let results = search_with_faults(&mut client(&tolerant), &tolerant, query, 10, &plan);
    let dq = results.degraded.expect("degraded state");

    // Ranked results over the surviving shards, identical to the
    // healthy run (the searched cluster's shard answered).
    assert_eq!(results.cluster, reference.cluster);
    assert_eq!(results.hits, reference.hits);
    assert!(!dq.searched_cluster_missing);

    // Exactly the crashed shard's clusters are reported missing.
    let (lo, hi) = tolerant.ranking.shard_clusters(crashed);
    assert_eq!(dq.missing_clusters, (lo..hi).collect::<Vec<_>>());
    assert_eq!(dq.rank_report.failed_shards(), vec![crashed]);

    // The crash burned every retry; the straggler was rescued by the
    // hedged second request. Everything stayed inside the deadline.
    assert!(dq.rank_report.retries >= policy.max_retries);
    assert!(dq.rank_report.timeouts > policy.max_retries);
    assert!(dq.rank_report.hedges >= 1, "straggler should have hedged");
    assert!(
        dq.rank_report.timing.wall <= policy.deadline,
        "virtual wall {:?} blew the deadline {:?}",
        dq.rank_report.timing.wall,
        policy.deadline
    );
    assert!(dq.url_report.all_ok() && !dq.url_failed);
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
    let dq = results.degraded.expect("degraded state");
    assert!(dq.rank_report.all_ok(), "hedge must rescue the straggler");
    assert_eq!(dq.rank_report.retries, 0, "no retry: the hedge races the primary");
    assert!(dq.rank_report.hedges >= 1);
    assert!(dq.rank_report.shards[1].hedged);
    assert!(dq.rank_report.shards[1].wall >= hedge_after);
    assert!(dq.rank_report.timing.wall <= policy.deadline);
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
    let dq = results.degraded.expect("degraded state");
    assert!(dq.rank_report.all_ok(), "one crash then recovery must succeed");
    assert!(dq.rank_report.retries >= 1);
    assert!(dq.missing_clusters.is_empty());
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
    let dq = results.degraded.expect("degraded state");
    assert!(dq.rank_report.all_ok());
    assert!(dq.rank_report.corrupted >= 2, "both tampered responses must be caught");
    assert!(dq.rank_report.retries >= 2);
    assert!(
        dq.rank_report.wasted_response_bytes > 0,
        "rejected responses must be charged to the retry ledger"
    );
    assert_eq!(results.hits, reference.hits);
    // Wasted bytes surfaced in the shared transcript.
    use tiptoe_net::{Direction, Phase};
    assert_eq!(
        tolerant.transcript.phase_total(Phase::RankingRetries, Direction::Download),
        dq.rank_report.wasted_response_bytes
    );
}

#[test]
fn url_server_crash_degrades_to_empty_hits_not_a_panic() {
    // The URL server lives at plan address W, after the ranking
    // shards. Crashing it must not lose the ranking answer: the query
    // completes, flags `url_failed`, and returns no hits.
    let tolerant = build(true, 3);
    let url_addr = tolerant.ranking.num_shards();
    let plan = FaultPlan::none().crash_shard(url_addr);
    let results = search_with_faults(&mut client(&tolerant), &tolerant, "museum history archive", 5, &plan);
    let dq = results.degraded.expect("degraded state");
    assert!(dq.rank_report.all_ok(), "ranking shards were healthy");
    assert!(dq.url_failed);
    assert!(!dq.url_report.all_ok());
    assert!(results.hits.is_empty());
    // The accounted download is the full-phase size even on failure
    // (the observable wire footprint must not depend on faults).
    assert_eq!(results.cost.url_down, (tolerant.url.database().rows() * 4) as u64);
}

#[test]
fn searched_cluster_crash_is_reported_and_scores_zero() {
    // When the searched cluster's own shard dies, the client must say
    // so rather than silently returning garbage rankings.
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
    let results = search_with_faults(&mut client(&tolerant), &tolerant, query, 5, &plan);
    let dq = results.degraded.expect("degraded state");
    assert!(dq.searched_cluster_missing);
    assert!(dq.missing_clusters.contains(&results.cluster));
    // Surviving-shard scores are exact zeros for the dead cluster, so
    // every surfaced hit carries a zero score.
    for hit in &results.hits {
        assert_eq!(hit.score, 0.0, "dead cluster must not fabricate scores");
    }
}

#[test]
fn all_ranking_shards_down_still_returns_cleanly() {
    let tolerant = build(true, 2);
    let plan = FaultPlan::none().crash_shard(0).crash_shard(1);
    let results = search_with_faults(&mut client(&tolerant), &tolerant, "health doctor", 5, &plan);
    let dq = results.degraded.expect("degraded state");
    assert_eq!(dq.rank_report.failed_shards().len(), 2);
    assert!(dq.searched_cluster_missing);
    let total_clusters = tolerant.ranking.shard_clusters(1).1;
    assert_eq!(dq.missing_clusters.len(), total_clusters);
    for hit in &results.hits {
        assert_eq!(hit.score, 0.0);
    }
}
