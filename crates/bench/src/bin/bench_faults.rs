//! Machine-readable robustness benchmark: drives full private searches
//! through the fault-injection layer (`tiptoe-net::fault`) at a sweep
//! of injected fault rates and writes `BENCH_faults.json` at the
//! repository root with client-perceived latency and MRR@100 per rate.
//!
//! ```text
//! cargo run --release -p tiptoe-bench --bin bench_faults [docs] [queries]
//! ```
//!
//! At rate 0.0 the harness additionally asserts the fault-tolerant
//! path is bit-identical to the plain fan-out (recovery must cost
//! nothing in quality when nothing fails). A query whose shard the
//! policy cannot recover fails with `ServeError::ShardFailed` and is
//! counted in its row's `failed_queries`.
//!
//! A second scenario drives the overload-safe serving plane at 2x its
//! admitted capacity: excess arrivals must shed with typed errors,
//! every admitted query must stay bit-identical to fault-free
//! serving, and the p99 deadline budget spent by admitted queries
//! must stay within the configured budget. A third crashes one
//! availability zone (two of the four ranking shards) for good: every
//! query needs every shard, so every query must fail with
//! `ShardFailed` naming the zone's first shard. All three are
//! recorded in the same JSON artifact.

use std::fmt::Write as _;
use std::sync::{Barrier, Mutex};
use std::time::Duration;

use tiptoe_core::client::QueryOptions;
use tiptoe_core::config::TiptoeConfig;
use tiptoe_core::instance::TiptoeInstance;
use tiptoe_corpus::synth::{generate, Corpus, CorpusConfig};
use tiptoe_embed::text::TextEmbedder;
use tiptoe_ir::metrics::QualityReport;
use tiptoe_ir::SearchHit;
use tiptoe_net::{FaultPlan, FaultPolicy, FaultRates, LinkModel, ServeError};

const SEED: u64 = 51;
const SHARDS: usize = 4;
const K: usize = 100;
const RATES: [f64; 4] = [0.0, 0.1, 0.25, 0.5];

struct RateRow {
    rate: f64,
    mrr: f64,
    mean_latency: Duration,
    max_latency: Duration,
    retries: u32,
    timeouts: u32,
    corrupted: u32,
    hedges: u32,
    failed_queries: usize,
}

fn build(corpus: &Corpus, docs: usize, policy: Option<FaultPolicy>) -> TiptoeInstance<TextEmbedder> {
    let mut config = TiptoeConfig::test_small(docs, SEED);
    config.num_shards = SHARDS;
    if let Some(policy) = policy {
        config.fault_policy = policy;
    }
    config.validate();
    let embedder = TextEmbedder::new(config.d_embed, SEED, 0);
    TiptoeInstance::build(&config, embedder, corpus)
}

fn to_ir_hits(hits: &[tiptoe_core::client::RankedUrl]) -> Vec<SearchHit> {
    hits.iter().map(|h| SearchHit { doc: h.doc, score: h.score }).collect()
}

fn main() {
    tiptoe_obs::init_from_env();
    let docs: usize = std::env::args().nth(1).and_then(|a| a.parse().ok()).unwrap_or(240);
    let queries: usize = std::env::args().nth(2).and_then(|a| a.parse().ok()).unwrap_or(20);
    println!("== bench_faults: latency/quality vs injected fault rate ==");
    println!("   {docs} docs, {queries} queries, {SHARDS} ranking shards, k={K}\n");

    let corpus = generate(&CorpusConfig::small(docs, SEED), queries);
    let relevant: Vec<u32> = corpus.queries.iter().map(|q| q.relevant).collect();
    let link = LinkModel::paper();

    let plain = build(&corpus, docs, None);
    let tolerant = build(&corpus, docs, Some(FaultPolicy::tolerant()));
    let policy = tolerant.config.fault_policy;

    // Baseline: the plain (fault-oblivious) path, and the rate-0.0
    // bit-identity check against it.
    let mut plain_client = plain.new_client(7);
    let mut check_client = tolerant.new_client(7);
    let mut plain_hits: Vec<Vec<tiptoe_core::client::RankedUrl>> = Vec::with_capacity(queries);
    let mut plain_clusters: Vec<usize> = Vec::with_capacity(queries);
    let plain_results: Vec<Vec<SearchHit>> = corpus
        .queries
        .iter()
        .map(|q| {
            let a = plain_client.search(&plain, &q.text, K);
            let benign = FaultPlan::none();
            let opts = QueryOptions { faults: Some(&benign), ..Default::default() };
            let b = check_client
                .query(&tolerant, &q.text, K, opts)
                .expect("unbudgeted search cannot fail");
            assert_eq!(a.cluster, b.cluster, "benign cluster drifted: {}", q.text);
            assert_eq!(a.hits, b.hits, "benign hits drifted: {}", q.text);
            let ir = to_ir_hits(&a.hits);
            plain_clusters.push(a.cluster);
            plain_hits.push(a.hits);
            ir
        })
        .collect();
    let baseline = QualityReport::evaluate(&plain_results, &relevant, K);
    println!("[ok] rate 0.0 is bit-identical to the plain path ({queries} queries)");
    println!("     baseline MRR@{K} = {:.3}\n", baseline.mrr);

    let mut rows: Vec<RateRow> = Vec::new();
    for (ri, &rate) in RATES.iter().enumerate() {
        let mut client = tolerant.new_client(7);
        let mut results: Vec<Vec<SearchHit>> = Vec::with_capacity(queries);
        let mut row = RateRow {
            rate,
            mrr: 0.0,
            mean_latency: Duration::ZERO,
            max_latency: Duration::ZERO,
            retries: 0,
            timeouts: 0,
            corrupted: 0,
            hedges: 0,
            failed_queries: 0,
        };
        let mut total_latency = Duration::ZERO;
        for (qi, query) in corpus.queries.iter().enumerate() {
            let plan = if rate == 0.0 {
                FaultPlan::none()
            } else {
                FaultPlan::from_rates(
                    SEED ^ (ri as u64) << 32 ^ qi as u64,
                    FaultRates::mixed(rate),
                )
            };
            let opts = QueryOptions { faults: Some(&plan), ..Default::default() };
            let r = match client.query(&tolerant, &query.text, K, opts) {
                Ok(r) => r,
                Err(ServeError::ShardFailed { .. }) => {
                    // No answer: the query ranks nothing.
                    row.failed_queries += 1;
                    results.push(Vec::new());
                    continue;
                }
                Err(e) => panic!("rate {rate}, query {qi}: unbudgeted search failed: {e:?}"),
            };
            let latency = r.cost.perceived_latency(&link);
            total_latency += latency;
            row.max_latency = row.max_latency.max(latency);
            let (rank, url) = (&r.cost.rank_faults, &r.cost.url_faults);
            row.retries += rank.retries + url.retries;
            row.timeouts += rank.timeouts + url.timeouts;
            row.corrupted += rank.corrupted + url.corrupted;
            row.hedges += rank.hedges + url.hedges;
            assert!(
                rank.timing.wall <= policy.deadline,
                "rate {rate}, query {qi}: ranking wall {:?} blew the deadline",
                rank.timing.wall
            );
            results.push(to_ir_hits(&r.hits));
        }
        let answered = queries - row.failed_queries;
        row.mean_latency = total_latency / answered.max(1) as u32;
        row.mrr = QualityReport::evaluate(&results, &relevant, K).mrr;
        rows.push(row);
    }

    // The zero-rate row matches the baseline exactly, with nothing
    // retried and nothing failed.
    assert!((rows[0].mrr - baseline.mrr).abs() < 1e-12, "rate 0.0 must match baseline MRR");
    assert_eq!(rows[0].retries, 0, "no faults, no retries");
    assert_eq!(rows[0].failed_queries, 0, "no faults, no failed queries");

    // --- Overload scenario: 2x offered load against a pinned
    // admission capacity. ---
    const CAPACITY: usize = 4;
    const WAVES: usize = 5;
    let mut over_config = TiptoeConfig::test_small(docs, SEED);
    over_config.num_shards = SHARDS;
    over_config.fault_policy = FaultPolicy::tolerant();
    over_config.admission.enabled = true;
    over_config.admission.max_inflight = CAPACITY; // operator-pinned capacity
    over_config.admission.queue_depth = 0;
    // A generous budget: the drive measures sheds, not deadlines.
    over_config.admission.deadline = Duration::from_secs(10);
    over_config.validate();
    let overloaded = TiptoeInstance::build(
        &over_config,
        TextEmbedder::new(over_config.d_embed, SEED, 0),
        &corpus,
    );
    let plane = overloaded.serving_plane();
    let ctrl = plane.admission().expect("admission enabled");
    let plan = FaultPlan::none();

    // Each wave releases 2x capacity concurrent clients at a barrier;
    // queries cycle through the corpus.
    let offered = WAVES * 2 * CAPACITY;
    let admitted_runs: Mutex<Vec<(usize, tiptoe_core::client::SearchResults)>> =
        Mutex::new(Vec::new());
    let mut shed = 0u64;
    let mut deadline_exceeded = 0u64;
    for wave in 0..WAVES {
        let barrier = Barrier::new(2 * CAPACITY);
        let wave_outcomes: Mutex<Vec<Result<(), ServeError>>> = Mutex::new(Vec::new());
        std::thread::scope(|scope| {
            for j in 0..2 * CAPACITY {
                let qi = (wave * 2 * CAPACITY + j) % queries;
                let (overloaded, plane, plan, barrier) = (&overloaded, &plane, &plan, &barrier);
                let (admitted_runs, wave_outcomes) = (&admitted_runs, &wave_outcomes);
                let text = &corpus.queries[qi].text;
                scope.spawn(move || {
                    let mut c = overloaded.new_client(1000 + (wave * 16 + j) as u64);
                    barrier.wait();
                    let opts = QueryOptions { probes: 1, faults: Some(plan), plane: Some(plane) };
                    let outcome = match c.query(overloaded, text, K, opts) {
                        Ok(r) => {
                            admitted_runs.lock().expect("runs lock").push((qi, r));
                            Ok(())
                        }
                        Err(e) => Err(e),
                    };
                    wave_outcomes.lock().expect("outcomes lock").push(outcome);
                });
            }
        });
        for outcome in wave_outcomes.into_inner().expect("outcomes lock") {
            match outcome {
                Ok(()) => {}
                Err(ServeError::Overloaded { .. }) => shed += 1,
                Err(ServeError::DeadlineExceeded { .. }) => deadline_exceeded += 1,
                Err(e) => panic!("unexpected typed error under overload: {e:?}"),
            }
        }
    }

    // Conservation: every offered query was answered or typed-failed
    // (a thread panic would have aborted the scope above).
    let admitted_runs = admitted_runs.into_inner().expect("runs lock");
    let admitted_ok = admitted_runs.len() as u64;
    assert_eq!(admitted_ok + shed + deadline_exceeded, offered as u64, "no query lost");
    assert_eq!(ctrl.admitted(), admitted_ok + deadline_exceeded, "controller admission ledger");
    assert_eq!(ctrl.sheds(), shed, "controller shed ledger");
    assert_eq!(overloaded.transcript.sheds(), shed, "transcript shed ledger");
    assert!(shed > 0, "2x offered load against a full plane must shed");
    assert!(admitted_ok as usize >= WAVES * CAPACITY, "each wave admits at least capacity");

    // Bit-identity of every admitted query, and budget-spent
    // percentiles across them.
    let mut spent_ms: Vec<f64> = Vec::with_capacity(admitted_runs.len());
    for (qi, r) in &admitted_runs {
        assert_eq!(r.cluster, plain_clusters[*qi], "query {qi}: admitted cluster drifted");
        assert_eq!(r.hits, plain_hits[*qi], "query {qi}: admitted query must stay bit-identical");
        let spent = r.cost.rank_faults.timing.wall + r.cost.url_faults.timing.wall;
        spent_ms.push(spent.as_secs_f64() * 1e3);
    }
    spent_ms.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    let pct = |p: f64| spent_ms[((spent_ms.len() as f64 * p).ceil() as usize - 1).min(spent_ms.len() - 1)];
    let (p50_spent, p99_spent) = (pct(0.50), pct(0.99));
    let deadline_ms = over_config.admission.deadline.as_secs_f64() * 1e3;
    assert!(
        p99_spent <= deadline_ms,
        "admitted p99 budget spend {p99_spent:.1} ms blew the {deadline_ms:.0} ms budget"
    );

    println!(
        "[ok] overload: {offered} offered, {admitted_ok} admitted (all bit-identical), \
         {shed} shed, {deadline_exceeded} deadline-exceeded; budget spend p50 \
         {p50_spent:.1} ms / p99 {p99_spent:.1} ms (budget {deadline_ms:.0} ms)\n"
    );

    // --- AZ-crash scenario: one availability zone (shards 0 and 1)
    // is down for the whole run. Every query fans out to every shard,
    // so every query fails typed, naming the zone's first shard. ---
    const AZ_GROUP: [usize; 2] = [0, 1];
    let az_plan = FaultPlan::none().correlated_crash(&AZ_GROUP);
    let mut az_client = tolerant.new_client(9);
    let mut az_failed = 0usize;
    for (qi, query) in corpus.queries.iter().enumerate() {
        let opts = QueryOptions { faults: Some(&az_plan), ..Default::default() };
        match az_client.query(&tolerant, &query.text, K, opts) {
            Err(ServeError::ShardFailed { shard, failed }) => {
                assert_eq!((shard, failed), (AZ_GROUP[0], AZ_GROUP.len()), "query {qi}");
                az_failed += 1;
            }
            other => panic!("query {qi}: an AZ crash must fail the query, got {other:?}"),
        }
    }
    println!("[ok] AZ crash {AZ_GROUP:?}: {az_failed}/{queries} queries failed with ShardFailed\n");

    // --- Emit BENCH_faults.json at the workspace root. ---
    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"bench\": \"faults\",");
    let _ = writeln!(json, "  \"docs\": {docs},");
    let _ = writeln!(json, "  \"queries\": {queries},");
    let _ = writeln!(json, "  \"shards\": {SHARDS},");
    let _ = writeln!(json, "  \"k\": {K},");
    let _ = writeln!(json, "  \"baseline_mrr\": {:.6},", baseline.mrr);
    let _ = writeln!(json, "  \"policy\": {{");
    let _ = writeln!(json, "    \"attempt_timeout_ms\": {},", policy.attempt_timeout.as_millis());
    let _ = writeln!(json, "    \"max_retries\": {},", policy.max_retries);
    let _ = writeln!(
        json,
        "    \"hedge_after_ms\": {},",
        policy.hedge_after.map_or("null".to_string(), |h| h.as_millis().to_string())
    );
    let _ = writeln!(json, "    \"deadline_ms\": {}", policy.deadline.as_millis());
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"overload\": {{");
    let _ = writeln!(json, "    \"capacity\": {CAPACITY},");
    let _ = writeln!(json, "    \"queue_depth\": {},", over_config.admission.queue_depth);
    let _ = writeln!(json, "    \"deadline_budget_ms\": {:.0},", deadline_ms);
    let _ = writeln!(json, "    \"offered\": {offered},");
    let _ = writeln!(json, "    \"admitted\": {admitted_ok},");
    let _ = writeln!(json, "    \"shed\": {shed},");
    let _ = writeln!(json, "    \"deadline_exceeded\": {deadline_exceeded},");
    let _ = writeln!(json, "    \"budget_spent_p50_ms\": {p50_spent:.3},");
    let _ = writeln!(json, "    \"budget_spent_p99_ms\": {p99_spent:.3}");
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"az_crash\": {{");
    let _ = writeln!(json, "    \"az_group\": [{}, {}],", AZ_GROUP[0], AZ_GROUP[1]);
    let _ = writeln!(json, "    \"queries\": {queries},");
    let _ = writeln!(json, "    \"failed_queries\": {az_failed},");
    let _ = writeln!(json, "    \"answered\": {}", queries - az_failed);
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"results\": [");
    for (i, r) in rows.iter().enumerate() {
        let comma = if i + 1 < rows.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    {{\"fault_rate\": {:.2}, \"mrr_at_k\": {:.6}, \
             \"mean_latency_ms\": {:.3}, \"max_latency_ms\": {:.3}, \
             \"retries\": {}, \"timeouts\": {}, \"corrupted\": {}, \"hedges\": {}, \
             \"failed_queries\": {}}}{comma}",
            r.rate,
            r.mrr,
            r.mean_latency.as_secs_f64() * 1e3,
            r.max_latency.as_secs_f64() * 1e3,
            r.retries,
            r.timeouts,
            r.corrupted,
            r.hedges,
            r.failed_queries
        );
    }
    json.push_str("  ]\n}\n");

    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_faults.json");
    std::fs::write(root, &json).expect("write BENCH_faults.json");

    println!("{json}");
    println!("wrote {root}\n");
    println!(
        "{:>6} {:>9} {:>14} {:>13} {:>8} {:>9} {:>7} {:>7}",
        "rate",
        "MRR@100",
        "mean lat (ms)",
        "max lat (ms)",
        "retries",
        "timeouts",
        "hedges",
        "failed"
    );
    for r in &rows {
        println!(
            "{:>6.2} {:>9.3} {:>14.1} {:>13.1} {:>8} {:>9} {:>7} {:>7}",
            r.rate,
            r.mrr,
            r.mean_latency.as_secs_f64() * 1e3,
            r.max_latency.as_secs_f64() * 1e3,
            r.retries,
            r.timeouts,
            r.hedges,
            r.failed_queries
        );
    }
}
