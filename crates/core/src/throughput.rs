//! Query-throughput machinery (paper §8.1: "to measure query
//! throughput, we simulate running up to 19 clients … which generates
//! enough load to saturate the servers"; Table 7's queries/s rows).
//!
//! The load generator runs `clients` concurrent closed-loop clients
//! against the instance, either straight at the services (every query
//! pays its own database scans) or through a serving plane
//! ([`crate::serving::ServingPlane`]), where concurrently in-flight
//! queries are coalesced into shared scans. Both modes return
//! bit-identical results; only sustained queries/s and the latency
//! distribution differ.

use std::sync::Mutex;
use std::time::{Duration, Instant};

use tiptoe_corpus::synth::Corpus;
use tiptoe_embed::Embedder;

use crate::client::QueryOptions;
use crate::instance::TiptoeInstance;
use crate::serving::ServingPlane;

/// Outcome of a throughput run.
#[derive(Debug, Clone, Copy)]
pub struct ThroughputReport {
    /// Total queries completed.
    pub queries: usize,
    /// Wall-clock time of the measured (online) phase.
    pub wall: Duration,
    /// Sustained online queries per second.
    pub qps: f64,
    /// Median per-query latency (client-observed, this process).
    pub p50: Duration,
    /// 95th-percentile per-query latency.
    pub p95: Duration,
    /// 99th-percentile per-query latency.
    pub p99: Duration,
}

/// Nearest-rank percentile over an unsorted latency sample.
fn percentile(sorted: &[Duration], p: f64) -> Duration {
    if sorted.is_empty() {
        return Duration::ZERO;
    }
    let rank = ((sorted.len() as f64) * p).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Runs `clients` concurrent closed-loop clients, each issuing
/// `queries_per_client` online searches with pre-fetched tokens, and
/// reports the sustained rate plus latency percentiles. (Token
/// prefetch is excluded from the measured window, matching the
/// paper's split of token-generation and ranking throughput.) With a
/// `plane`, every query's shard compute goes through its batch
/// coalescers, so concurrent clients share database scans; results
/// are bit-identical either way.
///
/// # Panics
///
/// Panics if `clients == 0`, `queries_per_client == 0`, or the corpus
/// has no benchmark queries.
pub fn measure_online_throughput<E: Embedder + Send + Sync>(
    instance: &TiptoeInstance<E>,
    corpus: &Corpus,
    clients: usize,
    queries_per_client: usize,
    plane: Option<&ServingPlane<'_>>,
) -> ThroughputReport {
    assert!(clients > 0 && queries_per_client > 0, "degenerate load");
    assert!(!corpus.queries.is_empty(), "no benchmark queries");

    // Prefetch phase (unmeasured).
    let mut prepared: Vec<_> = (0..clients)
        .map(|i| {
            let mut client = instance.new_client(1000 + i as u64);
            for _ in 0..queries_per_client {
                client.fetch_token(instance);
            }
            client
        })
        .collect();

    // Measured online phase: clients run concurrently.
    let latencies = Mutex::new(Vec::with_capacity(clients * queries_per_client));
    let start = Instant::now();
    std::thread::scope(|scope| {
        for (i, client) in prepared.iter_mut().enumerate() {
            let queries = &corpus.queries;
            let latencies = &latencies;
            scope.spawn(move || {
                let mut mine = Vec::with_capacity(queries_per_client);
                for k in 0..queries_per_client {
                    let q = &queries[(i + k) % queries.len()];
                    let t0 = Instant::now();
                    let opts = QueryOptions { plane, ..Default::default() };
                    let results = client
                        .query(instance, &q.text, 10, opts)
                        .expect("every query of a throughput run must be answered");
                    mine.push(t0.elapsed());
                    std::hint::black_box(results);
                }
                latencies.lock().expect("latency lock").extend(mine);
            });
        }
    });
    let wall = start.elapsed();
    let queries = clients * queries_per_client;
    let mut sample = latencies.into_inner().expect("latency lock");
    sample.sort_unstable();
    ThroughputReport {
        queries,
        wall,
        qps: queries as f64 / wall.as_secs_f64(),
        p50: percentile(&sample, 0.50),
        p95: percentile(&sample, 0.95),
        p99: percentile(&sample, 0.99),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;
    use tiptoe_corpus::synth::{generate, CorpusConfig};
    use tiptoe_embed::text::TextEmbedder;
    use tiptoe_math::rng::seeded_rng;
    use tiptoe_underhood::ClientKey;

    use crate::config::TiptoeConfig;

    #[test]
    fn plane_answers_match_sequential_service() {
        let corpus = generate(&CorpusConfig::small(150, 71), 0);
        let config = TiptoeConfig::test_small(150, 71);
        let embedder = TextEmbedder::new(config.d_embed, 71, 0);
        let instance = TiptoeInstance::build(&config, embedder, &corpus);
        let service = &instance.ranking;
        let plane = instance.serving_plane();

        let mut rng = seeded_rng(1);
        let uh = service.underhood();
        let key = ClientKey::generate(uh, config.rank_lwe.n, &mut rng);
        for _ in 0..3 {
            let v: Vec<u64> =
                (0..service.upload_dim()).map(|_| rng.gen_range(0..config.rank_lwe.p)).collect();
            let ct = uh.encrypt_query::<u64, _>(&key, &service.public_matrix(), &v, &mut rng);
            let (sequential, _) = service.answer(&ct);
            let (coalesced, _) = service.answer_via(&ct, Some(&plane));
            assert_eq!(sequential, coalesced, "plane must be bit-identical");
        }
    }

    #[test]
    fn coalesced_searches_match_direct_searches() {
        let corpus = generate(&CorpusConfig::small(150, 73), 0);
        let config = TiptoeConfig::test_small(150, 73);
        let embedder = TextEmbedder::new(config.d_embed, 73, 0);
        let instance = TiptoeInstance::build(&config, embedder, &corpus);
        let plane = instance.serving_plane();

        // Same client seed ⇒ same keys, tokens, and query randomness;
        // the only difference is the serving mode.
        let mut direct = instance.new_client(9);
        let mut served = instance.new_client(9);
        for q in corpus.queries.iter().take(2) {
            let a = direct.search(&instance, &q.text, 10);
            let b = served.try_search_served(&instance, &q.text, 10, &plane).expect("admitted");
            assert_eq!(a.cluster, b.cluster);
            assert_eq!(a.hits, b.hits, "coalesced search must be bit-identical");
        }
    }

    #[test]
    fn throughput_driver_completes_all_queries() {
        let corpus = generate(&CorpusConfig::small(120, 72), 6);
        let config = TiptoeConfig::test_small(120, 72);
        let embedder = TextEmbedder::new(config.d_embed, 72, 0);
        let instance = TiptoeInstance::build(&config, embedder, &corpus);
        let report = measure_online_throughput(&instance, &corpus, 2, 2, None);
        assert_eq!(report.queries, 4);
        assert!(report.qps > 0.0);
        assert!(report.wall > Duration::ZERO);
        assert!(report.p50 <= report.p95 && report.p95 <= report.p99);
        assert!(report.p99 > Duration::ZERO);

        let plane = instance.serving_plane();
        let coalesced = measure_online_throughput(&instance, &corpus, 2, 2, Some(&plane));
        assert_eq!(coalesced.queries, 4);
        assert!(coalesced.qps > 0.0);
    }
}
