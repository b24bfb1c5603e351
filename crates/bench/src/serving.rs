//! Serving-plane load benchmark (paper §8.1: up to 19 closed-loop
//! clients saturate the servers): sweeps client counts over both
//! serving modes — every query paying its own database scans versus
//! coalesced through the [`tiptoe_core::serving::ServingPlane`] — and
//! reports, per cell, the measured wall-clock queries/s, latency
//! percentiles, and the *scan-normalized* throughput.
//!
//! Two throughput views are reported because they answer different
//! questions:
//!
//! - **Wall-clock qps** is what this process sustained. On a small
//!   (often single-core) CI box with toy in-cache shards it mostly
//!   measures per-query compute, which batching cannot reduce — the
//!   multiply count is the same either way.
//! - **Scan-normalized throughput** (`queries_per_scan`) is the
//!   deployment-relevant capacity metric: a Tiptoe ranking server at
//!   paper scale is bound by streaming its shard matrix from memory,
//!   so server capacity is proportional to queries served *per lane
//!   scan*. A direct query costs `num_shards + 1` lane scans by
//!   construction (every ranking shard plus the URL server); a
//!   coalesced flush costs one lane scan shared by the whole batch.
//!   Coalesced scan counts are measured, not modeled: they are the
//!   serving plane's actual flush count (the
//!   `net.coalesce.batch_size` histogram) during the run, with
//!   results verified bit-identical to direct serving.
//!
//! Used by `src/bin/bench_serving.rs` (writes `BENCH_serving.json`)
//! and the CLI's `serve-bench` subcommand.

use tiptoe_core::config::TiptoeConfig;
use tiptoe_core::instance::TiptoeInstance;
use tiptoe_core::throughput::{measure_online_throughput, ThroughputReport};
use tiptoe_corpus::synth::{generate, CorpusConfig};
use tiptoe_embed::text::TextEmbedder;

/// Knobs for one serving-bench run.
#[derive(Debug, Clone)]
pub struct ServingBenchConfig {
    /// Synthetic corpus size.
    pub docs: usize,
    /// Closed-loop queries each client issues in the measured window.
    pub queries_per_client: usize,
    /// Client counts to sweep (each measured in both modes).
    pub clients: Vec<usize>,
    /// Ranking shards (the coalescer runs one lane per shard).
    pub shards: usize,
    /// Corpus/instance seed.
    pub seed: u64,
}

impl Default for ServingBenchConfig {
    fn default() -> Self {
        Self { docs: 240, queries_per_client: 12, clients: vec![1, 4, 19], shards: 4, seed: 61 }
    }
}

/// One measured cell of the sweep.
#[derive(Debug, Clone, Copy)]
pub struct ServingRow {
    /// Concurrent closed-loop clients.
    pub clients: usize,
    /// Whether shard compute went through the serving plane.
    pub coalesced: bool,
    /// Wall-clock throughput and latency percentiles for this cell.
    pub report: ThroughputReport,
    /// Lane scans consumed serving this cell's queries. Direct mode
    /// pays `num_shards + 1` scans per query by construction;
    /// coalesced mode's count is the measured flush count.
    pub scans: u64,
    /// Scan-normalized throughput: queries served per lane scan.
    pub queries_per_scan: f64,
}

/// Full sweep outcome plus the knobs that produced it.
#[derive(Debug, Clone)]
pub struct ServingBenchOutcome {
    /// The run's configuration.
    pub config: ServingBenchConfig,
    /// Coalescer batch bound in effect (from the instance config).
    pub max_batch: usize,
    /// Coalescer deadline in effect, microseconds.
    pub max_wait_us: u64,
    /// Coalescer backpressure bound in effect.
    pub queue_depth: usize,
    /// One row per (clients, mode) cell, direct mode first.
    pub rows: Vec<ServingRow>,
}

impl ServingBenchOutcome {
    fn cell(&self, clients: usize, coalesced: bool) -> Option<&ServingRow> {
        self.rows.iter().find(|r| r.clients == clients && r.coalesced == coalesced)
    }

    /// The headline capacity number: scan-normalized coalesced
    /// throughput at the largest client count over scan-normalized
    /// direct single-client throughput. Equals the mean effective
    /// batch size the plane achieved under that load. `None` if the
    /// sweep lacks either endpoint.
    pub fn scan_speedup(&self) -> Option<f64> {
        let max_clients = self.rows.iter().map(|r| r.clients).max()?;
        if max_clients == 1 {
            return None;
        }
        let base = self.cell(1, false)?;
        let top = self.cell(max_clients, true)?;
        Some(top.queries_per_scan / base.queries_per_scan)
    }

    /// Wall-clock counterpart of [`ServingBenchOutcome::scan_speedup`]
    /// (bounded by this process's core count, so near 1.0 on a
    /// single-core box).
    pub fn wall_speedup(&self) -> Option<f64> {
        let max_clients = self.rows.iter().map(|r| r.clients).max()?;
        if max_clients == 1 {
            return None;
        }
        let base = self.cell(1, false)?;
        let top = self.cell(max_clients, true)?;
        Some(top.report.qps / base.report.qps)
    }

    /// Renders the outcome as the `BENCH_serving.json` document.
    #[must_use]
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        fn opt(v: Option<f64>) -> String {
            v.map_or_else(|| "null".into(), |s| format!("{s:.3}"))
        }
        let mut json = String::from("{\n");
        let _ = writeln!(json, "  \"bench\": \"serving\",");
        let _ = writeln!(json, "  \"docs\": {},", self.config.docs);
        let _ = writeln!(json, "  \"shards\": {},", self.config.shards);
        let _ = writeln!(json, "  \"queries_per_client\": {},", self.config.queries_per_client);
        let _ = writeln!(
            json,
            "  \"coalesce\": {{\"max_batch\": {}, \"max_wait_us\": {}, \"queue_depth\": {}}},",
            self.max_batch, self.max_wait_us, self.queue_depth
        );
        let _ = writeln!(
            json,
            "  \"speedup_scanbound_maxclients_vs_direct_1\": {},",
            opt(self.scan_speedup())
        );
        let _ = writeln!(
            json,
            "  \"speedup_wall_maxclients_vs_direct_1\": {},",
            opt(self.wall_speedup())
        );
        let _ = writeln!(json, "  \"results\": [");
        for (i, row) in self.rows.iter().enumerate() {
            let sep = if i + 1 == self.rows.len() { "" } else { "," };
            let r = &row.report;
            let _ = writeln!(
                json,
                "    {{\"clients\": {}, \"mode\": \"{}\", \"queries\": {}, \
                 \"qps\": {:.3}, \"p50_ms\": {:.3}, \"p95_ms\": {:.3}, \"p99_ms\": {:.3}, \
                 \"scans\": {}, \"queries_per_scan\": {:.4}}}{sep}",
                row.clients,
                if row.coalesced { "coalesced" } else { "direct" },
                r.queries,
                r.qps,
                r.p50.as_secs_f64() * 1e3,
                r.p95.as_secs_f64() * 1e3,
                r.p99.as_secs_f64() * 1e3,
                row.scans,
                row.queries_per_scan,
            );
        }
        let _ = writeln!(json, "  ]");
        json.push_str("}\n");
        json
    }
}

/// Flush count (one sample per flush, i.e. per lane scan) in a
/// metrics-snapshot delta over the measured interval.
fn flushes_in(delta: &tiptoe_obs::metrics::MetricsSnapshot) -> u64 {
    delta.histograms.iter().find(|h| h.name == "net.coalesce.batch_size").map_or(0, |h| h.count)
}

/// Builds the instance, spot-checks that coalesced serving is
/// bit-identical to direct serving, then measures every
/// (clients, mode) cell of the sweep.
///
/// # Panics
///
/// Panics if the config is degenerate (no clients, zero queries) or
/// if the bit-identity spot check fails.
#[must_use]
pub fn run_serving_bench(cfg: &ServingBenchConfig) -> ServingBenchOutcome {
    assert!(!cfg.clients.is_empty(), "no client counts to sweep");
    let corpus = generate(&CorpusConfig::small(cfg.docs, cfg.seed), 32);
    let mut config = TiptoeConfig::test_small(cfg.docs, cfg.seed);
    config.num_shards = cfg.shards;
    // The coalescer runs at its *default* policy — benchmarking the
    // default is the point; a hand-tuned per-bench deadline would hide
    // a bad one. The default holds up across scan scales because the
    // deadline adapts: a lone client flushes solo with no wait at all,
    // and under load the effective wait derives from the measured
    // arrival rate and flush latency (the 1 ms `max_wait` is only the
    // cold-start ceiling), so microsecond-scale synthetic shards and
    // deployment-scale ones both self-tune.
    // Pin kernels to one thread in both modes: per-query compute is
    // then identical everywhere and the sweep isolates the serving
    // architecture (client concurrency + cross-client batching) from
    // intra-query thread-pool effects.
    config.parallelism.num_threads = 1;
    config.validate();
    let embedder = TextEmbedder::new(config.d_embed, cfg.seed, 0);
    let instance = TiptoeInstance::build(&config, embedder, &corpus);

    // Coalescing must be invisible in results before it is worth
    // measuring: same client seed, both modes, identical hits.
    {
        let plane = instance.serving_plane();
        let mut direct = instance.new_client(9);
        let mut served = instance.new_client(9);
        let q = &corpus.queries[0];
        let a = direct.search(&instance, &q.text, 10);
        let b = served.try_search_served(&instance, &q.text, 10, &plane).expect("admitted");
        assert_eq!(a.cluster, b.cluster, "coalesced serving must be bit-identical");
        assert_eq!(a.hits, b.hits, "coalesced serving must be bit-identical");
    }

    // Every query scans each ranking shard's lane plus the URL lane.
    let scans_per_direct_query = (cfg.shards + 1) as u64;
    let mut rows = Vec::with_capacity(cfg.clients.len() * 2);
    for &clients in &cfg.clients {
        let direct =
            measure_online_throughput(&instance, &corpus, clients, cfg.queries_per_client, None);
        let scans = direct.queries as u64 * scans_per_direct_query;
        rows.push(ServingRow {
            clients,
            coalesced: false,
            report: direct,
            scans,
            queries_per_scan: direct.queries as f64 / scans as f64,
        });

        // A fresh plane per cell, so no lane carries a previous
        // fleet's `last_batch` into this one.
        let plane = instance.serving_plane();
        let before = tiptoe_obs::metrics().snapshot();
        let coalesced = measure_online_throughput(
            &instance,
            &corpus,
            clients,
            cfg.queries_per_client,
            Some(&plane),
        );
        let scans = flushes_in(&tiptoe_obs::metrics().snapshot().delta(&before));
        assert!(scans > 0, "coalesced run must have flushed at least once");
        rows.push(ServingRow {
            clients,
            coalesced: true,
            report: coalesced,
            scans,
            queries_per_scan: coalesced.queries as f64 / scans as f64,
        });
    }
    ServingBenchOutcome {
        config: cfg.clone(),
        max_batch: config.coalesce.max_batch,
        max_wait_us: config.coalesce.max_wait.as_micros() as u64,
        queue_depth: config.coalesce.queue_depth,
        rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_covers_every_cell_and_renders_json() {
        let cfg = ServingBenchConfig {
            docs: 120,
            queries_per_client: 2,
            clients: vec![1, 3],
            shards: 2,
            seed: 67,
        };
        let outcome = run_serving_bench(&cfg);
        assert_eq!(outcome.rows.len(), 4);
        assert!(outcome.rows.iter().all(|r| r.report.queries == 2 * r.clients));
        assert!(outcome.rows.iter().all(|r| r.report.qps > 0.0));
        assert!(outcome.rows.iter().all(|r| r.scans > 0 && r.queries_per_scan > 0.0));
        // A lone direct query costs shards + 1 = 3 lane scans.
        let direct1 = outcome.rows.iter().find(|r| r.clients == 1 && !r.coalesced).unwrap();
        assert!((direct1.queries_per_scan - 1.0 / 3.0).abs() < 1e-9);
        // Coalesced can never use *more* scans than one per request.
        for row in outcome.rows.iter().filter(|r| r.coalesced) {
            assert!(row.scans <= row.report.queries as u64 * 3);
        }
        assert!(outcome.scan_speedup().is_some());
        assert!(outcome.wall_speedup().is_some());
        let json = outcome.to_json();
        assert!(json.contains("\"bench\": \"serving\""), "{json}");
        assert!(json.contains("\"mode\": \"coalesced\""), "{json}");
        assert!(json.contains("\"mode\": \"direct\""), "{json}");
        assert!(json.contains("\"queries_per_scan\""), "{json}");
        assert!(json.ends_with("}\n"), "{json}");
    }
}
