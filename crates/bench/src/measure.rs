//! Measured-deployment harness shared by the Table 6 and Table 7
//! binaries: brings up a deployment with the paper's *production*
//! cryptographic parameters at a scaled-down corpus, runs measured
//! queries through the full private pipeline, and calibrates the
//! analytic extrapolation to web scale.

use std::time::Duration;

use rand::Rng;

use tiptoe_core::analysis::{DeploymentShape, ScalingModel};
use tiptoe_core::batch::ClientMetadata;
use tiptoe_core::client::QueryCost;
use tiptoe_core::config::TiptoeConfig;
use tiptoe_core::instance::TiptoeInstance;
use tiptoe_corpus::synth::{generate, Corpus, CorpusConfig};
use tiptoe_embed::clip::ClipLikeEmbedder;
use tiptoe_embed::text::TextEmbedder;
use tiptoe_embed::Embedder;
use tiptoe_math::matrix::{scan, Mat};
use tiptoe_math::rng::seeded_rng;
use tiptoe_math::stats::percentile;
use tiptoe_obs::clock;

/// A deployment and the corpus it indexes.
pub type Deployment<E> = (Corpus, TiptoeInstance<E>);

/// Everything the table binaries report about one deployment.
pub struct Measurement {
    /// Documents indexed.
    pub docs: usize,
    /// The deployment's configuration.
    pub config: TiptoeConfig,
    /// What fixes the deployment's message sizes.
    pub shape: DeploymentShape,
    /// Mean per-query cost over the measured queries.
    pub cost: QueryCost,
    /// Batch-job stage timings.
    pub report: tiptoe_core::batch::IndexingReport,
    /// The client's one-time download: model, centroids and PCA.
    pub meta: ClientMetadata,
    /// Server-side index state.
    pub server_bytes: u64,
    /// Calibrated 64-bit MAC throughput (word-ops/core-second):
    /// [`scan_ops_per_core_second`] over the deployment's ranking
    /// matrix.
    pub ops_per_core_second: f64,
    /// Measured client-side-index bytes per document (4-bit
    /// embeddings plus compressed URLs), for the Table 6 "client-side
    /// Tiptoe index" row.
    pub index_bytes_per_doc: f64,
}

impl Measurement {
    /// The web-scale extrapolation model calibrated from this run.
    pub fn scaling_model(&self) -> ScalingModel {
        ScalingModel::new(&self.config, self.ops_per_core_second)
    }
}

/// This host's word-op rate on the ranking scan: the median over nine
/// warmed reps of one single-thread [`scan`] of a `u64` query over
/// `matrix`, at 2 ops an entry, in word-ops per core-second.
pub fn scan_ops_per_core_second(matrix: &Mat<i8>) -> f64 {
    let mut rng = seeded_rng(1);
    let query: Vec<u64> = (0..matrix.cols()).map(|_| rng.gen()).collect();
    std::hint::black_box(scan(matrix, &[&query], 1));
    let secs: Vec<f64> = (0..9)
        .map(|_| {
            let (_, t) = clock::timed(|| {
                std::hint::black_box(scan(matrix, &[std::hint::black_box(&query)], 1))
            });
            t.as_secs_f64()
        })
        .collect();
    2.0 * matrix.len() as f64 / percentile(&secs, 50.0).max(1e-9)
}

/// The mean of `costs`' timings; the bytes, which the deployment's
/// shape fixes, are the first query's.
fn average_costs(costs: &[QueryCost]) -> QueryCost {
    let n = costs.len().max(1) as u32;
    let avg_d = |f: fn(&QueryCost) -> Duration| {
        costs.iter().map(f).sum::<Duration>() / n
    };
    let avg_t = |w: fn(&QueryCost) -> Duration, c: fn(&QueryCost) -> Duration| {
        tiptoe_net::ParallelTiming { wall: avg_d(w), cpu: avg_d(c) }
    };
    QueryCost {
        token_server: avg_t(|c| c.token_server.wall, |c| c.token_server.cpu),
        rank_server: avg_t(|c| c.rank_server.wall, |c| c.rank_server.cpu),
        url_server: avg_t(|c| c.url_server.wall, |c| c.url_server.cpu),
        client_time: avg_d(|c| c.client_time),
        client_preproc: avg_d(|c| c.client_preproc),
        ..costs[0].clone()
    }
}

/// A text deployment with production crypto at `docs` documents, with
/// its corpus of at least one query.
pub fn text_deployment(docs: usize, queries: usize, seed: u64) -> Deployment<TextEmbedder> {
    let corpus = generate(&CorpusConfig::small(docs, seed), queries.max(1));
    let config = TiptoeConfig::text(docs, seed);
    let embedder = TextEmbedder::paper_text(seed);
    let (instance, _) =
        tiptoe_obs::timed_span("bench.build", || TiptoeInstance::build(&config, embedder, &corpus));
    (corpus, instance)
}

/// An image deployment (CLIP-like 512-d latents, production crypto with
/// `p = 2^15`, PCA to 384) of `docs` captioned images, with its corpus
/// of at least one query: the Table 6/7 image column.
pub fn image_deployment(docs: usize, queries: usize, seed: u64) -> Deployment<ClipLikeEmbedder> {
    let clip = ClipLikeEmbedder::paper_image(seed);
    // Captions drive both the latents and the benchmark queries.
    let text_corpus = generate(&CorpusConfig::small(docs, seed), queries.max(1));
    let mut latents = Vec::with_capacity(docs);
    let mut image_docs = Vec::with_capacity(docs);
    for d in &text_corpus.docs {
        let caption: String = d.text.split(' ').take(12).collect::<Vec<_>>().join(" ");
        let img = clip.embed_image(d.id as u64, &caption);
        latents.push(img.latent);
        image_docs.push(tiptoe_corpus::synth::Document {
            id: d.id,
            url: format!("https://images.example.org/{}.jpg", d.id),
            text: caption,
            topic: d.topic,
        });
    }
    let corpus = Corpus { docs: image_docs, queries: text_corpus.queries };
    let config = TiptoeConfig::image(docs, seed);
    let (instance, _) = tiptoe_obs::timed_span("bench.build", || {
        TiptoeInstance::build_with_embeddings(&config, clip, &corpus, latents)
    });
    (corpus, instance)
}

/// Measures a deployment over `queries` full private searches.
pub fn measure<E: Embedder + Send + Sync>(
    (corpus, instance): Deployment<E>,
    queries: usize,
) -> Measurement {
    let docs = corpus.docs.len();
    let mut client = instance.new_client(1);
    let mut costs = Vec::new();
    for q in corpus.queries.iter().take(queries.max(1)) {
        let (results, _) =
            tiptoe_obs::timed_span("bench.query", || client.search(&instance, &q.text, 100));
        costs.push(results.cost);
    }
    let cost = average_costs(&costs);

    let ops_per_core_second = scan_ops_per_core_second(&instance.artifacts.rank_matrix);

    // Client-side-index baseline: the same data a client would store
    // locally — 4-bit quantized embeddings plus the compressed URLs.
    let meta = &instance.artifacts.meta;
    let embedding_bytes = instance.artifacts.order.len() as f64 * meta.d as f64 / 2.0;
    let url_bytes: usize =
        instance.artifacts.url_batches.iter().map(|b| b.compressed.len()).sum();
    let index_bytes_per_doc = (embedding_bytes + url_bytes as f64) / docs as f64;

    Measurement {
        docs,
        config: instance.config.clone(),
        shape: DeploymentShape::of(&instance),
        cost,
        report: instance.artifacts.report.clone(),
        meta: meta.clone(),
        server_bytes: instance.server_storage_bytes(),
        ops_per_core_second,
        index_bytes_per_doc,
    }
}
