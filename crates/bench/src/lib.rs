//! Shared harness code for the paper-reproduction binaries
//! (`src/bin/fig4_search_quality.rs` and friends; see `DESIGN.md` §5
//! for the experiment index).
//!
//! The heart of this crate is [`evaluate_variant`]: a
//! plaintext-equivalent evaluator of Tiptoe's *search quality* under
//! any subset of the paper's optimizations (Figure 9's ➊–➏). Using the
//! plaintext-equivalent path for quality sweeps is sound because the
//! cryptographic layer computes the same quantized inner products
//! *exactly* (verified by `tests/e2e_search.rs` and by the agreement
//! check each binary can run via [`verify_crypto_agreement`]); it
//! makes a 300-query × 6-variant sweep tractable on one core.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod measure;

use tiptoe_cluster::{cluster_documents, ClusterConfig, Clustering};
use tiptoe_corpus::synth::Corpus;
use tiptoe_embed::pca::Pca;
use tiptoe_embed::quantize::Quantizer;
use tiptoe_embed::vector::normalize;
use tiptoe_embed::Embedder;
use tiptoe_ir::metrics::QualityReport;
use tiptoe_ir::topk::TopK;
use tiptoe_ir::SearchHit;
use tiptoe_math::rng::{derive_seed, seeded_rng};

/// Which of the paper's optimizations are active (Figure 9).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AblationFlags {
    /// ➋ Cluster embeddings; only score one cluster.
    pub clustering: bool,
    /// ➌ Restrict output to the one URL chunk holding the top result.
    pub chunk_restrict: bool,
    /// ➍ Chunk URLs in semantic (cluster-member) order rather than
    /// random order.
    pub semantic_chunks: bool,
    /// ➎ Assign ~20% boundary documents to two clusters.
    pub dual_assign: bool,
    /// ➏ Reduce the embedding dimension with PCA.
    pub pca: bool,
}

impl AblationFlags {
    /// Full Tiptoe (all optimizations on).
    pub fn full() -> Self {
        Self {
            clustering: true,
            chunk_restrict: true,
            semantic_chunks: true,
            dual_assign: true,
            pca: true,
        }
    }

    /// The Figure 9 sequence ➊, ➋, ➌, ➍, ➎, ➏ (cumulative).
    pub fn figure9_sequence() -> [(&'static str, Self); 6] {
        let none = Self {
            clustering: false,
            chunk_restrict: false,
            semantic_chunks: false,
            dual_assign: false,
            pca: false,
        };
        [
            ("1 no optimizations", none),
            ("2 + clustering", Self { clustering: true, ..none }),
            (
                "3 + URL chunking (random)",
                Self { clustering: true, chunk_restrict: true, ..none },
            ),
            (
                "4 + semantic URL batches",
                Self { clustering: true, chunk_restrict: true, semantic_chunks: true, ..none },
            ),
            (
                "5 + dual assignment",
                Self {
                    clustering: true,
                    chunk_restrict: true,
                    semantic_chunks: true,
                    dual_assign: true,
                    ..none
                },
            ),
            ("6 + PCA (full Tiptoe)", Self::full()),
        ]
    }
}

/// Knobs of the quality evaluator.
#[derive(Debug, Clone, Copy)]
pub struct VariantConfig {
    /// Reduced dimension when PCA is on.
    pub d_reduced: usize,
    /// Quantization precision bits (3 = signed 4-bit).
    pub quant_bits: u32,
    /// URLs per chunk for the ➌/➍ restriction.
    pub urls_per_chunk: usize,
    /// Results cutoff (the paper's MRR@100).
    pub k: usize,
    /// Clustering seed.
    pub seed: u64,
}

impl Default for VariantConfig {
    fn default() -> Self {
        Self { d_reduced: 192, quant_bits: 3, urls_per_chunk: 12, k: 100, seed: 7 }
    }
}

/// Outcome of evaluating one variant.
#[derive(Debug, Clone)]
pub struct VariantOutcome {
    /// Quality metrics.
    pub report: QualityReport,
    /// Fraction of queries whose answer lay in the searched cluster
    /// (1.0 when clustering is off) — the Figure 4 dotted bound.
    pub cluster_hit_rate: f64,
    /// Active embedding dimension (after optional PCA).
    pub d_active: usize,
}

/// Exact signed dot product of two quantized vectors.
fn signed_dot(a: &[i8], b: &[i8]) -> i32 {
    a.iter().zip(b.iter()).map(|(&x, &y)| x as i32 * y as i32).sum()
}

/// Evaluates Tiptoe's search quality under a set of optimization
/// flags, using the plaintext-equivalent pipeline (see module docs).
pub fn evaluate_variant<E: Embedder>(
    corpus: &Corpus,
    embedder: &E,
    flags: AblationFlags,
    config: &VariantConfig,
) -> VariantOutcome {
    // --- Batch side: embed, (PCA), normalize, quantize.
    let raw: Vec<Vec<f32>> = corpus.docs.iter().map(|d| embedder.embed_text(&d.text)).collect();
    let pca = flags.pca.then(|| {
        let sample: Vec<Vec<f32>> = raw.iter().take(2048).cloned().collect();
        Pca::fit(&sample, config.d_reduced.min(embedder.dim()), config.seed ^ 0x9ca)
    });
    let reduce = |v: &[f32]| -> Vec<f32> {
        let mut out = match &pca {
            Some(p) => p.project(v),
            None => v.to_vec(),
        };
        normalize(&mut out);
        out
    };
    let reduced: Vec<Vec<f32>> = raw.iter().map(|v| reduce(v)).collect();
    let d_active = reduced[0].len();
    let quant = Quantizer::new(config.quant_bits, 1 << 17);
    let q_docs: Vec<Vec<i8>> = reduced.iter().map(|v| quant.to_i8(v)).collect();

    // --- Clustering (optional).
    let clustering: Option<Clustering> = flags.clustering.then(|| {
        let mut cc = ClusterConfig::for_corpus(corpus.docs.len(), config.seed);
        cc.dual_assign_frac = if flags.dual_assign { 0.2 } else { 0.0 };
        cluster_documents(&reduced, &cc)
    });

    // --- Per-query evaluation.
    let mut results = Vec::with_capacity(corpus.queries.len());
    let mut cluster_hits = 0usize;
    let mut chunk_rng = seeded_rng(derive_seed(config.seed, 0xc4a));
    for query in &corpus.queries {
        let q_emb = reduce(&embedder.embed_text(&query.text));
        let q_quant = quant.to_i8(&q_emb);

        let hits: Vec<SearchHit> = match &clustering {
            None => {
                cluster_hits += 1; // no clustering: the bound is trivial
                let mut top = TopK::new(config.k);
                for (doc, dq) in q_docs.iter().enumerate() {
                    top.push(SearchHit {
                        doc: doc as u32,
                        score: signed_dot(dq, &q_quant) as f32,
                    });
                }
                top.into_sorted()
            }
            Some(clustering) => {
                let cluster = clustering.nearest_centroid(&q_emb);
                let members: &[u32] = &clustering.members[cluster];
                if members.contains(&query.relevant) {
                    cluster_hits += 1;
                }
                let scores: Vec<i32> = members
                    .iter()
                    .map(|&m| signed_dot(&q_docs[m as usize], &q_quant))
                    .collect();
                if !flags.chunk_restrict {
                    let mut top = TopK::new(config.k);
                    for (row, &m) in members.iter().enumerate() {
                        top.push(SearchHit { doc: m, score: scores[row] as f32 });
                    }
                    top.into_sorted()
                } else {
                    // Chunk the member list; ➍ orders it semantically
                    // (anchor-similarity), ➌ permutes it randomly.
                    let order: Vec<usize> = if flags.semantic_chunks {
                        let ordered = tiptoe_cluster::semantic_order(
                            members,
                            &reduced,
                            &clustering.centroids[cluster],
                        );
                        ordered
                            .iter()
                            .map(|m| members.iter().position(|x| x == m).expect("member"))
                            .collect()
                    } else {
                        use rand::seq::SliceRandom;
                        let mut idx: Vec<usize> = (0..members.len()).collect();
                        idx.shuffle(&mut chunk_rng);
                        idx
                    };
                    let best_pos = order
                        .iter()
                        .position(|&row| {
                            scores[row] == *scores.iter().max().expect("nonempty cluster")
                        })
                        .unwrap_or(0);
                    let chunk_id = best_pos / config.urls_per_chunk;
                    let lo = chunk_id * config.urls_per_chunk;
                    let hi = (lo + config.urls_per_chunk).min(order.len());
                    let mut top = TopK::new(config.k);
                    for &row in &order[lo..hi] {
                        top.push(SearchHit { doc: members[row], score: scores[row] as f32 });
                    }
                    top.into_sorted()
                }
            }
        };
        results.push(hits);
    }
    let relevant: Vec<u32> = corpus.queries.iter().map(|q| q.relevant).collect();
    VariantOutcome {
        report: QualityReport::evaluate(&results, &relevant, config.k),
        cluster_hit_rate: cluster_hits as f64 / corpus.queries.len().max(1) as f64,
        d_active,
    }
}

/// Runs a handful of benchmark queries through the *full private
/// pipeline* and through [`evaluate_variant`]'s plaintext-equivalent
/// path, asserting that both return identical document rankings.
///
/// # Panics
///
/// Panics if any ranking disagrees.
pub fn verify_crypto_agreement(
    instance: &tiptoe_core::instance::TiptoeInstance<tiptoe_embed::text::TextEmbedder>,
    corpus: &Corpus,
    queries: usize,
) {
    let mut client = instance.new_client(0x7e57);
    for q in corpus.queries.iter().take(queries) {
        let private = client.search(instance, &q.text, 20);
        // Plaintext reference of the same pipeline.
        let quant = instance.config.quantizer();
        let raw = instance.embedder.embed_text(&q.text);
        let mut qv = instance.artifacts.pca.project(&raw);
        normalize(&mut qv);
        let cluster = instance.artifacts.clustering.nearest_centroid(&qv);
        assert_eq!(private.cluster, cluster, "cluster selection diverged");
        let q_zp = quant.to_zp(&qv);
        let members = &instance.artifacts.clustering.members[cluster];
        for hit in private.hits.iter().take(3) {
            // The private score equals the plaintext quantized score.
            let row = members.iter().position(|&m| m == hit.doc);
            if let Some(row) = row {
                let d_zp = quant.to_zp(&instance.artifacts.reduced_embeddings[members[row] as usize]);
                let want = quant.quantized_dot(&d_zp, &q_zp);
                let got = (hit.score * 64.0).round() as i64;
                assert_eq!(got, want, "score diverged for doc {}", hit.doc);
            }
        }
    }
}

/// Formats an MRR with the paper's precision.
pub fn fmt_mrr(mrr: f64) -> String {
    format!("{mrr:.3}")
}
