//! The data-loading batch jobs (paper §3.2: *Embed*, *Cluster*,
//! *Preprocess cryptographic operations*; §7 for the concrete
//! pipeline).
//!
//! Given a corpus and an embedding model, this module produces every
//! artifact the two services and the client need:
//!
//! 1. **Embed** every document (the paper runs a GPU cluster; we run
//!    the synthetic model) and L2-normalize.
//! 2. **Fit PCA** on a subsample and project all embeddings down
//!    (768 → 192 for text).
//! 3. **Cluster** the reduced embeddings (balanced k-means with 20%
//!    dual assignment).
//! 4. **Lay out the ranking matrix** (Figure 3): one column block of
//!    `d` integers per cluster, one row per member slot, padded to the
//!    largest cluster.
//! 5. **Batch and compress URLs** in cluster-major member order so
//!    that the matrix row index of a document directly addresses its
//!    URL batch (`batch = batch_start[cluster] + row / urls_per_batch`)
//!    — this keeps the client's metadata `O(C)` instead of `O(N)`.
//!
//! Cryptographic preprocessing (hints and their NTT-ready limb form)
//! happens service-side in [`crate::ranking`] and [`crate::url`].

use std::time::Duration;

use tiptoe_cluster::{cluster_documents, Clustering, CompressedCentroids};
use tiptoe_corpus::synth::Corpus;
use tiptoe_corpus::tzip;
use tiptoe_embed::pca::Pca;
use tiptoe_embed::Embedder;
use tiptoe_math::matrix::Mat;
use tiptoe_obs::clock;

use crate::config::TiptoeConfig;

/// Everything the client must download and cache before its first
/// query (§3.2: the embedding model, the cluster centroids, associated
/// metadata, and the PCA projection).
#[derive(Debug, Clone)]
pub struct ClientMetadata {
    /// Reduced-dimension cluster centroids (after decompression).
    pub centroids: Vec<Vec<f32>>,
    /// Wire size of the compressed centroid bundle.
    pub centroid_bytes: u64,
    /// Member count per cluster (including dual-assigned copies).
    pub cluster_sizes: Vec<u32>,
    /// First URL-batch index per cluster.
    pub batch_start: Vec<u32>,
    /// URLs per batch (fixed, so batch lookup is arithmetic).
    pub urls_per_batch: u32,
    /// PCA projection download size.
    pub pca_bytes: u64,
    /// Embedding-model download size.
    pub model_bytes: u64,
    /// Padded rows of the ranking matrix (= scores downloaded/query).
    pub rows: usize,
    /// Reduced embedding dimension `d`.
    pub d: usize,
    /// Number of clusters `C`.
    pub c: usize,
    /// Total number of URL batches (PIR records).
    pub num_batches: usize,
}

impl ClientMetadata {
    /// Total one-time client download (model + centroids + PCA),
    /// excluding per-query traffic.
    pub fn setup_download_bytes(&self) -> u64 {
        self.model_bytes + self.centroid_bytes + self.pca_bytes
    }

    /// The ranking upload dimension `m = d·C`.
    pub fn ranking_upload_dim(&self) -> usize {
        self.d * self.c
    }

    /// Batch index holding the URL of the document at `row` within
    /// `cluster`.
    ///
    /// # Panics
    ///
    /// Panics if `cluster` is out of range or `row` exceeds the
    /// cluster's member count.
    pub fn batch_of(&self, cluster: usize, row: usize) -> usize {
        assert!(cluster < self.c, "cluster out of range");
        assert!(
            row < self.cluster_sizes[cluster] as usize,
            "row {row} beyond cluster size {}",
            self.cluster_sizes[cluster]
        );
        self.batch_start[cluster] as usize + row / self.urls_per_batch as usize
    }
}

/// One compressed URL batch (a PIR record) plus its members.
///
/// The payload carries `"<doc_id> <url>"` lines so a client that
/// retrieves the record privately can attribute each URL to its
/// document (the paper's metadata "could potentially also include
/// web-page titles, summaries, or image captions", §5).
#[derive(Debug, Clone)]
pub struct CompressedUrlBatch {
    /// tzip-compressed newline-joined `"<doc_id> <url>"` lines.
    pub compressed: Vec<u8>,
    /// Document IDs, in row order (server-side convenience copy).
    pub doc_ids: Vec<u32>,
}

impl CompressedUrlBatch {
    /// Builds a batch from `(doc_id, url)` pairs.
    pub fn build(entries: &[(u32, &str)]) -> Self {
        let blob: String = entries
            .iter()
            .map(|(d, u)| format!("{d} {u}"))
            .collect::<Vec<_>>()
            .join("\n");
        Self {
            compressed: tzip::compress(blob.as_bytes()),
            doc_ids: entries.iter().map(|(d, _)| *d).collect(),
        }
    }

    /// Decodes a (possibly zero-padded) payload into `(doc_id, url)`
    /// pairs. This is the exact routine a client runs on a PIR-fetched
    /// record.
    ///
    /// # Errors
    ///
    /// Fails if the payload is corrupt.
    pub fn decode_payload(payload: &[u8]) -> Result<Vec<(u32, String)>, tzip::TzipError> {
        let raw = tzip::decompress(payload)?;
        let text = String::from_utf8_lossy(&raw);
        Ok(text
            .split('\n')
            .filter_map(|line| {
                let (id, url) = line.split_once(' ')?;
                Some((id.parse().ok()?, url.to_owned()))
            })
            .collect())
    }

    /// Decodes this batch's own payload.
    ///
    /// # Errors
    ///
    /// Fails if the payload is corrupt.
    pub fn decode(&self) -> Result<Vec<(u32, String)>, tzip::TzipError> {
        Self::decode_payload(&self.compressed)
    }
}

/// Per-stage timings of the batch jobs (the rows of Table 7's "Index
/// preprocessing" block, minus the crypto stage measured separately).
#[derive(Debug, Clone, Default)]
pub struct IndexingReport {
    /// Document embedding time.
    pub embed: Duration,
    /// PCA fit + projection time.
    pub pca: Duration,
    /// Clustering time.
    pub cluster: Duration,
    /// Quantization + matrix layout time.
    pub layout: Duration,
    /// URL batching + compression time.
    pub urls: Duration,
    /// Cryptographic preprocessing (filled in by the services).
    pub crypto: Duration,
}

impl IndexingReport {
    /// Total batch time.
    pub fn total(&self) -> Duration {
        self.embed + self.pca + self.cluster + self.layout + self.urls + self.crypto
    }

    /// Core-seconds per document (paper: "0.01–0.02 core-seconds per
    /// document").
    pub fn core_seconds_per_doc(&self, num_docs: usize) -> f64 {
        self.total().as_secs_f64() / num_docs.max(1) as f64
    }
}

/// The output of the batch jobs.
pub struct IndexArtifacts {
    /// Fitted PCA (the client downloads its projection).
    pub pca: Pca,
    /// The clustering.
    pub clustering: Clustering,
    /// Expanded member list in cluster-major order (dual-assigned
    /// documents appear once per cluster).
    pub order: Vec<u32>,
    /// Start offset of each cluster within `order`.
    pub cluster_offsets: Vec<u32>,
    /// The ranking matrix (Figure 3): `rows × d·C` quantized entries,
    /// each the signed representative of its `Z_p` residue (`p` divides
    /// `q`, so it decrypts the same at a quarter of a residue's bytes).
    pub rank_matrix: Mat<i8>,
    /// Compressed URL batches in cluster-major order.
    pub url_batches: Vec<CompressedUrlBatch>,
    /// Client-side metadata bundle.
    pub meta: ClientMetadata,
    /// Reduced, normalized document embeddings (kept for baselines and
    /// the encrypted-corpus extension; a production server would drop
    /// them after layout).
    pub reduced_embeddings: Vec<Vec<f32>>,
    /// Stage timings.
    pub report: IndexingReport,
}

/// Runs the batch pipeline.
///
/// # Panics
///
/// Panics if the corpus is empty or the configuration is inconsistent.
pub fn run_batch_jobs<E: Embedder>(
    config: &TiptoeConfig,
    embedder: &E,
    corpus: &Corpus,
) -> IndexArtifacts {
    assert_eq!(embedder.dim(), config.d_embed, "embedder dimension mismatch");
    let (raw, embed_time) =
        clock::timed(|| corpus.docs.iter().map(|d| embedder.embed_text(&d.text)).collect());
    run_batch_jobs_from_embeddings(config, raw, embed_time, corpus, embedder.model_bytes())
}

/// Runs the batch pipeline over precomputed document embeddings.
///
/// This is the entry point for media whose server-side embeddings do
/// not come from the client's query tower — e.g. text-to-image search,
/// where the index holds CLIP image latents while clients embed text
/// (§7). `model_bytes` is the size of the query-side model the client
/// must download.
///
/// # Panics
///
/// Panics if the corpus is empty or the configuration is inconsistent.
pub fn run_batch_jobs_from_embeddings(
    config: &TiptoeConfig,
    raw: Vec<Vec<f32>>,
    embed_time: Duration,
    corpus: &Corpus,
    model_bytes: u64,
) -> IndexArtifacts {
    config.validate();
    assert!(!corpus.docs.is_empty(), "empty corpus");
    assert_eq!(raw.len(), corpus.docs.len(), "one embedding per document");
    assert!(raw.iter().all(|e| e.len() == config.d_embed), "embedding dimension mismatch");
    let mut report = IndexingReport { embed: embed_time, ..Default::default() };

    // 2. PCA (fit on a subsample, project everything, re-normalize).
    let ((pca, reduced), t) = clock::timed(|| {
        let sample: Vec<Vec<f32>> = raw.iter().take(config.pca_sample).cloned().collect();
        let pca = Pca::fit(&sample, config.d_reduced, config.seed ^ 0x9ca);
        let mut reduced: Vec<Vec<f32>> = raw.iter().map(|e| pca.project(e)).collect();
        for e in reduced.iter_mut() {
            tiptoe_embed::vector::normalize(e);
        }
        (pca, reduced)
    });
    report.pca = t;

    // 3. Cluster, then order each cluster's members semantically so
    //    that chunked URL batches group related documents (§5).
    let (clustering, t) = clock::timed(|| {
        let mut clustering = cluster_documents(&reduced, &config.cluster);
        for (ci, members) in clustering.members.iter_mut().enumerate() {
            *members = tiptoe_cluster::semantic_order(members, &reduced, &clustering.centroids[ci]);
        }
        clustering
    });
    report.cluster = t;

    // 4. Quantize + matrix layout (Figure 3).
    let c = clustering.num_clusters();
    let d = config.d_reduced;
    let rows = clustering.max_cluster_size();
    let ((order, cluster_offsets, rank_matrix), t) = clock::timed(|| {
        let quant = config.quantizer();
        let mut order: Vec<u32> = Vec::with_capacity(clustering.total_assignments());
        let mut cluster_offsets = Vec::with_capacity(c);
        let mut rank_matrix: Mat<i8> = Mat::zeros(rows, d * c);
        for (ci, members) in clustering.members.iter().enumerate() {
            cluster_offsets.push(order.len() as u32);
            for (row, &doc) in members.iter().enumerate() {
                order.push(doc);
                let q = quant.to_i8(&reduced[doc as usize]);
                rank_matrix.row_mut(row)[ci * d..ci * d + d].copy_from_slice(&q);
            }
        }
        (order, cluster_offsets, rank_matrix)
    });
    report.layout = t;

    // 5. URL batching, cluster-major with a fixed batch arity so the
    //    client's row→batch lookup is arithmetic.
    let ((url_batches, batch_start), t) = clock::timed(|| {
        let mut url_batches = Vec::new();
        let mut batch_start = Vec::with_capacity(c);
        for members in &clustering.members {
            batch_start.push(url_batches.len() as u32);
            for chunk in members.chunks(config.urls_per_batch.max(1)) {
                let entries: Vec<(u32, &str)> = chunk
                    .iter()
                    .map(|&doc| (doc, corpus.docs[doc as usize].url.as_str()))
                    .collect();
                url_batches.push(CompressedUrlBatch::build(&entries));
            }
        }
        (url_batches, batch_start)
    });
    report.urls = t;

    let compressed = CompressedCentroids::compress(&clustering.centroids);
    let meta = ClientMetadata {
        centroids: compressed.decompress(),
        centroid_bytes: compressed.byte_len(),
        cluster_sizes: clustering.members.iter().map(|m| m.len() as u32).collect(),
        batch_start,
        urls_per_batch: config.urls_per_batch as u32,
        pca_bytes: pca.projection_bytes(),
        model_bytes,
        rows,
        d,
        c,
        num_batches: url_batches.len(),
    };

    IndexArtifacts {
        pca,
        clustering,
        order,
        cluster_offsets,
        rank_matrix,
        url_batches,
        meta,
        reduced_embeddings: reduced,
        report,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tiptoe_corpus::synth::{generate, CorpusConfig};
    use tiptoe_embed::text::TextEmbedder;

    fn artifacts() -> (IndexArtifacts, Corpus) {
        let corpus = generate(&CorpusConfig::small(300, 5), 0);
        let config = TiptoeConfig::test_small(300, 5);
        let embedder = TextEmbedder::new(config.d_embed, 5, 0);
        (run_batch_jobs(&config, &embedder, &corpus), corpus)
    }

    #[test]
    fn matrix_shape_matches_figure_3() {
        let (a, _) = artifacts();
        let c = a.clustering.num_clusters();
        assert_eq!(a.rank_matrix.cols(), a.meta.d * c);
        assert_eq!(a.rank_matrix.rows(), a.meta.rows);
        assert_eq!(a.meta.rows, a.clustering.max_cluster_size());
    }

    #[test]
    fn matrix_columns_hold_quantized_members() {
        let (a, corpus) = artifacts();
        let config = TiptoeConfig::test_small(300, 5);
        let quant = config.quantizer();
        let d = a.meta.d;
        // Spot-check the first member of each cluster.
        for (ci, members) in a.clustering.members.iter().enumerate() {
            let Some(&doc) = members.first() else { continue };
            let expected = quant.to_i8(&a.reduced_embeddings[doc as usize]);
            assert_eq!(&a.rank_matrix.row(0)[ci * d..ci * d + d], &expected[..]);
        }
        drop(corpus);
    }

    #[test]
    fn padding_rows_are_zero() {
        let (a, _) = artifacts();
        let d = a.meta.d;
        for (ci, members) in a.clustering.members.iter().enumerate() {
            if members.len() < a.meta.rows {
                let row = members.len(); // First padding row.
                assert!(
                    a.rank_matrix.row(row)[ci * d..ci * d + d].iter().all(|&x| x == 0),
                    "cluster {ci} padding not zero"
                );
            }
        }
    }

    #[test]
    fn url_batches_align_with_member_order() {
        let (a, corpus) = artifacts();
        for (ci, members) in a.clustering.members.iter().enumerate() {
            for (row, &doc) in members.iter().enumerate() {
                let batch_idx = a.meta.batch_of(ci, row);
                let decoded = a.url_batches[batch_idx].decode().expect("decodes");
                let pos_in_batch = row % a.meta.urls_per_batch as usize;
                let (got_doc, got_url) = &decoded[pos_in_batch];
                assert_eq!(*got_doc, doc);
                assert_eq!(*got_url, corpus.docs[doc as usize].url);
            }
        }
    }

    #[test]
    fn metadata_is_compact() {
        let (a, _) = artifacts();
        // O(C) metadata: sizes + batch starts are one u32 per cluster.
        assert_eq!(a.meta.cluster_sizes.len(), a.meta.c);
        assert_eq!(a.meta.batch_start.len(), a.meta.c);
        assert!(a.meta.centroid_bytes < (a.meta.c * a.meta.d * 4) as u64);
    }

    #[test]
    fn dual_assignment_expands_order() {
        let (a, corpus) = artifacts();
        assert!(a.order.len() > corpus.docs.len());
        assert!(a.order.len() <= corpus.docs.len() * 6 / 5 + 1);
    }

    #[test]
    fn report_has_nonzero_stages() {
        let (a, _) = artifacts();
        assert!(a.report.embed > Duration::ZERO);
        assert!(a.report.total() > Duration::ZERO);
        assert!(a.report.core_seconds_per_doc(300) > 0.0);
    }
}
