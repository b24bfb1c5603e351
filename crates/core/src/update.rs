//! Incremental corpus updates (paper §3.2, "Handling updates to the
//! corpus"): "the Tiptoe servers can run the new or changed documents
//! through the embedding function, assign them to a cluster, and
//! publish the updated cluster centroids and metadata to the clients."
//!
//! An update indexes the new document into its cluster's padding slot,
//! applies a rank-one correction to the affected ranking-shard hint,
//! refreshes a single NTT chunk, and re-batches the cluster's URLs —
//! no full cryptographic re-preprocessing. Outstanding query tokens
//! become stale, exactly as §6.3 states ("these tokens are usable
//! until the document corpus changes"); clients refetch metadata and
//! tokens afterwards.

use tiptoe_embed::vector::normalize;
use tiptoe_embed::Embedder;

use crate::batch::CompressedUrlBatch;
use crate::instance::TiptoeInstance;
use crate::url::UrlService;

/// Why an incremental update could not be applied (a production
/// deployment would queue the document for the next full re-shard).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UpdateError {
    /// The target cluster has no padding slot left; the matrix must be
    /// re-laid-out (all clusters pad to the largest).
    ClusterFull,
    /// The cluster's last URL batch is full; appending would shift the
    /// batch numbering of later clusters.
    BatchFull,
}

impl std::fmt::Display for UpdateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            UpdateError::ClusterFull => write!(f, "cluster has no free slot; re-shard needed"),
            UpdateError::BatchFull => write!(f, "cluster's URL batch is full; re-shard needed"),
        }
    }
}

impl std::error::Error for UpdateError {}

/// Nearest centroid by inner product over the client's decompressed
/// centroid cache.
fn nearest_client_centroid(centroids: &[Vec<f32>], q: &[f32]) -> usize {
    let mut best = 0usize;
    let mut best_score = f32::NEG_INFINITY;
    for (i, c) in centroids.iter().enumerate() {
        let s = tiptoe_embed::vector::dot(c, q);
        if s > best_score {
            best_score = s;
            best = i;
        }
    }
    best
}

/// The outcome of a successful incremental update.
#[derive(Debug, Clone, Copy)]
pub struct UpdateReport {
    /// The new document's ID.
    pub doc: u32,
    /// The cluster it joined.
    pub cluster: usize,
    /// Its row within the cluster.
    pub row: usize,
    /// Bytes clients must re-download (centroids + metadata).
    pub metadata_bytes: u64,
}

impl<E: Embedder> TiptoeInstance<E> {
    /// Incrementally indexes one new text document.
    ///
    /// # Errors
    ///
    /// Returns [`UpdateError`] when the target cluster's matrix or
    /// URL-batch capacity is exhausted.
    pub fn add_document(&mut self, text: &str, url: &str) -> Result<UpdateReport, UpdateError> {
        let raw = self.embedder.embed_text(text);
        self.add_document_embedding(&raw, url)
    }

    /// Incrementally indexes a document given its raw (pre-PCA)
    /// embedding — the path image deployments use.
    ///
    /// # Errors
    ///
    /// Returns [`UpdateError`] when the target cluster's matrix or
    /// URL-batch capacity is exhausted.
    ///
    /// # Panics
    ///
    /// Panics if the embedding dimension differs from the model's.
    pub fn add_document_embedding(
        &mut self,
        raw_embedding: &[f32],
        url: &str,
    ) -> Result<UpdateReport, UpdateError> {
        assert_eq!(raw_embedding.len(), self.config.d_embed, "embedding dimension mismatch");
        let mut reduced = self.artifacts.pca.project(raw_embedding);
        normalize(&mut reduced);
        // Assign with the *client-visible* (compressed) centroids, not
        // the full-precision ones: otherwise a borderline document can
        // land in a cluster that no client's local selection ever
        // searches.
        let cluster = nearest_client_centroid(&self.artifacts.meta.centroids, &reduced);
        let row = self.artifacts.clustering.members[cluster].len();
        if row >= self.artifacts.meta.rows {
            return Err(UpdateError::ClusterFull);
        }
        let upb = self.artifacts.meta.urls_per_batch as usize;
        if row.is_multiple_of(upb) {
            // The slot would start a new batch; batch numbering is
            // arithmetic per cluster, so this needs a re-shard.
            return Err(UpdateError::BatchFull);
        }

        // 1. Ranking index: matrix slot + incremental hint refresh.
        let quant = self.config.quantizer();
        let entries = quant.to_i8(&reduced);
        self.ranking.add_document(cluster, row, &entries);

        // 2. Mirror into the batch artifacts (kept consistent for
        //    evaluation and for URL-service rebuilds).
        let doc = self.artifacts.reduced_embeddings.len() as u32;
        let d = self.config.d_reduced;
        self.artifacts.rank_matrix.row_mut(row)[cluster * d..cluster * d + d]
            .copy_from_slice(&entries);
        self.artifacts.reduced_embeddings.push(reduced);
        self.artifacts.clustering.members[cluster].push(doc);
        self.artifacts.clustering.primary.push(cluster as u32);
        self.artifacts.meta.cluster_sizes[cluster] += 1;
        let pos = self.artifacts.cluster_offsets[cluster] as usize + row;
        self.artifacts.order.insert(pos, doc);
        for off in self.artifacts.cluster_offsets[cluster + 1..].iter_mut() {
            *off += 1;
        }

        // 3. URL batch: append to the cluster's last batch and rebuild
        //    the (small) URL service; its PIR hint depends on every
        //    record's padded length, and tokens are stale regardless.
        let batch_idx = self.artifacts.meta.batch_start[cluster] as usize + row / upb;
        let mut entries = self.artifacts.url_batches[batch_idx]
            .decode()
            .expect("own batches decode");
        entries.push((doc, url.to_owned()));
        let borrowed: Vec<(u32, &str)> =
            entries.iter().map(|(d, u)| (*d, u.as_str())).collect();
        self.artifacts.url_batches[batch_idx] = CompressedUrlBatch::build(&borrowed);
        self.url = UrlService::build(&self.config, &self.artifacts);

        Ok(UpdateReport {
            doc,
            cluster,
            row,
            metadata_bytes: self.metadata_update_bytes(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tiptoe_corpus::synth::{generate, CorpusConfig};
    use tiptoe_embed::text::TextEmbedder;

    use crate::config::TiptoeConfig;

    fn build() -> TiptoeInstance<TextEmbedder> {
        let corpus = generate(&CorpusConfig::small(200, 77), 5);
        let config = TiptoeConfig::test_small(200, 77);
        let embedder = TextEmbedder::new(config.d_embed, 77, 0);
        TiptoeInstance::build(&config, embedder, &corpus)
    }

    #[test]
    fn added_document_is_privately_searchable() {
        let mut instance = build();
        let text = "zzap unique incremental document about lunar gardening routines";
        let url = "https://www.example.com/fresh/lunar-gardening";
        // Retry with salted text if the first target cluster is
        // full (possible on tiny corpora).
        let (report, salted) = (0..40)
            .find_map(|salt| {
                let salted = format!("{text} v{salt}");
                instance.add_document(&salted, url).ok().map(|r| (r, salted))
            })
            .expect("some salt finds a cluster with room");

        // A *fresh* client (new metadata, new tokens) finds the doc.
        let mut client = instance.new_client(9);
        let results = client.search(&instance, &salted, 20);
        assert!(
            results.hits.iter().any(|h| h.doc == report.doc && h.url == url),
            "new document not retrieved: {:?}",
            results.hits
        );
    }

    /// A raw embedding whose PCA projection lands at a cluster with a
    /// free slot (deterministic: lift the centroid).
    fn raw_probe_for_free_slot(instance: &TiptoeInstance<TextEmbedder>) -> Vec<f32> {
        let meta = &instance.artifacts.meta;
        let upb = meta.urls_per_batch as usize;
        let cluster = (0..meta.c)
            .find(|&c| {
                let len = instance.artifacts.clustering.members[c].len();
                len < meta.rows && !len.is_multiple_of(upb)
            })
            .expect("some cluster has room");
        // Lift the *client-visible* centroid so the assignment rule
        // (which uses the compressed cache) picks this cluster.
        instance.artifacts.pca.lift(&meta.centroids[cluster])
    }

    #[test]
    fn incremental_hint_matches_full_rebuild() {
        use rand::Rng;
        let mut instance = build();
        let url = "https://www.example.com/fresh/tidal-synths";
        let probe = raw_probe_for_free_slot(&instance);
        instance
            .add_document_embedding(&probe, url)
            .expect("centroid probe lands in a cluster with room");

        // Rebuild the ranking service from the mutated artifacts:
        // the incremental state must answer queries, and evaluate
        // its hint into tokens, identically.
        let rebuilt =
            crate::ranking::RankingService::build(&instance.config, &instance.artifacts);
        let mut rng = tiptoe_math::rng::seeded_rng(5);
        let uh = instance.ranking.underhood();
        let key =
            tiptoe_underhood::ClientKey::generate(uh, instance.config.rank_lwe.n, &mut rng);
        let v: Vec<u64> = (0..instance.ranking.upload_dim())
            .map(|_| rng.gen_range(0..instance.config.rank_lwe.p))
            .collect();
        let ct =
            uh.encrypt_query::<u64, _>(&key, &instance.ranking.public_matrix(), &v, &mut rng);
        let (incremental, _) = instance.ranking.answer(&ct);
        let (full, _) = rebuilt.answer(&ct);
        assert_eq!(incremental, full, "incremental index diverged from a full rebuild");

        let expanded =
            tiptoe_underhood::EncryptedSecret::encrypt(uh, &key, &mut rng).expand(uh);
        let token = |svc: &crate::ranking::RankingService| svc.generate_token_expanded(&expanded).0;
        assert_eq!(
            token(&instance.ranking).encode(),
            token(&rebuilt).encode(),
            "incremental hint diverged"
        );
    }

    #[test]
    fn full_cluster_is_reported_not_corrupted() {
        let mut instance = build();
        // Fill whatever cluster the probe lands in until it errors.
        let full = (0..500).any(|i| {
            let text = format!("filler doc {i} w1 w2 w3");
            instance.add_document(&text, "https://x.example/f").is_err()
        });
        assert!(full, "capacity limits must eventually surface");
        // The instance still answers queries after the failed update.
        let mut client = instance.new_client(3);
        let results = client.search(&instance, "w1 w2 w3", 5);
        assert!(!results.hits.is_empty());
    }
}
