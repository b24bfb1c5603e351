//! A complete Tiptoe deployment: both services plus the client-facing
//! metadata, built from a corpus in one call.

use tiptoe_corpus::synth::Corpus;
use tiptoe_embed::Embedder;
use tiptoe_net::Transcript;

use crate::batch::{run_batch_jobs, IndexArtifacts};
use crate::client::TiptoeClient;
use crate::config::TiptoeConfig;
use crate::ranking::RankingService;
use crate::url::UrlService;

/// A running deployment (simulated on one machine; see `tiptoe-net`).
pub struct TiptoeInstance<E: Embedder> {
    /// Deployment configuration.
    pub config: TiptoeConfig,
    /// The embedding model (served to clients).
    pub embedder: E,
    /// Batch-job outputs (the server-side index state).
    pub artifacts: IndexArtifacts,
    /// The private ranking service (§4).
    pub ranking: RankingService,
    /// The URL service (§5).
    pub url: UrlService,
    /// Client↔service traffic ledger.
    pub transcript: Transcript,
}

impl<E: Embedder> TiptoeInstance<E> {
    /// Runs the batch jobs and brings up both services.
    ///
    /// # Panics
    ///
    /// Panics on an empty corpus or inconsistent configuration.
    pub fn build(config: &TiptoeConfig, embedder: E, corpus: &Corpus) -> Self {
        let artifacts = run_batch_jobs(config, &embedder, corpus);
        Self::from_artifacts(config, embedder, artifacts)
    }

    /// Brings up a deployment over precomputed *document* embeddings
    /// (e.g. CLIP image latents for text-to-image search, §7), with
    /// `embedder` as the client-side query tower.
    pub fn build_with_embeddings(
        config: &TiptoeConfig,
        embedder: E,
        corpus: &Corpus,
        doc_embeddings: Vec<Vec<f32>>,
    ) -> Self {
        let model_bytes = embedder.model_bytes();
        let artifacts = crate::batch::run_batch_jobs_from_embeddings(
            config,
            doc_embeddings,
            std::time::Duration::ZERO,
            corpus,
            model_bytes,
        );
        Self::from_artifacts(config, embedder, artifacts)
    }

    fn from_artifacts(config: &TiptoeConfig, embedder: E, mut artifacts: IndexArtifacts) -> Self {
        // Observability: `TIPTOE_TRACE=…` enables tracing with no code change.
        tiptoe_obs::init_from_env();
        let ranking = RankingService::build(config, &artifacts);
        let url = UrlService::build(config, &artifacts);
        artifacts.report.crypto = ranking.preproc_time + url.preproc_time;
        Self {
            config: config.clone(),
            embedder,
            artifacts,
            ranking,
            url,
            transcript: Transcript::new(),
        }
    }

    /// Creates a client with fresh keys, accounting for its one-time
    /// setup download (model + centroids + PCA).
    pub fn new_client(&self, seed: u64) -> TiptoeClient {
        TiptoeClient::new(self, seed)
    }

    /// Brings up the serving plane over this deployment's services:
    /// one batch-coalescing lane per ranking shard plus one for the
    /// URL server, under the configured [`TiptoeConfig::coalesce`]
    /// policy, with admission control and circuit breakers per
    /// [`TiptoeConfig::admission`] and [`TiptoeConfig::breaker`] (both
    /// disabled by default). The plane borrows the services, so drop
    /// it before any mutable corpus update.
    pub fn serving_plane(&self) -> crate::serving::ServingPlane<'_> {
        crate::serving::ServingPlane::with_overload(
            &self.ranking,
            &self.url,
            self.config.coalesce,
            self.config.admission,
            self.config.breaker,
        )
    }

    /// Total server-side index storage across both services.
    pub fn server_storage_bytes(&self) -> u64 {
        self.ranking.server_storage_bytes() + self.url.storage_bytes()
    }

    /// Publishes updated centroids/metadata after a corpus change
    /// (§3.2 "Handling updates to the corpus"): returns the bytes a
    /// client must re-download.
    pub fn metadata_update_bytes(&self) -> u64 {
        self.artifacts.meta.centroid_bytes
            + (self.artifacts.meta.cluster_sizes.len() as u64) * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tiptoe_corpus::synth::{generate, CorpusConfig};
    use tiptoe_embed::text::TextEmbedder;

    #[test]
    fn both_services_export_a_positive_noise_margin() {
        let corpus = generate(&CorpusConfig::small(120, 3), 0);
        let config = TiptoeConfig::test_small(120, 3);
        let embedder = TextEmbedder::new(config.d_embed, 3, 0);
        TiptoeInstance::build(&config, embedder, &corpus);
        let gauges = tiptoe_obs::metrics().snapshot().gauges;
        for label in ["ranking", "url"] {
            let name = format!("rlwe.noise_budget_bits[{label}]");
            let bits = gauges.iter().find(|(k, _)| *k == name).map(|&(_, v)| v);
            assert!(bits.is_some_and(|b| b > 0.0), "{name} = {bits:?}");
        }
    }
}
