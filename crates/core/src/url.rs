//! Tiptoe's URL service (paper §5): private retrieval of one
//! compressed, content-grouped URL batch via SimplePIR.

use std::time::Duration;

use tiptoe_lwe::{LweCiphertext, MatrixA};
use tiptoe_math::rng::derive_seed;
use tiptoe_math::wire::{WireError, WireReader, WireWriter};
use tiptoe_net::{
    dispatch, timed, DeadlineBudget, DispatchContext, Dispatched, FaultPlan, FaultPolicy, Ledger,
    ParallelTiming, ServeError, Service,
};
use tiptoe_pir::{PirDatabase, PirServer};
use tiptoe_underhood::{EncryptedSecret, ExpandedSecret, QueryToken, Underhood};

use crate::batch::IndexArtifacts;
use crate::config::{Parallelism, TiptoeConfig};
use crate::ranking::record_noise_budget_gauge;
use crate::serving::ServingPlane;

/// The URL retrieval as a typed [`Service`]: a single "shard" (the
/// PIR server) answers the query ciphertext, optionally through the
/// serving plane's coalescing lane.
struct UrlAnswer<'a> {
    svc: &'a UrlService,
    via: Option<&'a ServingPlane<'a>>,
    /// The query's deadline budget, when admission control issued one
    /// (see [`crate::ranking`]'s `RankAnswer`).
    budget: Option<&'a DeadlineBudget>,
}

impl Service for UrlAnswer<'_> {
    type Request = LweCiphertext<u32>;
    type Part = Vec<u32>;
    type Response = Vec<u32>;

    fn outer_span(&self) -> &'static str {
        "url.answer"
    }

    fn shard_span(&self) -> &'static str {
        "url.shard"
    }

    fn num_shards(&self) -> usize {
        1
    }

    fn serve(&self, _idx: usize, ct: &LweCiphertext<u32>) -> Result<Vec<u8>, ServeError> {
        let answer = match self.via {
            Some(plane) => {
                let deadline = self.budget.map_or(Ok(Duration::MAX), DeadlineBudget::check)?;
                plane.url_answer_within(ct.clone(), deadline)?
            }
            None => self.svc.server.answer(ct),
        };
        let mut w = WireWriter::new();
        w.put_u32_slice(&answer);
        Ok(w.finish())
    }

    fn parse(&self, _idx: usize, payload: &[u8]) -> Result<Vec<u32>, WireError> {
        let mut r = WireReader::new(payload);
        let answer = r.get_u32_slice()?;
        r.finish()?;
        if answer.len() != self.svc.server.database().rows() {
            return Err(WireError::Invalid("PIR answer has the wrong row count"));
        }
        Ok(answer)
    }

    fn combine(&self, mut parts: Vec<Vec<u32>>) -> Vec<u32> {
        parts.pop().expect("the one PIR server's answer")
    }
}

/// The URL service: a PIR server over the compressed URL batches.
pub struct UrlService {
    server: PirServer,
    parallelism: Parallelism,
    /// Wall-clock spent in cryptographic preprocessing at build time.
    pub preproc_time: Duration,
}

impl UrlService {
    /// Builds the service from batch artifacts.
    ///
    /// # Panics
    ///
    /// Panics if there are no URL batches.
    pub fn build(config: &TiptoeConfig, artifacts: &IndexArtifacts) -> Self {
        let records: Vec<Vec<u8>> =
            artifacts.url_batches.iter().map(|b| b.compressed.clone()).collect();
        let db = PirDatabase::build_with_params(&records, config.url_lwe);
        let uh = Underhood::with_outer(config.url_lwe, config.rlwe, config.switch_log_q2);
        record_noise_budget_gauge("url", &uh, db.num_records());
        let (server, preproc_time) =
            timed(|| PirServer::new(db, derive_seed(config.seed, 0xB161), uh));
        Self { server, parallelism: config.parallelism, preproc_time }
    }

    /// The parallelism knobs this service was built with.
    pub fn parallelism(&self) -> Parallelism {
        self.parallelism
    }

    /// The composed-scheme parameters (shared with clients).
    pub fn underhood(&self) -> &Underhood {
        self.server.underhood()
    }

    /// The public matrix clients encrypt against.
    pub fn public_matrix(&self) -> MatrixA {
        self.server.public_matrix()
    }

    /// The PIR database metadata (record size and count).
    pub fn database(&self) -> &PirDatabase {
        self.server.database()
    }

    /// Generates a (single-use) URL-retrieval token.
    pub fn generate_token(&self, es: &EncryptedSecret) -> (QueryToken, ParallelTiming) {
        self.generate_token_expanded(&es.expand(self.underhood()))
    }

    /// Token generation over a pre-expanded secret: the `B = 1` case
    /// of [`UrlService::generate_token_expanded_many`], at the thread
    /// count the serving plane's token lane runs it with.
    pub fn generate_token_expanded(&self, es: &ExpandedSecret) -> (QueryToken, ParallelTiming) {
        let (mut tokens, wall) =
            timed(|| self.generate_token_expanded_many(&[es], self.parallelism.num_threads));
        (tokens.pop().expect("one token per secret"), ParallelTiming { wall, cpu: wall })
    }

    /// Batched token generation for `B` clients in one pass over the
    /// hint polynomials (each bit-identical to
    /// [`UrlService::generate_token_expanded`] for that client); the
    /// serving plane's token lane flushes through this kernel.
    pub fn generate_token_expanded_many(
        &self,
        secrets: &[&ExpandedSecret],
        num_threads: usize,
    ) -> Vec<QueryToken> {
        self.server.generate_token_expanded_many(secrets, num_threads)
    }

    /// Answers an online PIR query.
    ///
    /// # Panics
    ///
    /// Panics if the ciphertext dimension differs from the record
    /// count.
    pub fn answer(&self, ct: &LweCiphertext<u32>) -> (Vec<u32>, ParallelTiming) {
        let d = self
            .dispatch_answer(ct, 0, &FaultPlan::none(), &FaultPolicy::default(), None, None, None)
            .expect("an unbudgeted direct dispatch cannot fail");
        (d.response, d.timing)
    }

    /// Answers a batch of PIR queries in one pass over the database
    /// (bit-identical to per-query [`UrlService::answer`]); the
    /// serving plane's coalescing lane flushes through this kernel.
    pub fn answer_many(&self, cts: &[LweCiphertext<u32>], num_threads: usize) -> Vec<Vec<u32>> {
        self.server.answer_many(cts, num_threads)
    }

    /// Dispatches an online PIR query through the typed service plane
    /// ([`tiptoe_net::dispatch`]): transcript accounting via `ledger`,
    /// fault handling under `plan`/`policy` (the server is addressed
    /// as shard `shard_base` so ranking and URL share one plan),
    /// optional batch coalescing via the serving plane, and the
    /// query's deadline `budget`.
    ///
    /// # Errors
    ///
    /// [`ServeError::ShardFailed`] (naming shard `shard_base`) when the
    /// server never delivers a verified answer within the policy's
    /// retries, hedges and deadline,
    /// [`ServeError::DeadlineExceeded`] when the budget runs out,
    /// [`ServeError::LaneFailed`] on a permanently crashed coalescer
    /// lane, [`ServeError::InvalidPolicy`] on an invalid enabled
    /// policy. Under a disabled policy, without a budget or a plane,
    /// it cannot fail.
    ///
    /// # Panics
    ///
    /// Panics if the ciphertext dimension differs from the record
    /// count.
    #[allow(clippy::too_many_arguments)]
    pub fn dispatch_answer(
        &self,
        ct: &LweCiphertext<u32>,
        shard_base: usize,
        plan: &FaultPlan,
        policy: &FaultPolicy,
        ledger: Option<&Ledger<'_>>,
        via: Option<&ServingPlane<'_>>,
        budget: Option<&DeadlineBudget>,
    ) -> Result<Dispatched<Vec<u32>>, ServeError> {
        let ctx = DispatchContext::new(plan, policy).with_budget(budget);
        dispatch(&UrlAnswer { svc: self, via, budget }, ct, shard_base, ctx, ledger)
    }

    /// Server-side storage (database + the NTT-ready hint polys).
    pub fn storage_bytes(&self) -> u64 {
        self.server.storage_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tiptoe_corpus::synth::{generate, CorpusConfig};
    use tiptoe_embed::text::TextEmbedder;
    use tiptoe_math::rng::seeded_rng;
    use tiptoe_pir::PirClient;
    use tiptoe_underhood::ClientKey;

    use crate::batch::run_batch_jobs;

    #[test]
    fn retrieves_the_batch_for_a_ranked_document() {
        let corpus = generate(&CorpusConfig::small(150, 13), 0);
        let config = TiptoeConfig::test_small(150, 13);
        let embedder = TextEmbedder::new(config.d_embed, 13, 0);
        let artifacts = run_batch_jobs(&config, &embedder, &corpus);
        let service = UrlService::build(&config, &artifacts);
        let mut rng = seeded_rng(77);

        let uh = service.underhood();
        let key = ClientKey::generate(uh, config.url_lwe.n, &mut rng);
        let es = EncryptedSecret::encrypt(uh, &key, &mut rng);
        let client = PirClient::new(uh, &key);

        // Pretend ranking returned row 0 of cluster 0.
        let cluster = 0usize;
        let row = 0usize;
        let batch_idx = artifacts.meta.batch_of(cluster, row);

        let (token, _) = service.generate_token(&es);
        let mut decoded = client.decode_token(&token);
        let ct = client.query(
            &service.public_matrix(),
            service.database().num_records(),
            batch_idx,
            &mut rng,
        );
        let (answer, _) = service.answer(&ct);
        let record =
            client.recover(service.database(), &mut decoded, &answer).expect("full answer");

        // The recovered (padded) record starts with the stored batch.
        let want = &artifacts.url_batches[batch_idx].compressed;
        assert_eq!(&record[..want.len()], &want[..]);

        // And it decodes to the right URLs.
        let doc = artifacts.clustering.members[cluster][row];
        let decoded_urls = artifacts.url_batches[batch_idx].decode().expect("decodes");
        assert!(decoded_urls
            .iter()
            .any(|(d, u)| *d == doc && *u == corpus.docs[doc as usize].url));
    }
}
