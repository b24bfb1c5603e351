//! Tiptoe's private ranking service (paper §4).
//!
//! The service holds the Figure 3 matrix `M` (one `d`-wide column
//! block per cluster), vertically partitioned across `W` worker shards
//! (§4.3): worker `w` stores `M_w` and the matching rows of the public
//! LWE matrix `A`. Per query, the coordinator splits the client's
//! ciphertext `ct = (ct_1 ∥ … ∥ ct_W)`, each worker computes
//! `a_w = M_w · ct_w`, and the coordinator returns `Σ_w a_w`.
//!
//! Token generation (§6.3) does not follow the sharding: every shard
//! hint `H_w = M_w · A_w` is corpus-only, so the build sums them once
//! into `H = Σ_w H_w = M · A` and a token is one `Enc2(H · s)`, under
//! every fault policy. It has one body,
//! [`RankingService::generate_token_expanded_many`], whether one
//! client asks directly (`B = 1`) or the serving plane's token lane
//! flushes a batch.
//!
//! Online answers have one fallible body too,
//! [`RankingService::dispatch_answer`]; [`RankingService::answer`] and
//! [`RankingService::answer_via`] are its healthy shorthands.

use std::time::{Duration, Instant};

use tiptoe_lwe::{scheme, LweCiphertext, MatrixA};
use tiptoe_math::matrix::Mat;
use tiptoe_math::rng::derive_seed;
use tiptoe_math::wire::{WireError, WireReader, WireWriter};
use tiptoe_math::zq::{Entry, Word};
use tiptoe_net::{
    dispatch, timed, DeadlineBudget, DispatchContext, Dispatched, FaultPlan, FaultPolicy, Ledger,
    ParallelTiming, ServeError, Service,
};
use tiptoe_underhood::{EncryptedSecret, ExpandedSecret, QueryToken, ServerHint, Underhood};

use crate::batch::IndexArtifacts;
use crate::config::{Parallelism, TiptoeConfig};
use crate::serving::ServingPlane;

/// One ranking worker: its vertical matrix shard.
struct RankingShard {
    /// Columns `[col_start, col_start + db.cols())` of the full matrix.
    col_start: usize,
    db: Mat<i8>,
}

/// The summed hint the token pass evaluates under `Enc2`.
struct TokenHint {
    /// The raw SimplePIR hint (kept for incremental corpus updates).
    raw: Mat<u64>,
    server: ServerHint,
}

/// The sharded ranking service.
pub struct RankingService {
    shards: Vec<RankingShard>,
    /// What a token is generated from: the one summed hint
    /// `H = Σ_w H_w`.
    token_hint: TokenHint,
    uh: Underhood,
    a: MatrixA,
    rows: usize,
    cols: usize,
    /// Embedding dimension: each cluster owns a contiguous `d`-column
    /// block, so shard/cluster bookkeeping divides by `d`.
    d: usize,
    parallelism: Parallelism,
    /// Wall-clock spent in cryptographic preprocessing at build time.
    pub preproc_time: Duration,
}

/// The ranking fan-out as a typed [`Service`]: shard `w` slices its
/// column range out of the query ciphertext, applies `M_w` (directly
/// or through a coalescing lane of the serving plane), and ships the
/// partial product; the coordinator wrapping-adds the parts (the
/// summed token decrypts only the sum over every shard).
struct RankAnswer<'a> {
    svc: &'a RankingService,
    via: Option<&'a ServingPlane<'a>>,
    /// The query's deadline budget, when admission control issued one:
    /// a coalescing lane then withdraws the request once the budget is
    /// spent, so a stalled lane surfaces as a typed error instead of
    /// blocking.
    budget: Option<&'a DeadlineBudget>,
}

impl Service for RankAnswer<'_> {
    type Request = LweCiphertext<u64>;
    type Part = Vec<u64>;
    type Response = Vec<u64>;

    fn outer_span(&self) -> &'static str {
        "rank.answer"
    }

    fn shard_span(&self) -> &'static str {
        "rank.shard"
    }

    fn num_shards(&self) -> usize {
        self.svc.shards.len()
    }

    fn serve(&self, idx: usize, ct: &LweCiphertext<u64>) -> Result<Vec<u8>, ServeError> {
        let shard = &self.svc.shards[idx];
        let chunk = &ct.c[shard.col_start..shard.col_start + shard.db.cols()];
        let part = match self.via {
            Some(plane) => {
                let deadline = self.budget.map_or(Ok(Duration::MAX), DeadlineBudget::check)?;
                plane.rank_chunk_within(idx, chunk.to_vec(), deadline)?
            }
            None => self.svc.shard_answer(idx, chunk),
        };
        let mut w = WireWriter::new();
        w.put_u64_slice(&part);
        Ok(w.finish())
    }

    fn parse(&self, _idx: usize, payload: &[u8]) -> Result<Vec<u64>, WireError> {
        let mut r = WireReader::new(payload);
        let part = r.get_u64_slice()?;
        r.finish()?;
        if part.len() != self.svc.rows {
            return Err(WireError::Invalid("shard answer has the wrong row count"));
        }
        Ok(part)
    }

    fn combine(&self, parts: Vec<Vec<u64>>) -> Vec<u64> {
        let mut total = vec![0u64; self.svc.rows];
        for part in parts {
            for (t, p) in total.iter_mut().zip(part.iter()) {
                *t = t.wadd(*p);
            }
        }
        total
    }
}

/// Records a service's analytic noise margin at upload dimension `m`
/// ([`Underhood::noise_margin_bits`]) as the gauge
/// `rlwe.noise_budget_bits[label]`, so every metrics snapshot shows the
/// headroom the build-time asserts only require to be positive.
pub(crate) fn record_noise_budget_gauge(label: &'static str, uh: &Underhood, m: usize) {
    let bits = uh.noise_margin_bits(m);
    tiptoe_obs::metrics().gauge_with("rlwe.noise_budget_bits", Some(label.into())).set(bits);
}

impl RankingService {
    /// Builds the service from batch artifacts: shards the matrix,
    /// computes each shard's SimplePIR hint, and prepares the
    /// NTT-ready limb decomposition of their sum for token generation.
    pub fn build(config: &TiptoeConfig, artifacts: &IndexArtifacts) -> Self {
        Self::from_matrix(config, &artifacts.rank_matrix)
    }

    /// [`RankingService::build`] over the Figure 3 matrix alone.
    fn from_matrix(config: &TiptoeConfig, matrix: &Mat<i8>) -> Self {
        let uh = Underhood::with_outer(config.rank_lwe, config.rlwe, config.switch_log_q2);
        let m = matrix.cols();
        let d = config.d_reduced;
        let a = MatrixA::new(derive_seed(config.seed, 0xA124), m, config.rank_lwe.n);
        assert!(
            uh.supports_upload_dim(m),
            "upload dimension {m} exceeds the noise budget of the ranking parameters"
        );
        record_noise_budget_gauge("ranking", &uh, m);

        let t0 = Instant::now();
        // Vertical partition on cluster boundaries: shard w covers a
        // contiguous range of clusters (multiples of d columns).
        let c = m / d;
        let w = config.num_shards.min(c.max(1));
        let mut shards = Vec::with_capacity(w);
        let mut raw: Option<Mat<u64>> = None;
        let clusters_per = c.div_ceil(w);
        let mut cluster = 0usize;
        while cluster < c {
            let hi = (cluster + clusters_per).min(c);
            let col_start = cluster * d;
            let col_end = hi * d;
            let db = matrix.column_slice(col_start, col_end);
            let range = a.row_range(col_start, col_end - col_start);
            // The hint is bit-identical at any thread count, so the
            // build is deterministic.
            let hint = scheme::preproc::<u64>(&db, &range, config.parallelism.num_threads);
            // Every H_w is corpus-only, so H = Σ_w H_w is taken here,
            // once, and not per token.
            match raw.as_mut() {
                Some(total) => {
                    for (t, &h) in total.data_mut().iter_mut().zip(hint.data()) {
                        *t = t.wrapping_add(h);
                    }
                }
                None => raw = Some(hint),
            }
            shards.push(RankingShard { col_start, db });
            cluster = hi;
        }
        let raw = raw.expect("at least one shard");
        let token_hint = TokenHint { server: uh.preprocess_hint(&raw), raw };
        let preproc_time = t0.elapsed();

        Self {
            shards,
            token_hint,
            uh,
            a,
            rows: matrix.rows(),
            cols: m,
            d,
            parallelism: config.parallelism,
            preproc_time,
        }
    }

    /// The parallelism knobs this service was built with.
    pub fn parallelism(&self) -> Parallelism {
        self.parallelism
    }

    /// The composed-scheme parameters (shared with clients).
    pub fn underhood(&self) -> &Underhood {
        &self.uh
    }

    /// The public matrix clients encrypt against.
    pub fn public_matrix(&self) -> MatrixA {
        self.a
    }

    /// Scores returned per query (padded cluster size).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Upload dimension `m = d·C`.
    pub fn upload_dim(&self) -> usize {
        self.cols
    }

    /// Number of worker shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Bytes of index state held across all workers: the matrix, one
    /// byte an entry, and the NTT-ready hint polys.
    pub fn server_storage_bytes(&self) -> u64 {
        let matrix: usize = self.shards.iter().map(|s| std::mem::size_of_val(s.db.data())).sum();
        matrix as u64 + self.token_hint.server.byte_len()
    }

    /// Incrementally indexes one new document (§3.2 "Handling updates
    /// to the corpus"): writes its quantized embedding (the signed
    /// entries of [`tiptoe_embed::quantize::Quantizer::to_i8`]) into the
    /// padding slot `(cluster, row)`, updates the summed hint by the
    /// rank-one correction `ΔH[row] = Σ_j q[j]·A[col_j]`, and
    /// refreshes only the NTT chunk containing `row` — no full
    /// re-preprocessing.
    ///
    /// Outstanding query tokens become stale (the paper: tokens "are
    /// usable until the document corpus changes").
    ///
    /// # Panics
    ///
    /// Panics if the slot is out of range, already occupied (nonzero),
    /// or `entries.len()` differs from the embedding dimension.
    pub fn add_document(&mut self, cluster: usize, row: usize, entries: &[i8]) {
        let d = entries.len();
        let col_lo = cluster * d;
        let col_hi = col_lo + d;
        assert!(col_hi <= self.cols, "cluster out of range");
        assert!(row < self.rows, "row out of range");
        let idx = self
            .shards
            .iter()
            .position(|s| col_lo >= s.col_start && col_hi <= s.col_start + s.db.cols())
            .expect("cluster maps into exactly one shard");
        let shard = &mut self.shards[idx];
        let local_lo = col_lo - shard.col_start;

        // 1. Write the matrix slot (must be padding).
        let slot = &mut shard.db.row_mut(row)[local_lo..local_lo + d];
        assert!(slot.iter().all(|&x| x == 0), "slot already occupied");
        slot.copy_from_slice(entries);

        // 2. Rank-one hint correction: ΔH[row] += Σ_j q[j]·A[col_lo+j].
        let hint = &mut self.token_hint;
        let n = self.a.cols();
        let range = self.a.row_range(col_lo, d);
        let mut a_row = vec![0u64; n];
        for (j, &qj) in entries.iter().enumerate() {
            if qj == 0 {
                continue;
            }
            range.expand_row(j, &mut a_row);
            let qj = qj.to_word::<u64>();
            for (h, &a_val) in hint.raw.row_mut(row).iter_mut().zip(a_row.iter()) {
                *h = h.wrapping_add(qj.wrapping_mul(a_val));
            }
        }

        // 3. Refresh only the NTT chunk holding `row`.
        let chunk = row / self.uh.outer().params().degree;
        let polys = self.uh.hint_chunk_polys(&hint.raw, chunk);
        hint.server.replace_chunk(chunk, polys);
    }

    /// Generates a (single-use) query token for a client's encrypted
    /// secret: `Enc2(H·s)` over the summed hint (§6.3, offline path).
    ///
    /// # Panics
    ///
    /// As [`RankingService::generate_token_expanded`].
    pub fn generate_token(&self, es: &EncryptedSecret) -> (QueryToken, ParallelTiming) {
        self.generate_token_expanded(&es.expand(&self.uh))
    }

    /// Token generation over a pre-expanded secret; the expansion can
    /// be shared with the URL service (§A.3's shared-key upload).
    pub fn generate_token_expanded(&self, es: &ExpandedSecret) -> (QueryToken, ParallelTiming) {
        let (mut tokens, timing) = self.generate_token_expanded_many(&[es]);
        (tokens.pop().expect("one token per secret"), timing)
    }

    /// Token generation for `B` clients: the summed hint's polynomials
    /// are read from DRAM once for the whole batch (the token-path
    /// counterpart of [`RankingService::shard_answer_many`]). Returns
    /// one token per client, each bit-identical at every `B`, plus the
    /// timing of the pass. A direct fetch is the `B = 1` case; the
    /// serving plane's token lane flushes through the same kernel.
    pub fn generate_token_expanded_many(
        &self,
        secrets: &[&ExpandedSecret],
    ) -> (Vec<QueryToken>, ParallelTiming) {
        let mut span = tiptoe_obs::span("rank.token");
        span.attr_u64("batch", secrets.len() as u64);
        // The threads split the NTT coefficients of every (chunk, limb)
        // sum; the tokens are bit-identical to the sequential
        // evaluation.
        let threads = self.parallelism.num_threads;
        let hint = &self.token_hint.server;
        let (tokens, elapsed) =
            timed(|| self.uh.generate_token_expanded_many(hint, secrets, threads));
        (tokens, ParallelTiming { wall: elapsed, cpu: elapsed })
    }

    /// The column range `[start, end)` served by shard `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn shard_columns(&self, idx: usize) -> (usize, usize) {
        let s = &self.shards[idx];
        (s.col_start, s.col_start + s.db.cols())
    }

    /// The cluster range `[start, end)` served by shard `idx` (shards
    /// partition on cluster boundaries, so this is exact).
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn shard_clusters(&self, idx: usize) -> (usize, usize) {
        let (lo, hi) = self.shard_columns(idx);
        (lo / self.d, hi / self.d)
    }

    /// One worker's partial product `M_w · ct_w` (the §4.3 per-machine
    /// step, exposed for the message-passing cluster runtime).
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range or the chunk width differs from
    /// the shard's column count.
    pub fn shard_answer(&self, idx: usize, chunk: &[u64]) -> Vec<u64> {
        let shard = &self.shards[idx];
        assert_eq!(chunk.len(), shard.db.cols(), "chunk width mismatch");
        scheme::apply(&shard.db, &[chunk], 1).pop().expect("one answer per chunk")
    }

    /// Batched form of [`RankingService::shard_answer`]: answers `B`
    /// ciphertext chunks in one pass over the shard's matrix, so a
    /// database row is read from DRAM once for the whole batch. Each
    /// answer is bit-identical to the per-ciphertext path.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range or any chunk width differs from
    /// the shard's column count.
    pub fn shard_answer_many(&self, idx: usize, chunks: &[Vec<u64>]) -> Vec<Vec<u64>> {
        let shard = &self.shards[idx];
        let chunks: Vec<&[u64]> = chunks
            .iter()
            .map(|chunk| {
                assert_eq!(chunk.len(), shard.db.cols(), "chunk width mismatch");
                chunk.as_slice()
            })
            .collect();
        scheme::apply(&shard.db, &chunks, self.parallelism.num_threads)
    }

    /// Answers an online ranking query: workers compute their partial
    /// matrix-vector products, the coordinator sums.
    ///
    /// # Panics
    ///
    /// Panics if the ciphertext dimension differs from `d·C`.
    pub fn answer(&self, ct: &LweCiphertext<u64>) -> (Vec<u64>, ParallelTiming) {
        self.answer_via(ct, None)
    }

    /// [`RankingService::answer`], optionally routing each shard's
    /// compute through the serving plane's coalescing lanes so
    /// concurrent queries share database scans. Coalesced answers are
    /// bit-identical to direct ones.
    ///
    /// # Panics
    ///
    /// Panics if the ciphertext dimension differs from `d·C`.
    pub fn answer_via(
        &self,
        ct: &LweCiphertext<u64>,
        via: Option<&ServingPlane<'_>>,
    ) -> (Vec<u64>, ParallelTiming) {
        let d = self
            .dispatch_answer(ct, &FaultPlan::none(), &FaultPolicy::default(), None, via, None)
            .expect("an unbudgeted dispatch fails only on a crashed lane");
        (d.response, d.timing)
    }

    /// Dispatches an online ranking query through the typed service
    /// plane ([`tiptoe_net::dispatch`]): transcript accounting via
    /// `ledger`, fault handling under `plan`/`policy` (one untimed
    /// attempt per shard when the policy is disabled), optional batch
    /// coalescing via the serving plane, and the overload-safety
    /// layers — the query's deadline `budget` is checked before the
    /// fan-out and charged with its wall time. One engine for every
    /// serving mode.
    ///
    /// With a benign plan every shard answers on the first attempt and
    /// the response equals [`RankingService::answer`] exactly. Under a
    /// disabled policy, without a budget or a plane, this cannot fail.
    ///
    /// # Errors
    ///
    /// [`ServeError::ShardFailed`] when a shard never delivers within
    /// the policy's retries, hedges and deadline (the summed token
    /// decrypts only the sum over every shard),
    /// [`ServeError::DeadlineExceeded`] when the budget runs out,
    /// [`ServeError::LaneFailed`] on a permanently crashed coalescer
    /// lane, [`ServeError::InvalidPolicy`] on an invalid enabled
    /// policy.
    ///
    /// # Panics
    ///
    /// Panics if the ciphertext dimension differs from `d·C`.
    pub fn dispatch_answer(
        &self,
        ct: &LweCiphertext<u64>,
        plan: &FaultPlan,
        policy: &FaultPolicy,
        ledger: Option<&Ledger<'_>>,
        via: Option<&ServingPlane<'_>>,
        budget: Option<&DeadlineBudget>,
    ) -> Result<Dispatched<Vec<u64>>, ServeError> {
        assert_eq!(ct.c.len(), self.cols, "ciphertext dimension mismatch");
        let ctx = DispatchContext::new(plan, policy).with_budget(budget);
        dispatch(&RankAnswer { svc: self, via, budget }, ct, 0, ctx, ledger)
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

    use crate::batch::run_batch_jobs;

    fn setup() -> (TiptoeConfig, IndexArtifacts, RankingService) {
        let corpus = generate(&CorpusConfig::small(200, 9), 0);
        let config = TiptoeConfig::test_small(200, 9);
        let embedder = TextEmbedder::new(config.d_embed, 9, 0);
        let artifacts = run_batch_jobs(&config, &embedder, &corpus);
        let service = RankingService::build(&config, &artifacts);
        (config, artifacts, service)
    }

    #[test]
    fn private_scores_match_plaintext_inner_products() {
        let (config, artifacts, service) = setup();
        let mut rng = seeded_rng(31);
        let uh = service.underhood();
        let key = ClientKey::generate(uh, config.rank_lwe.n, &mut rng);
        let es = EncryptedSecret::encrypt(uh, &key, &mut rng);
        let (token, _) = service.generate_token(&es);
        let mut decoded = uh.decode_token::<u64>(&key, &token);

        // Query for cluster i*: random quantized embedding vector.
        let quant = config.quantizer();
        let target = artifacts.clustering.num_clusters() / 2;
        let d = config.d_reduced;
        let mut qvec: Vec<f32> = (0..d).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        tiptoe_embed::vector::normalize(&mut qvec);
        let q_zp = quant.to_zp(&qvec);
        let mut v = vec![0u64; service.upload_dim()];
        for (j, &x) in q_zp.iter().enumerate() {
            v[target * d + j] = x as u64;
        }
        let ct = uh.encrypt_query::<u64, _>(&key, &service.public_matrix(), &v, &mut rng);
        let (applied, _) = service.answer(&ct);
        let scores = uh.decrypt(&mut decoded, &applied);

        // Reference: quantized inner products with the cluster members.
        let members = &artifacts.clustering.members[target];
        for ((row, &doc), &score) in members.iter().enumerate().zip(scores.iter()) {
            let doc_zp = quant.to_zp(&artifacts.reduced_embeddings[doc as usize]);
            let want = quant.quantized_dot(&doc_zp, &q_zp);
            let got = quant.encoder().decode_signed(score);
            assert_eq!(got, want, "row {row} (doc {doc})");
        }
        // Padding rows decode to zero.
        for (row, &score) in scores.iter().enumerate().skip(members.len()) {
            assert_eq!(quant.encoder().decode_signed(score), 0, "padding row {row}");
        }
    }

    fn token_hint_bytes(service: &RankingService) -> u64 {
        service.token_hint.server.byte_len()
    }

    #[test]
    fn one_summed_token_hint_under_every_policy() {
        let (config, artifacts, plain) = setup();
        let mut tolerant_config = config.clone();
        tolerant_config.fault_policy = FaultPolicy::tolerant();
        let tolerant = RankingService::build(&tolerant_config, &artifacts);
        assert!(plain.num_shards() >= 2 && tolerant.num_shards() == plain.num_shards());

        // One hint's worth of polynomials, whatever the fault policy.
        let uh = plain.underhood();
        let ring = uh.outer().params().degree;
        let polys = plain.rows().div_ceil(ring) * uh.limb_count() as usize * config.rank_lwe.n;
        assert_eq!(token_hint_bytes(&plain), (polys * ring * 8) as u64);
        assert_eq!(tolerant.server_storage_bytes(), plain.server_storage_bytes());

        // Both hand out the same one token per client.
        let mut rng = seeded_rng(33);
        let key = ClientKey::generate(uh, config.rank_lwe.n, &mut rng);
        let expanded = EncryptedSecret::encrypt(uh, &key, &mut rng).expand(uh);
        let (tokens, _) = tolerant.generate_token_expanded_many(&[&expanded, &expanded]);
        let (token, _) = plain.generate_token_expanded(&expanded);
        assert_eq!(tokens.len(), 2);
        for t in &tokens {
            assert_eq!(t.encode(), token.encode());
        }
    }

    #[test]
    fn deployed_parameters_hold_4096_ranking_hint_polynomials() {
        // `TiptoeConfig::text`: 4 shards, N = n = 2048, one chunk of
        // rows, two limbs.
        let config = TiptoeConfig::text(4096, 1);
        let cols = config.num_shards * config.d_reduced;
        let matrix = Mat::<i8>::from_fn(4, cols, |r, c| ((r + c) % 8) as i8);
        let service = RankingService::from_matrix(&config, &matrix);
        assert_eq!(service.num_shards(), 4);
        assert_eq!(token_hint_bytes(&service), 4096 * 2048 * 8);
    }

    #[test]
    fn sharding_covers_all_columns_exactly_once() {
        let (_, artifacts, service) = setup();
        assert!(service.num_shards() >= 2);
        let total_cols: usize = service.shards.iter().map(|s| s.db.cols()).sum();
        assert_eq!(total_cols, artifacts.rank_matrix.cols());
        let mut expected_start = 0;
        for s in &service.shards {
            assert_eq!(s.col_start, expected_start);
            expected_start += s.db.cols();
        }
    }

    #[test]
    fn answer_rejects_wrong_dimension() {
        let (_, _, service) = setup();
        let ct = LweCiphertext { c: vec![0u64; service.upload_dim() + 1] };
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| service.answer(&ct)));
        assert!(result.is_err());
    }

    /// Lays `embeddings[cluster][row]` out as Figure 3's signed matrix
    /// and as `u32` residues mod `p`, the reference layout, then
    /// decrypts several queries against both: the service's hint and
    /// answer for the signed matrix, the residues' hint and a
    /// scalar-reference answer for the other. Every row's score must
    /// agree, and with the plaintext `quantized_dot` of its document.
    fn assert_signed_entries_decrypt_like_residues(
        config: &TiptoeConfig,
        embeddings: &[Vec<Vec<f32>>],
    ) -> Mat<i8> {
        let (quant, d, params) = (config.quantizer(), config.d_reduced, &config.rank_lwe);
        let rows = embeddings.iter().map(Vec::len).max().expect("one cluster");
        let mut matrix = Mat::<i8>::zeros(rows, d * embeddings.len());
        for (cluster, docs) in embeddings.iter().enumerate() {
            for (row, emb) in docs.iter().enumerate() {
                matrix.row_mut(row)[cluster * d..][..d].copy_from_slice(&quant.to_i8(emb));
            }
        }
        let residues = Mat::from_fn(rows, matrix.cols(), |i, j| {
            tiptoe_math::zq::reduce_signed(matrix.get(i, j).into(), params.p) as u32
        });
        let service = RankingService::from_matrix(config, &matrix);
        let a = service.public_matrix();
        let residue_hint = scheme::preproc::<u64>(&residues, &a.row_range(0, matrix.cols()), 1);
        let mut rng = seeded_rng(35);
        let uh = service.underhood();
        let key = ClientKey::generate(uh, params.n, &mut rng);
        let sk = key.lwe_key::<u64>(params);
        for query in 0..3 {
            let target = query % embeddings.len();
            let mut qvec: Vec<f32> = (0..d).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
            tiptoe_embed::vector::normalize(&mut qvec);
            let q_zp = quant.to_zp(&qvec);
            let mut v = vec![0u64; matrix.cols()];
            for (x, &q) in v[target * d..].iter_mut().zip(&q_zp) {
                *x = q.into();
            }
            let ct = uh.encrypt_query::<u64, _>(&key, &a, &v, &mut rng);
            let signed = service.answer(&ct).0;
            let signed = scheme::decrypt(params, &sk, &service.token_hint.raw, &signed);
            let dot = |i| tiptoe_math::simd::dot_narrow_scalar([residues.row(i)], &ct.c)[0];
            let residue = (0..rows).map(dot).collect::<Vec<u64>>();
            let residue = scheme::decrypt(params, &sk, &residue_hint, &residue);
            assert_eq!(signed, residue, "query {query}");
            for (row, &score) in signed.iter().enumerate() {
                let want = embeddings[target]
                    .get(row)
                    .map_or(0, |emb| quant.quantized_dot(&quant.to_zp(emb), &q_zp));
                assert_eq!(quant.encoder().decode_signed(score), want, "query {query} row {row}");
            }
        }
        matrix
    }

    #[test]
    fn signed_entries_decrypt_like_residues_at_test_small() {
        let (config, artifacts, _) = setup();
        let members = &artifacts.clustering.members;
        let embeddings: Vec<Vec<Vec<f32>>> = members
            .iter()
            .map(|docs| docs.iter().map(|&doc| artifacts.reduced_embeddings[doc as usize].clone()))
            .map(Iterator::collect)
            .collect();
        let matrix = assert_signed_entries_decrypt_like_residues(&config, &embeddings);
        assert_eq!(matrix, artifacts.rank_matrix, "the batch jobs' layout");
    }

    #[test]
    fn signed_entries_decrypt_like_residues_at_text_parameters() {
        // The deployed ranking parameters (n = 2048, p = 2^17, 4
        // shards) over four clusters of random unit embeddings, one of
        // them shorter so that its last rows are padding.
        let config = TiptoeConfig::text(4096, 1);
        let mut rng = seeded_rng(37);
        let embeddings: Vec<Vec<Vec<f32>>> = (0..4)
            .map(|cluster| {
                let docs = if cluster == 2 { 3 } else { 5 };
                (0..docs)
                    .map(|_| {
                        let mut e: Vec<f32> =
                            (0..config.d_reduced).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
                        tiptoe_embed::vector::normalize(&mut e);
                        e
                    })
                    .collect()
            })
            .collect();
        assert_signed_entries_decrypt_like_residues(&config, &embeddings);
    }

    #[test]
    fn storage_accounting_is_positive() {
        let (_, _, service) = setup();
        // One byte an entry: the matrix holds `i8`s.
        let matrix = (service.rows() * service.upload_dim()) as u64;
        assert_eq!(service.server_storage_bytes(), matrix + token_hint_bytes(&service));
        assert!(service.preproc_time > Duration::ZERO);
    }
}
