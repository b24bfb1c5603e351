//! Deployment configuration: the knobs of §7, §8.1, and Appendix C.

use tiptoe_cluster::ClusterConfig;
use tiptoe_embed::quantize::Quantizer;
use tiptoe_lwe::LweParams;
use tiptoe_net::{AdmissionPolicy, CoalescePolicy, ConfigError, FaultPolicy};
use tiptoe_rlwe::RlweParams;

/// Server-side parallelism knob.
///
/// `num_threads == 0` means "one thread per available core" (the
/// `TIPTOE_THREADS` environment variable overrides the auto-detected
/// count); any other value pins the thread count exactly. Every
/// kernel (`scan`, `preproc`, token generation) is bit-identical at
/// any thread count, so this knob trades wall-clock time only — never
/// results. How many ciphertexts share one database pass is not set
/// here: a lane flush answers whatever batch
/// `CoalescePolicy::max_batch` let it collect.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Parallelism {
    /// Threads per kernel call on the build and lane-flush paths
    /// (`0` = one per core).
    pub num_threads: usize,
}

/// All parameters of a Tiptoe deployment.
#[derive(Debug, Clone)]
pub struct TiptoeConfig {
    /// Raw embedding dimension (768 text / 512 image).
    pub d_embed: usize,
    /// Post-PCA dimension (192 text / 384 image, §7).
    pub d_reduced: usize,
    /// Quantization precision bits (3 = signed 4-bit, §8.6).
    pub quant_bits: u32,
    /// Inner LWE parameters for the ranking service (Appendix C).
    pub rank_lwe: LweParams,
    /// Inner LWE parameters for the URL service (Appendix C).
    pub url_lwe: LweParams,
    /// Outer RLWE parameters shared by both services (§6.2).
    pub rlwe: RlweParams,
    /// Modulus-switch target for token downloads.
    pub switch_log_q2: u32,
    /// Clustering configuration (§7).
    pub cluster: ClusterConfig,
    /// URLs per compressed batch (§5 uses ≈880).
    pub urls_per_batch: usize,
    /// Number of ranking-service worker shards (§4.3; the paper's
    /// text deployment uses 40).
    pub num_shards: usize,
    /// Documents sampled for the PCA fit.
    pub pca_sample: usize,
    /// Server-side thread count.
    pub parallelism: Parallelism,
    /// Coordinator fault-recovery knobs (timeouts, retries, hedging,
    /// a per-shard deadline). Disabled by default: every shard then
    /// gets one untimed attempt and the answers are the
    /// fault-oblivious protocol's. The policy changes how a shard is
    /// asked, never the token layout: under every policy a query needs
    /// every shard, and one still down once the knobs are spent fails
    /// the query with [`tiptoe_net::ServeError::ShardFailed`].
    pub fault_policy: FaultPolicy,
    /// Cross-client batch-coalescing knobs for the serving plane
    /// ([`crate::serving::ServingPlane`]): how many concurrent query
    /// ciphertexts a shard groups into one database scan, and how long
    /// an incomplete batch waits for co-batched traffic. Coalesced
    /// answers are bit-identical to sequential ones at every batch
    /// size.
    pub coalesce: CoalescePolicy,
    /// Admission-control knobs for the serving plane: the bounded
    /// inflight-query window and the per-admitted-query deadline
    /// budget. Disabled by default — every query is admitted and
    /// unbudgeted, exactly the pre-overload behavior. When enabled,
    /// queries past `admission.max_inflight` (plus the queue
    /// depth) are shed with a typed error before consuming a token or
    /// moving any bytes.
    pub admission: AdmissionPolicy,
    /// Master seed (all internal randomness derives from it).
    pub seed: u64,
}

impl TiptoeConfig {
    /// Paper-faithful text-search parameters, scaled to `num_docs`.
    ///
    /// Uses `n = 2048 / q = 2^64 / p = 2^17 / σ = 81920` for ranking
    /// and the Table 11 rule for the URL service; clusters of size
    /// ≈ √N; PCA 768 → 192.
    pub fn text(num_docs: usize, seed: u64) -> Self {
        Self {
            d_embed: 768,
            d_reduced: 192,
            quant_bits: 3,
            rank_lwe: LweParams::ranking_text(),
            url_lwe: LweParams::url(991),
            rlwe: RlweParams::production(),
            switch_log_q2: 44,
            cluster: ClusterConfig::for_corpus(num_docs, seed),
            urls_per_batch: 880,
            num_shards: 4,
            pca_sample: 2048.min(num_docs),
            parallelism: Parallelism::default(),
            fault_policy: FaultPolicy::default(),
            coalesce: CoalescePolicy::default(),
            admission: AdmissionPolicy::default(),
            seed,
        }
    }

    /// Paper-faithful image-search parameters (512 → 384 dims,
    /// `p = 2^15`).
    pub fn image(num_docs: usize, seed: u64) -> Self {
        Self {
            d_embed: 512,
            d_reduced: 384,
            quant_bits: 3,
            rank_lwe: LweParams::ranking_image(),
            url_lwe: LweParams::url(991),
            rlwe: RlweParams::production(),
            switch_log_q2: 44,
            cluster: ClusterConfig::for_corpus(num_docs, seed),
            urls_per_batch: 880,
            num_shards: 8,
            pca_sample: 2048.min(num_docs),
            parallelism: Parallelism::default(),
            fault_policy: FaultPolicy::default(),
            coalesce: CoalescePolicy::default(),
            admission: AdmissionPolicy::default(),
            seed,
        }
    }

    /// Fast parameters for unit tests: full protocol structure with
    /// small (insecure) lattice dimensions and small embeddings.
    pub fn test_small(num_docs: usize, seed: u64) -> Self {
        let target = ((num_docs as f64).sqrt().round() as usize).clamp(8, 64);
        Self {
            d_embed: 96,
            d_reduced: 32,
            quant_bits: 3,
            rank_lwe: LweParams::insecure_test(64, 1 << 17, 81920.0),
            url_lwe: LweParams::insecure_test(32, 991, 6.4),
            rlwe: RlweParams { degree: 64, q_bits: 58, t: 1 << 24, sigma: 3.2 },
            switch_log_q2: 44,
            cluster: ClusterConfig {
                target_size: target,
                split_factor: 1.5,
                dual_assign_frac: 0.2,
                kmeans_sample: 1024.min(num_docs),
                kmeans_iters: 8,
                seed,
            },
            urls_per_batch: 16,
            num_shards: 2,
            pca_sample: 512.min(num_docs),
            parallelism: Parallelism::default(),
            fault_policy: FaultPolicy::default(),
            coalesce: CoalescePolicy::default(),
            admission: AdmissionPolicy::default(),
            seed,
        }
    }

    /// The ranking-side quantizer.
    pub fn quantizer(&self) -> Quantizer {
        Quantizer::new(self.quant_bits, self.rank_lwe.p)
    }

    /// Dimension of a client's inner secret: one secret serves both
    /// services (§A.3), so it is the larger of their two `n`.
    pub fn max_n(&self) -> usize {
        self.rank_lwe.n.max(self.url_lwe.n)
    }

    /// Checks cross-parameter consistency, surfacing policy
    /// misconfiguration as a typed [`ConfigError`] instead of a panic
    /// — the entry point for config loading.
    ///
    /// # Errors
    ///
    /// [`ConfigError`] naming the offending knob for any invalid
    /// fault, coalesce or admission policy, and for a ranking layout
    /// the `i8` matrix cannot hold: `quant_bits` above 6 (entries span
    /// `[−2^b, 2^b]`), or a ranking `p` that is not a power of two (a
    /// signed entry decrypts like its residue only when `p` divides
    /// `q`).
    ///
    /// # Panics
    ///
    /// Structural parameter errors (lattice dimensions, quantizer
    /// capacity, shard counts) are programming errors, not operator
    /// input, and still panic.
    pub fn try_validate(&self) -> Result<(), ConfigError> {
        self.rank_lwe.validate();
        self.url_lwe.validate();
        if self.quant_bits > 6 {
            return Err(ConfigError {
                field: "quant_bits",
                reason: "ranking entries span [-2^b, 2^b] and must fit an i8 (b <= 6)",
            });
        }
        if !self.rank_lwe.p.is_power_of_two() {
            return Err(ConfigError {
                field: "rank_lwe.p",
                reason: "the ranking matrix holds signed entries, which decrypt like residues \
                         only when p divides q = 2^64 (a power of two)",
            });
        }
        assert!(self.d_reduced <= self.d_embed, "PCA cannot increase dimension");
        let quant = self.quantizer();
        assert!(
            quant.encoder().max_dimension() >= self.d_reduced
                || quant.encoder().supports_normalized(self.d_reduced),
            "quantizer cannot host d = {} inner products",
            self.d_reduced
        );
        assert!(self.num_shards >= 1, "need at least one shard");
        if self.fault_policy.enabled {
            self.fault_policy.validate()?;
        }
        self.coalesce.validate()?;
        self.admission.validate()?;
        if self.admission.enabled {
            // An admitted query crosses several coalescer lanes (token
            // fetch, ranking shards, URL retrieval), and each lane may
            // wait up to `coalesce.max_wait` before flushing — more
            // under crash retries. A lane wait above 1/8 of the
            // per-query deadline budget could exhaust the budget on
            // queued waits alone, deadlining queries the plane had
            // capacity to serve.
            let floor = self.admission.deadline / 8;
            if self.coalesce.max_wait > floor {
                return Err(ConfigError {
                    field: "coalesce.max_wait",
                    reason: "lane wait exceeds the admission deadline budget floor \
                             (deadline/8); lane waits alone could deadline admitted queries",
                });
            }
        }
        assert!(self.urls_per_batch >= 1, "need at least one URL per batch");
        Ok(())
    }

    /// Checks cross-parameter consistency.
    ///
    /// # Panics
    ///
    /// Panics on any inconsistency, including the policy errors
    /// [`TiptoeConfig::try_validate`] reports as typed values.
    pub fn validate(&self) {
        if let Err(e) = self.try_validate() {
            panic!("{e}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_validate() {
        TiptoeConfig::text(100_000, 1).validate();
        TiptoeConfig::image(100_000, 1).validate();
        TiptoeConfig::test_small(500, 1).validate();
    }

    #[test]
    fn policy_misconfiguration_surfaces_as_typed_errors() {
        let mut c = TiptoeConfig::test_small(500, 1);
        c.coalesce.max_batch = 0;
        let err = c.try_validate().expect_err("zero batch");
        assert_eq!(err.field, "coalesce.max_batch");

        let mut c = TiptoeConfig::test_small(500, 1);
        c.admission.deadline = std::time::Duration::ZERO;
        let err = c.try_validate().expect_err("zero deadline");
        assert_eq!(err.field, "admission.deadline");

        // Admission admits exactly `max_inflight`, so an enabled plane
        // needs a positive capacity.
        let mut c = TiptoeConfig::test_small(500, 1);
        c.admission.enabled = true;
        c.admission.max_inflight = 0;
        let err = c.try_validate().expect_err("admission with zero capacity");
        assert_eq!(err.field, "admission.max_inflight");

        // A coalescer wait that could eat the whole deadline budget on
        // queued waits is rejected when admission is on — and only then
        // (unbudgeted queries tolerate any wait).
        let mut c = TiptoeConfig::test_small(500, 1);
        c.admission.enabled = true;
        c.admission.max_inflight = 2;
        c.admission.deadline = std::time::Duration::from_millis(4);
        c.coalesce.max_wait = std::time::Duration::from_millis(1);
        let err = c.try_validate().expect_err("lane wait above deadline/8");
        assert_eq!(err.field, "coalesce.max_wait");
        c.coalesce.max_wait = std::time::Duration::from_micros(500);
        c.try_validate().expect("lane wait at deadline/8 is fine");
        c.admission.enabled = false;
        c.coalesce.max_wait = std::time::Duration::from_millis(1);
        c.try_validate().expect("no admission, no deadline floor");

        let mut c = TiptoeConfig::test_small(500, 1);
        c.fault_policy = tiptoe_net::FaultPolicy::tolerant();
        c.fault_policy.attempt_timeout = std::time::Duration::ZERO;
        let err = c.try_validate().expect_err("zero attempt timeout");
        assert_eq!(err.field, "fault_policy.attempt_timeout");
    }

    #[test]
    fn ranking_entries_too_wide_for_i8_are_a_typed_error() {
        let mut c = TiptoeConfig::test_small(500, 1);
        c.quant_bits = 6;
        c.try_validate().expect("[-64, 64] fits an i8");
        c.quant_bits = 7;
        let err = c.try_validate().expect_err("[-128, 128] does not fit an i8");
        assert_eq!(err.field, "quant_bits");
    }

    #[test]
    fn odd_ranking_modulus_is_a_typed_error() {
        let mut c = TiptoeConfig::test_small(500, 1);
        c.rank_lwe.p = (1 << 17) - 1;
        let err = c.try_validate().expect_err("p does not divide 2^64");
        assert_eq!(err.field, "rank_lwe.p");
        c.rank_lwe.p = 1 << 15;
        c.try_validate().expect("any power of two divides 2^64");
    }

    #[test]
    fn text_preset_matches_paper_appendix_c() {
        let c = TiptoeConfig::text(1 << 20, 0);
        assert_eq!(c.rank_lwe.n, 2048);
        assert_eq!(c.rank_lwe.log_q, 64);
        assert_eq!(c.rank_lwe.p, 1 << 17);
        assert_eq!(c.url_lwe.n, 1408);
        assert_eq!(c.url_lwe.log_q, 32);
        assert_eq!(c.d_embed, 768);
        assert_eq!(c.d_reduced, 192);
        assert_eq!(c.urls_per_batch, 880);
    }

    #[test]
    fn image_preset_uses_wider_reduced_dimension() {
        let c = TiptoeConfig::image(1 << 20, 0);
        assert_eq!(c.d_embed, 512);
        assert_eq!(c.d_reduced, 384);
        assert_eq!(c.rank_lwe.p, 1 << 15);
    }

    #[test]
    fn cluster_target_scales_with_sqrt_n() {
        let c = TiptoeConfig::text(1 << 20, 0);
        assert_eq!(c.cluster.target_size, 1 << 10);
    }
}
