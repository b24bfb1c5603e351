//! LWE parameter selection, reproducing Appendix C of the paper.
//!
//! The paper fixes two base configurations:
//!
//! - **Ranking** (`q = 2^64`): secret dimension `n = 2048`, error
//!   σ = 81 920, ternary secrets — 128-bit security for encrypted
//!   vectors of dimension up to `2^27` (Table 12).
//! - **URL retrieval** (`q = 2^32`): `n = 1408`, σ = 6.4 — 128-bit
//!   security up to dimension `2^20`; beyond that, `n = 1608` with
//!   σ = 0.5 (Table 11).
//!
//! Given the upload dimension `m` (the number of homomorphic
//! multiply-accumulate steps an output coordinate absorbs), the largest
//! usable plaintext modulus `p` follows from the correctness condition
//!
//! ```text
//!     z · σ · (p/2) · √m  <  q / (2p)        (failure ≈ 2^-40)
//! ```
//!
//! i.e. `p = √( q / (z·σ·√m) )` with `z ≈ 7.5` the Gaussian tail bound
//! for a per-coordinate failure probability of `2^-40`. This formula
//! recovers the paper's Tables 11 and 12 to within rounding (the
//! `table11_12_params` bench binary prints both side by side).

use tiptoe_math::sample::BOX_MULLER_MAX_SIGMA;

/// Gaussian tail multiplier for a 2^-40 per-coordinate failure
/// probability: `exp(-z²/2) ≈ 2^-40` gives `z ≈ 7.45`; the paper's
/// tables are consistent with a slightly conservative `7.55`.
pub const GAUSSIAN_TAIL_Z: f64 = 7.55;

/// Parameters of the inner (SimplePIR-style) LWE scheme.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LweParams {
    /// Secret dimension `n` (lattice dimension).
    pub n: usize,
    /// log2 of the ciphertext modulus (32 or 64).
    pub log_q: u32,
    /// Plaintext modulus `p`.
    pub p: u64,
    /// Error standard deviation σ.
    pub sigma: f64,
}

impl LweParams {
    /// The paper's ranking configuration (`q = 2^64`, Appendix C) with
    /// a caller-chosen plaintext modulus.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range (see [`LweParams::validate`]).
    pub fn ranking(p: u64) -> Self {
        let params = Self { n: 2048, log_q: 64, p, sigma: 81920.0 };
        params.validate();
        params
    }

    /// The paper's text-search ranking parameters (`p = 2^17`).
    pub fn ranking_text() -> Self {
        Self::ranking(1 << 17)
    }

    /// The paper's image-search ranking parameters (`p = 2^15`).
    pub fn ranking_image() -> Self {
        Self::ranking(1 << 15)
    }

    /// The paper's URL-retrieval (PIR) configuration (`q = 2^32`,
    /// `n = 1408`, σ = 6.4) with a caller-chosen plaintext modulus.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range (see [`LweParams::validate`]).
    pub fn url(p: u64) -> Self {
        let params = Self { n: 1408, log_q: 32, p, sigma: 6.4 };
        params.validate();
        params
    }

    /// URL-retrieval parameters with `p` chosen automatically for an
    /// upload dimension `m` (Table 11).
    pub fn url_for_upload(m: usize) -> Self {
        let base = Self { n: 1408, log_q: 32, p: 4, sigma: 6.4 };
        Self::url(base.max_plaintext_modulus(m))
    }

    /// Scaled-down parameters for fast unit tests: 128-bit *structure*
    /// (not security!) with `n = 64`.
    pub fn insecure_test(log_q: u32, p: u64, sigma: f64) -> Self {
        Self { n: 64, log_q, p, sigma }
    }

    /// Checks internal consistency.
    ///
    /// # Panics
    ///
    /// Panics if `log_q ∉ {32, 64}`, `p < 2`, `p ≥ 2^(log_q - 10)`
    /// (no room for noise), `n == 0`, or σ is outside
    /// `[0, BOX_MULLER_MAX_SIGMA]`: a noise draw is then always two
    /// generator words, never a rejection and a redraw.
    pub fn validate(&self) {
        assert!(self.log_q == 32 || self.log_q == 64, "q must be 2^32 or 2^64");
        assert!(self.n > 0, "secret dimension must be positive");
        assert!(self.p >= 2, "plaintext modulus too small");
        assert!(
            (0.0..=BOX_MULLER_MAX_SIGMA).contains(&self.sigma),
            "noise width outside [0, 2^57], where a Box–Muller draw can reject"
        );
        assert!(
            (self.p as u128) < (1u128 << (self.log_q - 10)),
            "plaintext modulus leaves no noise room"
        );
    }

    /// The ciphertext modulus as a `u128` (exact even for `q = 2^64`).
    pub fn q_u128(&self) -> u128 {
        1u128 << self.log_q
    }

    /// The scaling factor `Δ = ⌊q/p⌋`.
    pub fn delta(&self) -> u64 {
        (self.q_u128() / self.p as u128) as u64
    }

    /// Largest plaintext modulus `p` for which decryption after `m`
    /// multiply-accumulate steps fails with probability ≈ 2^-40 per
    /// coordinate (the formula behind Tables 11 and 12).
    pub fn max_plaintext_modulus(&self, m: usize) -> u64 {
        let q = self.q_u128() as f64;
        let p = (q / (GAUSSIAN_TAIL_Z * self.sigma * (m as f64).sqrt())).sqrt();
        p.round() as u64
    }

    /// High-probability bound on the absolute decryption noise
    /// `|M·e|` after applying a matrix with `m` columns and entries
    /// bounded by `p` (centered: `±p/2`).
    pub fn noise_bound(&self, m: usize) -> f64 {
        GAUSSIAN_TAIL_Z * self.sigma * (self.p as f64 / 2.0) * (m as f64).sqrt()
    }

    /// Whether decryption is reliable after `m` multiply-accumulate
    /// steps: the noise bound must stay below `Δ/2`.
    pub fn supports_upload_dim(&self, m: usize) -> bool {
        self.noise_bound(m) < self.delta() as f64 / 2.0
    }

    /// Maximum *secure* upload dimension for this `(n, q, σ)` triple,
    /// following the lattice-estimator results the paper cites
    /// (citation \[6\] in Appendix C): `(2048, 2^64, 81920) → 2^27`,
    /// `(1408, 2^32, 6.4) → 2^20`, `(1608, 2^32, 0.5) → 2^24`.
    ///
    /// Returns `None` for parameter triples the paper does not cover
    /// (including the intentionally insecure test parameters).
    pub fn max_secure_upload_dim(&self) -> Option<usize> {
        match (self.n, self.log_q) {
            (2048, 64) if self.sigma >= 81920.0 => Some(1 << 27),
            (2048, 64) if self.sigma >= 4096.0 => Some(1 << 24),
            (1408, 32) if self.sigma >= 6.4 => Some(1 << 20),
            (1608, 32) if self.sigma >= 0.5 => Some(1 << 24),
            _ => None,
        }
    }
}

/// One row of the paper's Table 11 / Table 12.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ParamTableRow {
    /// log2 of the upload dimension `m`.
    pub log_m: u32,
    /// Plaintext modulus from the paper.
    pub paper_p: u64,
    /// Lattice dimension `n`.
    pub n: usize,
    /// Error standard deviation σ.
    pub sigma: f64,
}

/// Table 11 of the paper: parameters for `q = 2^32` (URL retrieval).
pub const TABLE_11: [ParamTableRow; 12] = [
    ParamTableRow { log_m: 13, paper_p: 991, n: 1408, sigma: 6.4 },
    ParamTableRow { log_m: 14, paper_p: 833, n: 1408, sigma: 6.4 },
    ParamTableRow { log_m: 15, paper_p: 701, n: 1408, sigma: 6.4 },
    ParamTableRow { log_m: 16, paper_p: 589, n: 1408, sigma: 6.4 },
    ParamTableRow { log_m: 17, paper_p: 495, n: 1408, sigma: 6.4 },
    ParamTableRow { log_m: 18, paper_p: 416, n: 1408, sigma: 6.4 },
    ParamTableRow { log_m: 19, paper_p: 350, n: 1408, sigma: 6.4 },
    ParamTableRow { log_m: 20, paper_p: 294, n: 1408, sigma: 6.4 },
    ParamTableRow { log_m: 21, paper_p: 887, n: 1608, sigma: 0.5 },
    ParamTableRow { log_m: 22, paper_p: 745, n: 1608, sigma: 0.5 },
    ParamTableRow { log_m: 23, paper_p: 627, n: 1608, sigma: 0.5 },
    ParamTableRow { log_m: 24, paper_p: 527, n: 1608, sigma: 0.5 },
];

/// Table 12 of the paper: parameters for `q = 2^64` (ranking). The
/// paper reports `p` as a power of two (the fixed-precision encoding
/// wants `p | q`), i.e. the table's `p` is our formula's value rounded
/// down to a power of two.
pub const TABLE_12: [ParamTableRow; 12] = [
    ParamTableRow { log_m: 13, paper_p: 1 << 19, n: 2048, sigma: 81920.0 },
    ParamTableRow { log_m: 14, paper_p: 1 << 18, n: 2048, sigma: 81920.0 },
    ParamTableRow { log_m: 15, paper_p: 1 << 18, n: 2048, sigma: 81920.0 },
    ParamTableRow { log_m: 16, paper_p: 1 << 18, n: 2048, sigma: 81920.0 },
    ParamTableRow { log_m: 17, paper_p: 1 << 18, n: 2048, sigma: 81920.0 },
    ParamTableRow { log_m: 18, paper_p: 1 << 17, n: 2048, sigma: 81920.0 },
    ParamTableRow { log_m: 19, paper_p: 1 << 17, n: 2048, sigma: 81920.0 },
    ParamTableRow { log_m: 20, paper_p: 1 << 17, n: 2048, sigma: 81920.0 },
    ParamTableRow { log_m: 21, paper_p: 1 << 17, n: 2048, sigma: 81920.0 },
    ParamTableRow { log_m: 22, paper_p: 1 << 19, n: 2048, sigma: 4096.0 },
    ParamTableRow { log_m: 23, paper_p: 1 << 18, n: 2048, sigma: 4096.0 },
    ParamTableRow { log_m: 24, paper_p: 1 << 18, n: 2048, sigma: 4096.0 },
];

/// Computes our formula's plaintext modulus for a table row.
pub fn computed_p(row: &ParamTableRow, log_q: u32) -> u64 {
    let params = LweParams { n: row.n, log_q, p: 4, sigma: row.sigma };
    params.max_plaintext_modulus(1 << row.log_m)
}

/// Rounds down to a power of two (used to compare against Table 12,
/// which reports power-of-two moduli).
pub fn floor_pow2(x: u64) -> u64 {
    assert!(x >= 1);
    1 << (63 - x.leading_zeros())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_11_reproduced_within_rounding() {
        for row in &TABLE_11 {
            let got = computed_p(row, 32);
            let err = (got as f64 - row.paper_p as f64).abs() / row.paper_p as f64;
            assert!(
                err < 0.02,
                "m=2^{}: computed {} vs paper {}",
                row.log_m,
                got,
                row.paper_p
            );
        }
    }

    #[test]
    fn table_12_reproduced_within_one_power_of_two() {
        for row in &TABLE_12 {
            let got = floor_pow2(computed_p(row, 64));
            let ratio = got as f64 / row.paper_p as f64;
            assert!(
                (0.5..=2.0).contains(&ratio),
                "m=2^{}: computed {} vs paper {}",
                row.log_m,
                got,
                row.paper_p
            );
        }
    }

    #[test]
    fn text_ranking_params_support_10k_clusters() {
        // Appendix C: p = 2^17 supports up to 2^21 homomorphic
        // additions, i.e. C ≈ 10K clusters of dimension d = 192
        // (192 * 10_000 ≈ 2^21).
        let params = LweParams::ranking_text();
        assert!(params.supports_upload_dim(1 << 21));
        assert!(!params.supports_upload_dim(1 << 24));
    }

    #[test]
    fn image_ranking_params_support_more_additions() {
        // Appendix C: p = 2^15 supports up to 2^27 additions.
        let params = LweParams::ranking_image();
        assert!(params.supports_upload_dim(1 << 27));
    }

    #[test]
    fn url_params_match_table_11_support() {
        // p = 991 was solved from equality at m = 2^13, so test one
        // notch inside and well outside the boundary.
        let params = LweParams::url(991);
        assert!(params.supports_upload_dim(1 << 12));
        assert!(!params.supports_upload_dim(1 << 16));
    }

    #[test]
    fn delta_is_exact_for_power_of_two_p() {
        let params = LweParams::ranking_text();
        assert_eq!(params.delta(), 1 << 47);
        let url = LweParams::url(991);
        assert_eq!(url.delta(), ((1u128 << 32) / 991) as u64);
    }

    #[test]
    fn security_limits_follow_the_paper() {
        assert_eq!(LweParams::ranking_text().max_secure_upload_dim(), Some(1 << 27));
        assert_eq!(LweParams::url(991).max_secure_upload_dim(), Some(1 << 20));
        let big = LweParams { n: 1608, log_q: 32, p: 887, sigma: 0.5 };
        assert_eq!(big.max_secure_upload_dim(), Some(1 << 24));
        assert_eq!(LweParams::insecure_test(32, 64, 6.4).max_secure_upload_dim(), None);
    }

    #[test]
    fn url_for_upload_picks_table_value() {
        let p = LweParams::url_for_upload(1 << 13).p;
        assert!((985..=997).contains(&p), "got {p}");
    }

    #[test]
    fn widths_a_draw_could_reject_at_are_refused() {
        let at = |sigma| LweParams { sigma, ..LweParams::ranking_text() };
        at(0.0).validate();
        at(BOX_MULLER_MAX_SIGMA).validate();
        for sigma in [-1.0, f64::NAN, 2.0 * BOX_MULLER_MAX_SIGMA, f64::INFINITY] {
            assert!(std::panic::catch_unwind(|| at(sigma).validate()).is_err(), "σ = {sigma}");
        }
    }

    #[test]
    #[should_panic(expected = "noise room")]
    fn oversized_p_rejected() {
        LweParams { n: 64, log_q: 32, p: 1 << 30, sigma: 6.4 }.validate();
    }
}
