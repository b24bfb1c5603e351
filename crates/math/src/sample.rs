//! Lattice noise distributions.
//!
//! Tiptoe's inner scheme samples errors from a rounded continuous
//! Gaussian (σ = 81 920 for the ranking modulus `q = 2^64`, σ = 6.4 for
//! the URL modulus `q = 2^32`; paper Appendix C) and secrets from the
//! ternary distribution. The SimplePIR reference implementation uses
//! the same rounded-Gaussian construction.
//!
//! The outer scheme (σ = 3.2, App. C) draws 2,048 × 2,048 errors for
//! every token upload, next to the client's keys, so its sampler is a
//! table ([`NoiseTable`]) inverted in constant time over the SIMD
//! keystream: the exact discrete Gaussian, with no float, branch or
//! rejection on the draw path.

use rand::Rng;

use crate::simd::{self, KernelTier};

/// Widest `sigma` whose Box–Muller draws never reject: a draw's
/// magnitude is at most `σ·√(−2 ln 2^−1022) < 37.7σ` (the smallest
/// `u1` is `f64::MIN_POSITIVE`), under the `9·10^18` cut up to
/// `σ = 2^57`. Up to it, [`gaussian_i64`] reads exactly two words a
/// draw, which is what lets [`GaussianStream`] find a draw's words.
pub const BOX_MULLER_MAX_SIGMA: f64 = (1u64 << 57) as f64;

/// The rounded Box–Muller Gaussian of two uniform 64-bit words, or
/// `None` for the (beyond [`BOX_MULLER_MAX_SIGMA`], unreachable) tail
/// that would not fit an `i64`. Each word becomes the `f64` in `[0, 1)`
/// of its top 53 bits, as `Rng::gen_range` makes it; `u1` is
/// `gen_range(f64::MIN_POSITIVE..1.0)`, which is that value unless it
/// is 0.
fn box_muller(w1: u64, w2: u64, sigma: f64) -> Option<i64> {
    let unit = |w: u64| (w >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
    let u1 = unit(w1).max(f64::MIN_POSITIVE);
    let u2 = unit(w2);
    let mag = sigma * (-2.0 * u1.ln()).sqrt();
    let z = mag * (2.0 * std::f64::consts::PI * u2).cos();
    (z.abs() < 9.0e18).then(|| z.round() as i64)
}

/// Samples a rounded continuous Gaussian with standard deviation
/// `sigma`, returned as a signed integer: `box_muller` of the next
/// two `next_u64`s, redrawn on the rejected tail.
///
/// For the σ values used in this workspace (far above the smoothing
/// parameter) the statistical distance from a discrete Gaussian is
/// negligible.
pub fn gaussian_i64<R: Rng + ?Sized>(rng: &mut R, sigma: f64) -> i64 {
    debug_assert!(sigma >= 0.0);
    loop {
        let w1 = rng.next_u64();
        let w2 = rng.next_u64();
        if let Some(z) = box_muller(w1, w2, sigma) {
            return z;
        }
    }
}

/// Blocks of keystream a [`GaussianStream`] expands at once.
const STREAM_BLOCKS: usize = 16;

/// The 256-bit key of one encryption's noise: eight `u32`s of `rng`,
/// whatever the encryption's message or length. Its ChaCha12
/// keystream is the noise: `Enc` reads [`GaussianStream`]s of it,
/// `Enc2` inverts it through a [`NoiseTable`] ([`NoiseTable::fill`]).
pub fn noise_key<R: Rng + ?Sized>(rng: &mut R) -> [u32; 8] {
    std::array::from_fn(|_| rng.next_u32())
}

/// The draws [`gaussian_i64`] makes from `StdRng::from_seed` of `key`'s
/// little-endian bytes once `first` of its words are read, without the
/// generator, on any thread: draw `i` is `box_muller` of words
/// `first + 2i` and `first + 2i + 1` of the ChaCha12 stream of `key`,
/// expanded 16 blocks at a time (one batch of the widest keystream
/// body) by the dispatched kernel. An endless iterator. No `Debug` or
/// `Clone`: it holds the key of secret noise.
pub struct GaussianStream {
    key: [u32; 8],
    sigma: f64,
    next_block: u64,
    words: [u64; STREAM_BLOCKS * 8],
    pos: usize,
}

impl GaussianStream {
    /// The draws from stream word `first` of `key` on.
    ///
    /// # Panics
    ///
    /// Panics unless `0 ≤ sigma ≤ BOX_MULLER_MAX_SIGMA`, the widths at
    /// which a draw is two words.
    pub fn new(key: [u32; 8], first: u64, sigma: f64) -> Self {
        assert!(
            (0.0..=BOX_MULLER_MAX_SIGMA).contains(&sigma),
            "noise width {sigma} is outside [0, 2^57]"
        );
        let words = [0; STREAM_BLOCKS * 8];
        let mut stream = Self { key, sigma, next_block: first / 8, words, pos: 0 };
        stream.refill();
        stream.pos = (first % 8) as usize;
        stream
    }

    fn refill(&mut self) {
        simd::keystream(simd::tier(), &self.key, self.next_block, &mut self.words);
        self.next_block += STREAM_BLOCKS as u64;
        self.pos = 0;
    }

    fn word(&mut self) -> u64 {
        if self.pos == self.words.len() {
            self.refill();
        }
        self.pos += 1;
        self.words[self.pos - 1]
    }
}

impl Iterator for GaussianStream {
    type Item = i64;

    fn next(&mut self) -> Option<i64> {
        let w1 = self.word();
        let w2 = self.word();
        Some(box_muller(w1, w2, self.sigma).expect("a width up to 2^57 never rejects"))
    }
}

/// Cumulative-distribution table of the discrete Gaussian
/// `p(k) ∝ exp(−k²/2σ²)` over the integers, at 63-bit resolution:
/// entry `k` is `2^63·P(|X| ≤ k)`, so a uniform 63-bit word `u` has
/// magnitude `#{k : u ≥ T[k]}` ([`simd::cdt_invert`]).
///
/// Each entry is `2^63 − round(2^63·P(|X| > k))` with the tail summed
/// from its far end, so the small masses that decide the rare large
/// samples keep `f64`'s relative precision. An entry whose tail rounds
/// to zero would be `2^63`, which no 63-bit word reaches; the table
/// stops there, and its length is the largest magnitude a sample takes
/// (`≈ 9.1σ`, where the tail passes `2^−64`).
#[derive(Debug, Clone)]
pub struct NoiseTable {
    /// `T[k] = 2^63·P(|X| ≤ k)`, increasing and below `2^63`.
    thresholds: Vec<u64>,
}

impl NoiseTable {
    /// Longest table built: a sample costs one compare per threshold,
    /// and 256 of them cover every `σ ≤ 28`.
    pub const MAX_THRESHOLDS: usize = 256;

    /// Builds the table for standard-deviation parameter `sigma`.
    /// `sigma = 0` gives the empty table, whose samples are all zero.
    ///
    /// # Panics
    ///
    /// Panics if `sigma` is negative or not finite, or so wide that the
    /// table would pass [`Self::MAX_THRESHOLDS`] entries (`σ > 28`).
    pub fn new(sigma: f64) -> Self {
        assert!(sigma.is_finite() && sigma >= 0.0, "noise width {sigma} is not a finite σ ≥ 0");
        // ρ(j) = exp(−j²/2σ²), summed this far: for any σ whose table
        // fits (σ ≤ 28), ρ(REACH) < e^−600 and the rest is nothing.
        const REACH: usize = 4 * NoiseTable::MAX_THRESHOLDS;
        let rho = |j: usize| (-((j * j) as f64) / (2.0 * sigma * sigma)).exp();
        // tail[k] = Σ_{j>k} ρ(j), smallest terms first.
        let mut tail = vec![0.0f64; REACH + 1];
        for k in (0..REACH).rev() {
            tail[k] = tail[k + 1] + rho(k + 1);
        }
        let total = 1.0 + 2.0 * tail[0];
        let thresholds: Vec<u64> = tail
            .iter()
            .map(|t| (2.0 * t / total * 2f64.powi(63)).round() as u64)
            .take_while(|&above| above > 0)
            .map(|above| (1u64 << 63) - above)
            .collect();
        assert!(
            thresholds.len() <= Self::MAX_THRESHOLDS,
            "noise width {sigma} needs more than {} thresholds",
            Self::MAX_THRESHOLDS
        );
        Self { thresholds }
    }

    /// The largest magnitude a sample takes: the table's length.
    pub fn bound(&self) -> u64 {
        self.thresholds.len() as u64
    }

    /// Fills `out` with independent samples as residues modulo `q`
    /// (`−k` is `q − k`), drawn from the ChaCha12 keystream of `key`:
    /// `out` first holds the stream's words, then the table inverted
    /// over them in place. Both kernels run at `tier` clamped to the
    /// host's and write the same words at every tier; neither branches
    /// on a drawn value.
    ///
    /// # Panics
    ///
    /// Panics if `q ≤ self.bound()`.
    pub fn fill(&self, tier: KernelTier, key: &[u32; 8], q: u64, out: &mut [u64]) {
        simd::keystream(tier, key, 0, out);
        simd::cdt_invert(tier, &self.thresholds, q, out);
    }
}

/// Samples from the ternary distribution `{-1, 0, 1}` (uniform).
pub fn ternary_i64<R: Rng + ?Sized>(rng: &mut R) -> i64 {
    rng.gen_range(-1i64..=1)
}

/// Fills a vector with ternary samples.
pub fn ternary_vec<R: Rng + ?Sized>(rng: &mut R, len: usize) -> Vec<i64> {
    (0..len).map(|_| ternary_i64(rng)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::seeded_rng;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn gaussian_moments_are_plausible() {
        let mut rng = seeded_rng(5);
        let sigma = 100.0;
        let n = 20_000;
        let samples: Vec<i64> = (0..n).map(|_| gaussian_i64(&mut rng, sigma)).collect();
        let mean = samples.iter().sum::<i64>() as f64 / n as f64;
        let var = samples.iter().map(|&x| (x as f64 - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 3.0, "mean {mean} too far from 0");
        let std = var.sqrt();
        assert!((std - sigma).abs() / sigma < 0.05, "std {std} too far from {sigma}");
    }

    /// `gaussian_i64` as it was written before [`box_muller`]: two
    /// `gen_range` draws and the rejection loop.
    fn gaussian_by_gen_range(rng: &mut StdRng, sigma: f64) -> i64 {
        loop {
            let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
            let u2: f64 = rng.gen_range(0.0..1.0);
            let mag = sigma * (-2.0 * u1.ln()).sqrt();
            let z = mag * (2.0 * std::f64::consts::PI * u2).cos();
            if z.abs() < 9.0e18 {
                return z.round() as i64;
            }
        }
    }

    #[test]
    fn box_muller_is_the_gen_range_formula() {
        for sigma in [0.0, 3.2, 6.4, 81920.0, BOX_MULLER_MAX_SIGMA] {
            let (mut a, mut b) = (seeded_rng(8), seeded_rng(8));
            for _ in 0..20_000 {
                assert_eq!(gaussian_i64(&mut a, sigma), gaussian_by_gen_range(&mut b, sigma));
            }
            assert_eq!(a.gen::<u64>(), b.gen::<u64>(), "σ = {sigma}: two words a draw");
        }
        // The words at the ends of the unit interval: a zero `u1` is
        // `f64::MIN_POSITIVE`, the widest magnitude there is, and at
        // the widest σ it is kept.
        let widest = BOX_MULLER_MAX_SIGMA * (-2.0 * f64::MIN_POSITIVE.ln()).sqrt();
        assert_eq!(box_muller(0, 0, BOX_MULLER_MAX_SIGMA), Some(widest.round() as i64));
        assert_eq!(box_muller(0, 0, 2.0 * BOX_MULLER_MAX_SIGMA), None, "past the bound it rejects");
        assert_eq!(box_muller(u64::MAX, 0, 1e6), Some(0), "u1 just below 1");
        assert_eq!(box_muller(1 << 11, 1 << 62, 0.0), Some(0));
    }

    #[test]
    fn the_stream_is_what_the_generator_draws() {
        for (sigma, skip) in [(6.4, 0usize), (81920.0, 1), (81920.0, 7), (3.2, 130)] {
            let key = noise_key(&mut seeded_rng(9));
            let mut rng = StdRng::from_seed(std::array::from_fn(|i| key[i / 4].to_le_bytes()[i % 4]));
            (0..skip).for_each(|_| {
                rng.gen::<u64>();
            });
            let stream = GaussianStream::new(key, skip as u64, sigma);
            let want: Vec<i64> = (0..300).map(|_| gaussian_i64(&mut rng, sigma)).collect();
            assert_eq!(stream.take(300).collect::<Vec<_>>(), want, "σ = {sigma}, {skip} words in");
        }
    }

    #[test]
    fn widths_that_could_reject_have_no_stream() {
        for sigma in [-1.0, f64::NAN, 2.0 * BOX_MULLER_MAX_SIGMA] {
            assert!(std::panic::catch_unwind(|| GaussianStream::new([0; 8], 0, sigma)).is_err());
        }
    }

    #[test]
    fn gaussian_zero_sigma_is_zero() {
        let mut rng = seeded_rng(6);
        for _ in 0..32 {
            assert_eq!(gaussian_i64(&mut rng, 0.0), 0);
        }
    }

    /// The outer scheme's width, and a modulus of its size.
    const SIGMA: f64 = 3.2;
    const Q: u64 = (1 << 62) - 57;

    /// `len` centred samples of `table` under the key of `seed`, at
    /// the host's tier.
    fn draw(table: &NoiseTable, seed: u64, len: usize) -> Vec<i64> {
        let mut out = vec![0u64; len];
        table.fill(simd::tier(), &StdRng::key_from_u64(seed), Q, &mut out);
        out.into_iter().map(|w| crate::zq::center(w, Q)).collect()
    }

    /// `p(x)` of the discrete Gaussian for `x` in `-reach..=reach`,
    /// normalised directly (not through tail sums, as the table is).
    fn exact_pmf(sigma: f64, reach: i64) -> Vec<f64> {
        let rho: Vec<f64> =
            (-reach..=reach).map(|x| (-((x * x) as f64) / (2.0 * sigma * sigma)).exp()).collect();
        let total: f64 = rho.iter().sum();
        rho.into_iter().map(|r| r / total).collect()
    }

    #[test]
    fn table_invariants() {
        for sigma in [0.5, 1.0, SIGMA, 6.4] {
            let table = NoiseTable::new(sigma);
            let t = &table.thresholds;
            assert!(t.windows(2).all(|w| w[0] < w[1]), "σ = {sigma}: not strictly increasing");
            assert!(*t.last().expect("nonempty") < 1 << 63, "σ = {sigma}: entry reaches 2^63");
            assert_eq!(table.bound(), t.len() as u64);
            // T[0] = 2^63·p(0), to f64 precision.
            let p0 = exact_pmf(sigma, 400)[400];
            assert!((t[0] as f64 / 2f64.powi(63) - p0).abs() < 1e-15, "σ = {sigma}: T[0]");
        }
        // At σ = 3.2 the mass above |x| = 28 is 4 units of 2^-63 and
        // the mass above 29 rounds to none.
        assert_eq!(NoiseTable::new(SIGMA).bound(), 29);
        assert_eq!(NoiseTable::new(SIGMA).thresholds[28], (1 << 63) - 4);
        assert_eq!(NoiseTable::new(28.0).bound(), NoiseTable::MAX_THRESHOLDS as u64);
    }

    #[test]
    fn zero_width_is_the_empty_table_and_all_zero_noise() {
        for sigma in [0.0, -0.0] {
            let table = NoiseTable::new(sigma);
            assert!(table.thresholds.is_empty());
            assert!(draw(&table, 14, 130).iter().all(|&x| x == 0));
        }
    }

    #[test]
    fn widths_without_a_table_are_refused() {
        for sigma in [-1.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 28.1, 81920.0] {
            let built = std::panic::catch_unwind(|| NoiseTable::new(sigma));
            assert!(built.is_err(), "σ = {sigma} must panic");
        }
    }

    /// Upper `1 − 10^-6` quantile of χ² with `df` degrees of freedom
    /// (Wilson–Hilferty; 4.7534 is the normal quantile).
    fn chi_square_limit(df: f64) -> f64 {
        let c = 2.0 / (9.0 * df);
        df * (1.0 - c + 4.7534 * c.sqrt()).powi(3)
    }

    #[test]
    fn samples_fit_the_exact_discrete_gaussian() {
        let table = NoiseTable::new(SIGMA);
        // Past the table's end (29) on purpose: the probabilities are
        // the distribution's, not the table's.
        let reach = 40i64;
        let pmf = exact_pmf(SIGMA, reach);
        let variance: f64 = (-reach..=reach).zip(&pmf).map(|(x, p)| (x * x) as f64 * p).sum();
        for seed in [101, 102] {
            let n = 1usize << 20;
            let samples = draw(&table, seed, n);
            let bound = table.bound();
            assert!(samples.iter().all(|x| x.unsigned_abs() <= bound), "seed {seed}: sample past the bound");

            // Chi-square over the values, the two tails merged inwards
            // until each end bin expects at least 5 draws.
            let mut observed = vec![0f64; pmf.len()];
            for &x in &samples {
                observed[(x + reach) as usize] += 1.0;
            }
            let mut expected: Vec<f64> = pmf.iter().map(|p| p * n as f64).collect();
            for _ in 0..2 {
                while expected[0] < 5.0 {
                    expected[1] += expected.remove(0);
                    observed[1] += observed.remove(0);
                }
                expected.reverse();
                observed.reverse();
            }
            assert!(expected.len() > 20 && expected.iter().all(|&e| e >= 5.0));
            let chi2: f64 = observed.iter().zip(&expected).map(|(o, e)| (o - e).powi(2) / e).sum();
            let bins = expected.len();
            let limit = chi_square_limit((bins - 1) as f64);
            assert!(chi2 < limit, "seed {seed}: chi-square {chi2} over {bins} bins, limit {limit}");

            let mean = samples.iter().sum::<i64>() as f64 / n as f64;
            let var = samples.iter().map(|&x| (x as f64 - mean).powi(2)).sum::<f64>() / n as f64;
            assert!(mean.abs() < 0.01, "seed {seed}: mean {mean}");
            assert!((var / variance - 1.0).abs() < 0.01, "seed {seed}: variance {var}, exact {variance}");

            // Signs are fair coins, and −0 folds onto 0.
            let positive = samples.iter().filter(|&&x| x > 0).count() as f64;
            let negative = samples.iter().filter(|&&x| x < 0).count() as f64;
            assert!((positive - negative).abs() < 5.0 * (positive + negative).sqrt(), "seed {seed}: signs");
            let zeros = n as f64 - positive - negative;
            let p0 = pmf[reach as usize];
            assert!((zeros - p0 * n as f64).abs() < 5.0 * (p0 * n as f64).sqrt(), "seed {seed}: zeros");

            // Neighbours are independent, in value and in magnitude,
            // inside a 64-word block and across its boundary.
            let corr = |pairs: &[(i64, i64)], f: fn(i64) -> f64, centre: f64, spread: f64| {
                pairs.iter().map(|&(a, b)| (f(a) - centre) * (f(b) - centre)).sum::<f64>()
                    / pairs.len() as f64
                    / spread
            };
            let magnitude = |x: i64| x.abs() as f64;
            let mean_abs = samples.iter().map(|&x| magnitude(x)).sum::<f64>() / n as f64;
            let var_abs = variance - mean_abs * mean_abs;
            let lag1: Vec<(i64, i64)> = samples.windows(2).map(|w| (w[0], w[1])).collect();
            let boundary: Vec<(i64, i64)> =
                samples[63..].chunks_exact(64).map(|c| (c[0], c[1])).collect();
            assert_eq!(boundary.len(), n / 64 - 1);
            for (what, pairs, limit) in [("lag-1", &lag1, 0.005), ("block boundary", &boundary, 0.04)] {
                let value = corr(pairs, |x| x as f64, 0.0, variance);
                let size = corr(pairs, magnitude, mean_abs, var_abs);
                assert!(value.abs() < limit, "seed {seed}: {what} correlation {value}");
                assert!(size.abs() < limit, "seed {seed}: {what} magnitude correlation {size}");
            }
        }
    }

    #[test]
    fn every_length_is_a_prefix_of_the_same_stream() {
        // A ragged tail runs padded to a whole block; what it writes
        // must be what the whole block would have.
        let table = NoiseTable::new(SIGMA);
        let long = draw(&table, 103, 2051);
        for len in [0, 1, 63, 64, 65, 2048, 2051] {
            assert_eq!(draw(&table, 103, len), long[..len], "len {len}");
        }
        let mut residues = vec![0u64; 2051];
        table.fill(simd::tier(), &StdRng::key_from_u64(103), Q, &mut residues);
        assert!(residues.iter().all(|&w| w < Q), "a sample is not reduced");
    }

    #[test]
    fn ternary_hits_all_values() {
        let mut rng = seeded_rng(7);
        let v = ternary_vec(&mut rng, 3000);
        assert!(v.iter().all(|&x| (-1..=1).contains(&x)));
        for target in -1..=1 {
            let count = v.iter().filter(|&&x| x == target).count();
            // Each value should appear with probability 1/3 +- a lot of slack.
            assert!(count > 700 && count < 1300, "value {target} count {count}");
        }
    }
}
