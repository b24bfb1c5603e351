//! Lattice noise distributions.
//!
//! Tiptoe's inner scheme samples errors from a rounded continuous
//! Gaussian (σ = 81 920 for the ranking modulus `q = 2^64`, σ = 6.4 for
//! the URL modulus `q = 2^32`; paper Appendix C) and secrets from the
//! ternary distribution. The SimplePIR reference implementation uses
//! the same rounded-Gaussian construction.

use rand::Rng;

/// Samples a rounded continuous Gaussian with standard deviation
/// `sigma`, returned as a signed integer.
///
/// Uses the Box-Muller transform; for the σ values used in this
/// workspace (far above the smoothing parameter) the statistical
/// distance from a discrete Gaussian is negligible.
pub fn gaussian_i64<R: Rng + ?Sized>(rng: &mut R, sigma: f64) -> i64 {
    debug_assert!(sigma >= 0.0);
    loop {
        let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
        let u2: f64 = rng.gen_range(0.0..1.0);
        let mag = sigma * (-2.0 * u1.ln()).sqrt();
        let z = mag * (2.0 * std::f64::consts::PI * u2).cos();
        // Rejection of the (measure-zero in practice) tail that would
        // not fit an i64 keeps the cast sound.
        if z.abs() < 9.0e18 {
            return z.round() as i64;
        }
    }
}

/// Fills `out` with independent rounded-Gaussian samples of standard
/// deviation `sigma`: the distribution of [`gaussian_i64`], but keeping
/// both Box-Muller variates (`mag·cos` and `mag·sin` of one uniform
/// pair are independent normals), so two samples cost one `ln`, one
/// `sqrt` and one `sin_cos`. For bulk draws (a ring element's noise);
/// an odd length discards the last pair's second variate.
pub fn fill_gaussian<R: Rng + ?Sized>(rng: &mut R, sigma: f64, out: &mut [i64]) {
    debug_assert!(sigma >= 0.0);
    for pair in out.chunks_mut(2) {
        let (z0, z1) = loop {
            let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
            let u2: f64 = rng.gen_range(0.0..1.0);
            let mag = sigma * (-2.0 * u1.ln()).sqrt();
            let (sin, cos) = (2.0 * std::f64::consts::PI * u2).sin_cos();
            // The radius bounds both variates, so rejecting on it
            // (the tail `gaussian_i64` rejects) keeps both casts sound.
            if mag < 9.0e18 {
                break (mag * cos, mag * sin);
            }
        };
        pair[0] = z0.round() as i64;
        if let Some(second) = pair.get_mut(1) {
            *second = z1.round() as i64;
        }
    }
}

/// Fills a vector with rounded-Gaussian samples.
pub fn gaussian_vec<R: Rng + ?Sized>(rng: &mut R, sigma: f64, len: usize) -> Vec<i64> {
    (0..len).map(|_| gaussian_i64(rng, sigma)).collect()
}

/// Samples from the ternary distribution `{-1, 0, 1}` (uniform).
pub fn ternary_i64<R: Rng + ?Sized>(rng: &mut R) -> i64 {
    rng.gen_range(-1i64..=1)
}

/// Fills a vector with ternary samples.
pub fn ternary_vec<R: Rng + ?Sized>(rng: &mut R, len: usize) -> Vec<i64> {
    (0..len).map(|_| ternary_i64(rng)).collect()
}

/// Fills a vector with uniform values in `[0, bound)`.
///
/// # Panics
///
/// Panics if `bound == 0`.
pub fn uniform_vec<R: Rng + ?Sized>(rng: &mut R, bound: u64, len: usize) -> Vec<u64> {
    assert!(bound > 0, "bound must be positive");
    (0..len).map(|_| rng.gen_range(0..bound)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::seeded_rng;

    #[test]
    fn gaussian_moments_are_plausible() {
        let mut rng = seeded_rng(5);
        let sigma = 100.0;
        let n = 20_000;
        let samples = gaussian_vec(&mut rng, sigma, n);
        let mean = samples.iter().sum::<i64>() as f64 / n as f64;
        let var = samples.iter().map(|&x| (x as f64 - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 3.0, "mean {mean} too far from 0");
        let std = var.sqrt();
        assert!((std - sigma).abs() / sigma < 0.05, "std {std} too far from {sigma}");
    }

    #[test]
    fn fill_gaussian_moments_and_variate_independence() {
        // Odd lengths exercise the discarded second variate; the
        // sigmas are the outer scheme's (3.2) and the inner scheme's
        // two (6.4, 81920).
        for (seed, sigma) in [(11, 3.2), (12, 6.4), (13, 81920.0)] {
            let mut rng = seeded_rng(seed);
            let mut samples = vec![0i64; 40_001];
            fill_gaussian(&mut rng, sigma, &mut samples);
            let n = samples.len() as f64;
            let mean = samples.iter().sum::<i64>() as f64 / n;
            let var = samples.iter().map(|&x| (x as f64 - mean).powi(2)).sum::<f64>() / n;
            // Rounding to integers adds 1/12 to the variance.
            let want = (sigma * sigma + 1.0 / 12.0).sqrt();
            assert!(mean.abs() < 0.03 * sigma, "sigma {sigma}: mean {mean}");
            assert!((var.sqrt() - want).abs() / want < 0.02, "sigma {sigma}: std {}", var.sqrt());
            // The two variates of a pair are uncorrelated, in value
            // and in magnitude (a shared radius would correlate |z|).
            let pairs = samples.chunks_exact(2);
            let corr = pairs.clone().map(|p| (p[0] * p[1]) as f64).sum::<f64>() / (n / 2.0) / var;
            assert!(corr.abs() < 0.03, "sigma {sigma}: pair correlation {corr}");
            let tail = |x: i64| (x.abs() as f64 > sigma) as u32 as f64;
            let p_tail = samples.iter().map(|&x| tail(x)).sum::<f64>() / n;
            let p_both = pairs.map(|p| tail(p[0]) * tail(p[1])).sum::<f64>() / (n / 2.0);
            assert!((p_both - p_tail * p_tail).abs() < 0.01, "sigma {sigma}: joint tail {p_both}");
        }
        let mut one = [7i64; 1];
        fill_gaussian(&mut seeded_rng(14), 0.0, &mut one);
        assert_eq!(one, [0]);
        fill_gaussian(&mut seeded_rng(14), 3.2, &mut []);
    }

    #[test]
    fn gaussian_zero_sigma_is_zero() {
        let mut rng = seeded_rng(6);
        for _ in 0..32 {
            assert_eq!(gaussian_i64(&mut rng, 0.0), 0);
        }
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

    #[test]
    fn uniform_respects_bound() {
        let mut rng = seeded_rng(8);
        let v = uniform_vec(&mut rng, 10, 1000);
        assert!(v.iter().all(|&x| x < 10));
        assert!(v.contains(&0));
        assert!(v.contains(&9));
    }
}
