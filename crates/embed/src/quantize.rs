//! Fixed-precision quantization of embeddings (paper §8.6 and
//! Appendix B.1).
//!
//! Tiptoe reduces embedding precision "from floating point values to
//! signed 4-bit integers, decreasing MRR@100 by 0.005" (§8.6), then
//! maps each signed value into `Z_p` for the homomorphic inner-product
//! computation. With 4-bit signed values (`b = 3` precision bits plus
//! sign) and `p = 2^17`, inner products of 192-dimensional vectors
//! never wrap (Appendix C).

use tiptoe_math::fixed::FixedEncoder;

/// A quantizer from real embeddings to `Z_p` vectors.
#[derive(Debug, Clone, Copy)]
pub struct Quantizer {
    encoder: FixedEncoder,
}

impl Quantizer {
    /// The paper's text-search configuration: signed 4-bit values
    /// (`b = 3`) over `p = 2^17`.
    pub fn paper_text() -> Self {
        Self::new(3, 1 << 17)
    }

    /// The paper's image-search configuration: signed 4-bit values
    /// over `p = 2^15`.
    pub fn paper_image() -> Self {
        Self::new(3, 1 << 15)
    }

    /// A custom quantizer with `bits` precision bits over modulus `p`.
    ///
    /// # Panics
    ///
    /// Panics if the parameters are invalid (see [`FixedEncoder::new`]).
    pub fn new(bits: u32, p: u64) -> Self {
        Self { encoder: FixedEncoder::new(bits, p) }
    }

    /// The underlying fixed-precision encoder.
    pub fn encoder(&self) -> &FixedEncoder {
        &self.encoder
    }

    /// The plaintext modulus.
    pub fn modulus(&self) -> u64 {
        self.encoder.modulus()
    }

    /// Quantizes to signed small integers (e.g. `[-8, 8]` for 4-bit).
    pub fn to_signed(&self, v: &[f32]) -> Vec<i64> {
        v.iter().map(|&x| self.encoder.encode_signed(x)).collect()
    }

    /// Quantizes to the signed entries of the ranking matrix: the
    /// [`Quantizer::to_signed`] values, which fit an `i8` for `bits ≤ 6`.
    ///
    /// # Panics
    ///
    /// Panics if `bits > 6`: values in `[−2^b, 2^b]` then leave `i8`.
    pub fn to_i8(&self, v: &[f32]) -> Vec<i8> {
        assert!(self.encoder.bits() <= 6, "{}-bit values do not fit i8", self.encoder.bits());
        self.to_signed(v).into_iter().map(|x| x as i8).collect()
    }

    /// Quantizes to `Z_p` residues.
    pub fn to_zp(&self, v: &[f32]) -> Vec<u32> {
        v.iter().map(|&x| self.encoder.encode(x) as u32).collect()
    }

    /// Signed inner product of two quantized vectors, as the
    /// (decrypted) server computation produces it.
    ///
    /// # Panics
    ///
    /// Panics if the vectors differ in length.
    pub fn quantized_dot(&self, a: &[u32], b: &[u32]) -> i64 {
        assert_eq!(a.len(), b.len(), "dimension mismatch");
        let score = self.encoder.inner_product_mod_p(
            &a.iter().map(|&x| x as u64).collect::<Vec<_>>(),
            &b.iter().map(|&x| x as u64).collect::<Vec<_>>(),
        );
        self.encoder.decode_signed(score)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vector::{dot, normalize};
    use rand::Rng;
    use tiptoe_math::rng::seeded_rng;

    #[test]
    fn quantized_dot_tracks_float_dot() {
        let quant = Quantizer::paper_text();
        let mut rng = seeded_rng(1);
        // 4-bit quantization of unit vectors at d = 192 gives a dot-
        // product error with std ≈ 0.05, so individual trials can
        // stray past 0.15; bound each trial at ~5σ and the mean (the
        // quantity ranking quality actually depends on) much tighter.
        let mut total_err = 0.0f32;
        const TRIALS: usize = 50;
        for _ in 0..TRIALS {
            let mut a: Vec<f32> = (0..192).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
            let mut b: Vec<f32> = (0..192).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
            normalize(&mut a);
            normalize(&mut b);
            let float_dot = dot(&a, &b);
            let qa = quant.to_zp(&a);
            let qb = quant.to_zp(&b);
            let approx = quant.quantized_dot(&qa, &qb) as f32 / 64.0; // scale 2^3 twice
            let err = (float_dot - approx).abs();
            assert!(err < 0.25, "float {float_dot} vs quantized {approx}");
            total_err += err;
        }
        let mean_err = total_err / TRIALS as f32;
        assert!(mean_err < 0.08, "mean quantization error too large: {mean_err}");
    }

    #[test]
    fn quantized_ranking_preserves_order_of_separated_scores() {
        let quant = Quantizer::paper_text();
        let mut rng = seeded_rng(2);
        let mut q: Vec<f32> = (0..192).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        normalize(&mut q);
        // A close document and a far document.
        let mut close = q.clone();
        for x in close.iter_mut() {
            *x += rng.gen_range(-0.1f32..0.1);
        }
        normalize(&mut close);
        let mut far: Vec<f32> = (0..192).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        normalize(&mut far);

        let qq = quant.to_zp(&q);
        let qc = quant.to_zp(&close);
        let qf = quant.to_zp(&far);
        assert!(quant.quantized_dot(&qq, &qc) > quant.quantized_dot(&qq, &qf));
    }

    #[test]
    fn signed_range_is_4_bit() {
        let quant = Quantizer::paper_text();
        let signed = quant.to_signed(&[-1.0, -0.5, 0.0, 0.5, 1.0]);
        assert_eq!(signed, vec![-8, -4, 0, 4, 8]);
        assert!(signed.iter().all(|&x| (-8..=8).contains(&x)));
    }

    #[test]
    fn i8_entries_are_the_signed_values() {
        let quant = Quantizer::paper_text();
        assert_eq!(quant.to_i8(&[-1.0, -0.3, 0.0, 0.26, 1.0, 7.0]), [-8, -2, 0, 2, 8, 8]);
        assert_eq!(Quantizer::new(6, 1 << 17).to_i8(&[-1.0, 1.0]), [-64, 64]);
    }

    #[test]
    fn out_of_range_values_clip() {
        let quant = Quantizer::paper_text();
        assert_eq!(quant.to_signed(&[9.0])[0], 8);
        assert_eq!(quant.to_signed(&[-9.0])[0], -8);
    }
}
