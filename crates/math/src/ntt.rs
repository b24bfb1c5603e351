//! Negacyclic number-theoretic transforms over NTT-friendly primes.
//!
//! The outer (ring-LWE) encryption scheme multiplies polynomials in
//! `R_Q = Z_Q[x]/(x^N + 1)`. With `Q ≡ 1 (mod 2N)` a primitive `2N`-th
//! root of unity `ψ` exists, and the negacyclic convolution becomes a
//! pointwise product in the ψ-twisted NTT domain. We use the standard
//! merged-twist butterflies (Cooley-Tukey forward / Gentleman-Sande
//! inverse with ψ-powers stored in bit-reversed order) and Shoup
//! precomputed-quotient modular multiplication in the hot loop.
//!
//! The butterflies use Harvey's lazy reduction: between stages the
//! forward pass keeps values in `[0, 4Q)` and the inverse pass in
//! `[0, 2Q)`, and one sweep at the end brings them back to `[0, Q)`,
//! so every public function still returns fully reduced words. This is
//! why [`NttTable::with_modulus`] requires `Q < 2^62` (`4Q` must fit a
//! word). The transforms and [`NttTable::mul_acc_shoup`] are
//! **branch-free**: every conditional subtraction is a `min`, so their
//! running time does not depend on the data (the client runs them on
//! `a·s + e`), and there is nothing for a branch predictor to miss.
//!
//! The server's token pass `Σ_i h_i ∘ z_i` reduces nothing on the way:
//! [`mul_acc_wide`] sums whole 124-bit products in three-word
//! accumulators and [`reduce_wide`] divides once per coefficient, so
//! its fixed operand needs no Shoup companion.

use crate::modp::{find_ntt_prime, PrimeModulus};

/// Precomputed tables for a negacyclic NTT of size `N` over prime `Q`.
#[derive(Debug, Clone)]
pub struct NttTable {
    n: usize,
    modulus: PrimeModulus,
    /// ψ-powers in bit-reversed order (forward transform).
    psi_rev: Vec<u64>,
    /// Shoup quotients for `psi_rev`.
    psi_rev_shoup: Vec<u64>,
    /// ψ^{-1}-powers in bit-reversed order (inverse transform).
    inv_psi_rev: Vec<u64>,
    /// Shoup quotients for `inv_psi_rev`.
    inv_psi_rev_shoup: Vec<u64>,
    /// `N^{-1} mod Q`, folded into the last inverse stage.
    n_inv: u64,
    n_inv_shoup: u64,
}

/// Multiplies `a * b mod q` using Shoup's trick, where `b < q` and
/// `b_shoup = floor(b * 2^64 / q)` was precomputed. Lazy: `a` may be
/// any word, and the result is in `[0, 2q)`.
#[inline(always)]
fn mul_shoup(a: u64, b: u64, b_shoup: u64, q: u64) -> u64 {
    let hi = ((a as u128 * b_shoup as u128) >> 64) as u64;
    a.wrapping_mul(b).wrapping_sub(hi.wrapping_mul(q))
}

/// `x - m` if `x >= m`, else `x`, without a branch (when `x < m` the
/// wrapped difference exceeds `x`).
#[inline(always)]
fn cond_sub(x: u64, m: u64) -> u64 {
    x.min(x.wrapping_sub(m))
}

#[inline(always)]
fn shoup_quotient(b: u64, q: u64) -> u64 {
    (((b as u128) << 64) / q as u128) as u64
}

impl NttTable {
    /// Builds NTT tables for ring degree `n` (a power of two) over the
    /// largest NTT-friendly prime below `2^q_bits`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not a power of two at least 4, or if no
    /// suitable prime exists (see [`find_ntt_prime`]).
    pub fn new(n: usize, q_bits: u32) -> Self {
        let q = find_ntt_prime(q_bits, 2 * n as u64);
        Self::with_modulus(n, q)
    }

    /// Builds NTT tables for ring degree `n` over a given prime `q`
    /// with `q ≡ 1 (mod 2n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not a power of two at least 4, if
    /// `q mod 2n != 1`, or if `q >= 2^62` (the lazy butterflies hold
    /// values up to `4q` in a word).
    pub fn with_modulus(n: usize, q: u64) -> Self {
        assert!(n >= 4 && n.is_power_of_two(), "ring degree must be a power of two >= 4");
        assert!(q < 1 << 62, "q must be below 2^62");
        assert!(q % (2 * n as u64) == 1, "q must be 1 mod 2n");
        let modulus = PrimeModulus::new(q);
        let psi = primitive_2n_root(&modulus, n);
        let inv_psi = modulus.inv(psi);

        let log_n = n.trailing_zeros();
        let mut psi_rev = vec![0u64; n];
        let mut inv_psi_rev = vec![0u64; n];
        let mut pow_f = 1u64;
        let mut pow_i = 1u64;
        // psi_rev[bitrev(i)] = psi^i.
        let mut powers_f = Vec::with_capacity(n);
        let mut powers_i = Vec::with_capacity(n);
        for _ in 0..n {
            powers_f.push(pow_f);
            powers_i.push(pow_i);
            pow_f = modulus.mul(pow_f, psi);
            pow_i = modulus.mul(pow_i, inv_psi);
        }
        for (i, (&pf, &pi)) in powers_f.iter().zip(powers_i.iter()).enumerate() {
            let r = bit_reverse(i as u64, log_n) as usize;
            psi_rev[r] = pf;
            inv_psi_rev[r] = pi;
        }

        let psi_rev_shoup = psi_rev.iter().map(|&b| shoup_quotient(b, q)).collect();
        let inv_psi_rev_shoup = inv_psi_rev.iter().map(|&b| shoup_quotient(b, q)).collect();
        let n_inv = modulus.inv(n as u64);
        let n_inv_shoup = shoup_quotient(n_inv, q);

        Self {
            n,
            modulus,
            psi_rev,
            psi_rev_shoup,
            inv_psi_rev,
            inv_psi_rev_shoup,
            n_inv,
            n_inv_shoup,
        }
    }

    /// Ring degree `N`.
    pub fn degree(&self) -> usize {
        self.n
    }

    /// The prime modulus `Q`.
    pub fn modulus(&self) -> &PrimeModulus {
        &self.modulus
    }

    /// In-place forward negacyclic NTT (coefficient → evaluation
    /// domain). Input coefficients must be reduced modulo `Q`.
    ///
    /// # Panics
    ///
    /// Panics if `a.len()` differs from the table's ring degree.
    pub fn forward(&self, a: &mut [u64]) {
        assert_eq!(a.len(), self.n, "length mismatch");
        let q = self.modulus.value();
        let two_q = 2 * q;
        let mut t = self.n;
        let mut m = 1usize;
        while m < self.n {
            t /= 2;
            let twiddles = self.psi_rev[m..2 * m].iter().zip(&self.psi_rev_shoup[m..2 * m]);
            for (block, (&w, &w_sh)) in a.chunks_exact_mut(2 * t).zip(twiddles) {
                let (lo, hi) = block.split_at_mut(t);
                // Harvey butterfly: inputs and outputs in [0, 4q).
                for (x, y) in lo.iter_mut().zip(hi) {
                    let u = cond_sub(*x, two_q);
                    let v = mul_shoup(*y, w, w_sh, q);
                    *x = u + v;
                    *y = u + two_q - v;
                }
            }
            m *= 2;
        }
        for x in a.iter_mut() {
            *x = cond_sub(cond_sub(*x, two_q), q);
        }
    }

    /// In-place inverse negacyclic NTT (evaluation → coefficient
    /// domain), including the `N^{-1}` scaling. Input values must be
    /// reduced modulo `Q`.
    ///
    /// # Panics
    ///
    /// Panics if `a.len()` differs from the table's ring degree.
    pub fn inverse(&self, a: &mut [u64]) {
        assert_eq!(a.len(), self.n, "length mismatch");
        let q = self.modulus.value();
        let two_q = 2 * q;
        let mut t = 1usize;
        let mut m = self.n;
        while m > 1 {
            let h = m / 2;
            let twiddles = self.inv_psi_rev[h..m].iter().zip(&self.inv_psi_rev_shoup[h..m]);
            for (block, (&w, &w_sh)) in a.chunks_exact_mut(2 * t).zip(twiddles) {
                let (lo, hi) = block.split_at_mut(t);
                // Harvey butterfly: inputs and outputs in [0, 2q).
                for (x, y) in lo.iter_mut().zip(hi) {
                    let (u, v) = (*x, *y);
                    *x = cond_sub(u + v, two_q);
                    *y = mul_shoup(u + two_q - v, w, w_sh, q);
                }
            }
            t *= 2;
            m = h;
        }
        for x in a.iter_mut() {
            *x = cond_sub(mul_shoup(*x, self.n_inv, self.n_inv_shoup, q), q);
        }
    }

    /// Precomputes Shoup quotients for a *fixed* NTT-domain vector so
    /// that later multiply-accumulates avoid `%` reductions (used for
    /// the client's ring key `ŝ`, fixed across its ciphertexts).
    pub fn prepare_shoup(&self, values: &[u64]) -> ShoupPoly {
        assert_eq!(values.len(), self.n, "length mismatch");
        let q = self.modulus.value();
        debug_assert!(values.iter().all(|&v| v < q));
        ShoupPoly {
            values: values.to_vec(),
            quotients: values.iter().map(|&v| shoup_quotient(v, q)).collect(),
        }
    }

    /// Pointwise multiply-accumulate `out[i] += h[i] * z[i] mod Q`
    /// with a Shoup-precomputed fixed operand `h`. `out` must be
    /// reduced modulo `Q`; `z` may hold any words.
    ///
    /// # Panics
    ///
    /// Panics on any length mismatch.
    pub fn mul_acc_shoup(&self, h: &ShoupPoly, z: &[u64], out: &mut [u64]) {
        assert_eq!(h.values.len(), self.n);
        assert_eq!(z.len(), self.n);
        assert_eq!(out.len(), self.n);
        let q = self.modulus.value();
        let h = h.values.iter().zip(&h.quotients);
        for ((o, &z), (&h, &h_sh)) in out.iter_mut().zip(z).zip(h) {
            // o < q plus a lazy product < 2q: two subtractions reduce.
            *o = cond_sub(cond_sub(*o + mul_shoup(z, h, h_sh, q), 2 * q), q);
        }
    }

    /// Pointwise product `out[i] += a[i] * b[i] mod Q` of two
    /// NTT-domain vectors, accumulating into `out`.
    ///
    /// # Panics
    ///
    /// Panics on any length mismatch.
    pub fn mul_acc(&self, a: &[u64], b: &[u64], out: &mut [u64]) {
        assert_eq!(a.len(), self.n);
        assert_eq!(b.len(), self.n);
        assert_eq!(out.len(), self.n);
        let q = self.modulus.value();
        for ((&x, &y), o) in a.iter().zip(b.iter()).zip(out.iter_mut()) {
            let p = ((x as u128 * y as u128) % q as u128) as u64;
            let s = *o + p;
            *o = if s >= q { s - q } else { s };
        }
    }

    /// Pointwise product `out[i] = a[i] * b[i] mod Q`.
    ///
    /// # Panics
    ///
    /// Panics on any length mismatch.
    pub fn mul(&self, a: &[u64], b: &[u64], out: &mut [u64]) {
        assert_eq!(a.len(), self.n);
        assert_eq!(b.len(), self.n);
        assert_eq!(out.len(), self.n);
        let q = self.modulus.value();
        for ((&x, &y), o) in a.iter().zip(b.iter()).zip(out.iter_mut()) {
            *o = ((x as u128 * y as u128) % q as u128) as u64;
        }
    }
}

/// A fixed NTT-domain vector with precomputed Shoup quotients for fast
/// repeated multiplication (see [`NttTable::prepare_shoup`]).
#[derive(Debug, Clone)]
pub struct ShoupPoly {
    values: Vec<u64>,
    quotients: Vec<u64>,
}

impl ShoupPoly {
    /// The underlying NTT-domain values.
    pub fn values(&self) -> &[u64] {
        &self.values
    }
}

/// An unreduced sum of products of words below `2^62`: three 64-bit
/// words, least significant first. Each product is below `2^124`, so
/// `2^68` of them fit.
pub type Wide = [u64; 3];

/// Terms [`mul_acc_wide`] sums in a `u128` before one add-with-carry
/// into the running [`Wide`] totals (sixteen would still fit). A caller
/// that interleaves several accumulators passes this many terms a call,
/// so the operands of one call stay in cache across all of them. Four
/// (14 concurrent streams) is where one core stops gaining: a ranking
/// token takes 21.6 ms at two, 15.8 at four, 15.5 at eight (26
/// streams) and 23.4 at sixteen (50).
pub const WIDE_GROUP: usize = 4;

/// Bytes of [`Wide`] accumulators a caller of [`mul_acc_wide`] keeps
/// live per thread between reductions (about half a core's L2, the
/// rest left to one group of operands).
pub const WIDE_ACC_BUDGET: usize = 1 << 20;

/// Unreduced pointwise multiply-accumulate of one fixed operand
/// against a ciphertext's two components:
/// `acc_a[k] += Σ_t h[t][k]·za[t][k]` and
/// `acc_b[k] += Σ_t h[t][k]·zb[t][k]` over the integers, `h` loaded
/// once for both. No reduction happens here; [`reduce_wide`] brings a
/// finished total to `[0, Q)`, so the result is the canonical
/// representative whatever the number and grouping of terms.
///
/// Every operand word must be below `2^62` (reduced modulo a
/// [`NttTable`] prime).
///
/// # Panics
///
/// Panics if the term counts differ or any term is shorter than the
/// accumulators.
pub fn mul_acc_wide(
    h: &[&[u64]],
    za: &[&[u64]],
    zb: &[&[u64]],
    acc_a: &mut [Wide],
    acc_b: &mut [Wide],
) {
    assert!(h.len() == za.len() && h.len() == zb.len(), "term count mismatch");
    assert_eq!(acc_a.len(), acc_b.len(), "accumulator length mismatch");
    let grouped = h.len() - h.len() % WIDE_GROUP;
    for t in (0..grouped).step_by(WIDE_GROUP) {
        mul_acc_wide_terms::<WIDE_GROUP>(&h[t..], &za[t..], &zb[t..], acc_a, acc_b);
    }
    for t in grouped..h.len() {
        mul_acc_wide_terms::<1>(&h[t..], &za[t..], &zb[t..], acc_a, acc_b);
    }
}

/// The first `T` terms of [`mul_acc_wide`], summed before one carry.
#[inline(always)]
fn mul_acc_wide_terms<const T: usize>(
    h: &[&[u64]],
    za: &[&[u64]],
    zb: &[&[u64]],
    acc_a: &mut [Wide],
    acc_b: &mut [Wide],
) {
    // One slicing per stream lets the loop run without bounds checks.
    let len = acc_a.len();
    let h: [&[u64]; T] = std::array::from_fn(|t| &h[t][..len]);
    let za: [&[u64]; T] = std::array::from_fn(|t| &za[t][..len]);
    let zb: [&[u64]; T] = std::array::from_fn(|t| &zb[t][..len]);
    for (k, (acc_a, acc_b)) in acc_a.iter_mut().zip(&mut acc_b[..len]).enumerate() {
        let (mut sum_a, mut sum_b) = (0u128, 0u128);
        for t in 0..T {
            let h = h[t][k] as u128;
            sum_a += h * za[t][k] as u128;
            sum_b += h * zb[t][k] as u128;
        }
        add_wide(acc_a, sum_a);
        add_wide(acc_b, sum_b);
    }
}

/// `acc += x` across the three words.
#[inline(always)]
fn add_wide(acc: &mut Wide, x: u128) {
    let (low, carry) = (acc[0] as u128 | (acc[1] as u128) << 64).overflowing_add(x);
    *acc = [low as u64, (low >> 64) as u64, acc[2] + carry as u64];
}

/// The representative in `[0, q)` of an unreduced total: long division
/// by `q`, one 64-bit digit at a time.
#[inline]
pub fn reduce_wide([w0, w1, w2]: Wide, q: u64) -> u64 {
    let top = ((w2 as u128) << 64 | w1 as u128) % q as u128;
    ((top << 64 | w0 as u128) % q as u128) as u64
}

/// Reverses the low `bits` bits of `x`.
#[inline]
pub fn bit_reverse(x: u64, bits: u32) -> u64 {
    x.reverse_bits() >> (64 - bits)
}

/// Finds a primitive `2n`-th root of unity modulo `Q`.
///
/// Searches generator candidates and checks `ψ^n = -1`.
fn primitive_2n_root(modulus: &PrimeModulus, n: usize) -> u64 {
    let q = modulus.value();
    let order = 2 * n as u64;
    let cofactor = (q - 1) / order;
    for g in 2..u64::MAX {
        let psi = modulus.pow(g, cofactor);
        if modulus.pow(psi, n as u64) == q - 1 {
            return psi;
        }
    }
    unreachable!("no primitive root found (q-1 has known factor 2n)")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::seeded_rng;
    use rand::Rng;

    /// Schoolbook negacyclic product for reference.
    fn negacyclic_mul_ref(a: &[u64], b: &[u64], q: u64) -> Vec<u64> {
        let n = a.len();
        let mut out = vec![0i128; n];
        for (i, &ai) in a.iter().enumerate() {
            for (j, &bj) in b.iter().enumerate() {
                let prod = (ai as i128) * (bj as i128) % q as i128;
                let k = i + j;
                if k < n {
                    out[k] = (out[k] + prod) % q as i128;
                } else {
                    out[k - n] = (out[k - n] - prod).rem_euclid(q as i128);
                }
            }
        }
        out.into_iter().map(|x| x.rem_euclid(q as i128) as u64).collect()
    }

    /// The fully reduced butterflies the lazy ones replaced, over
    /// `%`-based field operations: the word-for-word reference.
    fn forward_ref(table: &NttTable, a: &mut [u64]) {
        let f = table.modulus;
        let (mut t, mut m) = (table.n, 1);
        while m < table.n {
            t /= 2;
            for i in 0..m {
                for j in 2 * i * t..2 * i * t + t {
                    let (u, v) = (a[j], f.mul(a[j + t], table.psi_rev[m + i]));
                    a[j] = f.add(u, v);
                    a[j + t] = f.sub(u, v);
                }
            }
            m *= 2;
        }
    }

    fn inverse_ref(table: &NttTable, a: &mut [u64]) {
        let f = table.modulus;
        let (mut t, mut m) = (1, table.n);
        while m > 1 {
            let h = m / 2;
            for i in 0..h {
                for j in 2 * i * t..2 * i * t + t {
                    let (u, v) = (a[j], a[j + t]);
                    a[j] = f.add(u, v);
                    a[j + t] = f.mul(f.sub(u, v), table.inv_psi_rev[h + i]);
                }
            }
            t *= 2;
            m = h;
        }
        for x in a.iter_mut() {
            *x = f.mul(*x, table.n_inv);
        }
    }

    /// Random, all-zero and all-`Q-1` vectors: the last drives every
    /// lazy intermediate to the top of its range.
    fn extreme_inputs(n: usize, q: u64, seed: u64) -> Vec<Vec<u64>> {
        let mut rng = seeded_rng(seed);
        let mut inputs = vec![vec![0u64; n], vec![q - 1; n]];
        for _ in 0..3 {
            inputs.push((0..n).map(|_| rng.gen_range(0..q)).collect());
        }
        inputs
    }

    #[test]
    fn lazy_transforms_match_the_reduced_reference_word_for_word() {
        for n in [4usize, 8, 64, 2048, 4096] {
            for q_bits in [30u32, 50, 58, 62] {
                let table = NttTable::new(n, q_bits);
                let q = table.modulus().value();
                for input in extreme_inputs(n, q, n as u64 ^ q_bits as u64) {
                    let (mut got, mut want) = (input.clone(), input.clone());
                    table.forward(&mut got);
                    forward_ref(&table, &mut want);
                    assert!(got.iter().all(|&x| x < q), "forward n={n} q_bits={q_bits}");
                    assert_eq!(got, want, "forward n={n} q_bits={q_bits}");

                    let (mut got, mut want) = (input.clone(), input.clone());
                    table.inverse(&mut got);
                    inverse_ref(&table, &mut want);
                    assert!(got.iter().all(|&x| x < q), "inverse n={n} q_bits={q_bits}");
                    assert_eq!(got, want, "inverse n={n} q_bits={q_bits}");
                }
            }
        }
    }

    #[test]
    fn forward_evaluates_at_odd_powers_of_psi() {
        // Output i is the polynomial's value at ψ^(2·brv(i)+1), which
        // pins the reference itself to the transform's definition.
        for n in [4usize, 8, 64] {
            let table = NttTable::new(n, 58);
            let f = table.modulus;
            let psi = table.psi_rev[n / 2]; // brv(1) = n/2 holds ψ^1
            for input in extreme_inputs(n, f.value(), 3) {
                let mut got = input.clone();
                table.forward(&mut got);
                for (i, &g) in got.iter().enumerate() {
                    let x = f.pow(psi, 2 * bit_reverse(i as u64, n.trailing_zeros()) + 1);
                    let want = input.iter().rev().fold(0, |acc, &c| f.add(f.mul(acc, x), c));
                    assert_eq!(g, want, "n={n} output {i}");
                }
            }
        }
    }

    #[test]
    fn mul_acc_shoup_matches_wide_arithmetic_at_the_extremes() {
        for q_bits in [30u32, 50, 58, 62] {
            let table = NttTable::new(2048, q_bits);
            let q = table.modulus().value();
            let inputs = extreme_inputs(2048, q, 17);
            for h in &inputs {
                let h_shoup = table.prepare_shoup(h);
                for z in &inputs {
                    for acc in &inputs {
                        let mut out = acc.clone();
                        table.mul_acc_shoup(&h_shoup, z, &mut out);
                        for i in 0..2048 {
                            let want = (acc[i] as u128 + h[i] as u128 * z[i] as u128) % q as u128;
                            assert_eq!(out[i] as u128, want, "q_bits={q_bits} i={i}");
                        }
                    }
                }
            }
        }
    }

    /// `mul_acc_wide` then `reduce_wide` against `Σ (h·z mod q)` in
    /// `u128 %` arithmetic; returns the unreduced totals.
    fn check_wide(h: &[Vec<u64>], za: &[Vec<u64>], zb: &[Vec<u64>], q: u64) -> Vec<Wide> {
        let len = h[0].len();
        let naive = |z: &[Vec<u64>], k: usize| -> u64 {
            h.iter().zip(z).fold(0, |sum, (h, z)| {
                ((sum as u128 + h[k] as u128 * z[k] as u128 % q as u128) % q as u128) as u64
            })
        };
        fn rows(x: &[Vec<u64>]) -> Vec<&[u64]> {
            x.iter().map(Vec::as_slice).collect()
        }
        let (mut acc_a, mut acc_b) = (vec![Wide::default(); len], vec![Wide::default(); len]);
        mul_acc_wide(&rows(h), &rows(za), &rows(zb), &mut acc_a, &mut acc_b);
        for k in 0..len {
            assert_eq!(reduce_wide(acc_a[k], q), naive(za, k), "a: terms={} k={k}", h.len());
            assert_eq!(reduce_wide(acc_b[k], q), naive(zb, k), "b: terms={} k={k}", h.len());
        }
        acc_a.into_iter().chain(acc_b).collect()
    }

    #[test]
    fn wide_accumulation_matches_the_reduced_sum() {
        // Term counts on both sides of the group width.
        let q = NttTable::new(64, 62).modulus().value();
        let mut rng = seeded_rng(23);
        for terms in [1usize, 3, 4, 5, 7, 8, 64] {
            let mut draw = || -> Vec<Vec<u64>> {
                (0..terms).map(|_| (0..64).map(|_| rng.gen_range(0..q)).collect()).collect()
            };
            check_wide(&draw(), &draw(), &draw(), q);
        }
    }

    #[test]
    fn wide_accumulation_carries_into_the_third_word() {
        // 2,048 terms of (Q-1)^2 pass 2^128; 2,051 leave a ragged tail.
        let q = NttTable::new(2048, 62).modulus().value();
        for terms in [2048usize, 2051] {
            let top = vec![vec![q - 1; 8]; terms];
            let totals = check_wide(&top, &top, &top, q);
            assert!(totals.iter().all(|w| w[2] > 0), "terms={terms}");
        }
    }

    #[test]
    #[should_panic(expected = "below 2^62")]
    fn modulus_of_62_bits_or_more_is_rejected() {
        // The largest NTT prime below 2^63 is above 2^62: 4q would not
        // fit a word.
        NttTable::new(64, 63);
    }

    #[test]
    fn forward_inverse_roundtrip() {
        let table = NttTable::new(64, 40);
        let mut rng = seeded_rng(7);
        let q = table.modulus().value();
        let original: Vec<u64> = (0..64).map(|_| rng.gen_range(0..q)).collect();
        let mut a = original.clone();
        table.forward(&mut a);
        assert_ne!(a, original, "transform should permute values");
        table.inverse(&mut a);
        assert_eq!(a, original);
    }

    #[test]
    fn ntt_mul_matches_schoolbook() {
        let table = NttTable::new(32, 30);
        let q = table.modulus().value();
        let mut rng = seeded_rng(13);
        for _ in 0..10 {
            let a: Vec<u64> = (0..32).map(|_| rng.gen_range(0..q)).collect();
            let b: Vec<u64> = (0..32).map(|_| rng.gen_range(0..q)).collect();
            let expected = negacyclic_mul_ref(&a, &b, q);

            let mut fa = a.clone();
            let mut fb = b.clone();
            table.forward(&mut fa);
            table.forward(&mut fb);
            let mut fc = vec![0u64; 32];
            table.mul(&fa, &fb, &mut fc);
            table.inverse(&mut fc);
            assert_eq!(fc, expected);
        }
    }

    #[test]
    fn mul_acc_accumulates() {
        let table = NttTable::new(16, 30);
        let q = table.modulus().value();
        let a: Vec<u64> = (0..16).map(|i| (i as u64 * 7 + 3) % q).collect();
        let b: Vec<u64> = (0..16).map(|i| (i as u64 * 11 + 5) % q).collect();
        let mut acc = vec![1u64; 16];
        table.mul_acc(&a, &b, &mut acc);
        for i in 0..16 {
            assert_eq!(acc[i], (1 + a[i] as u128 * b[i] as u128 % q as u128) as u64 % q);
        }
    }

    #[test]
    fn production_size_roundtrip() {
        // The parameters the outer scheme actually uses: N = 2048, 62-bit Q.
        let table = NttTable::new(2048, 62);
        let q = table.modulus().value();
        let mut rng = seeded_rng(99);
        let original: Vec<u64> = (0..2048).map(|_| rng.gen_range(0..q)).collect();
        let mut a = original.clone();
        table.forward(&mut a);
        table.inverse(&mut a);
        assert_eq!(a, original);
    }

    #[test]
    fn x_times_x_pow_nminus1_is_minus_one() {
        // In Z_Q[x]/(x^n+1): x * x^(n-1) = x^n = -1.
        let n = 16;
        let table = NttTable::new(n, 30);
        let q = table.modulus().value();
        let mut a = vec![0u64; n];
        a[1] = 1;
        let mut b = vec![0u64; n];
        b[n - 1] = 1;
        table.forward(&mut a);
        table.forward(&mut b);
        let mut c = vec![0u64; n];
        table.mul(&a, &b, &mut c);
        table.inverse(&mut c);
        let mut expected = vec![0u64; n];
        expected[0] = q - 1;
        assert_eq!(c, expected);
    }
}
