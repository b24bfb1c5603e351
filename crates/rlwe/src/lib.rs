//! The "outer" ring-LWE encryption scheme `Enc2` (paper §6.2, App. A).
//!
//! Tiptoe compresses the large post-evaluation ciphertexts of the inner
//! (SimplePIR-style) scheme by outsourcing their decryption to the
//! server: the client encrypts the inner secret key under this second
//! scheme, and the server evaluates the linear part of inner decryption
//! (`hint · s`) homomorphically. What the outer scheme must support is
//! therefore exactly:
//!
//! - encrypting small scalars (the ternary inner secret-key entries),
//! - multiplying ciphertexts by *public* polynomials (hint columns),
//! - accumulating many such products, and
//! - compact ciphertexts after evaluation (+ modulus switching to
//!   shrink the download further).
//!
//! We implement a secret-key BFV-flavored scheme over
//! `R_Q = Z_Q[x]/(x^N + 1)` with `N = 2048`, a 62-bit NTT-friendly
//! prime `Q`, plaintext modulus `t = 2^28`, and ternary keys. Fresh
//! ciphertexts are *seeded* (the uniform `a` component travels as a PRG
//! seed), halving upload size exactly as in the paper's deployments.
//!
//! A seeded ciphertext lives in the NTT domain end to end: the seed
//! expands directly to `â` (the transform is a bijection of `Z_Q^N`,
//! so a uniform `â` is a uniform `a`), and the client ships
//! `b̂ = â∘ŝ + NTT(e + Δ·m)`, which is `NTT(a·s + e + Δ·m)` by
//! linearity. Encryption therefore costs one forward transform and
//! [`expand`] none; noise, scaling, key and security are those of the
//! coefficient-domain scheme. Both run branch-free on secret data (see
//! [`tiptoe_math::ntt`]).
//!
//! Parameter deviation from the paper's SEAL instantiation
//! (`t = 65537`, 38-bit `Q`) is documented in `DESIGN.md` §2: our
//! power-of-two `t` makes the limb recombination in `tiptoe-underhood`
//! exactly correct, which we prefer over replicating SEAL's plaintext
//! CRT packing.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::sync::Arc;

use rand::Rng;
use tiptoe_math::ntt::{NttTable, ShoupPoly};
use tiptoe_math::poly::{Domain, Poly};
use tiptoe_math::rng::{derive_seed, expand_seed};
use tiptoe_math::sample::{noise_key, ternary_vec, NoiseTable};
use tiptoe_math::simd;
use tiptoe_math::wire::{WireError, WireReader, WireWriter};

/// Parameters of the outer RLWE scheme.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RlweParams {
    /// Ring degree `N` (a power of two).
    pub degree: usize,
    /// Bit size of the NTT-friendly prime ciphertext modulus `Q`.
    pub q_bits: u32,
    /// Plaintext modulus `t` (a power of two in this workspace).
    pub t: u64,
    /// Error width: the parameter σ of the discrete Gaussian
    /// `p(k) ∝ exp(−k²/2σ²)` the errors are drawn from (at most 28,
    /// see [`NoiseTable`]).
    pub sigma: f64,
}

impl RlweParams {
    /// The production parameters used throughout the workspace:
    /// `N = 2048`, 62-bit `Q`, `t = 2^28`, σ = 3.2.
    ///
    /// `t = 2^28` is chosen so that a sum of `n ≤ 2048` products of
    /// 16-bit hint limbs with ternary secret entries
    /// (`|Σ| ≤ 2048 · (2^16 - 1) < 2^27`) never wraps modulo `t`.
    pub fn production() -> Self {
        Self { degree: 2048, q_bits: 62, t: 1 << 28, sigma: 3.2 }
    }

    /// Small parameters for fast unit tests (not secure).
    pub fn insecure_test() -> Self {
        Self { degree: 64, q_bits: 50, t: 1 << 20, sigma: 3.2 }
    }
}

/// Shared precomputed state: parameters plus NTT and noise tables.
#[derive(Debug, Clone)]
pub struct RlweContext {
    params: RlweParams,
    table: Arc<NttTable>,
    /// `Δ = ⌊Q/t⌋`.
    delta: u64,
    /// The error distribution of `params.sigma`.
    noise: NoiseTable,
}

impl RlweContext {
    /// Builds the context, deriving the NTT-friendly prime modulus.
    ///
    /// # Panics
    ///
    /// Panics if the parameters are inconsistent (`t ≥ Q/4`, degree
    /// not a power of two, …) or `sigma` is negative, not finite or
    /// above 28 (see [`NoiseTable::new`]).
    pub fn new(params: RlweParams) -> Self {
        let table = Arc::new(NttTable::new(params.degree, params.q_bits));
        let q = table.modulus().value();
        assert!(params.t >= 2 && params.t < q / 4, "plaintext modulus out of range");
        let delta = q / params.t;
        Self { params, table, delta, noise: NoiseTable::new(params.sigma) }
    }

    /// The scheme parameters.
    pub fn params(&self) -> &RlweParams {
        &self.params
    }

    /// The NTT table (shared by all polynomials of this context).
    pub fn table(&self) -> &Arc<NttTable> {
        &self.table
    }

    /// The ciphertext modulus `Q`.
    pub fn q(&self) -> u64 {
        self.table.modulus().value()
    }

    /// The plaintext scale `Δ = ⌊Q/t⌋`.
    pub fn delta(&self) -> u64 {
        self.delta
    }

    /// The largest `|e|` a fresh ciphertext's error coefficients take.
    pub fn noise_bound(&self) -> u64 {
        self.noise.bound()
    }

    /// Encodes a signed plaintext value as `round(m·Q/t) mod Q`.
    ///
    /// The exact rational scaling (rather than `Δ·(m mod t)`) keeps the
    /// encoding error below `1/2` even for negative `m`, which matters
    /// because homomorphic plaintext multiplication amplifies any
    /// encoding error by `‖h‖`.
    pub fn encode_plain(&self, m: i64) -> u64 {
        let q = self.q() as i128;
        let t = self.params.t as i128;
        let num = m as i128 * q;
        let rounded = (num + (t >> 1)).div_euclid(t);
        rounded.rem_euclid(q) as u64
    }

    /// Smallest safe modulus-switch target: the switch adds a rounding
    /// noise of about `z·0.5·√(2N/3)` (ternary key, half-unit rounding
    /// errors), which must stay below the switched scale `Q'/(2t)`;
    /// `log2(t) + 12` leaves a ≥8x margin at `N = 2048`.
    pub fn min_switch_log_q2(&self) -> u32 {
        let t_bits = 63 - self.params.t.leading_zeros();
        t_bits + 12
    }

    /// Prepares a public plaintext polynomial (given as unsigned values
    /// `< 2^16`, e.g. hint limbs) in NTT form for repeated
    /// multiplication.
    ///
    /// # Panics
    ///
    /// Panics if `coeffs.len() != N`.
    pub fn plaintext_ntt(&self, coeffs: &[u64]) -> Poly {
        assert_eq!(coeffs.len(), self.params.degree, "degree mismatch");
        let m = self.table.modulus();
        let reduced: Vec<u64> = coeffs.iter().map(|&c| m.reduce(c)).collect();
        let mut p = Poly::from_coeffs(Arc::clone(&self.table), reduced);
        p.to_ntt();
        p
    }
}

/// A ternary RLWE secret key.
#[derive(Debug, Clone)]
pub struct RlweSecretKey {
    /// NTT-domain form with Shoup quotients: `â∘ŝ` is one
    /// multiply-accumulate in encryption and in both decryptions.
    s_ntt: ShoupPoly,
}

impl RlweSecretKey {
    /// Samples a fresh ternary key.
    pub fn generate<R: Rng + ?Sized>(ctx: &RlweContext, rng: &mut R) -> Self {
        Self::from_ternary(ctx, &ternary_vec(rng, ctx.params.degree))
    }

    /// The key with the given ternary coefficients.
    fn from_ternary(ctx: &RlweContext, ternary: &[i64]) -> Self {
        let mut s = Poly::from_signed(Arc::clone(&ctx.table), ternary);
        s.to_ntt();
        Self { s_ntt: ctx.table.prepare_shoup(s.data()) }
    }
}

/// A fresh, *seeded* ciphertext: the uniform component `a` travels as a
/// PRG seed (the SimplePIR/SEAL trick that halves upload size).
#[derive(Debug, Clone)]
pub struct SeededRlweCiphertext {
    /// Seed from which the `a` polynomial expands.
    pub a_seed: u64,
    /// The `b = a·s + e + Δ·m` polynomial, in NTT domain.
    pub b_ntt: Vec<u64>,
}

/// Wire size in bytes of one seeded ciphertext of degree `N`: seed +
/// count prefix + `N` 8-byte words.
pub fn seeded_byte_len(degree: usize) -> u64 {
    12 + 8 * degree as u64
}

/// Writes one seeded ciphertext: the seed, a count, `b̂`'s words.
pub fn encode_seeded(w: &mut WireWriter, a_seed: u64, b_ntt: &[u64]) {
    w.put_u64(a_seed);
    w.put_u64_slice(b_ntt);
}

/// Reads one seeded ciphertext of `ctx`'s ring, so that whatever
/// decodes can be expanded: `b̂` into the `N` words of `b_ntt`, the
/// seed returned.
///
/// # Errors
///
/// Fails on truncation, a polynomial whose length is not `N`, or a
/// word that is not reduced modulo `Q`.
pub fn decode_seeded(
    r: &mut WireReader<'_>,
    ctx: &RlweContext,
    b_ntt: &mut [u64],
) -> Result<u64, WireError> {
    let a_seed = r.get_u64()?;
    if r.get_u32()? as usize != b_ntt.len() {
        return Err(WireError::Invalid("seeded ciphertext degree"));
    }
    let words = r.get_bytes(8 * b_ntt.len())?.chunks_exact(8);
    for (w, bytes) in b_ntt.iter_mut().zip(words) {
        *w = u64::from_le_bytes(bytes.try_into().expect("eight bytes a word"));
        if *w >= ctx.q() {
            return Err(WireError::Invalid("seeded ciphertext word not reduced"));
        }
    }
    Ok(a_seed)
}

/// An expanded (or evaluated) ciphertext with both components in NTT
/// domain, ready for homomorphic operations.
#[derive(Debug, Clone)]
pub struct RlweCiphertext {
    /// The `a` component (NTT domain).
    pub a: Poly,
    /// The `b` component (NTT domain).
    pub b: Poly,
}

impl RlweCiphertext {
    /// An encryption-of-zero accumulator (both components zero).
    pub fn zero(ctx: &RlweContext) -> Self {
        let mut a = Poly::zero(Arc::clone(&ctx.table));
        let mut b = Poly::zero(Arc::clone(&ctx.table));
        a.to_ntt();
        b.to_ntt();
        Self { a, b }
    }
}

/// Expands the uniform `a` polynomial of `seed` into `a_ntt`, directly
/// as its NTT-domain words.
pub fn expand_a(ctx: &RlweContext, seed: u64, a_ntt: &mut [u64]) {
    let q = ctx.q();
    expand_seed(derive_seed(seed, 0x524c_5745), a_ntt);
    // The widening-multiply map of `gen_range(0..q)`, word by word.
    for c in a_ntt {
        *c = ((*c as u128 * q as u128) >> 64) as u64;
    }
}

/// Completes an encryption in place, from `e + Δ·m` in coefficient
/// domain to `b̂ = NTT(e + Δ·m) + â∘ŝ`; `a_ntt` is left holding `â`.
fn seal(ctx: &RlweContext, sk: &RlweSecretKey, a_seed: u64, a_ntt: &mut [u64], b_ntt: &mut [u64]) {
    ctx.table.forward(b_ntt);
    expand_a(ctx, a_seed, a_ntt);
    ctx.table.mul_acc_shoup(&sk.s_ntt, a_ntt, b_ntt);
}

/// Encrypts a plaintext polynomial given by signed coefficients
/// (interpreted modulo `t`): `b = a·s + e + Δ·m`. The noise `e` is the
/// keystream of one [`noise_key`] of `rng`, inverted through the noise
/// table in place (coefficient domain, reduced modulo `Q`): the same
/// compares whatever `e` is.
///
/// # Panics
///
/// Panics if `m_signed.len() != N`.
pub fn encrypt<R: Rng + ?Sized>(
    ctx: &RlweContext,
    sk: &RlweSecretKey,
    m_signed: &[i64],
    a_seed: u64,
    rng: &mut R,
) -> SeededRlweCiphertext {
    assert_eq!(m_signed.len(), ctx.params.degree, "degree mismatch");
    let modulus = ctx.table.modulus();
    let mut b_ntt = vec![0u64; m_signed.len()];
    ctx.noise.fill(simd::tier(), &noise_key(rng), ctx.q(), &mut b_ntt);
    for (b, &m) in b_ntt.iter_mut().zip(m_signed) {
        *b = modulus.add(*b, ctx.encode_plain(m));
    }
    seal(ctx, sk, a_seed, &mut vec![0u64; m_signed.len()], &mut b_ntt);
    SeededRlweCiphertext { a_seed, b_ntt }
}

/// Encrypts the constant polynomial `c` (the shape used for the inner
/// secret-key entries `z_i = Enc2(s_i)`) into `b_ntt`, with `a_ntt` as
/// scratch (left holding `â`); both are `N` words. Only coefficient 0
/// carries a message, so only it is encoded, whatever the value of
/// `c`. The randomness comes as values, so a caller can draw for many
/// ciphertexts first and fill them on several threads.
pub fn encrypt_scalar_into(
    ctx: &RlweContext,
    sk: &RlweSecretKey,
    c: i64,
    a_seed: u64,
    noise_key: &[u32; 8],
    a_ntt: &mut [u64],
    b_ntt: &mut [u64],
) {
    ctx.noise.fill(simd::tier(), noise_key, ctx.q(), b_ntt);
    b_ntt[0] = ctx.table.modulus().add(b_ntt[0], ctx.encode_plain(c));
    seal(ctx, sk, a_seed, a_ntt, b_ntt);
}

/// [`encrypt_scalar_into`] as one standalone ciphertext, its noise key
/// drawn from `rng`.
pub fn encrypt_scalar<R: Rng + ?Sized>(
    ctx: &RlweContext,
    sk: &RlweSecretKey,
    c: i64,
    a_seed: u64,
    rng: &mut R,
) -> SeededRlweCiphertext {
    let (mut a_ntt, mut b_ntt) = (vec![0u64; ctx.params.degree], vec![0u64; ctx.params.degree]);
    encrypt_scalar_into(ctx, sk, c, a_seed, &noise_key(rng), &mut a_ntt, &mut b_ntt);
    SeededRlweCiphertext { a_seed, b_ntt }
}

/// Expands a seeded ciphertext for evaluation. Both components are
/// already NTT-domain words, so this is a PRG expansion and a copy.
///
/// # Panics
///
/// Panics if `ct` is not of `ctx`'s ring (wrong degree or unreduced
/// words); [`decode_seeded`] admits no such value.
pub fn expand(ctx: &RlweContext, ct: &SeededRlweCiphertext) -> RlweCiphertext {
    let mut a_ntt = vec![0u64; ctx.params.degree];
    expand_a(ctx, ct.a_seed, &mut a_ntt);
    let a = Poly::from_ntt_data(Arc::clone(&ctx.table), a_ntt);
    let b = Poly::from_ntt_data(Arc::clone(&ctx.table), ct.b_ntt.clone());
    RlweCiphertext { a, b }
}

/// Homomorphic multiply-accumulate by a public polynomial:
/// `acc += h · z`, all operands in NTT domain.
///
/// # Panics
///
/// Panics if `h` is not in NTT domain.
pub fn mul_plain_acc(acc: &mut RlweCiphertext, h_ntt: &Poly, z: &RlweCiphertext) {
    assert_eq!(h_ntt.domain(), Domain::Ntt, "plaintext must be in NTT domain");
    acc.a.mul_acc_ntt(h_ntt, &z.a);
    acc.b.mul_acc_ntt(h_ntt, &z.b);
}

/// Homomorphic addition: `acc += z`.
pub fn add_assign(acc: &mut RlweCiphertext, z: &RlweCiphertext) {
    acc.a.add_assign(&z.a);
    acc.b.add_assign(&z.b);
}

/// The decryption phase `b − a·s = Δ·m + e`, in coefficient domain.
fn phase(ctx: &RlweContext, sk: &RlweSecretKey, ct: &RlweCiphertext) -> Poly {
    assert_eq!(ct.a.domain(), Domain::Ntt, "ciphertext must be in NTT domain");
    let mut a_s = vec![0u64; ctx.params.degree];
    ctx.table.mul_acc_shoup(&sk.s_ntt, ct.a.data(), &mut a_s);
    let mut y = ct.b.clone();
    y.sub_assign(&Poly::from_ntt_data(Arc::clone(&ctx.table), a_s));
    y.to_coeff();
    y
}

/// Decrypts to centered (signed) plaintext coefficients modulo `t`.
pub fn decrypt(ctx: &RlweContext, sk: &RlweSecretKey, ct: &RlweCiphertext) -> Vec<i64> {
    let q = ctx.q() as u128;
    let t = ctx.params.t as u128;
    phase(ctx, sk, ct)
        .coeffs()
        .iter()
        .map(|&c| {
            let v = ((c as u128 * t + q / 2) / q) as u64 % ctx.params.t;
            tiptoe_math::zq::center(v, ctx.params.t)
        })
        .collect()
}

/// The largest `|noise|` among the coefficients of a ciphertext whose
/// plaintext is known: the phase minus the encoded message, centred.
pub fn max_noise(
    ctx: &RlweContext,
    sk: &RlweSecretKey,
    ct: &RlweCiphertext,
    expected_signed: &[i64],
) -> u64 {
    let modulus = *ctx.table.modulus();
    let phase = phase(ctx, sk, ct);
    let noise = phase.coeffs().iter().zip(expected_signed).map(|(&c, &m)| {
        modulus.center(modulus.sub(c, ctx.encode_plain(m))).unsigned_abs()
    });
    noise.max().unwrap_or(0)
}

/// Measures the remaining noise budget (bits) of a ciphertext whose
/// plaintext is known. Returns `log2(Δ/2) - log2(max |noise|)`;
/// negative values mean decryption already failed.
pub fn noise_budget_bits(
    ctx: &RlweContext,
    sk: &RlweSecretKey,
    ct: &RlweCiphertext,
    expected_signed: &[i64],
) -> f64 {
    let budget = (ctx.delta / 2) as f64;
    budget.log2() - (max_noise(ctx, sk, ct, expected_signed).max(1) as f64).log2()
}

/// A modulus-switched ciphertext over `Z_{2^log_q2}`, in coefficient
/// domain — this is the compact form that travels to the client.
#[derive(Debug, Clone)]
pub struct SwitchedCiphertext {
    /// `a` coefficients modulo `2^log_q2`.
    pub a: Vec<u64>,
    /// `b` coefficients modulo `2^log_q2`.
    pub b: Vec<u64>,
    /// log2 of the switched modulus.
    pub log_q2: u32,
}

impl SwitchedCiphertext {
    /// Wire size in bytes at degree `N`: a width byte, then two vectors of
    /// `N` coefficients packed at `log_q2` bits, each after a count and a width.
    pub fn wire_len(degree: usize, log_q2: u32) -> u64 {
        1 + 2 * (5 + (degree as u64 * log_q2 as u64).div_ceil(8))
    }

    /// Wire size in bytes ([`SwitchedCiphertext::wire_len`] of its
    /// degree; the decoder admits only equal halves).
    pub fn byte_len(&self) -> u64 {
        Self::wire_len(self.a.len(), self.log_q2)
    }

    /// Serializes to the wire format.
    pub fn encode_into(&self, w: &mut WireWriter) {
        w.put_u8(self.log_q2 as u8);
        w.put_packed_u64(&self.a, self.log_q2);
        w.put_packed_u64(&self.b, self.log_q2);
    }

    /// Serializes to a standalone message.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = WireWriter::with_capacity(self.byte_len() as usize);
        self.encode_into(&mut w);
        w.finish()
    }

    /// Parses one switched ciphertext from a reader.
    ///
    /// # Errors
    ///
    /// Fails on truncation or an invalid modulus width.
    pub fn decode_from(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let log_q2 = r.get_u8()? as u32;
        if !(2..=63).contains(&log_q2) {
            return Err(WireError::Invalid("switched modulus width"));
        }
        let a = r.get_packed_u64()?;
        let b = r.get_packed_u64()?;
        if a.len() != b.len() {
            return Err(WireError::Invalid("switched ciphertext halves differ in degree"));
        }
        Ok(Self { a, b, log_q2 })
    }
}

/// Switches a ciphertext from modulus `Q` down to `2^log_q2`
/// (`c' = round(c · 2^log_q2 / Q)`), shrinking the download at the cost
/// of a small additive rounding noise.
///
/// # Panics
///
/// Panics if `log_q2` is not in `(log2 t + 2, 63]`, or if
/// `N·2^log_q2 ≥ Q/2` ([`decrypt_switched`]'s exactness condition;
/// `log_q2 ≤ 49` on the production ring).
pub fn mod_switch(ctx: &RlweContext, ct: &RlweCiphertext, log_q2: u32) -> SwitchedCiphertext {
    let t_bits = 63 - ctx.params.t.leading_zeros();
    assert!(log_q2 > t_bits + 2 && log_q2 <= 63, "switched modulus out of range");
    let q = ctx.q() as u128;
    let q2 = 1u128 << log_q2;
    assert!(ctx.params.degree as u128 * q2 < q / 2, "switched modulus too wide to decrypt exactly");
    let mask = (q2 - 1) as u64;
    let switch = |poly: &Poly| -> Vec<u64> {
        let mut p = poly.clone();
        p.to_coeff();
        p.coeffs()
            .iter()
            .map(|&c| (((c as u128 * q2 + q / 2) / q) as u64) & mask)
            .collect()
    };
    SwitchedCiphertext { a: switch(&ct.a), b: switch(&ct.b), log_q2 }
}

/// Decrypts a modulus-switched ciphertext.
///
/// The negacyclic product `a·s` is taken exactly in `Z_Q`: one forward
/// NTT of `a`, one product with `ŝ`, one inverse NTT, the same
/// operations whatever the key. With ternary `s`, every coefficient of
/// the integer product lies strictly inside `±N·2^log_q2`, which
/// [`mod_switch`] keeps below `Q/2`, so the centred residue is that
/// integer, and it is wrapped to `2^log_q2` as the phase is. A
/// ciphertext switched any wider (only a hostile one: the decoder
/// admits up to 63 bits) decrypts to garbage without panicking.
///
/// # Panics
///
/// Panics if `ct.a` does not hold `N` coefficients.
pub fn decrypt_switched(
    ctx: &RlweContext,
    sk: &RlweSecretKey,
    ct: &SwitchedCiphertext,
) -> Vec<i64> {
    assert_eq!(ct.a.len(), ctx.params.degree, "degree mismatch");
    let mask = if ct.log_q2 == 63 { (1u64 << 63) - 1 } else { (1u64 << ct.log_q2) - 1 };
    let q = ctx.q();
    // Below `Q` already unless the width is hostile; `a` is public.
    let reduce = |c: u64| if c < q { c } else { c % q };
    let mut a: Vec<u64> = ct.a.iter().map(|&c| reduce(c & mask)).collect();
    ctx.table.forward(&mut a);
    let mut a_s = vec![0u64; a.len()];
    ctx.table.mul_acc_shoup(&sk.s_ntt, &a, &mut a_s);
    ctx.table.inverse(&mut a_s);
    let q2 = 1u128 << ct.log_q2;
    let t = ctx.params.t as u128;
    ct.b
        .iter()
        .zip(a_s.iter())
        .map(|(&b, &as_q)| {
            // Centred by mask, not by branch: `as_q − Q` above `Q/2`.
            let as_c = as_q.wrapping_sub(q & 0u64.wrapping_sub(u64::from(as_q > q / 2)));
            let y = (b.wrapping_sub(as_c) & mask) as u128;
            let v = ((y * t + q2 / 2) >> ct.log_q2) as u64 % ctx.params.t;
            tiptoe_math::zq::center(v, ctx.params.t)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::RngCore;
    use tiptoe_math::rng::seeded_rng;

    fn ctx() -> RlweContext {
        RlweContext::new(RlweParams::insecure_test())
    }

    fn encode(ct: &SeededRlweCiphertext) -> Vec<u8> {
        let mut w = WireWriter::new();
        encode_seeded(&mut w, ct.a_seed, &ct.b_ntt);
        w.finish()
    }

    fn decode(bytes: &[u8], ctx: &RlweContext) -> Result<SeededRlweCiphertext, WireError> {
        let mut r = WireReader::new(bytes);
        let mut b_ntt = vec![0u64; ctx.params().degree];
        let a_seed = decode_seeded(&mut r, ctx, &mut b_ntt)?;
        r.finish()?;
        Ok(SeededRlweCiphertext { a_seed, b_ntt })
    }

    #[test]
    fn encrypt_decrypt_roundtrip() {
        let ctx = ctx();
        let mut rng = seeded_rng(1);
        let sk = RlweSecretKey::generate(&ctx, &mut rng);
        let m: Vec<i64> = (0..ctx.params().degree).map(|i| (i as i64 % 37) - 18).collect();
        let ct = encrypt(&ctx, &sk, &m, 7, &mut rng);
        let got = decrypt(&ctx, &sk, &expand(&ctx, &ct));
        assert_eq!(got, m);
    }

    #[test]
    fn scalar_encryption_puts_value_in_constant_term() {
        let ctx = ctx();
        let mut rng = seeded_rng(2);
        let sk = RlweSecretKey::generate(&ctx, &mut rng);
        for c in [-1i64, 0, 1, 5] {
            let ct = encrypt_scalar(&ctx, &sk, c, 13, &mut rng);
            let got = decrypt(&ctx, &sk, &expand(&ctx, &ct));
            assert_eq!(got[0], c);
            assert!(got[1..].iter().all(|&x| x == 0));
        }
    }

    #[test]
    fn homomorphic_plain_mul_matches_plaintext_product() {
        // Enc(s_i) * h(x) decrypts to s_i * h(x).
        let ctx = ctx();
        let mut rng = seeded_rng(3);
        let sk = RlweSecretKey::generate(&ctx, &mut rng);
        let n = ctx.params().degree;
        let h_coeffs: Vec<u64> = (0..n as u64).map(|i| (i * 31 + 5) % 1000).collect();
        let h = ctx.plaintext_ntt(&h_coeffs);

        let z = expand(&ctx, &encrypt_scalar(&ctx, &sk, -1, 21, &mut rng));
        let mut acc = RlweCiphertext::zero(&ctx);
        mul_plain_acc(&mut acc, &h, &z);
        let got = decrypt(&ctx, &sk, &acc);
        let want: Vec<i64> = h_coeffs.iter().map(|&c| -(c as i64)).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn accumulated_products_match_linear_combination() {
        // sum_i s_i * h_i(x): the exact computation underhood performs.
        let ctx = ctx();
        let mut rng = seeded_rng(4);
        let sk = RlweSecretKey::generate(&ctx, &mut rng);
        let n = ctx.params().degree;
        let k = 32;
        let secrets: Vec<i64> = (0..k).map(|_| tiptoe_math::sample::ternary_i64(&mut rng)).collect();
        let columns: Vec<Vec<u64>> = (0..k)
            .map(|c| (0..n).map(|r| ((r * 13 + c * 7 + 1) % 60000) as u64).collect())
            .collect();

        let mut acc = RlweCiphertext::zero(&ctx);
        for (i, col) in columns.iter().enumerate() {
            let z = expand(&ctx, &encrypt_scalar(&ctx, &sk, secrets[i], 100 + i as u64, &mut rng));
            let h = ctx.plaintext_ntt(col);
            mul_plain_acc(&mut acc, &h, &z);
        }
        let got = decrypt(&ctx, &sk, &acc);
        let want: Vec<i64> = (0..n)
            .map(|r| secrets.iter().zip(columns.iter()).map(|(&s, col)| s * col[r] as i64).sum())
            .collect();
        assert_eq!(got, want);
    }

    #[test]
    fn noise_budget_positive_after_accumulation() {
        let ctx = RlweContext::new(RlweParams::production());
        let mut rng = seeded_rng(5);
        let sk = RlweSecretKey::generate(&ctx, &mut rng);
        let n = ctx.params().degree;
        let k = 64; // Scaled-down accumulation depth (full depth tested in underhood).
        let mut acc = RlweCiphertext::zero(&ctx);
        let mut want = vec![0i64; n];
        for i in 0..k {
            let s_i = tiptoe_math::sample::ternary_i64(&mut rng);
            let col: Vec<u64> = (0..n).map(|_| rng.gen_range(0..1u64 << 16)).collect();
            let z = expand(&ctx, &encrypt_scalar(&ctx, &sk, s_i, i as u64, &mut rng));
            let h = ctx.plaintext_ntt(&col);
            mul_plain_acc(&mut acc, &h, &z);
            for (w, &c) in want.iter_mut().zip(col.iter()) {
                *w += s_i * c as i64;
            }
        }
        let budget = noise_budget_bits(&ctx, &sk, &acc, &want);
        assert!(budget > 4.0, "noise budget too low: {budget}");
        assert_eq!(decrypt(&ctx, &sk, &acc), want);
    }

    #[test]
    fn mod_switch_preserves_plaintext() {
        let ctx = RlweContext::new(RlweParams::production());
        let mut rng = seeded_rng(6);
        let sk = RlweSecretKey::generate(&ctx, &mut rng);
        let n = ctx.params().degree;
        let m: Vec<i64> = (0..n).map(|i| ((i as i64 * 7919) % (1 << 27)) - (1 << 26)).collect();
        let ct = expand(&ctx, &encrypt(&ctx, &sk, &m, 3, &mut rng));
        let switched = mod_switch(&ctx, &ct, 44);
        let got = decrypt_switched(&ctx, &sk, &switched);
        assert_eq!(got, m);
        // Unswitched, the two polynomials are `N` 8-byte words each.
        assert!(switched.byte_len() < 16 * n as u64, "switching should shrink the wire size");
    }

    #[test]
    fn mod_switch_after_accumulation_still_decrypts() {
        let ctx = RlweContext::new(RlweParams::production());
        let mut rng = seeded_rng(7);
        let sk = RlweSecretKey::generate(&ctx, &mut rng);
        let n = ctx.params().degree;
        let mut acc = RlweCiphertext::zero(&ctx);
        let mut want = vec![0i64; n];
        for i in 0..32 {
            let s_i = tiptoe_math::sample::ternary_i64(&mut rng);
            let col: Vec<u64> = (0..n).map(|_| rng.gen_range(0..1u64 << 16)).collect();
            let z = expand(&ctx, &encrypt_scalar(&ctx, &sk, s_i, 50 + i, &mut rng));
            let h = ctx.plaintext_ntt(&col);
            mul_plain_acc(&mut acc, &h, &z);
            for (w, &c) in want.iter_mut().zip(col.iter()) {
                *w += s_i * c as i64;
            }
        }
        let switched = mod_switch(&ctx, &acc, 44);
        assert_eq!(decrypt_switched(&ctx, &sk, &switched), want);
    }

    /// [`decrypt_switched`] by the definition: `a·s` summed schoolbook
    /// over `Z_{2^log_q2}` from the key's ternary coefficients.
    fn schoolbook_decrypt(ctx: &RlweContext, ternary: &[i64], ct: &SwitchedCiphertext) -> Vec<i64> {
        let n = ternary.len();
        let mut a_s = vec![0u64; n];
        for (j, &s_j) in ternary.iter().enumerate() {
            for (i, &a_i) in ct.a.iter().enumerate() {
                let (k, s) = if i + j < n { (i + j, s_j) } else { (i + j - n, -s_j) };
                a_s[k] = a_s[k].wrapping_add((s as u64).wrapping_mul(a_i));
            }
        }
        let (q2, t) = (1u128 << ct.log_q2, ctx.params().t);
        let phase = ct.b.iter().zip(&a_s).map(|(&b, &a_s)| (b.wrapping_sub(a_s) as u128) % q2);
        let rounded = phase.map(|y| ((y * t as u128 + q2 / 2) >> ct.log_q2) as u64 % t);
        rounded.map(|v| tiptoe_math::zq::center(v, t)).collect()
    }

    #[test]
    fn switched_decryption_matches_the_schoolbook_product() {
        let small = RlweParams { degree: 64, q_bits: 58, t: 1 << 24, sigma: 3.2 };
        for ctx in [RlweContext::new(small), RlweContext::new(RlweParams::production())] {
            let n = ctx.params().degree;
            let mut rng = seeded_rng(30);
            let keys = [ternary_vec(&mut rng, n), vec![1; n], vec![-1; n]];
            let top = (1u64 << 44) - 1;
            let mut word = || rng.next_u64() & top;
            let b: Vec<u64> = (0..n).map(|_| word()).collect();
            let random: Vec<u64> = (0..n).map(|_| word()).collect();
            for a in [random, vec![top; n]] {
                let ct = SwitchedCiphertext { a, b: b.clone(), log_q2: 44 };
                for ternary in &keys {
                    let sk = RlweSecretKey::from_ternary(&ctx, ternary);
                    let want = schoolbook_decrypt(&ctx, ternary, &ct);
                    assert_eq!(decrypt_switched(&ctx, &sk, &ct), want, "N = {n}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "too wide")]
    fn mod_switch_refuses_a_width_it_cannot_decrypt_exactly() {
        let ctx = RlweContext::new(RlweParams::production());
        let sk = RlweSecretKey::generate(&ctx, &mut seeded_rng(31));
        let ct = expand(&ctx, &encrypt_scalar(&ctx, &sk, 1, 3, &mut seeded_rng(32)));
        mod_switch(&ctx, &ct, 50);
    }

    #[test]
    fn a_hostile_switch_width_decrypts_without_panicking() {
        let ctx = RlweContext::new(RlweParams::production());
        let sk = RlweSecretKey::generate(&ctx, &mut seeded_rng(33));
        let n = ctx.params().degree;
        for log_q2 in [50, 63] {
            let top = (1u64 << log_q2) - 1;
            let bytes = SwitchedCiphertext { a: vec![top; n], b: vec![top; n], log_q2 }.encode();
            let ct = SwitchedCiphertext::decode_from(&mut WireReader::new(&bytes));
            let ct = ct.expect("a width up to 63 decodes");
            assert_eq!(decrypt_switched(&ctx, &sk, &ct).len(), n, "log_q2 = {log_q2}");
        }
    }

    #[test]
    fn seeded_ciphertext_halves_upload() {
        let ctx = ctx();
        let mut rng = seeded_rng(8);
        let sk = RlweSecretKey::generate(&ctx, &mut rng);
        let ct = encrypt_scalar(&ctx, &sk, 1, 9, &mut rng);
        let expanded = expand(&ctx, &ct);
        // Seed + framing vs two full polynomials of 8-byte words.
        assert!(encode(&ct).len() as u64 <= 16 * expanded.a.data().len() as u64 / 2 + 16);
    }

    #[test]
    fn seeded_ciphertext_wire_roundtrip() {
        let ctx = ctx();
        let mut rng = seeded_rng(20);
        let sk = RlweSecretKey::generate(&ctx, &mut rng);
        let ct = encrypt_scalar(&ctx, &sk, -1, 5, &mut rng);
        let bytes = encode(&ct);
        assert_eq!(bytes.len() as u64, seeded_byte_len(ctx.params().degree));
        // The layout the size model (DESIGN.md §6) counts: an 8-byte
        // seed, a 4-byte count, N 8-byte words.
        assert_eq!(bytes.len(), 12 + 8 * ctx.params().degree);
        let back = decode(&bytes, &ctx).expect("decodes");
        assert_eq!(back.a_seed, ct.a_seed);
        assert_eq!(back.b_ntt, ct.b_ntt);
    }

    #[test]
    fn decode_rejects_what_expand_could_not_take() {
        let ctx = ctx();
        let mut rng = seeded_rng(22);
        let sk = RlweSecretKey::generate(&ctx, &mut rng);
        let ct = encrypt_scalar(&ctx, &sk, 1, 5, &mut rng);
        let decode = |ct: &SeededRlweCiphertext| decode(&encode(ct), &ctx);
        assert!(decode(&ct).is_ok());
        let mut unreduced = ct.clone();
        unreduced.b_ntt[0] |= 1 << 63;
        assert!(matches!(decode(&unreduced), Err(WireError::Invalid(_))));
        let mut at_q = ct.clone();
        at_q.b_ntt[7] = ctx.q();
        assert!(matches!(decode(&at_q), Err(WireError::Invalid(_))));
        for len in [0, 63, 65] {
            let mut resized = ct.clone();
            resized.b_ntt.resize(len, 0);
            assert!(matches!(decode(&resized), Err(WireError::Invalid(_))), "len {len}");
        }
    }

    #[test]
    fn production_scalars_roundtrip_through_the_wire() {
        // One token's worth: 2,048 ternary scalars at production
        // parameters, each through encode -> decode -> expand -> decrypt.
        let ctx = RlweContext::new(RlweParams::production());
        let mut rng = seeded_rng(23);
        let sk = RlweSecretKey::generate(&ctx, &mut rng);
        for i in 0..2048u64 {
            let c = tiptoe_math::sample::ternary_i64(&mut rng);
            let bytes = encode(&encrypt_scalar(&ctx, &sk, c, i, &mut rng));
            let back = decode(&bytes, &ctx).expect("decodes");
            let got = decrypt(&ctx, &sk, &expand(&ctx, &back));
            assert_eq!(got[0], c, "ciphertext {i}");
            assert!(got[1..].iter().all(|&x| x == 0), "ciphertext {i}");
        }
    }

    #[test]
    fn fresh_noise_has_the_configured_width() {
        // The phase of a fresh ciphertext minus its encoded message is
        // exactly `e`: were the NTT-domain path to add it twice, scale
        // it, or transform it once too often, the deviation would show.
        let ctx = RlweContext::new(RlweParams::production());
        let mut rng = seeded_rng(24);
        let sk = RlweSecretKey::generate(&ctx, &mut rng);
        let modulus = *ctx.table().modulus();
        let mut noise = Vec::new();
        for i in 0..32u64 {
            let c = tiptoe_math::sample::ternary_i64(&mut rng);
            let y = phase(&ctx, &sk, &expand(&ctx, &encrypt_scalar(&ctx, &sk, c, i, &mut rng)));
            let mut e = y.coeffs().to_vec();
            e[0] = modulus.sub(e[0], ctx.encode_plain(c));
            noise.extend(e.into_iter().map(|w| modulus.center(w) as f64));
        }
        let n = noise.len() as f64;
        let mean = noise.iter().sum::<f64>() / n;
        let std = (noise.iter().map(|e| (e - mean).powi(2)).sum::<f64>() / n).sqrt();
        assert!(mean.abs() < 0.1, "noise mean {mean}");
        assert!((std - 3.2).abs() / 3.2 < 0.05, "noise std {std}, want 3.2 within 5 %");
    }

    #[test]
    fn encryption_consumes_the_same_randomness_whatever_it_encrypts() {
        // Eight `u32`s of the caller's generator a ciphertext (the
        // noise key), for any message under any key: nothing about a
        // secret moves the generator, and no draw is rejected.
        for ctx in [ctx(), RlweContext::new(RlweParams::production())] {
            let keys = [25, 26].map(|seed| RlweSecretKey::generate(&ctx, &mut seeded_rng(seed)));
            let mut untouched = seeded_rng(27);
            for _ in 0..8 {
                untouched.next_u32();
            }
            let want = untouched.next_u64();
            for sk in &keys {
                for c in [-1i64, 0, 1] {
                    let mut rng = seeded_rng(27);
                    encrypt_scalar(&ctx, sk, c, 3, &mut rng);
                    assert_eq!(rng.next_u64(), want, "c = {c}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "thresholds")]
    fn a_width_past_the_table_is_refused() {
        RlweContext::new(RlweParams { sigma: 81920.0, ..RlweParams::insecure_test() });
    }

    #[test]
    fn switched_ciphertext_wire_roundtrip() {
        let ctx = RlweContext::new(RlweParams::production());
        let mut rng = seeded_rng(21);
        let sk = RlweSecretKey::generate(&ctx, &mut rng);
        let m = vec![3i64; ctx.params().degree];
        let ct = expand(&ctx, &encrypt(&ctx, &sk, &m, 6, &mut rng));
        let switched = mod_switch(&ctx, &ct, 44);
        let bytes = switched.encode();
        assert_eq!(bytes.len() as u64, switched.byte_len());
        let mut r = tiptoe_math::wire::WireReader::new(&bytes);
        let back = SwitchedCiphertext::decode_from(&mut r).expect("decodes");
        r.finish().expect("consumed");
        assert_eq!(back.a, switched.a);
        assert_eq!(back.b, switched.b);
        assert_eq!(decrypt_switched(&ctx, &sk, &back), m);
    }

    #[test]
    fn wrong_key_fails_to_decrypt() {
        let ctx = ctx();
        let mut rng = seeded_rng(9);
        let sk = RlweSecretKey::generate(&ctx, &mut rng);
        let other = RlweSecretKey::generate(&ctx, &mut rng);
        let m: Vec<i64> = (0..ctx.params().degree).map(|i| i as i64 % 100).collect();
        let ct = expand(&ctx, &encrypt(&ctx, &sk, &m, 10, &mut rng));
        assert_ne!(decrypt(&ctx, &other, &ct), m);
    }
}
