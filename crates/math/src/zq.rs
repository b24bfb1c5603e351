//! Arithmetic over `Z_q` for power-of-two ciphertext moduli.
//!
//! Tiptoe's inner (SimplePIR-style) encryption scheme works over
//! `q = 2^64` for the ranking step and `q = 2^32` for the URL-retrieval
//! step (paper, Appendix C). For power-of-two `q` matching a machine
//! word, reduction modulo `q` is exactly the hardware wrap-around, so
//! the [`Word`] trait below is a thin veneer over wrapping integer
//! operations. Keeping it a trait lets the LWE layer be generic over
//! both moduli without duplicating code.

use std::fmt::Debug;

use crate::wire::{WireError, WireReader, WireWriter};

/// A machine word serving as an element of `Z_{2^BITS}`.
///
/// Implemented for [`u32`] (`q = 2^32`) and [`u64`] (`q = 2^64`). All
/// operations wrap, which is the correct reduction for these moduli.
pub trait Word:
    Copy + Clone + Debug + Default + PartialEq + Eq + Send + Sync + 'static
{
    /// Bit width of the modulus (`log2 q`).
    const BITS: u32;

    /// The additive identity.
    const ZERO: Self;

    /// The multiplicative identity.
    const ONE: Self;

    /// Wrapping addition modulo `2^BITS`.
    fn wadd(self, rhs: Self) -> Self;

    /// Wrapping subtraction modulo `2^BITS`.
    fn wsub(self, rhs: Self) -> Self;

    /// Wrapping multiplication modulo `2^BITS`.
    fn wmul(self, rhs: Self) -> Self;

    /// Wrapping negation modulo `2^BITS`.
    fn wneg(self) -> Self;

    /// Embeds a `u64`, truncating to the word width.
    fn from_u64(x: u64) -> Self;

    /// Widens to `u64` (zero-extending).
    fn to_u64(self) -> u64;

    /// Embeds a signed value as its representative modulo `2^BITS`.
    fn from_i64(x: i64) -> Self;

    /// Interprets this word as a signed representative in
    /// `[-2^(BITS-1), 2^(BITS-1))`.
    fn to_signed(self) -> i64;

    /// Logical right shift.
    fn shr(self, k: u32) -> Self;

    /// Logical left shift (wrapping).
    fn shl(self, k: u32) -> Self;

    /// Appends this word to a wire message at its native width.
    fn put_wire(self, w: &mut WireWriter);

    /// Reads one word from a wire message at its native width.
    ///
    /// # Errors
    ///
    /// Fails if the input is truncated.
    fn get_wire(r: &mut WireReader<'_>) -> Result<Self, WireError>;

    /// Inner products of `R` narrow `u32` rows with one wide vector,
    /// each lane-chunk of `v` loaded once for all `R` — the `u32`-entry
    /// scan's row group (`R = 1` is the single-row dot). Dispatched for
    /// `u32` words; `u64` words, which no deployment scans against
    /// residues, run the scalar reference. Bit-identical to
    /// [`crate::simd::dot_narrow_scalar`] at every
    /// [`crate::simd::KernelTier`] (wrapping mod-`2^BITS` sums are
    /// associative and commutative, so lane regrouping cannot change
    /// the result).
    ///
    /// # Panics
    ///
    /// May panic (and in release mode truncates to the shortest length)
    /// if the slices differ in length; callers keep them equal.
    fn dot_narrow<const R: usize>(rows: [&[u32]; R], v: &[Self]) -> [Self; R];

    /// Lays a query out as [`Word::dot_i8`] reads it: the byte planes
    /// of [`crate::simd::split_planes`] where the `u64` AVX-512 VNNI body
    /// runs, and nothing everywhere else.
    fn split_planes(v: &[Self]) -> Vec<u8>;

    /// Inner products of `R` signed `i8` rows with one wide vector, the
    /// `i8`-entry scan's row group: `planes` is [`Word::split_planes`]
    /// of a query that `v` is a slice of, starting at the same column,
    /// a multiple of 64. Dispatched for `u64` words, the ranking
    /// service's; `u32` words run the scalar reference. Bit-identical
    /// to [`crate::simd::dot_narrow_scalar`] at every tier.
    fn dot_i8<const R: usize>(rows: [&[i8]; R], v: &[Self], planes: &[u8]) -> [Self; R];

    /// Runtime-dispatched inner product of two wide vectors
    /// (hint-times-secret during decryption). Bit-identical to
    /// [`crate::simd::dot_wide_scalar`] at every tier.
    fn dot_wide(a: &[Self], b: &[Self]) -> Self;

    /// Runtime-dispatched `acc[i] += w·x[i]` — the hint-preprocessing
    /// inner loop (`w` may be a sign-extended full-width multiplier).
    /// Bit-identical to [`crate::simd::axpy_scalar`] at every tier.
    fn axpy(acc: &mut [Self], w: Self, x: &[Self]);
}

impl Word for u32 {
    const BITS: u32 = 32;
    const ZERO: Self = 0;
    const ONE: Self = 1;

    #[inline(always)]
    fn wadd(self, rhs: Self) -> Self {
        self.wrapping_add(rhs)
    }

    #[inline(always)]
    fn wsub(self, rhs: Self) -> Self {
        self.wrapping_sub(rhs)
    }

    #[inline(always)]
    fn wmul(self, rhs: Self) -> Self {
        self.wrapping_mul(rhs)
    }

    #[inline(always)]
    fn wneg(self) -> Self {
        self.wrapping_neg()
    }

    #[inline(always)]
    fn from_u64(x: u64) -> Self {
        x as u32
    }

    #[inline(always)]
    fn to_u64(self) -> u64 {
        self as u64
    }

    #[inline(always)]
    fn from_i64(x: i64) -> Self {
        x as u32
    }

    #[inline(always)]
    fn to_signed(self) -> i64 {
        self as i32 as i64
    }

    #[inline(always)]
    fn shr(self, k: u32) -> Self {
        self >> k
    }

    #[inline(always)]
    fn shl(self, k: u32) -> Self {
        self.wrapping_shl(k)
    }

    fn put_wire(self, w: &mut WireWriter) {
        w.put_u32(self);
    }

    fn get_wire(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        r.get_u32()
    }

    #[inline(always)]
    fn dot_narrow<const R: usize>(rows: [&[u32]; R], v: &[Self]) -> [Self; R] {
        crate::simd::dot_u32_u32(rows, v)
    }

    fn split_planes(_: &[Self]) -> Vec<u8> {
        Vec::new()
    }

    #[inline(always)]
    fn dot_i8<const R: usize>(rows: [&[i8]; R], v: &[Self], _: &[u8]) -> [Self; R] {
        crate::simd::dot_narrow_scalar(rows, v)
    }

    #[inline(always)]
    fn dot_wide(a: &[Self], b: &[Self]) -> Self {
        // u32 "wide" operands have the same shape as a narrow row, so
        // the narrow kernel's one-row case is the dispatched
        // implementation.
        let [dot] = crate::simd::dot_u32_u32([a], b);
        dot
    }

    #[inline(always)]
    fn axpy(acc: &mut [Self], w: Self, x: &[Self]) {
        crate::simd::axpy_u32(acc, w, x)
    }
}

impl Word for u64 {
    const BITS: u32 = 64;
    const ZERO: Self = 0;
    const ONE: Self = 1;

    #[inline(always)]
    fn wadd(self, rhs: Self) -> Self {
        self.wrapping_add(rhs)
    }

    #[inline(always)]
    fn wsub(self, rhs: Self) -> Self {
        self.wrapping_sub(rhs)
    }

    #[inline(always)]
    fn wmul(self, rhs: Self) -> Self {
        self.wrapping_mul(rhs)
    }

    #[inline(always)]
    fn wneg(self) -> Self {
        self.wrapping_neg()
    }

    #[inline(always)]
    fn from_u64(x: u64) -> Self {
        x
    }

    #[inline(always)]
    fn to_u64(self) -> u64 {
        self
    }

    #[inline(always)]
    fn from_i64(x: i64) -> Self {
        x as u64
    }

    #[inline(always)]
    fn to_signed(self) -> i64 {
        self as i64
    }

    #[inline(always)]
    fn shr(self, k: u32) -> Self {
        self >> k
    }

    #[inline(always)]
    fn shl(self, k: u32) -> Self {
        self.wrapping_shl(k)
    }

    fn put_wire(self, w: &mut WireWriter) {
        w.put_u64(self);
    }

    fn get_wire(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        r.get_u64()
    }

    #[inline(always)]
    fn dot_narrow<const R: usize>(rows: [&[u32]; R], v: &[Self]) -> [Self; R] {
        crate::simd::dot_narrow_scalar(rows, v)
    }

    fn split_planes(v: &[Self]) -> Vec<u8> {
        crate::simd::split_planes(v)
    }

    #[inline(always)]
    fn dot_i8<const R: usize>(rows: [&[i8]; R], v: &[Self], planes: &[u8]) -> [Self; R] {
        crate::simd::dot_i8_u64(rows, v, planes)
    }

    #[inline(always)]
    fn dot_wide(a: &[Self], b: &[Self]) -> Self {
        crate::simd::dot_wide_u64(a, b)
    }

    #[inline(always)]
    fn axpy(acc: &mut [Self], w: Self, x: &[Self]) {
        crate::simd::axpy_u64(acc, w, x)
    }
}

/// The entry type of a matrix [`crate::matrix::scan`] reads: a `u32`
/// residue modulo `p` (any `p`, the URL service's odd one included),
/// or an `i8` signed representative, which decrypts like the residue
/// only when `p` divides `q` (the ranking service's power of two).
pub trait Entry: Copy + Default + PartialEq + Debug + Send + Sync + 'static {
    /// The entry as an element of `Z_{2^BITS}` (sign-extended for `i8`).
    fn to_word<W: Word>(self) -> W;

    /// Lays a whole query out for [`Entry::dot`]: nothing for `u32`,
    /// [`Word::split_planes`] for `i8`.
    fn split<W: Word>(v: &[W]) -> Vec<u8>;

    /// The scan's row group: [`Word::dot_narrow`] for `u32`,
    /// [`Word::dot_i8`] for `i8`.
    fn dot<W: Word, const R: usize>(rows: [&[Self]; R], v: &[W], planes: &[u8]) -> [W; R];
}

impl Entry for u32 {
    #[inline(always)]
    fn to_word<W: Word>(self) -> W {
        W::from_u64(u64::from(self))
    }

    fn split<W: Word>(_: &[W]) -> Vec<u8> {
        Vec::new()
    }

    #[inline(always)]
    fn dot<W: Word, const R: usize>(rows: [&[Self]; R], v: &[W], _: &[u8]) -> [W; R] {
        W::dot_narrow(rows, v)
    }
}

impl Entry for i8 {
    #[inline(always)]
    fn to_word<W: Word>(self) -> W {
        W::from_i64(i64::from(self))
    }

    fn split<W: Word>(v: &[W]) -> Vec<u8> {
        W::split_planes(v)
    }

    #[inline(always)]
    fn dot<W: Word, const R: usize>(rows: [&[Self]; R], v: &[W], planes: &[u8]) -> [W; R] {
        W::dot_i8(rows, v, planes)
    }
}

/// Rounds `x / 2^shift` to the nearest integer, staying in `Z_{2^BITS}`.
///
/// This is the rounding step of Regev decryption: the plaintext sits in
/// the high-order bits and the (bounded) noise below is rounded away.
#[inline(always)]
pub fn round_shift<W: Word>(x: W, shift: u32) -> W {
    if shift == 0 {
        return x;
    }
    let half = W::ONE.shl(shift - 1);
    x.wadd(half).shr(shift)
}

/// Centers `x mod m` into the signed range `(-m/2, m/2]` (for `m` a
/// power of two, `[-m/2, m/2)`).
///
/// # Panics
///
/// Panics if `m == 0`.
pub fn center(x: u64, m: u64) -> i64 {
    assert!(m != 0, "modulus must be nonzero");
    let r = x % m;
    if r > m / 2 {
        -((m - r) as i64)
    } else {
        r as i64
    }
}

/// Reduces a signed value into `[0, m)`.
///
/// # Panics
///
/// Panics if `m == 0`.
pub fn reduce_signed(x: i64, m: u64) -> u64 {
    assert!(m != 0, "modulus must be nonzero");
    let m_i = m as i128;
    let r = (x as i128).rem_euclid(m_i);
    r as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wrapping_ops_match_u128_reference() {
        let a: u64 = 0xdead_beef_cafe_f00d;
        let b: u64 = 0xffff_ffff_0000_0001;
        assert_eq!(a.wadd(b) as u128, (a as u128 + b as u128) % (1u128 << 64));
        assert_eq!(a.wmul(b) as u128, (a as u128 * b as u128) % (1u128 << 64));
        assert_eq!(a.wsub(b), a.wrapping_sub(b));
    }

    #[test]
    fn word_signed_roundtrip() {
        for x in [-5i64, -1, 0, 1, 7, i32::MAX as i64, i32::MIN as i64] {
            assert_eq!(u64::from_i64(x).to_signed(), x);
            let y = u32::from_i64(x).to_signed();
            assert_eq!(y, x as i32 as i64);
        }
    }

    #[test]
    fn round_shift_rounds_to_nearest() {
        // 12 / 8 = 1.5 -> 2, 11 / 8 = 1.375 -> 1.
        assert_eq!(round_shift(12u64, 3), 2);
        assert_eq!(round_shift(11u64, 3), 1);
        assert_eq!(round_shift(0u64, 3), 0);
        assert_eq!(round_shift(7u32, 0), 7);
    }

    #[test]
    fn center_is_symmetric() {
        assert_eq!(center(0, 16), 0);
        assert_eq!(center(7, 16), 7);
        assert_eq!(center(8, 16), 8);
        assert_eq!(center(9, 16), -7);
        assert_eq!(center(15, 16), -1);
    }

    #[test]
    fn reduce_signed_inverts_center() {
        for m in [16u64, 17, 1 << 20] {
            for x in 0..m.min(64) {
                assert_eq!(reduce_signed(center(x, m), m), x % m);
            }
        }
    }
}
