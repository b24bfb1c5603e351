//! Runtime-dispatched SIMD kernels behind the matrix-vector hot loops.
//!
//! The server-side scan multiplies a narrow `u32` matrix against wide
//! [`Word`] vectors with wrapping arithmetic. Because wrapping addition modulo `2^k` is associative
//! and commutative, *any* regrouping of the multiply-accumulate chain
//! — four-way scalar unrolls, 256-bit lanes, 512-bit lanes — produces
//! bit-identical results, so vectorization is purely a scheduling
//! decision. This module picks the widest instruction set the CPU
//! offers at runtime and falls back to the portable scalar unroll
//! everywhere else.
//!
//! The client-side hot loop is different in kind: expanding the seed
//! of the public LWE matrix `A` is a ChaCha12 keystream ([`keystream`]),
//! whose blocks are independent given their counters, so the vector
//! tiers compute 8 or 16 blocks at once (lane `l` = block
//! `counter + l`) and emit exactly the byte stream the
//! one-block-at-a-time scalar tier does. The outer scheme's noise is
//! drawn from that stream by a table inversion ([`cdt_invert`]) that
//! treats every word alike, so it is the same safe body at every tier
//! as well.
//!
//! # Dispatch tiers
//!
//! | Tier                     | dot (u32·u64) | dot (u32·u32) | axpy | keystream               |
//! |--------------------------|---------------|---------------|------|-------------------------|
//! | [`KernelTier::Avx512`]   | 8 lanes × R   | 16 lanes × R  | 8/16 | 16 blocks (rest: 8)     |
//! | [`KernelTier::Avx2`]     | 4 lanes × R   | 8 lanes × R   | 4/8  | 8 blocks                |
//! | [`KernelTier::Scalar`]   | 4-way × R     | 4-way × R     | 1    | 1 block                 |
//!
//! The narrow dots are row groups: one body per width and tier,
//! const-generic in the row count `R`, loads each lane-chunk of the
//! vector once and multiplies it into `R` rows' accumulators. The scan
//! runs [`crate::matrix::ROW_GROUP`] rows; `R = 1` is the single-row
//! dot.
//!
//! The keystream has one lane-generic body, with no intrinsics, that
//! the scalar tier runs at 1 lane and the AVX2 tier at 8 under its
//! `#[target_feature]` set. The AVX-512 tier runs a row's whole
//! 16-block batches through its own body, one block per `u32` of a
//! 512-bit register with native rotates, transposed to one block per
//! register in registers at the end (≈1.05 ns a word, where the
//! lane-generic body measured ≈1.8 at 8 lanes and slower still at 16).
//! What is left of the row, and every row shorter than 16 blocks, takes
//! the lane-generic body at 8 lanes. The table inversion is built the
//! lane-generic way over 64-word blocks at every tier; the compiler
//! picks the vector width.
//!
//! The tier is detected once (see [`tier`]) with
//! `is_x86_feature_detected!` and cached for the process lifetime;
//! setting `TIPTOE_FORCE_SCALAR=1` pins the scalar tier so CI can
//! exercise both sides of the dispatch boundary on one machine.
//! Non-x86 targets (e.g. aarch64) currently always take the scalar
//! tier; the dispatch seam is the place to slot NEON kernels in.
//!
//! # Safety model
//!
//! All `unsafe` in this crate lives in this module, under
//! `#![deny(unsafe_op_in_unsafe_fn)]`. Each vector kernel is an
//! `unsafe fn` whose single contract is "the CPU supports the
//! annotated target features"; the only call sites are the dispatch
//! functions below, which establish that contract via the cached
//! feature probe. Inside the kernels, the remaining unsafe operations
//! are unaligned vector loads/stores whose bounds are justified
//! inline at each block. The AVX-512 keystream's only one is its
//! write-out store: per block of a 128-word batch, one 64-byte store
//! of its register into an 8-word local, which safe code then converts
//! into that block's 8 words of the batch. The AVX2 keystream and the
//! table-inversion kernels have no unsafe operation inside at all:
//! they only instantiate safe code under a wider feature set.

use std::sync::OnceLock;

use rand::rngs::CHACHA_CONST;

use crate::zq::Word;

/// The instruction-set tier the dispatched kernels run at.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum KernelTier {
    /// Portable Rust (the four-way-unrolled MAC loop).
    Scalar,
    /// 256-bit AVX2 lanes (x86-64).
    Avx2,
    /// 512-bit AVX-512F + AVX-512DQ lanes (x86-64; DQ supplies the
    /// native 64-bit vector multiply).
    Avx512,
}

impl KernelTier {
    /// Stable lowercase name (recorded in bench JSON and metrics).
    pub fn name(self) -> &'static str {
        match self {
            KernelTier::Scalar => "scalar",
            KernelTier::Avx2 => "avx2",
            KernelTier::Avx512 => "avx512",
        }
    }

    /// Numeric code for `u64`-valued observability attrs/gauges
    /// (0 = scalar, 1 = avx2, 2 = avx512).
    pub fn code(self) -> u64 {
        match self {
            KernelTier::Scalar => 0,
            KernelTier::Avx2 => 1,
            KernelTier::Avx512 => 2,
        }
    }
}

fn detect() -> KernelTier {
    let forced = std::env::var("TIPTOE_FORCE_SCALAR")
        .map(|v| !v.is_empty() && v != "0")
        .unwrap_or(false);
    if forced {
        return KernelTier::Scalar;
    }
    #[cfg(target_arch = "x86_64")]
    {
        // Nested: a tier implies every tier below it, so a caller that
        // names a lower tier (see `keystream`) stays inside the probe.
        if is_x86_feature_detected!("avx2") {
            if is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512dq") {
                return KernelTier::Avx512;
            }
            return KernelTier::Avx2;
        }
    }
    KernelTier::Scalar
}

/// The process-wide kernel tier: the widest instruction set the CPU
/// supports, probed once and cached (so `TIPTOE_FORCE_SCALAR` is read
/// a single time, before the first kernel runs).
#[inline]
pub fn tier() -> KernelTier {
    static TIER: OnceLock<KernelTier> = OnceLock::new();
    *TIER.get_or_init(detect)
}

/// [`tier`]'s stable name, for bench reports.
pub fn tier_name() -> &'static str {
    tier().name()
}

// ---------------------------------------------------------------------
// Scalar reference kernels (generic over `Word`; the fallback tier and
// the oracle the vector tiers are property-tested against).
// ---------------------------------------------------------------------

/// The words a row group's kernels read: `v.len()`, or a shorter row's
/// length. Callers keep them equal; a mismatch truncates (and trips
/// the debug assertion) instead of reading past a slice.
#[inline(always)]
fn group_len<const R: usize>(rows: &[&[u32]; R], v_len: usize) -> usize {
    debug_assert!(rows.iter().all(|r| r.len() == v_len), "row and vector lengths differ");
    rows.iter().fold(v_len, |n, r| n.min(r.len()))
}

/// What the unrolled or vector loop of a row-group kernel left,
/// `row[i..n]` against `v[i..n]`, added to `acc`.
#[inline(always)]
fn tail<W: Word>(acc: W, row: &[u32], v: &[W], i: usize, n: usize) -> W {
    let rest = row[i..n].iter().zip(&v[i..n]);
    rest.fold(acc, |a, (&r, &x)| a.wadd(W::from_u64(r as u64).wmul(x)))
}

/// Four-way-unrolled scalar inner products of `R` narrow `u32` rows
/// with one wide vector, each four-word chunk of `v` read once for all
/// of them — the portable tier of [`Word::dot_narrow`], and the
/// reference all vector kernels must match bit-for-bit. `R = 1` is the
/// single-row dot.
#[inline]
pub fn dot_narrow_scalar<W: Word, const R: usize>(rows: [&[u32]; R], v: &[W]) -> [W; R] {
    let n = group_len(&rows, v.len());
    let v4 = v[..n].as_chunks::<4>().0;
    let rows4 = rows.map(|r| r[..n].as_chunks::<4>().0);
    let mut acc = [[W::ZERO; 4]; R];
    for (j, x) in v4.iter().enumerate() {
        for (acc, r4) in acc.iter_mut().zip(&rows4) {
            for ((a, &r), &x) in acc.iter_mut().zip(&r4[j]).zip(x) {
                *a = a.wadd(W::from_u64(r as u64).wmul(x));
            }
        }
    }
    let mut out = [W::ZERO; R];
    for ((o, [a0, a1, a2, a3]), row) in out.iter_mut().zip(acc).zip(rows) {
        *o = tail(a0.wadd(a1).wadd(a2).wadd(a3), row, v, 4 * v4.len(), n);
    }
    out
}

/// Scalar tier of [`Word::dot_wide`]: inner product of two wide
/// vectors (hint-times-secret during decryption).
#[inline]
pub fn dot_wide_scalar<W: Word>(a: &[W], b: &[W]) -> W {
    debug_assert_eq!(a.len(), b.len());
    let mut acc0 = W::ZERO;
    let mut acc1 = W::ZERO;
    let mut a2 = a.chunks_exact(2);
    let mut b2 = b.chunks_exact(2);
    for (x, y) in (&mut a2).zip(&mut b2) {
        acc0 = acc0.wadd(x[0].wmul(y[0]));
        acc1 = acc1.wadd(x[1].wmul(y[1]));
    }
    for (&x, &y) in a2.remainder().iter().zip(b2.remainder().iter()) {
        acc0 = acc0.wadd(x.wmul(y));
    }
    acc0.wadd(acc1)
}

/// Scalar tier of [`Word::axpy`]: `acc[i] += w·x[i]` (the hint
/// preprocessing inner loop).
#[inline]
pub fn axpy_scalar<W: Word>(acc: &mut [W], w: W, x: &[W]) {
    debug_assert_eq!(acc.len(), x.len());
    for (o, &a) in acc.iter_mut().zip(x.iter()) {
        *o = o.wadd(w.wmul(a));
    }
}

// ---------------------------------------------------------------------
// Dispatch functions (one per concrete width; the Word impls in `zq`
// route here).
// ---------------------------------------------------------------------

/// Dispatched inner products of `R` `u32` rows with one `u64` vector.
#[inline]
pub fn dot_u32_u64<const R: usize>(rows: [&[u32]; R], v: &[u64]) -> [u64; R] {
    match tier() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `tier()` returned this variant only after
        // `is_x86_feature_detected!` confirmed the required features.
        KernelTier::Avx512 => unsafe { x86::dot_u32_u64_avx512(rows, v) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as above — AVX2 was detected at runtime.
        KernelTier::Avx2 => unsafe { x86::dot_u32_u64_avx2(rows, v) },
        _ => dot_narrow_scalar(rows, v),
    }
}

/// Dispatched inner products of `R` `u32` rows with one `u32` vector.
#[inline]
pub fn dot_u32_u32<const R: usize>(rows: [&[u32]; R], v: &[u32]) -> [u32; R] {
    match tier() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `tier()` confirmed avx512f+avx512dq at runtime.
        KernelTier::Avx512 => unsafe { x86::dot_u32_u32_avx512(rows, v) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `tier()` confirmed avx2 at runtime.
        KernelTier::Avx2 => unsafe { x86::dot_u32_u32_avx2(rows, v) },
        _ => dot_narrow_scalar(rows, v),
    }
}

/// Dispatched inner product of two `u64` vectors.
#[inline]
pub fn dot_wide_u64(a: &[u64], b: &[u64]) -> u64 {
    match tier() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `tier()` confirmed avx512f+avx512dq at runtime.
        KernelTier::Avx512 => unsafe { x86::dot_wide_u64_avx512(a, b) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `tier()` confirmed avx2 at runtime.
        KernelTier::Avx2 => unsafe { x86::dot_wide_u64_avx2(a, b) },
        _ => dot_wide_scalar(a, b),
    }
}

/// Dispatched `acc[i] += w·x[i]` over `u64` words.
#[inline]
pub fn axpy_u64(acc: &mut [u64], w: u64, x: &[u64]) {
    match tier() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `tier()` confirmed avx512f+avx512dq at runtime.
        KernelTier::Avx512 => unsafe { x86::axpy_u64_avx512(acc, w, x) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `tier()` confirmed avx2 at runtime.
        KernelTier::Avx2 => unsafe { x86::axpy_u64_avx2(acc, w, x) },
        _ => axpy_scalar(acc, w, x),
    }
}

/// Dispatched `acc[i] += w·x[i]` over `u32` words.
#[inline]
pub fn axpy_u32(acc: &mut [u32], w: u32, x: &[u32]) {
    match tier() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `tier()` confirmed avx512f+avx512dq at runtime.
        KernelTier::Avx512 => unsafe { x86::axpy_u32_avx512(acc, w, x) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `tier()` confirmed avx2 at runtime.
        KernelTier::Avx2 => unsafe { x86::axpy_u32_avx2(acc, w, x) },
        _ => axpy_scalar(acc, w, x),
    }
}

// ---------------------------------------------------------------------
// ChaCha12 keystream: one lane-generic body, instantiated per tier
// (AVX-512 adds a 16-lane body in `x86`).
// ---------------------------------------------------------------------

/// `u64` words in one 64-byte ChaCha block.
const BLOCK_WORDS: usize = 8;

/// Blocks per batch of the lane-generic body at the vector tiers.
const VECTOR_LANES: usize = 8;

/// One ChaCha quarter round on words `a, b, c, d` of every lane. Each
/// step is its own loop over the lanes so that, at `L = 8`, each is
/// one vector instruction.
#[inline(always)]
#[allow(clippy::needless_range_loop)] // `l` walks several rows of `x` in step
fn quarter_round<const L: usize>(x: &mut [[u32; L]; 16], a: usize, b: usize, c: usize, d: usize) {
    for l in 0..L {
        x[a][l] = x[a][l].wrapping_add(x[b][l]);
    }
    for l in 0..L {
        x[d][l] = (x[d][l] ^ x[a][l]).rotate_left(16);
    }
    for l in 0..L {
        x[c][l] = x[c][l].wrapping_add(x[d][l]);
    }
    for l in 0..L {
        x[b][l] = (x[b][l] ^ x[c][l]).rotate_left(12);
    }
    for l in 0..L {
        x[a][l] = x[a][l].wrapping_add(x[b][l]);
    }
    for l in 0..L {
        x[d][l] = (x[d][l] ^ x[a][l]).rotate_left(8);
    }
    for l in 0..L {
        x[c][l] = x[c][l].wrapping_add(x[d][l]);
    }
    for l in 0..L {
        x[b][l] = (x[b][l] ^ x[c][l]).rotate_left(7);
    }
}

/// `L` consecutive ChaCha12 blocks under `key` with a zero nonce:
/// entry `l` is block `counter + l` as eight little-endian `u64`
/// words. The state is held word-major (`x[i][l]` = word `i` of lane
/// `l`), so the rounds never move data between lanes; only the final
/// write-out transposes.
#[inline(always)]
#[allow(clippy::needless_range_loop)] // `l` walks several rows of `x` in step
fn chacha12_blocks<const L: usize>(key: &[u32; 8], counter: u64) -> [[u64; BLOCK_WORDS]; L] {
    let mut x = [[0u32; L]; 16];
    for (xi, &c) in x[..4].iter_mut().zip(&CHACHA_CONST) {
        *xi = [c; L];
    }
    for (xi, &k) in x[4..12].iter_mut().zip(key) {
        *xi = [k; L];
    }
    for l in 0..L {
        let block = counter.wrapping_add(l as u64);
        x[12][l] = block as u32;
        x[13][l] = (block >> 32) as u32;
    }
    let initial = x;
    for _ in 0..6 {
        // Two rounds (one column + one diagonal pass) per loop.
        quarter_round(&mut x, 0, 4, 8, 12);
        quarter_round(&mut x, 1, 5, 9, 13);
        quarter_round(&mut x, 2, 6, 10, 14);
        quarter_round(&mut x, 3, 7, 11, 15);
        quarter_round(&mut x, 0, 5, 10, 15);
        quarter_round(&mut x, 1, 6, 11, 12);
        quarter_round(&mut x, 2, 7, 8, 13);
        quarter_round(&mut x, 3, 4, 9, 14);
    }
    // Feed-forward as whole-vector adds first, transpose second: fused
    // into the transposing loop the adds run lane by lane (measured
    // 1.6× slower at the AVX-512 tier).
    for (xi, init) in x.iter_mut().zip(&initial) {
        for l in 0..L {
            xi[l] = xi[l].wrapping_add(init[l]);
        }
    }
    let mut out = [[0u64; BLOCK_WORDS]; L];
    for (l, block) in out.iter_mut().enumerate() {
        for (j, word) in block.iter_mut().enumerate() {
            *word = x[2 * j][l] as u64 | (x[2 * j + 1][l] as u64) << 32;
        }
    }
    out
}

/// The keystream at `L` blocks per batch: whole batches first, then
/// what is left of the row one block at a time. A whole batch's
/// write-out has a constant length, so it is inline vector stores.
#[inline(always)]
fn keystream_lanes<const L: usize, W: Word>(key: &[u32; 8], mut counter: u64, out: &mut [W]) {
    let mut batches = out.chunks_exact_mut(L * BLOCK_WORDS);
    for batch in &mut batches {
        let blocks = chacha12_blocks::<L>(key, counter);
        counter = counter.wrapping_add(L as u64);
        for (slot, &word) in batch.iter_mut().zip(blocks.as_flattened()) {
            *slot = W::from_u64(word);
        }
    }
    for tail in batches.into_remainder().chunks_mut(BLOCK_WORDS) {
        let [block] = chacha12_blocks::<1>(key, counter);
        counter = counter.wrapping_add(1);
        for (slot, &word) in tail.iter_mut().zip(&block) {
            *slot = W::from_u64(word);
        }
    }
}

/// Fills `out` with the ChaCha12 keystream of `key` (zero nonce),
/// starting at block `counter`: word `i` is `W::from_u64` of the
/// stream's `i`-th little-endian `u64`, i.e. what
/// `rand::rngs::StdRng` yields from `next_u64` once it has consumed
/// `8·counter` words under the same key (so a `u32` fill truncates
/// each `u64`, it does not pack two words into one).
///
/// Runs at `tier`, or at the host's own [`tier()`] if that is lower, so
/// a test or bench can drive every supported tier and no caller can
/// reach an instruction set the CPU lacks. Every tier emits the same
/// words: ChaCha blocks depend only on `(key, counter)`, and the
/// vector tiers compute 8 or 16 of them side by side.
#[inline]
pub fn keystream<W: Word>(tier: KernelTier, key: &[u32; 8], counter: u64, out: &mut [W]) {
    match tier.min(self::tier()) {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the tier run is at most `tier()`, which returns this
        // variant only after `is_x86_feature_detected!` confirmed
        // avx512f+avx512dq.
        KernelTier::Avx512 => unsafe { x86::keystream_avx512(key, counter, out) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as above; `tier()` is Avx2 or Avx512 here, and
        // `detect` reports either only after confirming avx2.
        KernelTier::Avx2 => unsafe { x86::keystream_avx2(key, counter, out) },
        _ => keystream_lanes::<1, W>(key, counter, out),
    }
}

// ---------------------------------------------------------------------
// Cumulative-distribution-table inversion: one safe body, instantiated
// per tier.
// ---------------------------------------------------------------------

/// Words per block of [`cdt_invert`]: the counters of one block are
/// eight 512-bit registers, and the loop over a block has a constant
/// trip count, so it unrolls into straight vector code.
const CDT_BLOCK: usize = 64;

/// `u ≥ t` as 0 or 1 for `u, t < 2^63`: the sign bit of `t − 1 − u`,
/// which cannot overflow in that range. A subtraction and a shift are
/// one instruction each at every tier, where a 64-bit compare is a
/// five-instruction emulation below SSE4.2.
#[inline(always)]
fn ge_63(u: u64, t: u64) -> u64 {
    t.wrapping_sub(1).wrapping_sub(u) >> 63
}

/// One block of [`cdt_invert`]. Thresholds outer, words inner: every
/// word meets every threshold, and the inner loop is a few vector
/// instructions per register of counters. `ge` is [`ge_63`], a
/// parameter only so that a test can count the calls.
#[inline(always)]
fn cdt_invert_block(
    thresholds: &[u64],
    q: u64,
    block: &mut [u64; CDT_BLOCK],
    ge: &impl Fn(u64, u64) -> u64,
) {
    let u = block.map(|w| w >> 1);
    let mut k = [0u64; CDT_BLOCK];
    for &t in thresholds {
        for (k, &u) in k.iter_mut().zip(&u) {
            *k += ge(u, t);
        }
    }
    for (w, &k) in block.iter_mut().zip(&k) {
        // −0 is 0, not `q`: negate only a nonzero magnitude.
        let negate = 0u64.wrapping_sub(*w & u64::from(k != 0));
        *w = (k & !negate) | (q.wrapping_sub(k) & negate);
    }
}

/// [`cdt_invert`] over whole blocks, then over what is left of `buf`
/// padded to one more whole block, so the work done depends on
/// `buf.len()` and `thresholds.len()` and on nothing in `buf`.
#[inline(always)]
fn cdt_invert_blocks(thresholds: &[u64], q: u64, buf: &mut [u64], ge: impl Fn(u64, u64) -> u64) {
    let (blocks, tail) = buf.as_chunks_mut::<CDT_BLOCK>();
    for block in blocks {
        cdt_invert_block(thresholds, q, block, &ge);
    }
    if !tail.is_empty() {
        let mut padded = [0u64; CDT_BLOCK];
        padded[..tail.len()].copy_from_slice(tail);
        cdt_invert_block(thresholds, q, &mut padded, &ge);
        tail.copy_from_slice(&padded[..tail.len()]);
    }
}

/// Turns uniform 64-bit words into signed table samples modulo `q`, in
/// place: word `w` becomes `±k mod q` with
/// `k = #{j : (w >> 1) ≥ thresholds[j]}` and the sign taken from bit 0
/// of `w`. With `thresholds[j] = 2^63·P(|X| ≤ j)` this inverts the
/// cumulative distribution of `|X|` at 63-bit resolution
/// ([`crate::sample::NoiseTable`] builds such a table for the discrete
/// Gaussian).
///
/// Constant time in the words: `k` is counted over *all* thresholds
/// with no early exit, the sign is applied by mask, and no branch,
/// index or loop bound depends on a word, so every sample costs the
/// same `thresholds.len()` compares whatever is drawn.
///
/// Runs at `tier` clamped to the host's, as [`keystream`] does; each
/// word is handled on its own, so every tier writes the same samples.
///
/// # Panics
///
/// Panics if a threshold is `≥ 2^63` (no 63-bit word reaches it, and
/// the compare is exact only below that) or if `q` does not exceed
/// `thresholds.len()`, the largest magnitude.
#[inline]
pub fn cdt_invert(tier: KernelTier, thresholds: &[u64], q: u64, buf: &mut [u64]) {
    assert!(thresholds.iter().all(|&t| t < 1 << 63), "threshold out of 63-bit range");
    assert!(q > thresholds.len() as u64, "modulus below the largest sample");
    match tier.min(self::tier()) {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the tier run is at most `tier()`, which returns this
        // variant only after `is_x86_feature_detected!` confirmed
        // avx512f+avx512dq.
        KernelTier::Avx512 => unsafe { x86::cdt_invert_avx512(thresholds, q, buf) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as above; `tier()` is Avx2 or Avx512 here, and
        // `detect` reports either only after confirming avx2.
        KernelTier::Avx2 => unsafe { x86::cdt_invert_avx2(thresholds, q, buf) },
        _ => cdt_invert_blocks(thresholds, q, buf, ge_63),
    }
}

// ---------------------------------------------------------------------
// x86-64 vector kernels.
// ---------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod x86 {
    use core::arch::x86_64::*;

    use super::{
        cdt_invert_blocks, ge_63, group_len, keystream_lanes, tail, Word, BLOCK_WORDS,
        CHACHA_CONST, VECTOR_LANES,
    };

    /// Low 64 bits of `r·x` per lane when every lane of `r` is `< 2^32`
    /// (a zero-extended `u32` database entry):
    /// `r·x mod 2^64 = r·lo32(x) + ((r·hi32(x)) << 32)`.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn mul64_by_u32(r: __m256i, x: __m256i) -> __m256i {
        let lo = _mm256_mul_epu32(r, x);
        let hi = _mm256_mul_epu32(r, _mm256_srli_epi64::<32>(x));
        _mm256_add_epi64(lo, _mm256_slli_epi64::<32>(hi))
    }

    /// Low 64 bits of `a·b` per lane for arbitrary 64-bit lanes:
    /// `lo64(a·b) = a_lo·b_lo + ((a_lo·b_hi + a_hi·b_lo) << 32)`.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn mullo64(a: __m256i, b: __m256i) -> __m256i {
        let lo = _mm256_mul_epu32(a, b);
        let c1 = _mm256_mul_epu32(a, _mm256_srli_epi64::<32>(b));
        let c2 = _mm256_mul_epu32(_mm256_srli_epi64::<32>(a), b);
        _mm256_add_epi64(lo, _mm256_slli_epi64::<32>(_mm256_add_epi64(c1, c2)))
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    fn hsum_epi64(v: __m256i) -> u64 {
        let mut lanes = [0u64; 4];
        // SAFETY: `lanes` is a valid, writable 32-byte buffer; storeu
        // has no alignment requirement.
        unsafe { _mm256_storeu_si256(lanes.as_mut_ptr().cast::<__m256i>(), v) };
        lanes.iter().fold(0u64, |a, &b| a.wrapping_add(b))
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    fn hsum_epi32(v: __m256i) -> u32 {
        let mut lanes = [0u32; 8];
        // SAFETY: `lanes` is a valid, writable 32-byte buffer; storeu
        // has no alignment requirement.
        unsafe { _mm256_storeu_si256(lanes.as_mut_ptr().cast::<__m256i>(), v) };
        lanes.iter().fold(0u32, |a, &b| a.wrapping_add(b))
    }

    /// # Safety
    ///
    /// The CPU must support AVX2.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn keystream_avx2<W: Word>(key: &[u32; 8], counter: u64, out: &mut [W]) {
        keystream_lanes::<VECTOR_LANES, W>(key, counter, out)
    }

    /// Blocks per batch of the 16-lane body: one per `u32` of a
    /// 512-bit register.
    const WIDE_LANES: usize = 16;

    /// Words per batch of the 16-lane body (1 KiB of stream).
    const WIDE_BATCH: usize = WIDE_LANES * BLOCK_WORDS;

    /// [`super::quarter_round`] on whole registers, lane `l` of each
    /// being word `a`/`b`/`c`/`d` of block `l`.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn quarter_round_x16(x: &mut [__m512i; 16], a: usize, b: usize, c: usize, d: usize) {
        x[a] = _mm512_add_epi32(x[a], x[b]);
        x[d] = _mm512_rol_epi32::<16>(_mm512_xor_si512(x[d], x[a]));
        x[c] = _mm512_add_epi32(x[c], x[d]);
        x[b] = _mm512_rol_epi32::<12>(_mm512_xor_si512(x[b], x[c]));
        x[a] = _mm512_add_epi32(x[a], x[b]);
        x[d] = _mm512_rol_epi32::<8>(_mm512_xor_si512(x[d], x[a]));
        x[c] = _mm512_add_epi32(x[c], x[d]);
        x[b] = _mm512_rol_epi32::<7>(_mm512_xor_si512(x[b], x[c]));
    }

    /// [`super::chacha12_blocks`] at 16 lanes in registers, written
    /// out as [`super::keystream_lanes`] writes a batch: block
    /// `counter + l` fills words `8l..8l + 8` of `batch`.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn chacha12_x16<W: Word>(key: &[u32; 8], counter: u64, batch: &mut [W; WIDE_BATCH]) {
        let lanes = _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15);
        let mut x = [_mm512_setzero_si512(); 16];
        for (xi, &w) in x.iter_mut().zip(CHACHA_CONST.iter().chain(key)) {
            *xi = _mm512_set1_epi32(w as i32);
        }
        // Lane `l`'s low word wrapped past 2^32 iff it ended below `l`.
        x[12] = _mm512_add_epi32(_mm512_set1_epi32(counter as i32), lanes);
        let carry = _mm512_cmplt_epu32_mask(x[12], lanes);
        let high = _mm512_set1_epi32((counter >> 32) as i32);
        x[13] = _mm512_mask_add_epi32(high, carry, high, _mm512_set1_epi32(1));
        let initial = x;
        for _ in 0..6 {
            quarter_round_x16(&mut x, 0, 4, 8, 12);
            quarter_round_x16(&mut x, 1, 5, 9, 13);
            quarter_round_x16(&mut x, 2, 6, 10, 14);
            quarter_round_x16(&mut x, 3, 7, 11, 15);
            quarter_round_x16(&mut x, 0, 5, 10, 15);
            quarter_round_x16(&mut x, 1, 6, 11, 12);
            quarter_round_x16(&mut x, 2, 7, 8, 13);
            quarter_round_x16(&mut x, 3, 4, 9, 14);
        }
        for (xi, init) in x.iter_mut().zip(&initial) {
            *xi = _mm512_add_epi32(*xi, *init);
        }
        // 16×16 transpose. The epi32 then epi64 interleaves turn each
        // 128-bit quarter `k` of `t[4g + c]` into words 4g..4g+3 of
        // block 4k + c; the two 128-bit shuffles then gather quarter
        // `k` of `t[c]`, `t[4 + c]`, `t[8 + c]`, `t[12 + c]`.
        let mut t = x;
        for g in (0..16).step_by(4) {
            let lo01 = _mm512_unpacklo_epi32(x[g], x[g + 1]);
            let hi01 = _mm512_unpackhi_epi32(x[g], x[g + 1]);
            let lo23 = _mm512_unpacklo_epi32(x[g + 2], x[g + 3]);
            let hi23 = _mm512_unpackhi_epi32(x[g + 2], x[g + 3]);
            t[g] = _mm512_unpacklo_epi64(lo01, lo23);
            t[g + 1] = _mm512_unpackhi_epi64(lo01, lo23);
            t[g + 2] = _mm512_unpacklo_epi64(hi01, hi23);
            t[g + 3] = _mm512_unpackhi_epi64(hi01, hi23);
        }
        for c in 0..4 {
            let q01 = _mm512_shuffle_i32x4::<0x44>(t[c], t[4 + c]);
            let q23 = _mm512_shuffle_i32x4::<0xee>(t[c], t[4 + c]);
            let r01 = _mm512_shuffle_i32x4::<0x44>(t[8 + c], t[12 + c]);
            let r23 = _mm512_shuffle_i32x4::<0xee>(t[8 + c], t[12 + c]);
            x[c] = _mm512_shuffle_i32x4::<0x88>(q01, r01);
            x[4 + c] = _mm512_shuffle_i32x4::<0xdd>(q01, r01);
            x[8 + c] = _mm512_shuffle_i32x4::<0x88>(q23, r23);
            x[12 + c] = _mm512_shuffle_i32x4::<0xdd>(q23, r23);
        }
        // `stream` never reaches memory: for `u64` each block is one
        // 64-byte store into the batch, for `u32` the compiler folds
        // the truncation into the transpose (≈6 % slower than a
        // `u32`-only store, not worth a second write-out for the 125 K
        // `u32` words of a deployed URL query).
        for (block, words) in x.iter().zip(batch.as_chunks_mut::<BLOCK_WORDS>().0) {
            let mut stream = [0u64; BLOCK_WORDS];
            // SAFETY: `stream` is 64 writable bytes, one register;
            // storeu has no alignment requirement.
            unsafe { _mm512_storeu_si512(stream.as_mut_ptr().cast(), *block) };
            for (slot, &word) in words.iter_mut().zip(&stream) {
                *slot = W::from_u64(word);
            }
        }
    }

    /// Whole 16-block batches at full width, then what is left of the
    /// row through the lane-generic body at 8 lanes. A row shorter than
    /// 16 blocks takes the latter alone: padded to 16 lanes its work
    /// would double.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX-512F and AVX-512DQ.
    #[target_feature(enable = "avx512f,avx512dq")]
    pub(super) unsafe fn keystream_avx512<W: Word>(
        key: &[u32; 8],
        mut counter: u64,
        out: &mut [W],
    ) {
        let (batches, rest) = out.as_chunks_mut::<WIDE_BATCH>();
        for batch in batches {
            chacha12_x16(key, counter, batch);
            counter = counter.wrapping_add(WIDE_LANES as u64);
        }
        keystream_lanes::<VECTOR_LANES, W>(key, counter, rest)
    }

    /// # Safety
    ///
    /// The CPU must support AVX2.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn cdt_invert_avx2(thresholds: &[u64], q: u64, buf: &mut [u64]) {
        cdt_invert_blocks(thresholds, q, buf, ge_63)
    }

    /// # Safety
    ///
    /// The CPU must support AVX-512F and AVX-512DQ.
    #[target_feature(enable = "avx512f,avx512dq")]
    pub(super) unsafe fn cdt_invert_avx512(thresholds: &[u64], q: u64, buf: &mut [u64]) {
        cdt_invert_blocks(thresholds, q, buf, ge_63)
    }

    #[inline]
    #[target_feature(enable = "avx512f")]
    fn hsum_epi64_512(v: __m512i) -> u64 {
        let mut lanes = [0u64; 8];
        // SAFETY: `lanes` is a valid, writable 64-byte buffer; storeu
        // has no alignment requirement.
        unsafe { _mm512_storeu_epi64(lanes.as_mut_ptr().cast(), v) };
        lanes.iter().fold(0u64, |a, &b| a.wrapping_add(b))
    }

    #[inline]
    #[target_feature(enable = "avx512f")]
    fn hsum_epi32_512(v: __m512i) -> u32 {
        let mut lanes = [0u32; 16];
        // SAFETY: `lanes` is a valid, writable 64-byte buffer; storeu
        // has no alignment requirement.
        unsafe { _mm512_storeu_epi32(lanes.as_mut_ptr().cast(), v) };
        lanes.iter().fold(0u32, |a, &b| a.wrapping_add(b))
    }

    /// # Safety
    ///
    /// The CPU must support AVX2 (established by the dispatcher's
    /// cached `is_x86_feature_detected!("avx2")` probe).
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn dot_u32_u64_avx2<const R: usize>(
        rows: [&[u32]; R],
        v: &[u64],
    ) -> [u64; R] {
        let n = group_len(&rows, v.len());
        let mut acc = [[_mm256_setzero_si256(); 2]; R];
        let mut i = 0;
        while i + 8 <= n {
            // SAFETY: `i + 8 <= n` bounds the two 32-byte u64 loads of
            // `v` at offsets `i` and `i + 4`, and each row's two 16-byte
            // u32 loads at the same offsets (no row is shorter than
            // `n`); loadu tolerates unaligned addresses.
            unsafe {
                let x = [
                    _mm256_loadu_si256(v.as_ptr().add(i).cast()),
                    _mm256_loadu_si256(v.as_ptr().add(i + 4).cast()),
                ];
                for (acc, row) in acc.iter_mut().zip(&rows) {
                    for (k, (acc, &x)) in acc.iter_mut().zip(&x).enumerate() {
                        let r = _mm_loadu_si128(row.as_ptr().add(i + 4 * k).cast());
                        *acc = _mm256_add_epi64(*acc, mul64_by_u32(_mm256_cvtepu32_epi64(r), x));
                    }
                }
            }
            i += 8;
        }
        let mut out = [0u64; R];
        for ((o, [a0, a1]), row) in out.iter_mut().zip(acc).zip(&rows) {
            *o = tail(hsum_epi64(_mm256_add_epi64(a0, a1)), row, v, i, n);
        }
        out
    }

    /// 512-bit low-64 multiply for lanes with `r < 2^32`: on AVX-512DQ
    /// hardware with IFMA-class multipliers (Ice Lake and later) the
    /// native `vpmullq` beats the two-`vpmuludq` decomposition, so the
    /// narrow case just uses the full multiply.
    #[inline]
    #[target_feature(enable = "avx512f,avx512dq")]
    fn mul64_by_u32_512(r: __m512i, x: __m512i) -> __m512i {
        _mm512_mullo_epi64(r, x)
    }

    /// # Safety
    ///
    /// The CPU must support AVX-512F and AVX-512DQ (established by the
    /// dispatcher's cached feature probe).
    #[target_feature(enable = "avx512f,avx512dq")]
    pub(super) unsafe fn dot_u32_u64_avx512<const R: usize>(
        rows: [&[u32]; R],
        v: &[u64],
    ) -> [u64; R] {
        let n = group_len(&rows, v.len());
        // Four rows × four chunks of accumulators and four query
        // registers: 20 of the 32 vector registers.
        let mut acc = [[_mm512_setzero_si512(); 4]; R];
        let mut i = 0;
        while i + 32 <= n {
            // SAFETY: `i + 32 <= n` bounds the four 64-byte u64 loads of
            // `v` at offsets `i`, `i + 8`, `i + 16`, `i + 24`, and each
            // row's four 32-byte u32 loads at the same offsets (no row
            // is shorter than `n`); the loadu intrinsics are unaligned
            // loads.
            unsafe {
                let mut x = [_mm512_setzero_si512(); 4];
                for (k, x) in x.iter_mut().enumerate() {
                    *x = _mm512_loadu_epi64(v.as_ptr().add(i + 8 * k).cast());
                }
                for (acc, row) in acc.iter_mut().zip(&rows) {
                    for (k, (acc, &x)) in acc.iter_mut().zip(&x).enumerate() {
                        let r = _mm256_loadu_si256(row.as_ptr().add(i + 8 * k).cast());
                        let r = _mm512_cvtepu32_epi64(r);
                        *acc = _mm512_add_epi64(*acc, mul64_by_u32_512(r, x));
                    }
                }
            }
            i += 32;
        }
        while i + 8 <= n {
            // SAFETY: `i + 8 <= n` bounds the 64-byte u64 load of `v`
            // and each row's 32-byte u32 load at offset `i`.
            unsafe {
                let x = _mm512_loadu_epi64(v.as_ptr().add(i).cast());
                for (acc, row) in acc.iter_mut().zip(&rows) {
                    let r = _mm512_cvtepu32_epi64(_mm256_loadu_si256(row.as_ptr().add(i).cast()));
                    acc[0] = _mm512_add_epi64(acc[0], mul64_by_u32_512(r, x));
                }
            }
            i += 8;
        }
        let mut out = [0u64; R];
        for ((o, [a0, a1, a2, a3]), row) in out.iter_mut().zip(acc).zip(&rows) {
            let sum = _mm512_add_epi64(_mm512_add_epi64(a0, a1), _mm512_add_epi64(a2, a3));
            *o = tail(hsum_epi64_512(sum), row, v, i, n);
        }
        out
    }

    /// # Safety
    ///
    /// The CPU must support AVX2.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn dot_u32_u32_avx2<const R: usize>(
        rows: [&[u32]; R],
        v: &[u32],
    ) -> [u32; R] {
        let n = group_len(&rows, v.len());
        let mut acc = [[_mm256_setzero_si256(); 2]; R];
        let mut i = 0;
        while i + 16 <= n {
            // SAFETY: `i + 16 <= n` bounds the two 32-byte loads of `v`
            // at offsets `i` and `i + 8`, and each row's two at the same
            // offsets (no row is shorter than `n`).
            unsafe {
                let x = [
                    _mm256_loadu_si256(v.as_ptr().add(i).cast()),
                    _mm256_loadu_si256(v.as_ptr().add(i + 8).cast()),
                ];
                for (acc, row) in acc.iter_mut().zip(&rows) {
                    for (k, (acc, &x)) in acc.iter_mut().zip(&x).enumerate() {
                        let r = _mm256_loadu_si256(row.as_ptr().add(i + 8 * k).cast());
                        *acc = _mm256_add_epi32(*acc, _mm256_mullo_epi32(r, x));
                    }
                }
            }
            i += 16;
        }
        let mut out = [0u32; R];
        for ((o, [a0, a1]), row) in out.iter_mut().zip(acc).zip(&rows) {
            *o = tail(hsum_epi32(_mm256_add_epi32(a0, a1)), row, v, i, n);
        }
        out
    }

    /// # Safety
    ///
    /// The CPU must support AVX-512F and AVX-512DQ.
    #[target_feature(enable = "avx512f,avx512dq")]
    pub(super) unsafe fn dot_u32_u32_avx512<const R: usize>(
        rows: [&[u32]; R],
        v: &[u32],
    ) -> [u32; R] {
        let n = group_len(&rows, v.len());
        let mut acc = [[_mm512_setzero_si512(); 2]; R];
        let mut i = 0;
        while i + 32 <= n {
            // SAFETY: `i + 32 <= n` bounds the two 64-byte loads of `v`
            // at offsets `i` and `i + 16`, and each row's two at the
            // same offsets (no row is shorter than `n`).
            unsafe {
                let x = [
                    _mm512_loadu_epi32(v.as_ptr().add(i).cast()),
                    _mm512_loadu_epi32(v.as_ptr().add(i + 16).cast()),
                ];
                for (acc, row) in acc.iter_mut().zip(&rows) {
                    for (k, (acc, &x)) in acc.iter_mut().zip(&x).enumerate() {
                        let r = _mm512_loadu_epi32(row.as_ptr().add(i + 16 * k).cast());
                        *acc = _mm512_add_epi32(*acc, _mm512_mullo_epi32(r, x));
                    }
                }
            }
            i += 32;
        }
        let mut out = [0u32; R];
        for ((o, [a0, a1]), row) in out.iter_mut().zip(acc).zip(&rows) {
            *o = tail(hsum_epi32_512(_mm512_add_epi32(a0, a1)), row, v, i, n);
        }
        out
    }

    /// # Safety
    ///
    /// The CPU must support AVX2.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn dot_wide_u64_avx2(a: &[u64], b: &[u64]) -> u64 {
        debug_assert_eq!(a.len(), b.len());
        let n = a.len().min(b.len());
        let mut vacc = _mm256_setzero_si256();
        let mut i = 0;
        while i + 4 <= n {
            // SAFETY: `i + 4 <= n` bounds both 32-byte loads.
            let (x, y) = unsafe {
                (
                    _mm256_loadu_si256(a.as_ptr().add(i).cast()),
                    _mm256_loadu_si256(b.as_ptr().add(i).cast()),
                )
            };
            vacc = _mm256_add_epi64(vacc, mullo64(x, y));
            i += 4;
        }
        let mut acc = hsum_epi64(vacc);
        while i < n {
            acc = acc.wrapping_add(a[i].wrapping_mul(b[i]));
            i += 1;
        }
        acc
    }

    /// # Safety
    ///
    /// The CPU must support AVX-512F and AVX-512DQ.
    #[target_feature(enable = "avx512f,avx512dq")]
    pub(super) unsafe fn dot_wide_u64_avx512(a: &[u64], b: &[u64]) -> u64 {
        debug_assert_eq!(a.len(), b.len());
        let n = a.len().min(b.len());
        let mut vacc = _mm512_setzero_si512();
        let mut i = 0;
        while i + 8 <= n {
            // SAFETY: `i + 8 <= n` bounds both 64-byte loads.
            let (x, y) = unsafe {
                (
                    _mm512_loadu_epi64(a.as_ptr().add(i).cast()),
                    _mm512_loadu_epi64(b.as_ptr().add(i).cast()),
                )
            };
            vacc = _mm512_add_epi64(vacc, _mm512_mullo_epi64(x, y));
            i += 8;
        }
        let mut acc = hsum_epi64_512(vacc);
        while i < n {
            acc = acc.wrapping_add(a[i].wrapping_mul(b[i]));
            i += 1;
        }
        acc
    }

    /// # Safety
    ///
    /// The CPU must support AVX2.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn axpy_u64_avx2(acc: &mut [u64], w: u64, x: &[u64]) {
        debug_assert_eq!(acc.len(), x.len());
        let n = acc.len().min(x.len());
        let wv = _mm256_set1_epi64x(w as i64);
        let mut i = 0;
        while i + 4 <= n {
            // SAFETY: `i + 4 <= n` bounds the 32-byte load from `x`,
            // and the load/store pair on `acc`, inside their slices.
            unsafe {
                let xv = _mm256_loadu_si256(x.as_ptr().add(i).cast());
                let av = _mm256_loadu_si256(acc.as_ptr().add(i).cast());
                _mm256_storeu_si256(
                    acc.as_mut_ptr().add(i).cast(),
                    _mm256_add_epi64(av, mullo64(wv, xv)),
                );
            }
            i += 4;
        }
        while i < n {
            acc[i] = acc[i].wrapping_add(w.wrapping_mul(x[i]));
            i += 1;
        }
    }

    /// # Safety
    ///
    /// The CPU must support AVX-512F and AVX-512DQ.
    #[target_feature(enable = "avx512f,avx512dq")]
    pub(super) unsafe fn axpy_u64_avx512(acc: &mut [u64], w: u64, x: &[u64]) {
        debug_assert_eq!(acc.len(), x.len());
        let n = acc.len().min(x.len());
        let wv = _mm512_set1_epi64(w as i64);
        let mut i = 0;
        while i + 8 <= n {
            // SAFETY: `i + 8 <= n` bounds the 64-byte load from `x`,
            // and the load/store pair on `acc`, inside their slices.
            unsafe {
                let xv = _mm512_loadu_epi64(x.as_ptr().add(i).cast());
                let av = _mm512_loadu_epi64(acc.as_ptr().add(i).cast());
                _mm512_storeu_epi64(
                    acc.as_mut_ptr().add(i).cast(),
                    _mm512_add_epi64(av, _mm512_mullo_epi64(wv, xv)),
                );
            }
            i += 8;
        }
        while i < n {
            acc[i] = acc[i].wrapping_add(w.wrapping_mul(x[i]));
            i += 1;
        }
    }

    /// # Safety
    ///
    /// The CPU must support AVX2.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn axpy_u32_avx2(acc: &mut [u32], w: u32, x: &[u32]) {
        debug_assert_eq!(acc.len(), x.len());
        let n = acc.len().min(x.len());
        let wv = _mm256_set1_epi32(w as i32);
        let mut i = 0;
        while i + 8 <= n {
            // SAFETY: `i + 8 <= n` bounds the 32-byte load from `x`,
            // and the load/store pair on `acc`, inside their slices.
            unsafe {
                let xv = _mm256_loadu_si256(x.as_ptr().add(i).cast());
                let av = _mm256_loadu_si256(acc.as_ptr().add(i).cast());
                _mm256_storeu_si256(
                    acc.as_mut_ptr().add(i).cast(),
                    _mm256_add_epi32(av, _mm256_mullo_epi32(wv, xv)),
                );
            }
            i += 8;
        }
        while i < n {
            acc[i] = acc[i].wrapping_add(w.wrapping_mul(x[i]));
            i += 1;
        }
    }

    /// # Safety
    ///
    /// The CPU must support AVX-512F and AVX-512DQ.
    #[target_feature(enable = "avx512f,avx512dq")]
    pub(super) unsafe fn axpy_u32_avx512(acc: &mut [u32], w: u32, x: &[u32]) {
        debug_assert_eq!(acc.len(), x.len());
        let n = acc.len().min(x.len());
        let wv = _mm512_set1_epi32(w as i32);
        let mut i = 0;
        while i + 16 <= n {
            // SAFETY: `i + 16 <= n` bounds the 64-byte load from `x`,
            // and the load/store pair on `acc`, inside their slices.
            unsafe {
                let xv = _mm512_loadu_epi32(x.as_ptr().add(i).cast());
                let av = _mm512_loadu_epi32(acc.as_ptr().add(i).cast());
                _mm512_storeu_epi32(
                    acc.as_mut_ptr().add(i).cast(),
                    _mm512_add_epi32(av, _mm512_mullo_epi32(wv, xv)),
                );
            }
            i += 16;
        }
        while i < n {
            acc[i] = acc[i].wrapping_add(w.wrapping_mul(x[i]));
            i += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn narrow_case(len: usize, seed: u64) -> (Vec<u32>, Vec<u64>) {
        let row: Vec<u32> =
            (0..len).map(|i| (i as u32).wrapping_mul(2654435761).wrapping_add(seed as u32)).collect();
        let v: Vec<u64> = (0..len)
            .map(|i| (i as u64 ^ seed).wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(seed))
            .collect();
        (row, v)
    }

    /// Lengths that exercise every unroll boundary: empty, sub-lane,
    /// exact multiples of each tier's stride, and ragged tails.
    const LENS: &[usize] = &[0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 100, 257];

    #[test]
    fn dispatched_dot_narrow_matches_scalar_u64() {
        for &len in LENS {
            let (row, v) = narrow_case(len, 7);
            assert_eq!(dot_u32_u64([&row[..]], &v), dot_narrow_scalar([&row[..]], &v), "len={len}");
        }
    }

    #[test]
    fn dispatched_dot_narrow_matches_scalar_u32() {
        for &len in LENS {
            let (row, v) = narrow_case(len, 11);
            let v32: Vec<u32> = v.iter().map(|&x| x as u32).collect();
            let want = dot_narrow_scalar([&row[..]], &v32);
            assert_eq!(dot_u32_u32([&row[..]], &v32), want, "len={len}");
        }
    }

    /// `R` rows of unequal contents (a seed each) and one vector.
    fn group_case<const R: usize>(len: usize) -> ([Vec<u32>; R], Vec<u64>) {
        (std::array::from_fn(|r| narrow_case(len, 29 + r as u64).0), narrow_case(len, 23).1)
    }

    /// Each row's dot by the definition.
    fn naive_dots<W: Word, const R: usize>(rows: [&[u32]; R], v: &[W]) -> [W; R] {
        let mac = |a: W, (&r, &x): (&u32, &W)| a.wadd(W::from_u64(r as u64).wmul(x));
        rows.map(|row| row.iter().zip(v).fold(W::ZERO, mac))
    }

    /// The row-group body at `R` rows: the scalar reference against
    /// each row's dot by the definition, then every vector tier the
    /// host supports against the scalar reference, at both widths.
    #[cfg(target_arch = "x86_64")]
    fn check_row_group<const R: usize>(avx2: bool, avx512: bool) {
        for &len in LENS {
            let (rows, v) = group_case::<R>(len);
            let rows = rows.each_ref().map(Vec::as_slice);
            let v32: Vec<u32> = v.iter().map(|&x| x as u32).collect();
            let (want, want32) = (dot_narrow_scalar(rows, &v), dot_narrow_scalar(rows, &v32));
            assert_eq!(want, naive_dots(rows, &v), "R={R}, len={len}");
            assert_eq!(want32, naive_dots(rows, &v32), "R={R}, len={len} (u32)");
            if avx2 {
                // SAFETY: avx2 was detected by the caller.
                unsafe {
                    assert_eq!(x86::dot_u32_u64_avx2(rows, &v), want, "avx2, R={R}, len={len}");
                    assert_eq!(x86::dot_u32_u32_avx2(rows, &v32), want32, "avx2, R={R}, len={len}");
                }
            }
            if avx512 {
                // SAFETY: avx512f+avx512dq were detected by the caller.
                unsafe {
                    let (got, got32) =
                        (x86::dot_u32_u64_avx512(rows, &v), x86::dot_u32_u32_avx512(rows, &v32));
                    assert_eq!(got, want, "avx512, R={R}, len={len}");
                    assert_eq!(got32, want32, "avx512, R={R}, len={len}");
                }
            }
        }
    }

    #[test]
    fn dispatched_dot_wide_matches_scalar() {
        for &len in LENS {
            let (_, a) = narrow_case(len, 13);
            let (_, b) = narrow_case(len, 17);
            assert_eq!(dot_wide_u64(&a, &b), dot_wide_scalar(&a, &b), "len={len}");
        }
    }

    #[test]
    fn dispatched_axpy_matches_scalar() {
        for &len in LENS {
            let (_, x) = narrow_case(len, 19);
            for w in [0u64, 1, 5, u64::MAX, (-3i64) as u64, 1 << 40] {
                let mut got: Vec<u64> = (0..len as u64).map(|i| i.wrapping_mul(99)).collect();
                let mut want = got.clone();
                axpy_u64(&mut got, w, &x);
                axpy_scalar(&mut want, w, &x);
                assert_eq!(got, want, "len={len}, w={w}");
            }
            let x32: Vec<u32> = x.iter().map(|&v| v as u32).collect();
            let mut got: Vec<u32> = (0..len as u32).map(|i| i.wrapping_mul(7)).collect();
            let mut want = got.clone();
            axpy_u32(&mut got, 0xdead_beef, &x32);
            axpy_scalar(&mut want, 0xdead_beef, &x32);
            assert_eq!(got, want, "len={len} (u32)");
        }
    }

    /// Exercises every vector tier the host actually supports directly
    /// (not just the one `tier()` picked), so a single machine tests
    /// each implementation against the scalar oracle.
    #[test]
    #[cfg(target_arch = "x86_64")]
    fn every_supported_tier_is_bit_identical_to_scalar() {
        let avx2 = is_x86_feature_detected!("avx2");
        let avx512 = is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512dq");
        check_row_group::<1>(avx2, avx512);
        check_row_group::<2>(avx2, avx512);
        check_row_group::<3>(avx2, avx512);
        check_row_group::<4>(avx2, avx512);
        for &len in LENS {
            let (_, v) = narrow_case(len, 23);
            let w = 0xfeed_f00d_dead_beefu64;
            if avx2 {
                // SAFETY: avx2 was detected above.
                unsafe {
                    assert_eq!(x86::dot_wide_u64_avx2(&v, &v), dot_wide_scalar(&v, &v));
                    let mut got = v.clone();
                    let mut want = v.clone();
                    x86::axpy_u64_avx2(&mut got, w, &v);
                    axpy_scalar(&mut want, w, &v);
                    assert_eq!(got, want);
                }
            }
            if avx512 {
                // SAFETY: avx512f+avx512dq were detected above.
                unsafe {
                    assert_eq!(x86::dot_wide_u64_avx512(&v, &v), dot_wide_scalar(&v, &v));
                    let mut got = v.clone();
                    let mut want = v.clone();
                    x86::axpy_u64_avx512(&mut got, w, &v);
                    axpy_scalar(&mut want, w, &v);
                    assert_eq!(got, want);
                }
            }
        }
    }

    /// A 5-entry table with round numbers: `k` is how many eighths of
    /// the 63-bit range `u` has passed, up to 5.
    const EIGHTHS: [u64; 5] = [1 << 60, 2 << 60, 3 << 60, 4 << 60, 5 << 60];

    #[test]
    fn cdt_invert_counts_thresholds_and_applies_the_sign() {
        let q = 1_000_003;
        // (word, sample): magnitude from bits 63..1, sign from bit 0.
        let cases = [
            (0u64, 0u64),
            (1, 0), // −0 is 0
            (u64::MAX, q - 5),
            (u64::MAX - 1, 5),
            ((1 << 61) - 2, 0), // u = 2^60 − 1, one short of T[0]
            (1 << 61, 1),       // u = T[0] exactly
            ((1 << 61) + 1, q - 1),
            ((3 << 61) + 1, q - 3),
        ];
        for len in [cases.len(), CDT_BLOCK, CDT_BLOCK + cases.len()] {
            let mut buf: Vec<u64> = cases.iter().map(|c| c.0).cycle().take(len).collect();
            cdt_invert(tier(), &EIGHTHS, q, &mut buf);
            let want: Vec<u64> = cases.iter().map(|c| c.1).cycle().take(len).collect();
            assert_eq!(buf, want, "len {len}");
        }
        let mut untouched = [0u64, 1, u64::MAX];
        cdt_invert(tier(), &[], q, &mut untouched);
        assert_eq!(untouched, [0, 0, 0], "the empty table samples zero");
    }

    #[test]
    #[should_panic(expected = "63-bit")]
    fn cdt_invert_refuses_a_saturated_threshold() {
        cdt_invert(tier(), &[1 << 62, 1 << 63], 97, &mut [0u64; 4]);
    }

    #[test]
    fn cdt_invert_does_the_same_compares_whatever_the_words() {
        // The count depends on the two lengths alone: every word of
        // every (padded) block meets every threshold.
        for len in [0usize, 1, 63, 64, 65, 2048, 2051] {
            let mut random = vec![0u64; len];
            keystream(tier(), &[7; 8], 0, &mut random);
            for mut words in [vec![0u64; len], vec![u64::MAX; len], random] {
                let compares = std::cell::Cell::new(0usize);
                cdt_invert_blocks(&EIGHTHS, 97, &mut words, |u, t| {
                    compares.set(compares.get() + 1);
                    ge_63(u, t)
                });
                assert_eq!(compares.get(), EIGHTHS.len() * len.next_multiple_of(CDT_BLOCK), "len {len}");
            }
        }
    }

    #[test]
    fn tier_is_cached_and_named() {
        let t = tier();
        assert_eq!(t, tier(), "tier must be stable across calls");
        assert!(["scalar", "avx2", "avx512"].contains(&t.name()));
        assert!(t.code() <= 2);
        if std::env::var("TIPTOE_FORCE_SCALAR").map(|v| v == "1").unwrap_or(false) {
            assert_eq!(t, KernelTier::Scalar, "force-scalar knob must pin the scalar tier");
        }
    }
}
