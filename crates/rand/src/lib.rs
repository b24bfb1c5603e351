//! A self-contained, offline drop-in for the subset of the `rand 0.8`
//! API this workspace uses.
//!
//! The build environment has no registry access, so the real `rand`
//! crate cannot be fetched. This shim re-implements the surface the
//! workspace needs — [`Rng`], [`RngCore`], [`SeedableRng`],
//! [`rngs::StdRng`], and [`seq::SliceRandom`] — with the same method
//! semantics. [`rngs::StdRng`] is a real ChaCha12 stream cipher (the
//! same construction the upstream crate uses), so the seeded public
//! matrices and the deterministic experiment plumbing keep their PRG
//! quality. Output streams are *not* bit-compatible with upstream
//! `rand`; the workspace only relies on self-consistency of seeded
//! streams.
//!
//! Beyond `rand 0.8` the shim has two items: [`rngs::StdRng::key_from_u64`],
//! the ChaCha key a `seed_from_u64` generator runs under (the SIMD
//! keystream expands `A` and the RLWE `a` from it), and
//! [`rngs::CHACHA_CONST`], the constant that keystream starts each
//! block from.

#![forbid(unsafe_code)]

/// Byte-level random source: the object-safe core trait.
pub trait RngCore {
    /// Next 32 uniformly random bits.
    fn next_u32(&mut self) -> u32;
    /// Next 64 uniformly random bits.
    fn next_u64(&mut self) -> u64;
    /// Fills `dest` with uniformly random bytes.
    fn fill_bytes(&mut self, dest: &mut [u8]);
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u32(&mut self) -> u32 {
        (**self).next_u32()
    }
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        (**self).fill_bytes(dest)
    }
}

/// Types samplable uniformly from raw bits (the `Standard`
/// distribution of upstream `rand`).
pub trait StandardSample: Sized {
    /// Draws one uniform value.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

macro_rules! impl_standard_int {
    ($($t:ty => $via:ident),+ $(,)?) => {$(
        impl StandardSample for $t {
            #[inline]
            fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
                rng.$via() as $t
            }
        }
    )+};
}
impl_standard_int!(
    u8 => next_u32, u16 => next_u32, u32 => next_u32,
    i8 => next_u32, i16 => next_u32, i32 => next_u32,
    u64 => next_u64, i64 => next_u64, usize => next_u64, isize => next_u64,
    u128 => next_u64, i128 => next_u64,
);

impl StandardSample for bool {
    #[inline]
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u32() & 1 == 1
    }
}

impl StandardSample for f32 {
    /// Uniform in `[0, 1)` with 24 bits of precision.
    #[inline]
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u32() >> 8) as f32 * (1.0 / (1u32 << 24) as f32)
    }
}

impl StandardSample for f64 {
    /// Uniform in `[0, 1)` with 53 bits of precision.
    #[inline]
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl<const N: usize> StandardSample for [u8; N] {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        let mut out = [0u8; N];
        rng.fill_bytes(&mut out);
        out
    }
}

/// Ranges usable with [`Rng::gen_range`].
pub trait SampleRange<T> {
    /// Draws one value uniformly from the range.
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

/// Element types with a uniform range sampler (the `SampleUniform` of
/// upstream `rand`); implemented for the primitive ints and floats.
pub trait SampleUniform: Sized + PartialOrd {
    /// Uniform draw from `[lo, hi)` (`inclusive == false`) or
    /// `[lo, hi]` (`inclusive == true`).
    fn sample_uniform<R: RngCore + ?Sized>(rng: &mut R, lo: Self, hi: Self, inclusive: bool) -> Self;
}

impl<T: SampleUniform> SampleRange<T> for core::ops::Range<T> {
    #[inline]
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        T::sample_uniform(rng, self.start, self.end, false)
    }
}

impl<T: SampleUniform> SampleRange<T> for core::ops::RangeInclusive<T> {
    #[inline]
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        let (lo, hi) = self.into_inner();
        T::sample_uniform(rng, lo, hi, true)
    }
}

macro_rules! impl_uniform_int {
    ($($t:ty : $u:ty),+ $(,)?) => {$(
        impl SampleUniform for $t {
            #[inline]
            fn sample_uniform<R: RngCore + ?Sized>(rng: &mut R, lo: $t, hi: $t, inclusive: bool) -> $t {
                if inclusive {
                    assert!(lo <= hi, "cannot sample empty range");
                    let span = (hi as $u).wrapping_sub(lo as $u).wrapping_add(1);
                    // span == 0 encodes the full domain.
                    let off = if span == 0 {
                        <$u as StandardSample>::sample(rng)
                    } else {
                        uniform_below_u64(rng, span as u64) as $u
                    };
                    (lo as $u).wrapping_add(off) as $t
                } else {
                    assert!(lo < hi, "cannot sample empty range");
                    let span = (hi as $u).wrapping_sub(lo as $u);
                    let off = uniform_below_u64(rng, span as u64) as $u;
                    (lo as $u).wrapping_add(off) as $t
                }
            }
        }
    )+};
}
impl_uniform_int!(
    u8: u8, u16: u16, u32: u32, u64: u64, usize: usize,
    i8: u8, i16: u16, i32: u32, i64: u64, isize: usize,
);

/// Uniform integer in `[0, bound)` (`bound == 0` means `2^64`) via a
/// widening-multiply reduction; the bias is `< bound / 2^64`,
/// negligible for every use in this workspace.
#[inline]
fn uniform_below_u64<R: RngCore + ?Sized>(rng: &mut R, bound: u64) -> u64 {
    let x = rng.next_u64();
    if bound == 0 {
        return x;
    }
    ((x as u128 * bound as u128) >> 64) as u64
}

macro_rules! impl_uniform_float {
    ($($t:ty),+) => {$(
        impl SampleUniform for $t {
            #[inline]
            fn sample_uniform<R: RngCore + ?Sized>(rng: &mut R, lo: $t, hi: $t, inclusive: bool) -> $t {
                if inclusive {
                    assert!(lo <= hi, "cannot sample empty range");
                } else {
                    assert!(lo < hi, "cannot sample empty range");
                }
                let unit = <$t as StandardSample>::sample(rng);
                let v = lo + (hi - lo) * unit;
                // Guard against rounding up to an excluded endpoint.
                if inclusive || v < hi { v } else { lo }
            }
        }
    )+};
}
impl_uniform_float!(f32, f64);

/// User-facing convenience methods, blanket-implemented for every
/// [`RngCore`].
pub trait Rng: RngCore {
    /// Draws a uniform value of an inferrable type.
    #[inline]
    fn gen<T: StandardSample>(&mut self) -> T {
        T::sample(self)
    }

    /// Draws uniformly from a range (`low..high` or `low..=high`).
    #[inline]
    fn gen_range<T, S: SampleRange<T>>(&mut self, range: S) -> T {
        range.sample_from(self)
    }

    /// Bernoulli draw with success probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1]`.
    #[inline]
    fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "probability out of range");
        f64::sample(self) < p
    }

    /// Fills a slice of samplable values.
    fn fill<T: StandardSample>(&mut self, dest: &mut [T]) {
        for slot in dest {
            *slot = T::sample(self);
        }
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// Deterministic construction from seeds.
pub trait SeedableRng: Sized {
    /// The seed type (a byte array).
    type Seed: Default + AsMut<[u8]>;

    /// Builds the generator from a full-entropy seed.
    fn from_seed(seed: Self::Seed) -> Self;

    /// Expands a 64-bit seed into a full seed with SplitMix64 (the
    /// same construction upstream `rand` uses for this method).
    fn seed_from_u64(state: u64) -> Self {
        let mut seed = Self::Seed::default();
        splitmix_fill(state, seed.as_mut());
        Self::from_seed(seed)
    }
}

/// The SplitMix64 stream of `state`, as little-endian bytes.
fn splitmix_fill(state: u64, seed: &mut [u8]) {
    let mut sm = state;
    for chunk in seed.chunks_mut(8) {
        sm = sm.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = sm;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        let bytes = z.to_le_bytes();
        chunk.copy_from_slice(&bytes[..chunk.len()]);
    }
}

pub mod rngs {
    //! Concrete generators.

    use super::{RngCore, SeedableRng};

    /// The standard deterministic generator: ChaCha with 12 rounds
    /// over a 256-bit seed (the construction upstream `rand 0.8` uses
    /// for its `StdRng`).
    #[derive(Debug, Clone)]
    pub struct StdRng {
        key: [u32; 8],
        counter: u64,
        buf: [u8; 64],
        pos: usize,
    }

    /// ChaCha's "expand 32-byte k" constant: words 0..4 of every block's
    /// initial state.
    pub const CHACHA_CONST: [u32; 4] = [0x6170_7865, 0x3320_646e, 0x7962_2d32, 0x6b20_6574];

    fn key_words(seed: &[u8; 32]) -> [u32; 8] {
        let mut key = [0u32; 8];
        for (k, chunk) in key.iter_mut().zip(seed.chunks_exact(4)) {
            *k = u32::from_le_bytes(chunk.try_into().expect("4-byte chunk"));
        }
        key
    }

    #[inline(always)]
    fn quarter_round(state: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
        state[a] = state[a].wrapping_add(state[b]);
        state[d] = (state[d] ^ state[a]).rotate_left(16);
        state[c] = state[c].wrapping_add(state[d]);
        state[b] = (state[b] ^ state[c]).rotate_left(12);
        state[a] = state[a].wrapping_add(state[b]);
        state[d] = (state[d] ^ state[a]).rotate_left(8);
        state[c] = state[c].wrapping_add(state[d]);
        state[b] = (state[b] ^ state[c]).rotate_left(7);
    }

    impl StdRng {
        /// The ChaCha key `seed_from_u64(state)` runs under. Its stream
        /// is the ChaCha12 blocks of that key at counters 0, 1, 2, …
        /// with a zero nonce, each block's 16 words in little-endian
        /// order; a bulk expander that starts from this key reproduces
        /// the generator's output without constructing it.
        pub fn key_from_u64(state: u64) -> [u32; 8] {
            let mut seed = [0u8; 32];
            super::splitmix_fill(state, &mut seed);
            key_words(&seed)
        }

        fn refill(&mut self) {
            let mut state = [0u32; 16];
            state[..4].copy_from_slice(&CHACHA_CONST);
            state[4..12].copy_from_slice(&self.key);
            state[12] = self.counter as u32;
            state[13] = (self.counter >> 32) as u32;
            // Nonce fixed to zero: one stream per seed.
            let initial = state;
            for _ in 0..6 {
                // Two rounds (one column + one diagonal pass) per loop.
                quarter_round(&mut state, 0, 4, 8, 12);
                quarter_round(&mut state, 1, 5, 9, 13);
                quarter_round(&mut state, 2, 6, 10, 14);
                quarter_round(&mut state, 3, 7, 11, 15);
                quarter_round(&mut state, 0, 5, 10, 15);
                quarter_round(&mut state, 1, 6, 11, 12);
                quarter_round(&mut state, 2, 7, 8, 13);
                quarter_round(&mut state, 3, 4, 9, 14);
            }
            for (i, word) in state.iter_mut().enumerate() {
                *word = word.wrapping_add(initial[i]);
                self.buf[4 * i..4 * i + 4].copy_from_slice(&word.to_le_bytes());
            }
            self.counter = self.counter.wrapping_add(1);
            self.pos = 0;
        }

        #[inline]
        fn take(&mut self, n: usize) -> &[u8] {
            debug_assert!(n <= 8);
            if self.pos + n > 64 {
                self.refill();
            }
            let out = &self.buf[self.pos..self.pos + n];
            self.pos += n;
            out
        }
    }

    impl SeedableRng for StdRng {
        type Seed = [u8; 32];

        fn from_seed(seed: Self::Seed) -> Self {
            let mut rng = Self { key: key_words(&seed), counter: 0, buf: [0u8; 64], pos: 64 };
            rng.refill();
            rng
        }
    }

    impl RngCore for StdRng {
        #[inline]
        fn next_u32(&mut self) -> u32 {
            u32::from_le_bytes(self.take(4).try_into().expect("4 bytes"))
        }

        #[inline]
        fn next_u64(&mut self) -> u64 {
            u64::from_le_bytes(self.take(8).try_into().expect("8 bytes"))
        }

        fn fill_bytes(&mut self, dest: &mut [u8]) {
            for chunk in dest.chunks_mut(8) {
                let n = chunk.len();
                chunk.copy_from_slice(self.take(n));
            }
        }
    }
}

pub use rngs::StdRng;

pub mod seq {
    //! Slice helpers.

    use super::RngCore;

    /// Random slice operations (the subset of upstream `SliceRandom`
    /// the workspace uses).
    pub trait SliceRandom {
        /// The element type.
        type Item;

        /// Fisher-Yates shuffle.
        fn shuffle<R: RngCore + ?Sized>(&mut self, rng: &mut R);

        /// A uniformly chosen element, or `None` if empty.
        fn choose<R: RngCore + ?Sized>(&self, rng: &mut R) -> Option<&Self::Item>;
    }

    impl<T> SliceRandom for [T] {
        type Item = T;

        fn shuffle<R: RngCore + ?Sized>(&mut self, rng: &mut R) {
            for i in (1..self.len()).rev() {
                let j = super::uniform_below_u64(rng, (i + 1) as u64) as usize;
                self.swap(i, j);
            }
        }

        fn choose<R: RngCore + ?Sized>(&self, rng: &mut R) -> Option<&T> {
            if self.is_empty() {
                None
            } else {
                let i = super::uniform_below_u64(rng, self.len() as u64) as usize;
                Some(&self[i])
            }
        }
    }
}

pub mod prelude {
    //! Common imports.
    pub use super::rngs::StdRng;
    pub use super::seq::SliceRandom;
    pub use super::{Rng, RngCore, SeedableRng};
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::*;

    #[test]
    fn std_rng_is_deterministic() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = StdRng::seed_from_u64(8);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn fill_bytes_matches_stream() {
        let mut a = StdRng::from_seed([3u8; 32]);
        let mut b = StdRng::from_seed([3u8; 32]);
        let mut buf = [0u8; 16];
        a.fill_bytes(&mut buf);
        let word0 = u64::from_le_bytes(buf[..8].try_into().unwrap());
        assert_eq!(word0, b.next_u64());
    }

    #[test]
    fn gen_range_respects_bounds() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..1000 {
            let x = rng.gen_range(10u64..20);
            assert!((10..20).contains(&x));
            let y = rng.gen_range(-8i8..=7);
            assert!((-8..=7).contains(&y));
            let f = rng.gen_range(-1.0f32..1.0);
            assert!((-1.0..1.0).contains(&f));
            let u = rng.gen_range(0.0f64..1.0);
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn gen_bool_extremes() {
        let mut rng = StdRng::seed_from_u64(2);
        assert!(!rng.gen_bool(0.0));
        assert!(rng.gen_bool(1.0));
    }

    #[test]
    fn shuffle_is_a_permutation() {
        use super::seq::SliceRandom;
        let mut rng = StdRng::seed_from_u64(3);
        let mut v: Vec<u32> = (0..50).collect();
        v.shuffle(&mut rng);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn array_sampling_fills_all_bytes() {
        let mut rng = StdRng::seed_from_u64(4);
        let seed: [u8; 32] = rng.gen();
        assert!(seed.iter().any(|&b| b != 0));
    }
}
