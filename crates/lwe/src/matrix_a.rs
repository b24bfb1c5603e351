//! The public LWE matrix `A`, expanded on demand from a seed.
//!
//! `A ∈ Z_q^{m×n}` can be gigabytes for web-scale upload dimensions, so
//! neither party materializes it: both the client (during encryption)
//! and the server (during hint preprocessing) stream its rows from a
//! shared seed, as SimplePIR transmits `A` as one PRG seed.
//!
//! `A` is one ChaCha12 stream: the keystream of
//! `StdRng::key_from_u64(seed)`, which is what `seeded_rng(seed)`
//! yields from `next_u64` (a `u32` word truncates a `u64`). Row `k` is
//! the `n` words that start at block `k·⌈n/8⌉`, so every row starts on
//! a block boundary and can be expanded on its own
//! ([`MatrixA::expand_row`]); the `⌈n/8⌉·8 − n` words after a row
//! belong to no row. Consecutive rows are one run of the stream, so a
//! tile of them is one keystream call ([`MatrixA::expand_rows`]): rows
//! shorter than the AVX-512 tier's 16-block batch share its batches
//! instead of each running the 8-lane body alone.

use rand::rngs::StdRng;
use tiptoe_math::simd;
use tiptoe_math::zq::Word;

/// Keystream words a tile of [`MatrixA::tile_rows`] aims at: eight of
/// the widest tier's 128-word batches.
const TILE_WORDS: usize = 1024;

/// A seed-defined public matrix `A` with `m` rows and `n` columns over
/// `Z_{2^k}`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MatrixA {
    seed: u64,
    m: usize,
    n: usize,
}

impl MatrixA {
    /// Defines the matrix; no memory is allocated.
    pub fn new(seed: u64, m: usize, n: usize) -> Self {
        Self { seed, m, n }
    }

    /// Number of rows (`m`, the upload dimension).
    pub fn rows(&self) -> usize {
        self.m
    }

    /// Number of columns (`n`, the secret dimension).
    pub fn cols(&self) -> usize {
        self.n
    }

    /// The defining seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Stream words from the start of one row to the start of the
    /// next: `n` rounded up to whole 8-word blocks.
    pub fn stride(&self) -> usize {
        self.n.next_multiple_of(8)
    }

    /// Rows a tile of [`MatrixA::expand_rows`] should hold: enough for
    /// at least one 16-block batch, one row when a row is that long
    /// already.
    pub fn tile_rows(&self) -> usize {
        (TILE_WORDS / self.stride().max(1)).max(1)
    }

    /// Expands row `k` into the provided buffer.
    ///
    /// Rows are independently addressable, so callers may read them in
    /// any order (the rank-one hint update reads a document's columns).
    ///
    /// # Panics
    ///
    /// Panics if `k >= m` or `buf.len() != n`.
    pub fn expand_row<W: Word>(&self, k: usize, buf: &mut [W]) {
        assert!(k < self.m, "row index out of bounds");
        assert_eq!(buf.len(), self.n, "buffer length mismatch");
        self.keystream(k, buf);
    }

    /// Expands rows `k, k + 1, …` into `buf` with one keystream call:
    /// row `k + i` is `buf[i·stride..][..n]` ([`MatrixA::stride`]), and
    /// the words between rows are the stream's padding.
    ///
    /// # Panics
    ///
    /// Panics if `buf.len()` is not a whole number of strides or the
    /// rows run past `m`.
    pub fn expand_rows<W: Word>(&self, k: usize, buf: &mut [W]) {
        let stride = self.stride();
        let rows = buf.len().checked_div(stride).unwrap_or(0);
        assert_eq!(rows * stride, buf.len(), "buffer must hold whole strides");
        assert!(k + rows <= self.m, "row index out of bounds");
        self.keystream(k, buf);
    }

    /// The stream from the first block of row `k` on.
    fn keystream<W: Word>(&self, k: usize, buf: &mut [W]) {
        let block = (k * self.stride() / 8) as u64;
        simd::keystream(simd::tier(), &StdRng::key_from_u64(self.seed), block, buf);
    }

    /// A sub-matrix view covering rows `[start, start+len)`, reusing
    /// the same expansion (used when the query vector is sharded
    /// across worker machines, paper §4.3).
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds `m`.
    pub fn row_range(&self, start: usize, len: usize) -> MatrixARange {
        assert!(start + len <= self.m, "row range out of bounds");
        MatrixARange { base: *self, start, len }
    }
}

/// A contiguous row range of a [`MatrixA`].
#[derive(Debug, Clone, Copy)]
pub struct MatrixARange {
    base: MatrixA,
    start: usize,
    len: usize,
}

impl MatrixARange {
    /// Number of rows in the range.
    pub fn rows(&self) -> usize {
        self.len
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.base.cols()
    }

    /// The underlying matrix's [`MatrixA::stride`].
    pub fn stride(&self) -> usize {
        self.base.stride()
    }

    /// The underlying matrix's [`MatrixA::tile_rows`].
    pub fn tile_rows(&self) -> usize {
        self.base.tile_rows()
    }

    /// Expands local row `k` (global row `start + k`).
    ///
    /// # Panics
    ///
    /// Panics if `k >= len` or `buf.len() != n`.
    pub fn expand_row<W: Word>(&self, k: usize, buf: &mut [W]) {
        assert!(k < self.len, "row index out of bounds");
        self.base.expand_row(self.start + k, buf);
    }

    /// [`MatrixA::expand_rows`] from local row `k`.
    ///
    /// # Panics
    ///
    /// As [`MatrixA::expand_rows`], with the range's end for `m`.
    pub fn expand_rows<W: Word>(&self, k: usize, buf: &mut [W]) {
        let rows = buf.len().checked_div(self.stride()).unwrap_or(0);
        assert!(k + rows <= self.len, "row index out of bounds");
        self.base.expand_rows(self.start + k, buf);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::RngCore;
    use tiptoe_math::rng::seeded_rng;

    /// The rows by the definition: `seeded_rng(seed)` read one
    /// `next_u64` at a time, each row its `n` words and the `stride − n`
    /// after them skipped.
    fn reference_rows<W: Word>(a: &MatrixA) -> Vec<Vec<W>> {
        let mut rng = seeded_rng(a.seed());
        (0..a.rows())
            .map(|_| {
                let row = (0..a.cols()).map(|_| W::from_u64(rng.next_u64())).collect();
                (a.cols()..a.stride()).for_each(|_| {
                    rng.next_u64();
                });
                row
            })
            .collect()
    }

    #[test]
    fn row_k_is_the_seeded_stream_from_word_k_stride() {
        for n in [1, 7, 8, 9, 64, 65, 1408] {
            let a = MatrixA::new(0xA11CE ^ n as u64, 40, n);
            let (wide_rows, narrow_rows) = (reference_rows::<u64>(&a), reference_rows::<u32>(&a));
            for k in [0, 1, 2, 17, 39] {
                let mut wide = vec![0u64; n];
                let mut narrow = vec![0u32; n];
                a.expand_row(k, &mut wide);
                a.expand_row(k, &mut narrow);
                assert_eq!(wide, wide_rows[k], "n={n} k={k}");
                assert_eq!(narrow, narrow_rows[k], "n={n} k={k}");
            }
        }
    }

    #[test]
    fn tiles_hold_at_least_one_wide_batch() {
        for n in [1, 2, 4, 9, 63, 64, 65, 1408, 2048] {
            let a = MatrixA::new(1, 1, n);
            let words = a.tile_rows() * a.stride();
            assert!(words >= 128, "n={n}: {words} words a tile");
            assert!(a.tile_rows() == 1 || words <= TILE_WORDS, "n={n}");
        }
    }

    /// Rows `k0..k1` of `a`, expanded in tiles of the given row counts
    /// (cycled), each row cut out of its tile.
    fn tiled_rows<W: Word>(a: &MatrixA, k0: usize, k1: usize, tiles: &[usize]) -> Vec<Vec<W>> {
        let (n, stride) = (a.cols(), a.stride());
        let mut rows = Vec::new();
        let mut k = k0;
        for &len in tiles.iter().cycle() {
            if k == k1 {
                break;
            }
            let len = len.min(k1 - k);
            let mut tile = vec![W::ZERO; len * stride];
            a.expand_rows(k, &mut tile);
            rows.extend(tile.chunks_exact(stride).map(|row| row[..n].to_vec()));
            k += len;
        }
        rows
    }

    fn split_matches_rows<W: Word>(a: &MatrixA, k0: usize, k1: usize, tiles: &[usize]) -> bool {
        let mut row = vec![W::ZERO; a.cols()];
        let want: Vec<Vec<W>> = (k0..k1)
            .map(|k| {
                a.expand_row(k, &mut row);
                row.clone()
            })
            .collect();
        tiled_rows::<W>(a, k0, k1, tiles) == want
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn any_split_into_tiles_gives_the_rows(
            seed in any::<u64>(),
            k0 in 0usize..40,
            span in 0usize..40,
            tiles in proptest::collection::vec(1usize..20, 1..6),
        ) {
            for n in [1, 2, 4, 9, 63, 64, 65, 1408, 2048] {
                let a = MatrixA::new(seed, 80, n);
                let k1 = k0 + span;
                prop_assert!(split_matches_rows::<u64>(&a, k0, k1, &tiles), "u64 n={}", n);
                prop_assert!(split_matches_rows::<u32>(&a, k0, k1, &tiles), "u32 n={}", n);
            }
        }
    }

    #[test]
    fn range_tiles_are_the_base_rows() {
        let a = MatrixA::new(5, 50, 9);
        let range = a.row_range(11, 30);
        let mut from_range = vec![0u64; 7 * range.stride()];
        let mut from_base = vec![0u64; 7 * a.stride()];
        range.expand_rows(23, &mut from_range);
        a.expand_rows(34, &mut from_base);
        assert_eq!(from_range, from_base);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn tile_past_the_range_panics() {
        let range = MatrixA::new(5, 50, 9).row_range(11, 30);
        range.expand_rows(28, &mut vec![0u64; 3 * range.stride()]);
    }

    #[test]
    #[should_panic(expected = "whole strides")]
    fn ragged_tile_panics() {
        MatrixA::new(5, 50, 9).expand_rows(0, &mut [0u64; 17]);
    }

    #[test]
    fn expansion_is_deterministic() {
        let a = MatrixA::new(42, 8, 16);
        let mut r1 = vec![0u64; 16];
        let mut r2 = vec![0u64; 16];
        a.expand_row(3, &mut r1);
        a.expand_row(3, &mut r2);
        assert_eq!(r1, r2);
    }

    #[test]
    fn rows_differ() {
        let a = MatrixA::new(42, 8, 16);
        let mut r1 = vec![0u64; 16];
        let mut r2 = vec![0u64; 16];
        a.expand_row(0, &mut r1);
        a.expand_row(1, &mut r2);
        assert_ne!(r1, r2);
    }

    #[test]
    fn range_matches_base() {
        let a = MatrixA::new(7, 10, 4);
        let range = a.row_range(3, 5);
        let mut from_range = vec![0u32; 4];
        let mut from_base = vec![0u32; 4];
        range.expand_row(2, &mut from_range);
        a.expand_row(5, &mut from_base);
        assert_eq!(from_range, from_base);
    }

    #[test]
    fn u32_and_u64_truncation_consistent() {
        let a = MatrixA::new(9, 2, 8);
        let mut w64 = vec![0u64; 8];
        let mut w32 = vec![0u32; 8];
        a.expand_row(0, &mut w64);
        a.expand_row(0, &mut w32);
        for (x, y) in w64.iter().zip(w32.iter()) {
            assert_eq!(*x as u32, *y);
        }
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn oob_row_panics() {
        let a = MatrixA::new(0, 2, 2);
        let mut buf = vec![0u64; 2];
        a.expand_row(2, &mut buf);
    }
}
