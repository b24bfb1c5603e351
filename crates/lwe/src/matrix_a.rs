//! The public LWE matrix `A`, expanded on demand from a seed.
//!
//! `A ∈ Z_q^{m×n}` can be gigabytes for web-scale upload dimensions, so
//! neither party materializes it: both the client (during encryption)
//! and the server (during hint preprocessing) stream its rows from a
//! shared seed, exactly as SimplePIR transmits `A` as a PRG seed.

use tiptoe_math::rng::{derive_seed, expand_seed};
use tiptoe_math::zq::Word;

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

    /// Expands row `k` into the provided buffer.
    ///
    /// Rows are derived independently, so callers may stream them in
    /// any order (the hint preprocessing walks `k = 0..m` once; the
    /// encryptor does the same).
    ///
    /// # Panics
    ///
    /// Panics if `k >= m` or `buf.len() != n`.
    pub fn expand_row<W: Word>(&self, k: usize, buf: &mut [W]) {
        assert!(k < self.m, "row index out of bounds");
        assert_eq!(buf.len(), self.n, "buffer length mismatch");
        expand_seed(derive_seed(self.seed, k as u64), buf);
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

    /// Expands local row `k` (global row `start + k`).
    ///
    /// # Panics
    ///
    /// Panics if `k >= len` or `buf.len() != n`.
    pub fn expand_row<W: Word>(&self, k: usize, buf: &mut [W]) {
        assert!(k < self.len, "row index out of bounds");
        self.base.expand_row(self.start + k, buf);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
