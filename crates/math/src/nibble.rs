//! Packed signed-4-bit matrix storage for the ranking database.
//!
//! The paper stores embeddings as "signed 4-bit integers" (§8.6,
//! App. B.1); holding them as full `u32` residues wastes 8× the memory
//! and — since the §4 scan is DRAM-bandwidth-bound — up to that much
//! scan bandwidth. [`NibbleMat`] packs two signed nibbles per byte and
//! is a [`DbLayout`], so [`crate::matrix::scan`] and the hint
//! preprocessing run over it unchanged.
//!
//! Correctness note: the nibble's *signed* value is embedded into
//! `Z_{2^k}` on the fly (`-3 → 2^k - 3`). Decryption reduces modulo
//! the plaintext modulus `p`, and for the ranking configurations `p`
//! is a power of two dividing `2^k`, so the signed embedding is
//! congruent mod `p` to the usual residue embedding — the two storage
//! formats decrypt identically (asserted by tests). The URL service's
//! non-power-of-two `p` keeps the plain `u32` format.

use std::ops::Range;

use crate::matrix::{DbLayout, Mat, ROW_GROUP};
use crate::zq::Word;

/// A row-major matrix of signed 4-bit entries, two per byte.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NibbleMat {
    rows: usize,
    cols: usize,
    /// Packed entries; row stride is `(cols + 1) / 2` bytes.
    data: Vec<u8>,
}

#[inline(always)]
fn encode_nibble(v: i8) -> u8 {
    debug_assert!((-8..=7).contains(&v), "nibble out of range");
    (v as u8) & 0x0f
}

#[inline(always)]
fn decode_nibble(n: u8) -> i8 {
    // Sign-extend the low 4 bits.
    ((n ^ 0x8).wrapping_sub(0x8)) as i8
}

impl NibbleMat {
    /// Packs signed values (each in `[-8, 7]`).
    ///
    /// # Panics
    ///
    /// Panics if `values.len() != rows * cols` or any value is out of
    /// range.
    pub fn from_signed(rows: usize, cols: usize, values: &[i8]) -> Self {
        assert_eq!(values.len(), rows * cols, "buffer does not match shape");
        assert!(values.iter().all(|&v| (-8..=7).contains(&v)), "entry out of nibble range");
        let stride = cols.div_ceil(2);
        let mut data = vec![0u8; rows * stride];
        for r in 0..rows {
            for c in 0..cols {
                let v = encode_nibble(values[r * cols + c]);
                let byte = &mut data[r * stride + c / 2];
                if c % 2 == 0 {
                    *byte |= v;
                } else {
                    *byte |= v << 4;
                }
            }
        }
        Self { rows, cols, data }
    }

    /// Packs a matrix of `Z_p` residues (the ranking-matrix layout)
    /// whose centered values are signed 4-bit integers.
    ///
    /// # Panics
    ///
    /// Panics if any centered entry falls outside `[-8, 7]`.
    pub fn from_residues_mod_p(mat: &Mat<u32>, p: u64) -> Self {
        let values: Vec<i8> = mat
            .data()
            .iter()
            .map(|&x| {
                let signed = crate::zq::center(x as u64, p);
                assert!((-8..=7).contains(&signed), "entry not a signed nibble: {signed}");
                signed as i8
            })
            .collect();
        Self::from_signed(mat.rows(), mat.cols(), &values)
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Storage bytes (the 8× win over `u32` entries).
    pub fn storage_bytes(&self) -> usize {
        self.data.len()
    }

    /// The signed entry at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics on out-of-bounds access.
    pub fn get(&self, row: usize, col: usize) -> i8 {
        assert!(row < self.rows && col < self.cols, "index out of bounds");
        let stride = self.cols.div_ceil(2);
        let byte = self.data[row * stride + col / 2];
        decode_nibble(if col.is_multiple_of(2) { byte & 0x0f } else { byte >> 4 })
    }

    /// Expands back to a residue matrix (signed embedding mod `2^32`).
    pub fn to_residues(&self) -> Mat<u32> {
        Mat::from_fn(self.rows, self.cols, |r, c| self.get(r, c) as i32 as u32)
    }

    /// One row of [`DbLayout::dot_segment`]: decodes two nibbles per
    /// byte into two independent accumulators (even and odd columns),
    /// signed values embedded via wrap-around. The caller has checked
    /// the bounds and that `col_start` is even.
    fn dot_row<W: Word>(&self, row: usize, col_start: usize, v: &[W]) -> W {
        let stride = self.cols.div_ceil(2);
        let bytes = &self.data[row * stride + col_start / 2..][..v.len().div_ceil(2)];
        let mut acc0 = W::ZERO;
        let mut acc1 = W::ZERO;
        let mut pairs = v.chunks_exact(2);
        for (&byte, pair) in bytes.iter().zip(&mut pairs) {
            let lo = decode_nibble(byte & 0x0f) as i64;
            let hi = decode_nibble(byte >> 4) as i64;
            acc0 = acc0.wadd(W::from_i64(lo).wmul(pair[0]));
            acc1 = acc1.wadd(W::from_i64(hi).wmul(pair[1]));
        }
        if let [last] = pairs.remainder() {
            let lo = decode_nibble(bytes[v.len() / 2] & 0x0f) as i64;
            acc0 = acc0.wadd(W::from_i64(lo).wmul(*last));
        }
        acc0.wadd(acc1)
    }
}

impl DbLayout for NibbleMat {
    fn rows(&self) -> usize {
        self.rows
    }

    fn cols(&self) -> usize {
        self.cols
    }

    /// The rows of the group one at a time through the same decode.
    ///
    /// # Panics
    ///
    /// Panics if the group is empty or longer than [`ROW_GROUP`], the
    /// segment is out of bounds, or `col_start` is odd (a segment must
    /// start on a byte boundary).
    fn dot_segment<W: Word>(
        &self,
        rows: Range<usize>,
        col_start: usize,
        v: &[W],
    ) -> [W; ROW_GROUP] {
        assert!((1..=ROW_GROUP).contains(&rows.len()), "row group of {} rows", rows.len());
        assert!(rows.end <= self.rows && col_start + v.len() <= self.cols, "index out of bounds");
        assert!(col_start.is_multiple_of(2), "segment must start on a byte boundary");
        let mut out = [W::ZERO; ROW_GROUP];
        for (o, row) in out.iter_mut().zip(rows) {
            *o = self.dot_row(row, col_start, v);
        }
        out
    }

    fn entry<W: Word>(&self, row: usize, col: usize) -> W {
        W::from_i64(self.get(row, col) as i64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::scan;
    use crate::rng::seeded_rng;
    use rand::Rng;

    #[test]
    fn nibble_roundtrip_all_values() {
        for v in -8i8..=7 {
            assert_eq!(decode_nibble(encode_nibble(v)), v, "v={v}");
        }
    }

    #[test]
    fn get_matches_input() {
        let values: Vec<i8> = (0..15).map(|i| (i % 16) as i8 - 8).collect();
        let m = NibbleMat::from_signed(3, 5, &values);
        for r in 0..3 {
            for c in 0..5 {
                assert_eq!(m.get(r, c), values[r * 5 + c]);
            }
        }
    }

    #[test]
    fn packed_matvec_matches_unpacked_u64() {
        let mut rng = seeded_rng(1);
        for cols in [4usize, 7, 32, 33] {
            let values: Vec<i8> = (0..6 * cols).map(|_| rng.gen_range(-8i8..=7)).collect();
            let packed = NibbleMat::from_signed(6, cols, &values);
            let v: Vec<u64> = (0..cols).map(|_| rng.gen()).collect();
            let got = scan(&packed, &[&v], 1).pop().expect("one answer");
            // Reference: direct signed accumulation.
            for (r, &g) in got.iter().enumerate() {
                let mut want = 0u64;
                for c in 0..cols {
                    want = want
                        .wrapping_add((values[r * cols + c] as i64 as u64).wrapping_mul(v[c]));
                }
                assert_eq!(g, want, "row {r}, cols {cols}");
            }
        }
    }

    #[test]
    fn packed_matvec_matches_unpacked_u32() {
        let mut rng = seeded_rng(2);
        let cols = 24;
        let values: Vec<i8> = (0..4 * cols).map(|_| rng.gen_range(-8i8..=7)).collect();
        let packed = NibbleMat::from_signed(4, cols, &values);
        let plain = packed.to_residues();
        let v: Vec<u32> = (0..cols).map(|_| rng.gen()).collect();
        assert_eq!(scan(&packed, &[&v], 1), scan(&plain, &[&v], 1));
    }

    #[test]
    fn from_residues_centers_mod_p() {
        let p = 1u64 << 17;
        let plain = Mat::from_fn(2, 3, |r, c| {
            let signed = (r as i64 * 3 + c as i64) - 4; // -4..=1
            crate::zq::reduce_signed(signed, p) as u32
        });
        let packed = NibbleMat::from_residues_mod_p(&plain, p);
        for r in 0..2 {
            for c in 0..3 {
                assert_eq!(packed.get(r, c) as i64, (r as i64 * 3 + c as i64) - 4);
            }
        }
    }

    #[test]
    fn storage_is_8x_smaller_than_u32() {
        let values = vec![0i8; 64 * 128];
        let packed = NibbleMat::from_signed(64, 128, &values);
        assert_eq!(packed.storage_bytes(), 64 * 128 / 2);
        assert_eq!(packed.storage_bytes() * 8, 64 * 128 * std::mem::size_of::<u32>());
    }

    #[test]
    #[should_panic(expected = "nibble range")]
    fn out_of_range_entry_rejected() {
        let _ = NibbleMat::from_signed(1, 1, &[9]);
    }

    #[test]
    fn parallel_and_batched_packed_matvec_are_bit_identical() {
        let mut rng = seeded_rng(3);
        let (rows, cols) = (11, 53);
        let values: Vec<i8> = (0..rows * cols).map(|_| rng.gen_range(-8i8..=7)).collect();
        let m = NibbleMat::from_signed(rows, cols, &values);
        let vs: Vec<Vec<u64>> = (0..3).map(|_| (0..cols).map(|_| rng.gen()).collect()).collect();
        let refs: Vec<&[u64]> = vs.iter().map(Vec::as_slice).collect();
        let solo: Vec<Vec<u64>> =
            refs.iter().map(|&v| scan(&m, &[v], 1).pop().expect("one answer")).collect();
        for threads in [0usize, 1, 2, 4] {
            assert_eq!(scan(&m, &refs, threads), solo, "threads={threads}");
        }
    }

    #[test]
    #[should_panic(expected = "byte boundary")]
    fn odd_segment_start_rejected() {
        let m = NibbleMat::from_signed(1, 4, &[1, 2, 3, 4]);
        let _ = m.dot_segment(0..1, 1, &[1u64, 1]);
    }
}
