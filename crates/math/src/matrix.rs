//! Dense row-major matrices and the one scan kernel that dominates
//! Tiptoe's server-side cost.
//!
//! The ranking service's per-query work is one product `M · ct` where
//! `M` holds small plaintext entries (quantized embeddings in
//! `[−2^b, 2^b]`, `b = 3` deployed) and `ct` is a ciphertext vector of
//! full machine words (paper §4.2: "roughly 2·N·d 64-bit word
//! operations"), with wrapping arithmetic providing the mod-`2^k`
//! reduction for free. [`scan`] is that product — tiled, batched and
//! row-parallel — over a matrix of [`Entry`]s: the ranking matrix's
//! signed `i8` representatives (its `p` divides `q`, so they decrypt
//! like residues, at a quarter of the bytes), or the `Z_p` residues of
//! a [`Mat<u32>`] (the URL service's odd `p`). [`matvec_wide`] is the
//! client's `H·s`.

use std::ops::Range;

use crate::simd::PLANE_CHUNK_BYTES;
use crate::zq::{Entry, Word};

/// A dense row-major matrix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Mat<T> {
    rows: usize,
    cols: usize,
    data: Vec<T>,
}

impl<T: Copy + Default> Mat<T> {
    /// An all-default (`zero`) matrix of the given shape.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self { rows, cols, data: vec![T::default(); rows * cols] }
    }

    /// Builds a matrix by evaluating `f(row, col)` at every position.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> T) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Self { rows, cols, data }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Element count (`rows * cols`).
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the matrix has no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The element at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics on out-of-bounds access.
    #[inline(always)]
    pub fn get(&self, row: usize, col: usize) -> T {
        assert!(row < self.rows && col < self.cols, "index out of bounds");
        self.data[row * self.cols + col]
    }

    /// Sets the element at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics on out-of-bounds access.
    #[inline(always)]
    pub fn set(&mut self, row: usize, col: usize, value: T) {
        assert!(row < self.rows && col < self.cols, "index out of bounds");
        self.data[row * self.cols + col] = value;
    }

    /// A view of one row.
    ///
    /// # Panics
    ///
    /// Panics if `row >= rows`.
    #[inline(always)]
    pub fn row(&self, row: usize) -> &[T] {
        assert!(row < self.rows, "row out of bounds");
        &self.data[row * self.cols..(row + 1) * self.cols]
    }

    /// A mutable view of one row.
    ///
    /// # Panics
    ///
    /// Panics if `row >= rows`.
    #[inline(always)]
    pub fn row_mut(&mut self, row: usize) -> &mut [T] {
        assert!(row < self.rows, "row out of bounds");
        &mut self.data[row * self.cols..(row + 1) * self.cols]
    }

    /// The backing row-major buffer.
    pub fn data(&self) -> &[T] {
        &self.data
    }

    /// Mutable access to the backing row-major buffer.
    pub fn data_mut(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// The transposed matrix.
    pub fn transpose(&self) -> Mat<T> {
        let mut out = Mat::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out.data[j * self.rows + i] = self.data[i * self.cols + j];
            }
        }
        out
    }

    /// A copy of the column range `[start, end)` as a new matrix.
    ///
    /// # Panics
    ///
    /// Panics if `start > end` or `end > cols`.
    pub fn column_slice(&self, start: usize, end: usize) -> Mat<T> {
        assert!(start <= end && end <= self.cols, "column range out of bounds");
        let mut out = Mat::zeros(self.rows, end - start);
        for i in 0..self.rows {
            out.row_mut(i).copy_from_slice(&self.row(i)[start..end]);
        }
        out
    }
}

/// Most rows one `dot_segment` call answers: [`scan`] walks a tile's
/// rows in groups of this many, so each lane-chunk of a query tile is
/// loaded once per group rather than once per row. Four rows'
/// accumulators and the query's registers fit the AVX-512 `u32·u32`
/// body's 32 vector registers; the `i8·u64` VNNI body, with eight
/// accumulators a row, takes a group's rows two at a time.
pub const ROW_GROUP: usize = 4;

/// Inner products over `Z_{2^k}` of `v` with the columns
/// `[col_start, col_start + v.len())` of `rows`, one to [`ROW_GROUP`]
/// consecutive rows of `db`: entry `i` is row `rows.start + i`'s, and
/// the entries from `rows.len()` on are zero. `planes` is the query's
/// [`Entry::split`] from column `col_start` on. A whole group is one
/// call of the row-group kernel; a shorter one (a span's last
/// `rows % ROW_GROUP` rows) is its one-row case, row by row.
///
/// # Panics
///
/// Panics if the group is empty or longer than [`ROW_GROUP`], or a row
/// or the column range is out of bounds.
#[inline]
fn dot_segment<E: Entry, W: Word>(
    db: &Mat<E>,
    rows: Range<usize>,
    col_start: usize,
    v: &[W],
    planes: &[u8],
) -> [W; ROW_GROUP] {
    let segment = |row: usize| &db.row(row)[col_start..col_start + v.len()];
    if rows.len() == ROW_GROUP {
        return E::dot(std::array::from_fn(|i| segment(rows.start + i)), v, planes);
    }
    assert!((1..ROW_GROUP).contains(&rows.len()), "row group of {} rows", rows.len());
    let mut out = [W::ZERO; ROW_GROUP];
    for (o, row) in out.iter_mut().zip(rows) {
        [*o] = E::dot([segment(row)], v, planes);
    }
    out
}

/// `q` laid out for the row-group kernel of `db`'s entry type
/// ([`Entry::split`]).
fn split_query<E: Entry, W: Word>(_db: &Mat<E>, q: &[W]) -> Vec<u8> {
    E::split(q)
}

/// Column-tile width (in elements) of [`scan`]: 2048 `u64` words =
/// 16 KiB, so one tile of a query stays resident in L1 while every
/// row's matching segment streams past it.
pub const TILE_COLS: usize = 2048;
const _: () = assert!(TILE_COLS.is_multiple_of(64), "a tile is whole chunks of byte planes");

/// `out[b] = M · queries[b]` over `Z_{2^k}`: the SimplePIR `Apply` hot
/// loop and the only online kernel. Entries of `db` are treated as
/// elements of `Z_{2^k}` ([`Entry::to_word`]); the wrap-around of
/// [`Word`] arithmetic performs the modular reduction.
///
/// One pass over the database answers the whole batch (`M` is ℓ×m
/// words, a query only m, so the matrix traffic dominates and is paid
/// once for `B` queries); the columns are walked one [`TILE_COLS`]
/// tile at a time, and a tile's rows [`ROW_GROUP`] at a time, so each
/// query tile stays cache-resident and is loaded once per group of
/// rows instead of once per row; contiguous row spans fan out over
/// `threads` threads (`0` = one per core, `1` = inline on the caller's
/// stack). Wrapping mod-`2^k` sums are associative and commutative, so
/// no tiling, row grouping, batch size, thread count, or SIMD lane
/// grouping inside the row-group kernel can change any output word.
/// Each query is laid out for the kernel once ([`Entry::split`]: the
/// `i8` VNNI body's byte planes) before the rows fan out.
///
/// # Panics
///
/// Panics if any query's length differs from `db.cols()`.
pub fn scan<W: Word>(db: &Mat<impl Entry>, queries: &[&[W]], threads: usize) -> Vec<Vec<W>> {
    let (rows, cols) = (db.rows(), db.cols());
    for q in queries {
        assert_eq!(q.len(), cols, "dimension mismatch");
    }
    if queries.is_empty() {
        return Vec::new();
    }
    let batch = queries.len();
    let planes: Vec<Vec<u8>> = queries.iter().map(|q| split_query(db, q)).collect();
    // Row-major (row, batch) accumulator so one row's products for all
    // queries are computed while the row is hot in cache.
    let mut flat = vec![W::ZERO; rows * batch];
    crate::par::par_spans_mut(&mut flat, batch, threads, |start, span| {
        let row0 = start / batch;
        for tile_start in (0..cols).step_by(TILE_COLS) {
            let tile_end = (tile_start + TILE_COLS).min(cols);
            for (g, group_out) in span.chunks_mut(ROW_GROUP * batch).enumerate() {
                let first = row0 + g * ROW_GROUP;
                let rows = first..first + group_out.len() / batch;
                for (b, (q, planes)) in queries.iter().zip(&planes).enumerate() {
                    // A tile's planes start at its first column's chunk
                    // (`TILE_COLS` is a whole number of chunks); an
                    // empty split stays empty.
                    let planes = planes.get(tile_start / 64 * PLANE_CHUNK_BYTES..).unwrap_or(&[]);
                    let v = &q[tile_start..tile_end];
                    let dots = dot_segment(db, rows.clone(), tile_start, v, planes);
                    for (o, dot) in group_out[b..].iter_mut().step_by(batch).zip(dots) {
                        *o = o.wadd(dot);
                    }
                }
            }
        }
    });
    // Transpose the flat accumulator into per-query outputs.
    (0..batch).map(|b| flat.iter().skip(b).step_by(batch).copied().collect()).collect()
}

/// `out = H · s` over `Z_{2^k}` for a wide matrix and wide vector
/// (hint-times-secret during client-side decryption).
///
/// # Panics
///
/// Panics if `s.len() != h.cols()`.
pub fn matvec_wide<W: Word>(h: &Mat<W>, s: &[W]) -> Vec<W> {
    assert_eq!(s.len(), h.cols(), "dimension mismatch");
    let mut out = Vec::with_capacity(h.rows());
    for i in 0..h.rows() {
        out.push(W::dot_wide(h.row(i), s));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One query on the caller's thread.
    fn scan_one<E: Entry, W: Word>(db: &Mat<E>, v: &[W]) -> Vec<W> {
        scan(db, &[v], 1).pop().expect("one answer per query")
    }

    /// Untiled `M · v` by the definition.
    fn naive<E: Entry, W: Word>(db: &Mat<E>, v: &[W]) -> Vec<W> {
        (0..db.rows())
            .map(|i| {
                v.iter().enumerate().fold(W::ZERO, |acc, (j, &x)| {
                    acc.wadd(db.get(i, j).to_word::<W>().wmul(x))
                })
            })
            .collect()
    }

    #[test]
    fn matvec_matches_naive_u64() {
        let db = Mat::from_fn(3, 5, |i, j| (i * 5 + j) as i8 - 7);
        let v: Vec<u64> = (0..5).map(|j| (j as u64 + 1) * 1_000_000_007).collect();
        assert_eq!(scan_one(&db, &v), naive(&db, &v));
    }

    #[test]
    fn matvec_matches_naive_u32() {
        let db = Mat::from_fn(4, 7, |i, j| (i * 31 + j * 17) as u32);
        let v: Vec<u32> = (0..7).map(|j| (j as u32 + 1).wrapping_mul(0x9e37_79b9)).collect();
        assert_eq!(scan_one(&db, &v), naive(&db, &v));
    }

    #[test]
    fn transpose_involution() {
        let m = Mat::from_fn(3, 5, |i, j| i * 10 + j);
        assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn column_slice_extracts_block() {
        let m = Mat::from_fn(2, 6, |i, j| i * 6 + j);
        let s = m.column_slice(2, 5);
        assert_eq!(s.rows(), 2);
        assert_eq!(s.cols(), 3);
        assert_eq!(s.row(0), &[2, 3, 4]);
        assert_eq!(s.row(1), &[8, 9, 10]);
    }

    #[test]
    fn matvec_wide_matches_naive() {
        let h: Mat<u64> = Mat::from_fn(2, 3, |i, j| (i as u64) << 60 | (j as u64 + 1));
        let s = vec![u64::MAX, 3, 1 << 62];
        let got = matvec_wide(&h, &s);
        for (i, &g) in got.iter().enumerate() {
            let mut want = 0u64;
            for (j, &x) in s.iter().enumerate() {
                want = want.wrapping_add(h.get(i, j).wrapping_mul(x));
            }
            assert_eq!(g, want);
        }
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn matvec_rejects_bad_shape() {
        let db = Mat::from_fn(2, 3, |_, _| 1i8);
        let v = vec![1u64; 4];
        let _ = scan_one(&db, &v);
    }

    /// A shape that exercises tile boundaries: more columns than one
    /// tile, a ragged final tile, and a row count that splits unevenly
    /// over threads; `i8` entries over their whole range.
    fn wide_case() -> (Mat<i8>, Vec<u64>) {
        let cols = TILE_COLS + 37;
        let db = Mat::from_fn(13, cols, |i, j| (i * 2654435761 + j * 40503) as i8);
        let v: Vec<u64> =
            (0..cols).map(|j| (j as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ 0xdead).collect();
        (db, v)
    }

    #[test]
    fn blocked_matvec_is_bit_identical() {
        let (db, v) = wide_case();
        assert_eq!(scan_one(&db, &v), naive(&db, &v));
    }

    #[test]
    fn dispatched_matvec_matches_pinned_scalar() {
        let (db, v) = wide_case();
        let pinned = |row| crate::simd::dot_narrow_scalar([db.row(row)], &v)[0];
        assert_eq!(scan_one(&db, &v), (0..db.rows()).map(pinned).collect::<Vec<_>>());
        let db32 = Mat::from_fn(db.rows(), db.cols(), |i, j| (db.get(i, j) as u32).wrapping_mul(40503));
        let v32: Vec<u32> = v.iter().map(|&x| x as u32).collect();
        let pinned32 = |row| crate::simd::dot_narrow_scalar([db32.row(row)], &v32)[0];
        assert_eq!(scan_one(&db32, &v32), (0..db.rows()).map(pinned32).collect::<Vec<_>>());
    }

    #[test]
    fn deployed_wide_shard_shape_matches_naive() {
        // A ranking shard of the wide deployment: 122 = 4·30 + 2 rows
        // (one thread's span ends in a two-row group, three threads'
        // in one-row groups), and 20,832 columns, ten whole tiles and a
        // ragged one whose last 64-column chunk is cut short; entries
        // over the whole `i8` range.
        let (rows, cols) = (122, 20_832);
        let db = Mat::from_fn(rows, cols, |i, j| (i * 2654435761 + j * 40503) as i8);
        let word = |b: u64, j: u64| (j ^ b).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let vs: Vec<Vec<u64>> =
            (0..4).map(|b| (0..cols as u64).map(|j| word(b, j)).collect()).collect();
        let want: Vec<Vec<u64>> = vs.iter().map(|v| naive(&db, v)).collect();
        assert_eq!(scan(&db, &[&vs[0]], 1), want[..1], "B = 1");
        let refs: Vec<&[u64]> = vs.iter().map(Vec::as_slice).collect();
        for threads in [1, 3] {
            assert_eq!(scan(&db, &refs, threads), want, "B = 4, threads = {threads}");
        }
    }

    #[test]
    fn parallel_matvec_is_bit_identical_for_any_thread_count() {
        let (db, v) = wide_case();
        let want = naive(&db, &v);
        for threads in [0usize, 1, 2, 3, 5, 16] {
            assert_eq!(scan(&db, &[&v], threads), std::slice::from_ref(&want), "threads={threads}");
        }
    }

    #[test]
    fn batched_matvec_matches_per_vector_results() {
        let (db, v) = wide_case();
        let vs: Vec<Vec<u64>> = (0..5)
            .map(|b| v.iter().map(|&x| x.wrapping_mul(b as u64 + 1)).collect())
            .collect();
        let refs: Vec<&[u64]> = vs.iter().map(Vec::as_slice).collect();
        let got = scan(&db, &refs, 2);
        assert_eq!(got.len(), vs.len());
        for (b, out) in got.iter().enumerate() {
            assert_eq!(out, &naive(&db, &vs[b]), "batch element {b}");
        }
        assert!(scan::<u64>(&db, &[], 2).is_empty());
    }
}
