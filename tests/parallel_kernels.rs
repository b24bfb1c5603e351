//! Property tests for the two server kernels, `matrix::scan` and
//! `scheme::preproc`, each against an **independent naive oracle
//! written here** (the definition as an untiled loop of
//! `wrapping_mul`/`wrapping_add`, signed entries sign-extended), for
//! both storage layouts (`Mat<u32>`, `NibbleMat`) and both word widths
//! (`q = 2^32`, `q = 2^64`).
//!
//! Wrapping mod-`2^k` addition is associative and commutative, so any
//! regrouping of the accumulation must reproduce the definition
//! exactly — not approximately. One `scan` property therefore covers
//! every way the kernel regroups: column tiling (`wide` straddles a
//! `TILE_COLS` boundary, so both the full-tile and the ragged-tile
//! path run), the row split over threads (`threads` 0 = auto, 1 =
//! inline, up to more threads than rows), batching (`B` queries per
//! pass, 1..=5), the SIMD tier inside the dot (CI runs this file at
//! the dispatched tier and under `TIPTOE_FORCE_SCALAR=1`), and the
//! packed layout's two-accumulator decode with its odd-column tail.
//! These properties are what lets the deployment knobs (`Parallelism`,
//! `TIPTOE_THREADS`) change wall-clock time without ever changing
//! results.

use proptest::prelude::*;
use rand::Rng;
use tiptoe_lwe::matrix_a::MatrixARange;
use tiptoe_lwe::{scheme, MatrixA};
use tiptoe_math::matrix::{self, Mat};
use tiptoe_math::nibble::NibbleMat;
use tiptoe_math::rng::seeded_rng;
use tiptoe_math::simd;
use tiptoe_math::zq::Word;

/// A database as the oracle sees it: every entry as a signed integer,
/// alongside the two stored forms the kernels see.
struct Case {
    plain: Mat<u32>,
    plain_entries: Vec<Vec<i64>>,
    packed: NibbleMat,
    packed_entries: Vec<Vec<i64>>,
}

fn case(seed: u64, rows: usize, cols: usize) -> Case {
    let mut rng = seeded_rng(seed);
    let plain = Mat::from_fn(rows, cols, |_, _| rng.gen());
    let signed: Vec<i8> = (0..rows * cols).map(|_| rng.gen_range(-8i8..=7)).collect();
    Case {
        plain_entries: signed_rows(plain.data(), cols),
        packed_entries: signed_rows(&signed, cols),
        packed: NibbleMat::from_signed(rows, cols, &signed),
        plain,
    }
}

fn signed_rows<T: Copy + Into<i64>>(data: &[T], cols: usize) -> Vec<Vec<i64>> {
    data.chunks(cols).map(|row| row.iter().map(|&x| x.into()).collect()).collect()
}

fn random_queries<W: Word>(seed: u64, batch: usize, len: usize) -> Vec<Vec<W>> {
    let mut rng = seeded_rng(seed);
    (0..batch).map(|_| (0..len).map(|_| W::from_u64(rng.gen())).collect()).collect()
}

fn refs<W>(queries: &[Vec<W>]) -> Vec<&[W]> {
    queries.iter().map(Vec::as_slice).collect()
}

/// `out[b][i] = Σ_j M[i][j] · q_b[j]` by the definition: computed in
/// `Z_{2^64}` and truncated, which is the reduction to `Z_{2^32}`.
fn oracle_scan<W: Word>(entries: &[Vec<i64>], queries: &[Vec<W>]) -> Vec<Vec<W>> {
    queries
        .iter()
        .map(|q| {
            entries
                .iter()
                .map(|row| {
                    let mut acc = 0u64;
                    for (&m, &x) in row.iter().zip(q) {
                        acc = acc.wrapping_add((m as u64).wrapping_mul(x.to_u64()));
                    }
                    W::from_u64(acc)
                })
                .collect()
        })
        .collect()
}

/// `H = M·A` by the definition: one pinned-scalar axpy per entry over
/// rows of `A` expanded one at a time.
fn oracle_preproc<W: Word>(entries: &[Vec<i64>], a: &MatrixARange) -> Mat<W> {
    let mut hint: Mat<W> = Mat::zeros(entries.len(), a.cols());
    let mut a_row = vec![W::ZERO; a.cols()];
    for k in 0..a.rows() {
        a.expand_row(k, &mut a_row);
        for (i, row) in entries.iter().enumerate() {
            simd::axpy_scalar(hint.row_mut(i), W::from_i64(row[k]), &a_row);
        }
    }
    hint
}

fn check_scan<W: Word>(seed: u64, rows: usize, cols: usize, batch: usize, threads: usize) {
    let case = case(seed, rows, cols);
    let queries: Vec<Vec<W>> = random_queries(seed ^ 0xABCD, batch, cols);
    let plain = matrix::scan(&case.plain, &refs(&queries), threads);
    assert_eq!(plain, oracle_scan(&case.plain_entries, &queries), "plain scan != oracle");
    let packed = matrix::scan(&case.packed, &refs(&queries), threads);
    assert_eq!(packed, oracle_scan(&case.packed_entries, &queries), "packed scan != oracle");
    // `scheme::apply` is the same kernel under a span.
    assert_eq!(scheme::apply(&case.plain, &refs(&queries), threads), plain);

    // Cross-layout: the packed store and its `u32` residues (signed
    // embedding mod 2^32) agree wherever both are defined, i.e. on the
    // low 32 bits.
    let low = |outs: &[Vec<W>]| -> Vec<Vec<u32>> {
        outs.iter().map(|out| out.iter().map(|x| x.to_u64() as u32).collect()).collect()
    };
    let queries32 = low(&queries);
    let residues = matrix::scan(&case.packed.to_residues(), &refs(&queries32), threads);
    assert_eq!(low(&packed), residues, "packed scan != plain scan on its residues");
}

fn check_preproc<W: Word>(seed: u64, rows: usize, cols: usize, n: usize, threads: usize) {
    let case = case(seed, rows, cols);
    let range = MatrixA::new(seed ^ 0x5EED, cols, n).row_range(0, cols);
    let plain: Mat<W> = scheme::preproc(&case.plain, &range, threads);
    assert_eq!(plain, oracle_preproc(&case.plain_entries, &range), "plain preproc != oracle");
    let packed: Mat<W> = scheme::preproc(&case.packed, &range, threads);
    assert_eq!(packed, oracle_preproc(&case.packed_entries, &range), "packed preproc != oracle");
}

/// `wide` pushes the column count past one `TILE_COLS` boundary; the
/// small part keeps its parity, so odd widths (the nibble tail) occur
/// on both sides of it.
fn shape(rows_small: usize, cols_small: usize, wide: bool) -> (usize, usize) {
    (rows_small, if wide { matrix::TILE_COLS + cols_small } else { cols_small })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn matvec_kernels_bit_identical_u64(
        seed in any::<u64>(),
        rows in 1usize..24,
        cols in 1usize..96,
        wide in any::<bool>(),
        batch in 1usize..6,
        threads in 0usize..6,
    ) {
        let (rows, cols) = shape(rows, cols, wide);
        check_scan::<u64>(seed, rows, cols, batch, threads);
    }

    #[test]
    fn matvec_kernels_bit_identical_u32(
        seed in any::<u64>(),
        rows in 1usize..24,
        cols in 1usize..96,
        wide in any::<bool>(),
        batch in 1usize..6,
        threads in 0usize..6,
    ) {
        let (rows, cols) = shape(rows, cols, wide);
        check_scan::<u32>(seed, rows, cols, batch, threads);
    }
}

proptest! {
    // Preproc re-expands seeded `A` rows per thread; fewer, heavier
    // cases keep this test fast while still sweeping thread counts.
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn preproc_kernels_bit_identical_u64(
        seed in any::<u64>(),
        rows in 1usize..20,
        cols in 1usize..40,
        n in 1usize..24,
        threads in 0usize..6,
    ) {
        check_preproc::<u64>(seed, rows, cols, n, threads);
    }

    #[test]
    fn preproc_kernels_bit_identical_u32(
        seed in any::<u64>(),
        rows in 1usize..20,
        cols in 1usize..40,
        n in 1usize..24,
        threads in 0usize..6,
    ) {
        check_preproc::<u32>(seed, rows, cols, n, threads);
    }
}

#[test]
fn empty_batch_scans_nothing() {
    let case = case(1, 5, 9);
    for threads in [0, 1, 3] {
        assert!(matrix::scan::<u64>(&case.plain, &[], threads).is_empty());
        assert!(matrix::scan::<u32>(&case.packed, &[], threads).is_empty());
    }
}

#[test]
fn dimension_mismatch_panics_in_every_kernel() {
    fn panics(f: impl FnOnce() + std::panic::UnwindSafe) -> bool {
        std::panic::catch_unwind(f).is_err()
    }
    let case = case(2, 4, 10);
    let (good, short) = (vec![1u64; 10], vec![1u64; 9]);
    assert!(panics(|| drop(matrix::scan(&case.plain, &[&good, &short], 1))));
    assert!(panics(|| drop(matrix::scan(&case.packed, &[&short], 2))));
    let range = MatrixA::new(3, 11, 4).row_range(0, 11);
    assert!(panics(|| drop(scheme::preproc::<u64>(&case.plain, &range, 1))));
    assert!(panics(|| drop(scheme::preproc::<u32>(&case.packed, &range, 1))));
}
