//! Property tests for the two server kernels, `matrix::scan` and
//! `scheme::preproc`, each against an **independent naive oracle
//! written here** (the definition as an untiled loop of
//! `wrapping_mul`/`wrapping_add`), at both word widths (`q = 2^32`,
//! `q = 2^64`).
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
//! row groups, whole and short (1–23 rows). The scan runs over both
//! entry types: `u32` residues and the ranking matrix's `i8`s.
//! These properties are what lets `TIPTOE_THREADS` and the kernels'
//! own grains change wall-clock time without ever changing results.

use proptest::prelude::*;
use rand::Rng;
use tiptoe_lwe::matrix_a::MatrixARange;
use tiptoe_lwe::{scheme, MatrixA};
use tiptoe_math::matrix::{self, Mat};
use tiptoe_math::rng::seeded_rng;
use tiptoe_math::simd;
use tiptoe_math::zq::Word;

/// A database as the kernels see it, alongside its entries as the
/// oracle sees them.
struct Case {
    plain: Mat<u32>,
    entries: Vec<Vec<u64>>,
}

/// An `i8` database, the ranking layout, with its entries
/// sign-extended for the oracle.
fn signed_case(seed: u64, rows: usize, cols: usize) -> (Mat<i8>, Vec<Vec<u64>>) {
    let mut rng = seeded_rng(seed);
    let signed: Mat<i8> = Mat::from_fn(rows, cols, |_, _| rng.gen::<u8>() as i8);
    let entries = signed.data().chunks(cols).map(|row| row.iter().map(|&x| x as u64).collect());
    let entries = entries.collect();
    (signed, entries)
}

fn case(seed: u64, rows: usize, cols: usize) -> Case {
    let mut rng = seeded_rng(seed);
    let plain: Mat<u32> = Mat::from_fn(rows, cols, |_, _| rng.gen());
    let entries = plain.data().chunks(cols).map(|row| row.iter().map(|&x| x.into()).collect());
    Case { entries: entries.collect(), plain }
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
fn oracle_scan<W: Word>(entries: &[Vec<u64>], queries: &[Vec<W>]) -> Vec<Vec<W>> {
    queries
        .iter()
        .map(|q| {
            entries
                .iter()
                .map(|row| {
                    let mut acc = 0u64;
                    for (&m, &x) in row.iter().zip(q) {
                        acc = acc.wrapping_add(m.wrapping_mul(x.to_u64()));
                    }
                    W::from_u64(acc)
                })
                .collect()
        })
        .collect()
}

/// `H = M·A` by the definition: one pinned-scalar axpy per entry over
/// rows of `A` expanded one at a time.
fn oracle_preproc<W: Word>(entries: &[Vec<u64>], a: &MatrixARange) -> Mat<W> {
    let mut hint: Mat<W> = Mat::zeros(entries.len(), a.cols());
    let mut a_row = vec![W::ZERO; a.cols()];
    for k in 0..a.rows() {
        a.expand_row(k, &mut a_row);
        for (i, row) in entries.iter().enumerate() {
            simd::axpy_scalar(hint.row_mut(i), W::from_u64(row[k]), &a_row);
        }
    }
    hint
}

fn check_scan<W: Word>(seed: u64, rows: usize, cols: usize, batch: usize, threads: usize) {
    let case = case(seed, rows, cols);
    let queries: Vec<Vec<W>> = random_queries(seed ^ 0xABCD, batch, cols);
    let plain = matrix::scan(&case.plain, &refs(&queries), threads);
    assert_eq!(plain, oracle_scan(&case.entries, &queries), "scan != oracle");
    // `scheme::apply` is the same kernel under a span.
    assert_eq!(scheme::apply(&case.plain, &refs(&queries), threads), plain);
}

fn check_signed_scan(seed: u64, rows: usize, cols: usize, batch: usize, threads: usize) {
    let (signed, entries) = signed_case(seed, rows, cols);
    let queries: Vec<Vec<u64>> = random_queries(seed ^ 0xABCD, batch, cols);
    let got = matrix::scan(&signed, &refs(&queries), threads);
    assert_eq!(got, oracle_scan(&entries, &queries), "i8 scan != oracle");
    assert_eq!(scheme::apply(&signed, &refs(&queries), threads), got);
}

fn check_preproc<W: Word>(seed: u64, rows: usize, cols: usize, n: usize, threads: usize) {
    let case = case(seed, rows, cols);
    let range = MatrixA::new(seed ^ 0x5EED, cols, n).row_range(0, cols);
    let plain: Mat<W> = scheme::preproc(&case.plain, &range, threads);
    assert_eq!(plain, oracle_preproc(&case.entries, &range), "preproc != oracle");
    let (signed, entries) = signed_case(seed, rows, cols);
    let signed: Mat<W> = scheme::preproc(&signed, &range, threads);
    assert_eq!(signed, oracle_preproc(&entries, &range), "i8 preproc != oracle");
}

/// `wide` pushes the column count past one `TILE_COLS` boundary, so
/// the ragged final tile is as wide as the small part.
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
    fn matvec_kernels_bit_identical_i8_u64(
        seed in any::<u64>(),
        rows in 1usize..24,
        cols in 1usize..160,
        wide in any::<bool>(),
        batch in 1usize..6,
        threads in 0usize..6,
    ) {
        let (rows, cols) = shape(rows, cols, wide);
        check_signed_scan(seed, rows, cols, batch, threads);
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
        assert!(matrix::scan::<u32>(&case.plain, &[], threads).is_empty());
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
    assert!(panics(|| drop(matrix::scan(&case.plain, &[&short], 2))));
    let range = MatrixA::new(3, 11, 4).row_range(0, 11);
    assert!(panics(|| drop(scheme::preproc::<u64>(&case.plain, &range, 1))));
    assert!(panics(|| drop(scheme::preproc::<u32>(&case.plain, &range, 1))));
}
