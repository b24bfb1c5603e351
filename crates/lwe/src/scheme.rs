//! The Regev encryption scheme with preprocessing (paper Appendix A.1).
//!
//! Algorithms, with `A` the seed-expanded public matrix, `s` a ternary
//! secret, `e` Gaussian noise, and `Δ = ⌊q/p⌋`:
//!
//! ```text
//! Enc(s, v)        c  = A·s + e + Δ·v           ∈ Z_q^m
//! Preproc(M)       H  = M·A                      ∈ Z_q^{ℓ×n}
//! Apply(M, c)      c' = M·c                      ∈ Z_q^ℓ
//! Dec(s, H, c')    v' = round_p(c' - H·s) mod p  ∈ Z_p^ℓ
//! ```
//!
//! Correctness: `c' - H·s = M·e + Δ·(M·v)`, and the rounding removes
//! `M·e` as long as it stays below `Δ/2` (enforced by the parameter
//! selection in [`crate::params`]).
//!
//! The server's two jobs are one function each over the database's
//! `Z_p` residues (a [`Mat<u32>`]): [`preproc`] and [`apply`].
//! Both take a thread count (`0` = one per core, `1` = inline) that
//! changes wall-clock time only, never an output word.

use rand::Rng;
use tiptoe_math::matrix::{matvec_wide, scan, Mat};
use tiptoe_math::sample::{gaussian_i64, ternary_vec};
use tiptoe_math::wire::{WireError, WireReader, WireWriter};
use tiptoe_math::zq::Word;

use crate::matrix_a::{MatrixA, MatrixARange};
use crate::params::LweParams;

/// Opens a tracing span at kernel granularity (one span per `Apply`
/// or `Preproc` call, never per row) carrying the database shape.
/// Worker threads inside `par_spans_mut` open no spans of their own,
/// so the span tree is identical at any thread count.
fn kernel_span(name: &'static str, rows: usize, cols: usize) -> tiptoe_obs::Span {
    let mut s = tiptoe_obs::span(name);
    s.attr_u64("rows", rows as u64);
    s.attr_u64("cols", cols as u64);
    // Which SIMD tier served this kernel (0 = scalar, 1 = avx2,
    // 2 = avx512); constant per process but recorded per span so
    // traces from mixed fleets stay attributable.
    s.attr_u64("simd_tier", tiptoe_math::simd::tier().code());
    s
}

/// A ternary LWE secret key embedded into `Z_q`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LweSecretKey<W: Word> {
    s: Vec<W>,
}

impl<W: Word> LweSecretKey<W> {
    /// Samples a fresh ternary secret of dimension `params.n`.
    pub fn generate<R: Rng + ?Sized>(params: &LweParams, rng: &mut R) -> Self {
        let s = ternary_vec(rng, params.n).into_iter().map(W::from_i64).collect();
        Self { s }
    }

    /// Builds a key from explicit ternary entries (used by the outer
    /// scheme, which must encrypt this same vector).
    ///
    /// # Panics
    ///
    /// Panics if any entry is outside `{-1, 0, 1}` or the length
    /// differs from `params.n`.
    pub fn from_ternary(params: &LweParams, entries: &[i64]) -> Self {
        assert_eq!(entries.len(), params.n, "secret dimension mismatch");
        assert!(
            entries.iter().all(|&x| (-1..=1).contains(&x)),
            "secret entries must be ternary"
        );
        Self { s: entries.iter().map(|&x| W::from_i64(x)).collect() }
    }

    /// The secret as `Z_q` words.
    pub fn words(&self) -> &[W] {
        &self.s
    }

    /// The secret as ternary signed values.
    pub fn ternary(&self) -> Vec<i64> {
        self.s.iter().map(|w| w.to_signed()).collect()
    }

    /// Secret dimension `n`.
    pub fn dim(&self) -> usize {
        self.s.len()
    }
}

/// A fresh (pre-`Apply`) LWE ciphertext: `m` words of `Z_q`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LweCiphertext<W: Word> {
    /// The ciphertext vector `c = A·s + e + Δ·v`.
    pub c: Vec<W>,
}

impl<W: Word> LweCiphertext<W> {
    /// Wire size in bytes (1-byte width tag, 4-byte count, words).
    pub fn byte_len(&self) -> u64 {
        5 + (self.c.len() * (W::BITS as usize / 8)) as u64
    }

    /// Serializes to the wire format (`encode().len() == byte_len()`).
    pub fn encode(&self) -> Vec<u8> {
        let mut w = WireWriter::with_capacity(self.byte_len() as usize);
        w.put_u8((W::BITS / 8) as u8);
        w.put_u32(self.c.len() as u32);
        for &x in &self.c {
            x.put_wire(&mut w);
        }
        w.finish()
    }

    /// Parses from the wire format.
    ///
    /// # Errors
    ///
    /// Fails on truncation, a width mismatch, or trailing bytes.
    pub fn decode(bytes: &[u8]) -> Result<Self, WireError> {
        let mut r = WireReader::new(bytes);
        let width = r.get_u8()?;
        if width as u32 != W::BITS / 8 {
            return Err(WireError::Invalid("ciphertext word width"));
        }
        let n = r.get_u32()? as usize;
        if n > (1 << 27) {
            return Err(WireError::Invalid("ciphertext too long"));
        }
        let c = (0..n).map(|_| W::get_wire(&mut r)).collect::<Result<Vec<_>, _>>()?;
        r.finish()?;
        Ok(Self { c })
    }
}

/// Encrypts a plaintext vector `v ∈ Z_p^m` under secret `sk`, on one
/// thread per core when the shape is worth it
/// ([`tiptoe_math::par::prg_threads`]): the same words at any count.
///
/// # Panics
///
/// Panics if `v.len() != a.rows()`, `sk.dim() != a.cols()`, or any
/// plaintext entry is not reduced modulo `p`.
pub fn encrypt<W: Word, R: Rng + ?Sized>(
    params: &LweParams,
    sk: &LweSecretKey<W>,
    a: &MatrixA,
    v: &[u64],
    rng: &mut R,
) -> LweCiphertext<W> {
    encrypt_with_threads(params, sk, a, v, rng, 0)
}

/// [`encrypt`] at a thread count. The `m` noise terms are all that is
/// drawn from `rng`, first and in row order; each thread then expands
/// its own rows of `A` and adds `row·s + Δ·v` to their noise.
fn encrypt_with_threads<W: Word, R: Rng + ?Sized>(
    params: &LweParams,
    sk: &LweSecretKey<W>,
    a: &MatrixA,
    v: &[u64],
    rng: &mut R,
    num_threads: usize,
) -> LweCiphertext<W> {
    assert_eq!(v.len(), a.rows(), "plaintext length must equal upload dimension");
    assert_eq!(sk.dim(), a.cols(), "secret dimension mismatch");
    assert!(v.iter().all(|&x| x < params.p), "plaintext entries must be reduced mod p");
    let delta = W::from_u64(params.delta());
    let mut c: Vec<W> = v.iter().map(|_| W::from_i64(gaussian_i64(rng, params.sigma))).collect();
    let threads = tiptoe_math::par::prg_threads(num_threads, v.len(), a.cols());
    tiptoe_math::par::par_spans_mut(&mut c, 1, threads, |start, span| {
        let mut row = vec![W::ZERO; a.cols()];
        for ((k, c_k), &vk) in (start..).zip(span).zip(&v[start..]) {
            a.expand_row(k, &mut row);
            let acc = W::dot_wide(&row, sk.words());
            *c_k = acc.wadd(*c_k).wadd(delta.wmul(W::from_u64(vk)));
        }
    });
    LweCiphertext { c }
}

/// Preprocesses the linear function `M` into the hint `H = M·A`
/// (paper: "the server executes λ·√N 64-bit operations for the
/// one-time preprocessing of the matrix M") — the only hint kernel.
///
/// Splits the hint's ℓ rows into one contiguous block per thread
/// (`threads == 0` = one per core, `1` = inline on the caller's
/// stack); **each thread streams the seeded rows of `A` once,
/// independently** (row expansion is seed-derived per row, so blocks
/// never share state and `A` never materializes). The extra work is
/// one `A`-expansion per thread (`T·m·n` PRG words against `ℓ·m·n`
/// MACs) — negligible for `ℓ ≫ T`. Every hint row accumulates over
/// `k` in the same order at any thread count, so the result is
/// bit-identical.
///
/// # Panics
///
/// Panics if `db.cols() != a.rows()`.
pub fn preproc<W: Word>(db: &Mat<u32>, a: &MatrixARange, threads: usize) -> Mat<W> {
    assert_eq!(db.cols(), a.rows(), "matrix shapes incompatible");
    let _span = kernel_span("lwe.preproc", db.rows(), db.cols());
    let n = a.cols();
    let mut hint: Mat<W> = Mat::zeros(db.rows(), n);
    if n == 0 {
        return hint;
    }
    tiptoe_math::par::par_spans_mut(hint.data_mut(), n, threads, |start, span| {
        let row0 = start / n;
        let mut a_row = vec![W::ZERO; n];
        for k in 0..db.cols() {
            a.expand_row(k, &mut a_row);
            for (local, h_row) in span.chunks_exact_mut(n).enumerate() {
                let m_ik = W::from_u64(u64::from(db.get(row0 + local, k)));
                if m_ik != W::ZERO {
                    W::axpy(h_row, m_ik, &a_row);
                }
            }
        }
    });
    hint
}

/// The homomorphic matrix-vector products `c'_b = M·c_b`
/// ("2·N 64-bit additions and multiplications"): [`scan`] under the
/// `lwe.matvec` span, one pass over the database for the whole batch.
///
/// # Panics
///
/// Panics if any ciphertext's dimension differs from `db.cols()`.
pub fn apply<W: Word>(db: &Mat<u32>, cts: &[&[W]], threads: usize) -> Vec<Vec<W>> {
    let mut span = kernel_span("lwe.matvec", db.rows(), db.cols());
    span.attr_u64("batch", cts.len() as u64);
    scan(db, cts, threads)
}

/// Computes `H·s`, the linear part of decryption. This is exactly the
/// computation the underhood layer outsources to the server under a
/// second encryption scheme (paper §6.2).
///
/// # Panics
///
/// Panics if `sk.dim() != hint.cols()`.
pub fn hint_times_secret<W: Word>(hint: &Mat<W>, sk: &LweSecretKey<W>) -> Vec<W> {
    matvec_wide(hint, sk.words())
}

/// Final (non-linear) decryption step: rounds `c' - H·s` to recover
/// `M·v mod p`.
///
/// # Panics
///
/// Panics if the two slices differ in length.
pub fn decrypt_from_parts<W: Word>(params: &LweParams, hs: &[W], applied: &[W]) -> Vec<u64> {
    assert_eq!(hs.len(), applied.len(), "length mismatch");
    let q = params.q_u128();
    let p = params.p as u128;
    applied
        .iter()
        .zip(hs.iter())
        .map(|(&cp, &h)| {
            let y = cp.wsub(h).to_u64() as u128;
            // v = round(y * p / q) mod p.
            (((y * p + q / 2) >> params.log_q) % p) as u64
        })
        .collect()
}

/// Full decryption `Dec(s, H, c') = round_p(c' - H·s) mod p`.
///
/// # Panics
///
/// Panics on dimension mismatches.
pub fn decrypt<W: Word>(
    params: &LweParams,
    sk: &LweSecretKey<W>,
    hint: &Mat<W>,
    applied: &[W],
) -> Vec<u64> {
    let hs = hint_times_secret(hint, sk);
    decrypt_from_parts(params, &hs, applied)
}

/// Measured decryption noise `|c' - H·s - Δ·(M·v)|` given the true
/// plaintext result; used by tests and the noise-budget analysis.
///
/// # Panics
///
/// Panics on dimension mismatches.
pub fn decryption_noise<W: Word>(
    params: &LweParams,
    sk: &LweSecretKey<W>,
    hint: &Mat<W>,
    applied: &[W],
    truth_mod_p: &[u64],
) -> Vec<i64> {
    assert_eq!(applied.len(), truth_mod_p.len(), "length mismatch");
    let hs = hint_times_secret(hint, sk);
    let delta = W::from_u64(params.delta());
    applied
        .iter()
        .zip(hs.iter())
        .zip(truth_mod_p.iter())
        .map(|((&cp, &h), &t)| {
            let y = cp.wsub(h);
            let noise = y.wsub(delta.wmul(W::from_u64(t % params.p)));
            noise.to_signed()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tiptoe_math::rng::seeded_rng;

    /// `Apply` of one ciphertext on the caller's thread.
    fn apply_one<W: Word>(db: &Mat<u32>, ct: &LweCiphertext<W>) -> Vec<W> {
        apply(db, &[&ct.c], 1).pop().expect("one answer per ciphertext")
    }

    fn random_db(rng: &mut impl Rng, rows: usize, cols: usize, p: u64) -> Mat<u32> {
        Mat::from_fn(rows, cols, |_, _| rng.gen_range(0..p) as u32)
    }

    /// Reference plaintext computation `M·v mod p`.
    fn matvec_mod_p(db: &Mat<u32>, v: &[u64], p: u64) -> Vec<u64> {
        (0..db.rows())
            .map(|i| {
                let mut acc: u128 = 0;
                for (j, &m) in db.row(i).iter().enumerate() {
                    acc = (acc + m as u128 * v[j] as u128) % p as u128;
                }
                acc as u64
            })
            .collect()
    }

    fn roundtrip<W: Word>(params: &LweParams, rows: usize, cols: usize, seed: u64) {
        let mut rng = seeded_rng(seed);
        let db = random_db(&mut rng, rows, cols, params.p.min(16));
        let a = MatrixA::new(99, cols, params.n);
        let sk = LweSecretKey::<W>::generate(params, &mut rng);
        // A PIR-style selection vector: avoids mod-p wraparound so the
        // test is exact for non-power-of-two p too.
        let mut v = vec![0u64; cols];
        v[cols / 2] = 1;
        let ct = encrypt(params, &sk, &a, &v, &mut rng);
        let hint = preproc::<W>(&db, &a.row_range(0, cols), 1);
        let applied = apply_one(&db, &ct);
        let got = decrypt(params, &sk, &hint, &applied);
        let want = matvec_mod_p(&db, &v, params.p);
        assert_eq!(got, want);
    }

    /// The ciphertext as it was defined before rows were expanded in
    /// bulk: each row of `A` drawn word by word from its own `StdRng`,
    /// `row·s` as a left fold.
    fn encrypt_reference<W: Word>(
        params: &LweParams,
        sk: &LweSecretKey<W>,
        a: &MatrixA,
        v: &[u64],
        rng: &mut impl Rng,
    ) -> Vec<W> {
        let delta = W::from_u64(params.delta());
        v.iter()
            .enumerate()
            .map(|(k, &vk)| {
                let mut row_rng = seeded_rng(tiptoe_math::rng::derive_seed(a.seed(), k as u64));
                let acc = sk.words().iter().fold(W::ZERO, |acc, &s_j| {
                    acc.wadd(W::from_u64(row_rng.gen::<u64>()).wmul(s_j))
                });
                let e = W::from_i64(gaussian_i64(rng, params.sigma));
                acc.wadd(e).wadd(delta.wmul(W::from_u64(vk)))
            })
            .collect()
    }

    fn encrypt_matches_reference<W: Word>(log_q: u32, n: usize) {
        let params = LweParams { n, ..LweParams::insecure_test(log_q, 991, 6.4) };
        let mut rng = seeded_rng(n as u64);
        let sk = LweSecretKey::<W>::generate(&params, &mut rng);
        let a = MatrixA::new(77, 9, n);
        let v: Vec<u64> = (0..9).map(|_| rng.gen_range(0..params.p)).collect();
        let mut reference_rng = rng.clone();
        let ct = encrypt(&params, &sk, &a, &v, &mut rng);
        assert_eq!(ct.c, encrypt_reference(&params, &sk, &a, &v, &mut reference_rng), "n={n}");
    }

    /// Whatever tier expands `A` and folds `row·s`, the ciphertext is
    /// the one the word-at-a-time definition gives: at one 8-block
    /// batch per row (n = 64), at ragged tails, and at the deployed
    /// n = 2048.
    #[test]
    fn encrypt_is_bit_identical_to_stdrng_rows() {
        for n in [1, 64, 65, 129, 2048] {
            encrypt_matches_reference::<u64>(64, n);
            encrypt_matches_reference::<u32>(32, n);
        }
    }

    /// Thread counts whose spans do not all divide the rows evenly,
    /// and auto.
    const THREAD_COUNTS: [usize; 5] = [1, 2, 3, 5, 0];

    #[test]
    fn encrypt_is_bit_identical_at_any_thread_count() {
        // 9 rows are under the grain (every count runs inline); 701
        // rows of n = 2048 are 1.4 M PRG words, five threads' grain,
        // in spans of 141 and a tail of 137.
        let params = LweParams::ranking_text();
        let mut rng = seeded_rng(41);
        let sk = LweSecretKey::<u64>::generate(&params, &mut rng);
        for m in [9usize, 701] {
            let a = MatrixA::new(43, m, params.n);
            let v: Vec<u64> = (0..m).map(|_| rng.gen_range(0..params.p)).collect();
            let want = encrypt_reference(&params, &sk, &a, &v, &mut rng.clone());
            for threads in THREAD_COUNTS {
                let mut rng = rng.clone();
                let call = || encrypt_with_threads(&params, &sk, &a, &v, &mut rng, threads);
                let (ct, spans) = tiptoe_math::par::observe_spans(call);
                assert_eq!(ct.c, want, "m={m} threads={threads}");
                match (m, threads) {
                    (9, _) | (_, 1) => assert_eq!(spans, [(0, m)], "m={m} threads={threads}"),
                    (_, 0) => {} // one a core of this host
                    _ => assert_eq!(spans.len(), threads, "m={m}"),
                }
            }
        }
    }

    #[test]
    fn encrypt_partition_and_randomness_do_not_see_key_or_query() {
        // Two secrets and two query vectors, one generator state: the
        // same spans go to the same threads (they follow m and n) and
        // the generator ends where it would have ended anyway.
        let params = LweParams::ranking_text();
        let a = MatrixA::new(47, 701, params.n);
        let keys = [51, 52].map(|s| LweSecretKey::<u64>::generate(&params, &mut seeded_rng(s)));
        let queries = [vec![0u64; 701], (0..701).map(|k| k % params.p).collect()];
        let mut observed = Vec::new();
        for (sk, v) in keys.iter().zip(&queries) {
            let mut rng = seeded_rng(53);
            let call = || encrypt_with_threads(&params, sk, &a, v, &mut rng, 3);
            let (_, spans) = tiptoe_math::par::observe_spans(call);
            observed.push((spans, rng.gen::<u64>()));
        }
        assert_eq!(observed[0].0, [(0, 234), (234, 234), (468, 233)]);
        assert_eq!(observed[0], observed[1]);
    }

    #[test]
    fn roundtrip_q32() {
        let params = LweParams::insecure_test(32, 991, 6.4);
        roundtrip::<u32>(&params, 8, 32, 1);
    }

    #[test]
    fn roundtrip_q64() {
        let params = LweParams::insecure_test(64, 1 << 17, 81920.0);
        roundtrip::<u64>(&params, 8, 32, 2);
    }

    #[test]
    fn roundtrip_power_of_two_p_with_wraparound() {
        // With p | q, results that wrap mod p are still decrypted
        // exactly (this is what the ranking step relies on).
        let params = LweParams::insecure_test(64, 1 << 17, 81920.0);
        let mut rng = seeded_rng(3);
        let cols = 64;
        let db = random_db(&mut rng, 4, cols, params.p);
        let a = MatrixA::new(5, cols, params.n);
        let sk = LweSecretKey::<u64>::generate(&params, &mut rng);
        let v: Vec<u64> = (0..cols).map(|_| rng.gen_range(0..params.p)).collect();
        let ct = encrypt(&params, &sk, &a, &v, &mut rng);
        let hint = preproc::<u64>(&db, &a.row_range(0, cols), 1);
        let applied = apply_one(&db, &ct);
        let got = decrypt(&params, &sk, &hint, &applied);
        let want = matvec_mod_p(&db, &v, params.p);
        assert_eq!(got, want);
    }

    #[test]
    fn paper_parameters_roundtrip() {
        // Full-size secrets (n = 2048) on a small database.
        let params = LweParams::ranking_text();
        let mut rng = seeded_rng(4);
        let cols = 96;
        let db = random_db(&mut rng, 6, cols, params.p);
        let a = MatrixA::new(11, cols, params.n);
        let sk = LweSecretKey::<u64>::generate(&params, &mut rng);
        let v: Vec<u64> = (0..cols).map(|_| rng.gen_range(0..16)).collect();
        let ct = encrypt(&params, &sk, &a, &v, &mut rng);
        let hint = preproc::<u64>(&db, &a.row_range(0, cols), 1);
        let applied = apply_one(&db, &ct);
        let got = decrypt(&params, &sk, &hint, &applied);
        assert_eq!(got, matvec_mod_p(&db, &v, params.p));
    }

    #[test]
    fn wrong_key_garbles_decryption() {
        let params = LweParams::insecure_test(64, 1 << 17, 81920.0);
        let mut rng = seeded_rng(5);
        let cols = 32;
        let db = random_db(&mut rng, 8, cols, 16);
        let a = MatrixA::new(17, cols, params.n);
        let sk = LweSecretKey::<u64>::generate(&params, &mut rng);
        let other = LweSecretKey::<u64>::generate(&params, &mut rng);
        let mut v = vec![0u64; cols];
        v[3] = 1;
        let ct = encrypt(&params, &sk, &a, &v, &mut rng);
        let hint = preproc::<u64>(&db, &a.row_range(0, cols), 1);
        let applied = apply_one(&db, &ct);
        let right = decrypt(&params, &sk, &hint, &applied);
        let wrong = decrypt(&params, &other, &hint, &applied);
        assert_ne!(right, wrong);
    }

    #[test]
    fn measured_noise_is_within_parameter_bound() {
        let params = LweParams::insecure_test(64, 1 << 17, 81920.0);
        let mut rng = seeded_rng(6);
        let cols = 256;
        let db = random_db(&mut rng, 8, cols, params.p);
        let a = MatrixA::new(23, cols, params.n);
        let sk = LweSecretKey::<u64>::generate(&params, &mut rng);
        let v: Vec<u64> = (0..cols).map(|_| rng.gen_range(0..params.p)).collect();
        let ct = encrypt(&params, &sk, &a, &v, &mut rng);
        let hint = preproc::<u64>(&db, &a.row_range(0, cols), 1);
        let applied = apply_one(&db, &ct);
        let truth = matvec_mod_p(&db, &v, params.p);
        let noise = decryption_noise(&params, &sk, &hint, &applied, &truth);
        let bound = params.noise_bound(cols);
        for e in noise {
            assert!((e.unsigned_abs() as f64) < bound, "noise {e} exceeds bound {bound}");
        }
    }

    #[test]
    fn ternary_key_roundtrips_through_words() {
        let params = LweParams::insecure_test(32, 64, 6.4);
        let mut rng = seeded_rng(7);
        let sk = LweSecretKey::<u32>::generate(&params, &mut rng);
        let t = sk.ternary();
        let rebuilt = LweSecretKey::<u32>::from_ternary(&params, &t);
        assert_eq!(sk, rebuilt);
    }

    #[test]
    fn sharded_preproc_sums_to_full_hint() {
        // Vertical sharding (paper §4.3): hint of the full matrix ==
        // sum of the shards' hints.
        let params = LweParams::insecure_test(64, 1 << 10, 10.0);
        let mut rng = seeded_rng(8);
        let cols = 40;
        let db = random_db(&mut rng, 6, cols, 16);
        let a = MatrixA::new(31, cols, params.n);
        let full = preproc::<u64>(&db, &a.row_range(0, cols), 1);
        let left = preproc::<u64>(&db.column_slice(0, 24), &a.row_range(0, 24), 1);
        let right = preproc::<u64>(&db.column_slice(24, cols), &a.row_range(24, 16), 1);
        for i in 0..6 {
            for j in 0..params.n {
                assert_eq!(full.get(i, j), left.get(i, j).wrapping_add(right.get(i, j)));
            }
        }
    }

    /// `H = M·A` by the definition, one pinned-scalar axpy per entry.
    fn preproc_reference<W: Word>(db: &Mat<u32>, a: &MatrixARange) -> Mat<W> {
        let mut hint: Mat<W> = Mat::zeros(db.rows(), a.cols());
        let mut a_row = vec![W::ZERO; a.cols()];
        for k in 0..db.cols() {
            a.expand_row(k, &mut a_row);
            for i in 0..db.rows() {
                let m_ik = W::from_u64(u64::from(db.get(i, k)));
                tiptoe_math::simd::axpy_scalar(hint.row_mut(i), m_ik, &a_row);
            }
        }
        hint
    }

    #[test]
    fn parallel_preproc_is_bit_identical() {
        let params = LweParams::insecure_test(64, 1 << 10, 10.0);
        let mut rng = seeded_rng(12);
        let cols = 50;
        let db = random_db(&mut rng, 23, cols, 16);
        let a = MatrixA::new(77, cols, params.n);
        let range = a.row_range(0, cols);
        let want = preproc_reference::<u64>(&db, &range);
        for threads in [0usize, 1, 2, 3, 8] {
            assert_eq!(preproc::<u64>(&db, &range, threads), want, "threads={threads}");
        }
        // u32 width too.
        let want32 = preproc_reference::<u32>(&db, &range);
        assert_eq!(preproc::<u32>(&db, &range, 1), want32);
        assert_eq!(preproc::<u32>(&db, &range, 3), want32);
    }

    #[test]
    fn batched_apply_matches_per_ciphertext_apply() {
        let params = LweParams::insecure_test(64, 1 << 17, 81920.0);
        let mut rng = seeded_rng(14);
        let cols = 48;
        let db = random_db(&mut rng, 9, cols, params.p);
        let a = MatrixA::new(79, cols, params.n);
        let sk = LweSecretKey::<u64>::generate(&params, &mut rng);
        let cts: Vec<LweCiphertext<u64>> = (0..4)
            .map(|_| {
                let v: Vec<u64> = (0..cols).map(|_| rng.gen_range(0..16)).collect();
                encrypt(&params, &sk, &a, &v, &mut rng)
            })
            .collect();
        let refs: Vec<&[u64]> = cts.iter().map(|ct| ct.c.as_slice()).collect();
        let batched = apply(&db, &refs, 2);
        for (b, ct) in cts.iter().enumerate() {
            assert_eq!(batched[b], apply_one(&db, ct), "ciphertext {b}");
            assert_eq!(apply(&db, &[&ct.c], 3), [apply_one(&db, ct)]);
        }
    }

    #[test]
    fn ciphertext_wire_roundtrip() {
        let params = LweParams::insecure_test(64, 16, 1.0);
        let mut rng = seeded_rng(11);
        let a = MatrixA::new(2, 8, params.n);
        let sk = LweSecretKey::<u64>::generate(&params, &mut rng);
        let ct = encrypt(&params, &sk, &a, &[1u64; 8], &mut rng);
        let bytes = ct.encode();
        assert_eq!(bytes.len() as u64, ct.byte_len());
        let back = LweCiphertext::<u64>::decode(&bytes).expect("decodes");
        assert_eq!(back, ct);
        // Width confusion is rejected.
        assert!(LweCiphertext::<u32>::decode(&bytes).is_err());
        // Truncation is rejected.
        assert!(LweCiphertext::<u64>::decode(&bytes[..bytes.len() - 1]).is_err());
    }

    #[test]
    #[should_panic(expected = "reduced mod p")]
    fn unreduced_plaintext_rejected() {
        let params = LweParams::insecure_test(32, 16, 1.0);
        let mut rng = seeded_rng(9);
        let a = MatrixA::new(1, 4, params.n);
        let sk = LweSecretKey::<u32>::generate(&params, &mut rng);
        let _ = encrypt(&params, &sk, &a, &[99, 0, 0, 0], &mut rng);
    }
}
