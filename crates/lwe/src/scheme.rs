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
//! `Enc` runs in two steps (§6.3): [`encrypt_offline`] computes the
//! pad `A·s + e` before the query is known, and [`QueryPad::seal`]
//! adds `Δ·v` once it is; [`encrypt`] is the two in a row.
//!
//! Correctness: `c' - H·s = M·e + Δ·(M·v)`, and the rounding removes
//! `M·e` as long as it stays below `Δ/2` (enforced by the parameter
//! selection in [`crate::params`]).
//!
//! The server's two jobs are one function each over the database:
//! [`preproc`] and [`apply`]. Its entries are `Z_p` residues (a
//! `Mat<u32>`) or, when `p` divides `q`, signed representatives (a
//! `Mat<i8>`, the ranking service's): with `Δ·p = q`, an entry that
//! differs from its residue by a multiple of `p` changes `Δ·(M·v)` by
//! a multiple of `q`, so `c' - H·s = M·e + Δ·(M·v)` decrypts to the
//! same result, with the smaller `M·e` of the smaller entries. Both
//! take a thread count (`0` = one per core, `1` = inline) that changes
//! wall-clock time only, never an output word.

use rand::Rng;
use tiptoe_math::matrix::{matvec_wide, scan, Mat};
use tiptoe_math::sample::{noise_key, ternary_vec, GaussianStream};
use tiptoe_math::wire::{WireError, WireReader, WireWriter};
use tiptoe_math::zq::{Entry, Word};

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
    /// Wire size in bytes of `words` words after a width tag and a count.
    pub fn wire_len(words: usize) -> u64 {
        5 + answer_byte_len::<W>(words)
    }

    /// Wire size in bytes ([`LweCiphertext::wire_len`] of its length).
    pub fn byte_len(&self) -> u64 {
        Self::wire_len(self.c.len())
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

/// `A·s + e`, the query-independent part of one encryption (paper
/// §6.3: the client computes it ahead of time, so that once the query
/// is known what is left is one scale and one add). [`QueryPad::seal`]
/// adds `Δ·v` and yields the ciphertext.
///
/// A pad seals exactly once: a second `Δ·v′` under the same `s` and
/// `e` would give `Δ·(v − v′)` away. So a pad has no `Clone` (and no
/// `Debug`), and sealing takes it by value:
///
/// ```compile_fail
/// # use tiptoe_lwe::{scheme, LweParams, LweSecretKey, MatrixA};
/// # let params = LweParams::insecure_test(32, 991, 6.4);
/// # let mut rng = tiptoe_math::rng::seeded_rng(1);
/// # let sk = LweSecretKey::<u32>::generate(&params, &mut rng);
/// # let a = MatrixA::new(1, 4, params.n);
/// let pad = scheme::encrypt_offline(&params, &sk, &a, &mut rng);
/// let first = pad.seal(&[1, 0, 0, 0]);
/// let second = pad.seal(&[0, 1, 0, 0]); // the pad moved into `first`
/// ```
///
/// ```compile_fail
/// # use tiptoe_lwe::{scheme, LweParams, LweSecretKey, MatrixA};
/// # let params = LweParams::insecure_test(32, 991, 6.4);
/// # let mut rng = tiptoe_math::rng::seeded_rng(1);
/// # let sk = LweSecretKey::<u32>::generate(&params, &mut rng);
/// # let a = MatrixA::new(1, 4, params.n);
/// let pad = scheme::encrypt_offline(&params, &sk, &a, &mut rng);
/// let copy = pad.clone(); // a pad cannot be copied
/// ```
pub struct QueryPad<W: Word> {
    /// `A·s + e`, one word a row of `A`.
    c: Vec<W>,
    delta: W,
    p: u64,
}

impl<W: Word> QueryPad<W> {
    /// The ciphertext `A·s + e + Δ·v` of `v ∈ Z_p^m`. Reads no
    /// randomness: every draw was the pad's.
    ///
    /// # Panics
    ///
    /// Panics if `v` is not one entry per row of `A`, or any entry is
    /// not reduced modulo `p`.
    pub fn seal(self, v: &[u64]) -> LweCiphertext<W> {
        assert_eq!(v.len(), self.c.len(), "plaintext length must equal upload dimension");
        assert!(v.iter().all(|&x| x < self.p), "plaintext entries must be reduced mod p");
        let mut c = self.c;
        for (c_k, &v_k) in c.iter_mut().zip(v) {
            *c_k = c_k.wadd(self.delta.wmul(W::from_u64(v_k)));
        }
        LweCiphertext { c }
    }

    /// [`QueryPad::seal`] of the unit vector at `index` (a PIR
    /// selection): `Δ` added to one word, no plaintext built.
    ///
    /// # Panics
    ///
    /// Panics if `index` is not a row of `A`.
    pub fn seal_unit(self, index: usize) -> LweCiphertext<W> {
        let mut c = self.c;
        let c_i = c.get_mut(index).expect("unit index within the upload dimension");
        *c_i = c_i.wadd(self.delta);
        LweCiphertext { c }
    }
}

/// Encrypts a plaintext vector `v ∈ Z_p^m` under secret `sk`: the
/// [`encrypt_offline`] pad, sealed with `v`.
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
    encrypt_offline(params, sk, a, rng).seal(v)
}

/// The pad `A·s + e` of an encryption under `sk`, on one thread per
/// core when the shape is worth it ([`tiptoe_math::par::prg_threads`]):
/// the same words at any count. `rng` gives one [`noise_key`], 32 bytes
/// whatever `m` is.
///
/// # Panics
///
/// Panics if `sk.dim() != a.cols()`.
pub fn encrypt_offline<W: Word, R: Rng + ?Sized>(
    params: &LweParams,
    sk: &LweSecretKey<W>,
    a: &MatrixA,
    rng: &mut R,
) -> QueryPad<W> {
    encrypt_offline_with_threads(params, sk, a, rng, 0)
}

/// [`encrypt_offline`] at a thread count. The noise is one
/// [`noise_key`] of `rng`, the only thing drawn from it: row `k`'s term
/// is the [`GaussianStream`] draw that starts at word `2k` of the key's
/// stream ([`LweParams::validate`] bounds σ so that none rejects). Each
/// thread reads its own rows' terms from there, expands its rows of `A`
/// a tile at a time ([`MatrixA::expand_rows`]) and adds `row·s`.
fn encrypt_offline_with_threads<W: Word, R: Rng + ?Sized>(
    params: &LweParams,
    sk: &LweSecretKey<W>,
    a: &MatrixA,
    rng: &mut R,
    num_threads: usize,
) -> QueryPad<W> {
    assert_eq!(sk.dim(), a.cols(), "secret dimension mismatch");
    let key = noise_key(rng);
    let mut c = vec![W::ZERO; a.rows()];
    let (n, stride, tile_rows) = (a.cols(), a.stride(), a.tile_rows());
    let threads = tiptoe_math::par::prg_threads(num_threads, c.len(), stride, tile_rows, 1);
    tiptoe_math::par::par_spans_mut(&mut c, 1, threads, |start, span| {
        let mut tile = vec![W::ZERO; tile_rows * stride];
        let mut noise = GaussianStream::new(key, 2 * start as u64, params.sigma);
        for (k0, c_tile) in (start..).step_by(tile_rows).zip(span.chunks_mut(tile_rows)) {
            let rows = &mut tile[..c_tile.len() * stride];
            a.expand_rows(k0, rows);
            for (c_k, row) in c_tile.iter_mut().zip(rows.chunks_exact(stride)) {
                let e = W::from_i64(noise.next().expect("an endless stream"));
                *c_k = W::dot_wide(&row[..n], sk.words()).wadd(e);
            }
        }
    });
    QueryPad { c, delta: W::from_u64(params.delta()), p: params.p }
}

/// Preprocesses the linear function `M` into the hint `H = M·A`
/// (paper: "the server executes λ·√N 64-bit operations for the
/// one-time preprocessing of the matrix M") — the only hint kernel.
///
/// Splits the hint's ℓ rows into one contiguous block per thread
/// (`threads == 0` = one per core, `1` = inline on the caller's
/// stack); **each thread streams the seeded rows of `A` once,
/// independently**, a tile at a time (rows are addressable in the
/// stream, so blocks never share state and `A` never materializes).
/// The extra work is one `A`-expansion per thread (`T·m·n` PRG words
/// against `ℓ·m·n` MACs) — negligible for `ℓ ≫ T`. Every hint row accumulates over
/// `k` in the same order at any thread count, so the result is
/// bit-identical.
///
/// # Panics
///
/// Panics if `db.cols() != a.rows()`.
pub fn preproc<W: Word>(db: &Mat<impl Entry>, a: &MatrixARange, threads: usize) -> Mat<W> {
    assert_eq!(db.cols(), a.rows(), "matrix shapes incompatible");
    let _span = kernel_span("lwe.preproc", db.rows(), db.cols());
    let n = a.cols();
    let mut hint: Mat<W> = Mat::zeros(db.rows(), n);
    if n == 0 {
        return hint;
    }
    let (stride, tile_rows) = (a.stride(), a.tile_rows());
    tiptoe_math::par::par_spans_mut(hint.data_mut(), n, threads, |start, span| {
        let row0 = start / n;
        let mut tile = vec![W::ZERO; tile_rows * stride];
        for k0 in (0..db.cols()).step_by(tile_rows) {
            let rows = &mut tile[..tile_rows.min(db.cols() - k0) * stride];
            a.expand_rows(k0, rows);
            for (k, a_row) in (k0..).zip(rows.chunks_exact(stride)) {
                for (local, h_row) in span.chunks_exact_mut(n).enumerate() {
                    let m_ik = db.get(row0 + local, k).to_word::<W>();
                    if m_ik != W::ZERO {
                        W::axpy(h_row, m_ik, &a_row[..n]);
                    }
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
pub fn apply<W: Word>(db: &Mat<impl Entry>, cts: &[&[W]], threads: usize) -> Vec<Vec<W>> {
    let mut span = kernel_span("lwe.matvec", db.rows(), db.cols());
    span.attr_u64("batch", cts.len() as u64);
    scan(db, cts, threads)
}

/// Bytes of one answer `c' = M·c` of `rows` words as a query's ledger
/// counts them: the words alone.
pub fn answer_byte_len<W: Word>(rows: usize) -> u64 {
    (rows * (W::BITS as usize / 8)) as u64
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
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};
    use tiptoe_math::rng::seeded_rng;
    use tiptoe_math::sample::gaussian_i64;

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

    /// The ciphertext by the definition: row `k` of `A` the `n` words
    /// of `seeded_rng(seed)` after its first `k·stride`, read one at a
    /// time (the `stride − n` after them are skipped), `row·s` as a
    /// left fold; the noise a [`noise_key`] of `rng`, then
    /// `gaussian_i64` draws in row order from the generator seeded
    /// with its bytes.
    fn encrypt_reference<W: Word>(
        params: &LweParams,
        sk: &LweSecretKey<W>,
        a: &MatrixA,
        v: &[u64],
        rng: &mut impl Rng,
    ) -> Vec<W> {
        let delta = W::from_u64(params.delta());
        let key = noise_key(rng);
        let mut noise = StdRng::from_seed(std::array::from_fn(|i| key[i / 4].to_le_bytes()[i % 4]));
        let mut a_rng = seeded_rng(a.seed());
        v.iter()
            .map(|&vk| {
                let acc = sk.words().iter().fold(W::ZERO, |acc, &s_j| {
                    acc.wadd(W::from_u64(a_rng.gen::<u64>()).wmul(s_j))
                });
                (a.cols()..a.stride()).for_each(|_| {
                    a_rng.gen::<u64>();
                });
                let e = W::from_i64(gaussian_i64(&mut noise, params.sigma));
                acc.wadd(e).wadd(delta.wmul(W::from_u64(vk)))
            })
            .collect()
    }

    fn encrypt_matches_reference<W: Word>(log_q: u32, n: usize) {
        let params = LweParams { n, ..LweParams::insecure_test(log_q, 991, 6.4) };
        let mut rng = seeded_rng(n as u64);
        let sk = LweSecretKey::<W>::generate(&params, &mut rng);
        let a = MatrixA::new(77, 37, n);
        let v: Vec<u64> = (0..37).map(|_| rng.gen_range(0..params.p)).collect();
        let mut reference_rng = rng.clone();
        let ct = encrypt(&params, &sk, &a, &v, &mut rng);
        assert_eq!(ct.c, encrypt_reference(&params, &sk, &a, &v, &mut reference_rng), "n={n}");
    }

    /// Whatever tier expands `A` and folds `row·s`, the ciphertext is
    /// the one the word-at-a-time definition gives: at rows that share
    /// a tile's 16-block batches (n = 1, 64), at ragged tails and
    /// padded strides, and at the deployed n = 2048.
    #[test]
    fn encrypt_is_bit_identical_to_stdrng_rows() {
        for n in [1, 9, 64, 65, 129, 2048] {
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
        // in spans of 141 and a tail of 137; 14,300 rows of n = 64 are
        // seven threads' grain, in spans that end mid-tile; 1,024 URL
        // rows of n = 1408 (`u32` words) are five threads' grain again.
        let wide = LweParams::insecure_test(64, 1 << 17, 81920.0);
        let text = LweParams::ranking_text();
        for (params, m) in [(&text, 9usize), (&text, 701), (&wide, 14_300)] {
            encrypt_at_every_thread_count::<u64>(params, m);
        }
        encrypt_at_every_thread_count::<u32>(&LweParams::url(1 << 8), 1024);
    }

    fn encrypt_at_every_thread_count<W: Word>(params: &LweParams, m: usize) {
        let mut rng = seeded_rng(41);
        let sk = LweSecretKey::<W>::generate(params, &mut rng);
        let a = MatrixA::new(43, m, params.n);
        let v: Vec<u64> = (0..m).map(|_| rng.gen_range(0..params.p)).collect();
        let want = encrypt_reference(params, &sk, &a, &v, &mut rng.clone());
        for threads in THREAD_COUNTS {
            let mut rng = rng.clone();
            let call = || encrypt_offline_with_threads(params, &sk, &a, &mut rng, threads).seal(&v);
            let (ct, spans) = tiptoe_math::par::observe_spans(call);
            assert_eq!(ct.c, want, "m={m} threads={threads}");
            match (m, threads) {
                (9, _) | (_, 1) => assert_eq!(spans, [(0, m)], "m={m} threads={threads}"),
                (_, 0) => {} // one a core of this host
                _ => assert_eq!(spans.len(), threads, "m={m}"),
            }
        }
    }

    #[test]
    fn encrypt_is_bit_identical_off_a_word_boundary() {
        // Wherever the caller's generator stands (an odd number of
        // `next_u32`s leaves it four bytes into a word), an encryption
        // draws 32 bytes of it, whatever `m`, and is the reference's
        // at any thread count; a prefix `v[..m₁]` under the same draw
        // is the first `m₁` words, so row `k`'s noise is a function of
        // the key and `k` alone, not of the spans.
        let params = LweParams::ranking_text();
        let mut rng = seeded_rng(61);
        let sk = LweSecretKey::<u64>::generate(&params, &mut rng);
        for (m, u32s) in [(701usize, 1usize), (701, 3), (701, 15), (3, 1)] {
            let a = MatrixA::new(67, m, params.n);
            let v: Vec<u64> = (0..m).map(|_| rng.gen_range(0..params.p)).collect();
            let mut at = rng.clone();
            (0..u32s).for_each(|_| {
                at.next_u32();
            });
            let want = encrypt_reference(&params, &sk, &a, &v, &mut at.clone());
            let mut after = at.clone();
            (0..8).for_each(|_| {
                after.next_u32();
            });
            let next_words = |rng: &mut StdRng| (0..4).map(|_| rng.next_u32()).collect::<Vec<_>>();
            let m1 = m / 2 + 1;
            let prefix = MatrixA::new(67, m1, params.n);
            for threads in [1, 2, 3, 5] {
                let case = format!("m={m} u32s={u32s} threads={threads}");
                let mut rng = at.clone();
                let call = || encrypt_offline_with_threads(&params, &sk, &a, &mut rng, threads).seal(&v);
                let (ct, spans) = tiptoe_math::par::observe_spans(call);
                assert_eq!(ct.c, want, "{case}");
                assert_eq!(spans.len(), if m == 3 { 1 } else { threads });
                assert_eq!(next_words(&mut rng), next_words(&mut after.clone()), "{case}: 32 bytes drawn");
                let head = encrypt_offline_with_threads(&params, &sk, &prefix, &mut at.clone(), threads).seal(&v[..m1]);
                assert_eq!(head.c, want[..m1], "{case}: the first {m1} rows");
            }
        }
    }

    #[test]
    fn a_unit_seal_is_the_seal_of_the_unit_vector() {
        let params = LweParams::insecure_test(32, 991, 6.4);
        let mut rng = seeded_rng(71);
        let sk = LweSecretKey::<u32>::generate(&params, &mut rng);
        let a = MatrixA::new(73, 37, params.n);
        for index in [0, 1, 18, 36] {
            let mut v = vec![0u64; 37];
            v[index] = 1;
            let want = encrypt(&params, &sk, &a, &v, &mut rng.clone());
            let got = encrypt_offline(&params, &sk, &a, &mut rng.clone()).seal_unit(index);
            assert_eq!(got, want, "index {index}");
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
            let call = || encrypt_offline_with_threads(&params, sk, &a, &mut rng, 3).seal(v);
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
