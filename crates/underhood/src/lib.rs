//! The composed linearly homomorphic encryption scheme with outsourced
//! hint decryption (paper §6.2–§6.3 and Appendix A).
//!
//! Plain SimplePIR decryption needs the client to hold the hint
//! `H = M·A` — gigabytes that change whenever the corpus does. Tiptoe
//! instead has the *server* evaluate the linear part of decryption,
//! `H·s`, under a second (ring-LWE) encryption scheme:
//!
//! 1. Ahead of time, the client uploads `Enc2(s)` — one outer
//!    ciphertext per entry of the inner secret key (the `z_i` of
//!    Appendix A). This upload is query-independent.
//! 2. The server computes `Enc2(H·s)` homomorphically and returns it.
//!    This response is the **query token** (§6.3); it depends only on
//!    the corpus and the client's key, so it is generated and
//!    downloaded before the client has decided on its query.
//! 3. Online, the client sends only the inner Regev ciphertext and
//!    downloads the raw `M·ct` words; it decrypts using the token. The
//!    ciphertext's `A·s + e` is computed ahead of time too, next to the
//!    token for the same key ([`Underhood::encrypt_offline`]), so the
//!    online step is adding `Δ·q̃` to it ([`QueryPad::seal`]).
//!
//! Two concrete tricks from Appendix A.3 are implemented faithfully:
//!
//! - **Dropping low-order hint bits.** Inner decryption rounds away
//!   everything below `Δ/2`, so the server keeps only the top
//!   `log q − κ` bits of each hint entry, with `κ` chosen so the
//!   dropped mass `n·2^κ` stays within the rounding budget. This
//!   shrinks token-generation work and token size, exactly as the
//!   paper's "dropping the lowest-order bits of the hint matrix".
//! - **Exact limb recombination.** The surviving high bits are split
//!   into 16-bit limbs; each limb's product with the ternary secret is
//!   a sum of at most `n ≤ 2048` terms of magnitude `< 2^16`, which
//!   fits the outer plaintext modulus `t = 2^28` *without wraparound*,
//!   so the client reassembles `H·s mod 2^(log q − κ)` exactly.
//!   (`DESIGN.md` §2 documents how this deviates from the paper's SEAL
//!   instantiation.)
//!
//! A token is single-use: reusing it would encrypt two query vectors
//! under the same inner secret, which breaks semantic security (§6.3).
//! [`DecodedToken::take_hs`] enforces this at the type level, and
//! [`QueryPad::seal`] consumes its pad for the same reason.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::ops::{Deref, DerefMut, Range};
use std::sync::{Arc, Mutex, PoisonError};

use rand::Rng;
use tiptoe_lwe::{scheme, LweCiphertext, LweParams, LweSecretKey, MatrixA, QueryPad};
use tiptoe_math::matrix::Mat;
use tiptoe_math::ntt::{mul_acc_wide, reduce_wide, Wide, WIDE_ACC_BUDGET, WIDE_GROUP};
use tiptoe_math::par::{par_spans_mut, prg_threads};
use tiptoe_math::poly::Poly;
use tiptoe_math::sample::noise_key;
use tiptoe_math::wire::{WireError, WireReader, WireWriter};
use tiptoe_math::zq::Word;
use tiptoe_rlwe::{
    decode_seeded, decrypt_switched, encode_seeded, encrypt_scalar_into, expand_a, mod_switch,
    seeded_byte_len, RlweCiphertext, RlweContext, RlweParams, RlweSecretKey, SwitchedCiphertext,
};

/// Dropped hint mass must stay below `Δ / 2^DROP_BUDGET_SHIFT`,
/// leaving the rest of the `Δ/2` rounding budget to the inner noise
/// (with shift 4, the ranking parameters still support the paper's
/// `m = 2^21` upload dimension).
const DROP_BUDGET_SHIFT: u32 = 4;

/// The composed scheme: inner LWE parameters plus the shared outer
/// RLWE context and the derived bit-dropping/limb layout.
#[derive(Debug, Clone)]
pub struct Underhood {
    lwe: LweParams,
    ctx: RlweContext,
    /// Low hint bits dropped before outsourcing (`κ`).
    kappa: u32,
    /// Number of 16-bit limbs covering the surviving `log q − κ` bits.
    limbs: u32,
    /// Modulus-switch target for token download compression.
    switch_log_q2: u32,
}

impl Underhood {
    /// Builds the composed scheme with the production outer parameters.
    pub fn new(lwe: LweParams) -> Self {
        Self::with_outer(lwe, RlweParams::production(), 44)
    }

    /// Builds the composed scheme with explicit outer parameters (used
    /// by tests with scaled-down rings).
    ///
    /// # Panics
    ///
    /// Panics if a limb sum could wrap the outer plaintext modulus
    /// (`n · 2^16 ≥ t/2`) or if no valid `κ` exists.
    pub fn with_outer(lwe: LweParams, rlwe: RlweParams, switch_log_q2: u32) -> Self {
        lwe.validate();
        // Limb values are at most 2^16 - 1, so the exact no-wrap
        // condition is n·(2^16 - 1) < t/2 (met with ~2000 words of
        // slack by n = 2048, t = 2^28).
        assert!(
            (lwe.n as u128) * 0xffff < (rlwe.t as u128) / 2,
            "outer plaintext modulus too small for exact limb sums (n = {}, t = {})",
            lwe.n,
            rlwe.t
        );
        let delta = lwe.delta();
        // n · 2^κ ≤ Δ / 2^DROP_BUDGET_SHIFT.
        let budget = delta >> DROP_BUDGET_SHIFT;
        let per_entry = budget / lwe.n as u64;
        assert!(per_entry >= 1, "no room to drop hint bits; Δ too small for n");
        let kappa = 63 - per_entry.leading_zeros();
        let kept = lwe.log_q - kappa.min(lwe.log_q - 1);
        let kappa = lwe.log_q - kept;
        let limbs = kept.div_ceil(16);
        let ctx = RlweContext::new(rlwe);
        Self { lwe, ctx, kappa, limbs, switch_log_q2 }
    }

    /// The inner LWE parameters.
    pub fn lwe(&self) -> &LweParams {
        &self.lwe
    }

    /// The outer RLWE context.
    pub fn outer(&self) -> &RlweContext {
        &self.ctx
    }

    /// Number of dropped low-order hint bits (`κ`).
    pub fn dropped_bits(&self) -> u32 {
        self.kappa
    }

    /// Number of 16-bit hint limbs.
    pub fn limb_count(&self) -> u32 {
        self.limbs
    }

    /// Extracts limb `j` of a hint entry after dropping `κ` bits.
    #[inline]
    fn limb(&self, h: u64, j: u32) -> u64 {
        (h >> (self.kappa + 16 * j)) & 0xffff
    }
}

/// The client's composite key: the inner ternary secret and the outer
/// ring key. One inner secret can serve several services (paper §A.3,
/// "using the same secret key for both services"): services with a
/// smaller secret dimension use a prefix of `ternary`.
#[derive(Debug, Clone)]
pub struct ClientKey {
    ternary: Vec<i64>,
    rlwe_sk: RlweSecretKey,
}

impl ClientKey {
    /// Samples a fresh composite key with an inner secret of dimension
    /// `max_n`.
    pub fn generate<R: Rng + ?Sized>(uh: &Underhood, max_n: usize, rng: &mut R) -> Self {
        let ternary = tiptoe_math::sample::ternary_vec(rng, max_n);
        let rlwe_sk = RlweSecretKey::generate(uh.outer(), rng);
        Self { ternary, rlwe_sk }
    }

    /// The inner secret key for a service with parameters `params`
    /// (a prefix of the shared ternary vector).
    ///
    /// # Panics
    ///
    /// Panics if `params.n` exceeds the generated secret dimension.
    pub fn lwe_key<W: Word>(&self, params: &LweParams) -> LweSecretKey<W> {
        assert!(params.n <= self.ternary.len(), "secret dimension too large for this key");
        LweSecretKey::from_ternary(params, &self.ternary[..params.n])
    }

    /// Inner secret dimension.
    pub fn max_n(&self) -> usize {
        self.ternary.len()
    }
}

/// An `n·N`-word run of public material, an upload's `b̂` or an
/// expansion's `â`, that goes back to [`SPARES`] when dropped. At the
/// deployed shape each is 32 MiB, which a fresh allocation maps page by
/// page as it is first written: 8,192 faults twice a fetch.
#[derive(Debug, PartialEq)]
struct Words(Vec<u64>);

/// Runs given back by dropped [`Words`], oldest first. The newest
/// [`MAX_SPARES`] are kept, one fetch's worth, so no more stays
/// resident between fetches than a fetch holds anyway.
static SPARES: Mutex<Vec<Vec<u64>>> = Mutex::new(Vec::new());
const MAX_SPARES: usize = 2;

impl Words {
    /// `len` words: a spare of exactly that length when one is kept,
    /// holding whatever its last owner wrote. Every caller writes each
    /// word before it reads any, so what is taken, and what comes out,
    /// depends on the length alone.
    fn take(len: usize) -> Self {
        // A push or a remove leaves the list whole, poisoned or not.
        let mut spares = SPARES.lock().unwrap_or_else(PoisonError::into_inner);
        let spare = spares.iter().position(|w| w.len() == len).map(|i| spares.remove(i));
        drop(spares);
        Self(spare.unwrap_or_else(|| vec![0; len]))
    }
}

impl Drop for Words {
    fn drop(&mut self) {
        // An empty run has no pages worth a spare's place.
        if self.0.is_empty() {
            return;
        }
        let evicted = {
            let mut spares = SPARES.lock().unwrap_or_else(PoisonError::into_inner);
            spares.push(std::mem::take(&mut self.0));
            (spares.len() > MAX_SPARES).then(|| spares.remove(0))
        };
        // Unmapped outside the lock.
        drop(evicted);
    }
}

impl Deref for Words {
    type Target = [u64];
    fn deref(&self) -> &[u64] {
        &self.0
    }
}

impl DerefMut for Words {
    fn deref_mut(&mut self) -> &mut [u64] {
        &mut self.0
    }
}

/// The client's query-independent upload: `Enc2(s_i)` for every entry
/// of the (shared) inner secret (the `z_i` of Appendix A), as the `n`
/// `a`-seeds and one flat run of the `n` polynomials `b̂_i`.
#[derive(Debug, Clone)]
pub struct EncryptedSecret {
    seeds: Vec<u64>,
    /// `[secret coordinate][NTT word]`; the expansion shares it.
    b_ntt: Arc<Words>,
    /// Ring degree `N`.
    ring: usize,
}

impl EncryptedSecret {
    /// Encrypts the shared inner secret under the outer key, on one
    /// thread per core when the upload is worth it ([`prg_threads`]):
    /// the same bytes at any thread count.
    pub fn encrypt<R: Rng + ?Sized>(uh: &Underhood, key: &ClientKey, rng: &mut R) -> Self {
        Self::encrypt_with_threads(uh, key, rng, 0)
    }

    /// [`Self::encrypt`] at a thread count. Every seed and noise key
    /// is drawn from `rng` first, in ciphertext order; ciphertext `i`
    /// is then a function of its own draws and `s_i`.
    fn encrypt_with_threads<R: Rng + ?Sized>(
        uh: &Underhood,
        key: &ClientKey,
        rng: &mut R,
        num_threads: usize,
    ) -> Self {
        let ring = uh.ctx.params().degree;
        let (seeds, noise): (Vec<u64>, Vec<[u32; 8]>) = (0..key.ternary.len() as u64)
            .map(|i| (tiptoe_math::rng::derive_seed(rng.gen(), i), noise_key(rng)))
            .unzip();
        let mut b_ntt = Words::take(seeds.len() * ring);
        // A ciphertext is two keystreams, the noise and `â`.
        let threads = prg_threads(num_threads, seeds.len(), 2 * ring, 1, 0);
        par_spans_mut(&mut b_ntt, ring, threads, |start, span| {
            let first = start / ring;
            let mut a_ntt = vec![0u64; ring];
            let inputs = key.ternary[first..].iter().zip(&seeds[first..]).zip(&noise[first..]);
            for (b, ((&s_i, &seed), noise)) in span.chunks_exact_mut(ring).zip(inputs) {
                encrypt_scalar_into(&uh.ctx, &key.rlwe_sk, s_i, seed, noise, &mut a_ntt, b);
            }
        });
        Self { seeds, b_ntt: Arc::new(b_ntt), ring }
    }

    /// Number of entries covered (`max_n`).
    pub fn len(&self) -> usize {
        self.seeds.len()
    }

    /// Whether the upload is empty.
    pub fn is_empty(&self) -> bool {
        self.seeds.is_empty()
    }

    /// Wire size in bytes of `count` seeded ciphertexts of degree `ring`
    /// after a count prefix.
    pub fn wire_len(count: usize, ring: usize) -> u64 {
        4 + count as u64 * seeded_byte_len(ring)
    }

    /// Wire size in bytes ([`EncryptedSecret::wire_len`] of its shape).
    pub fn byte_len(&self) -> u64 {
        Self::wire_len(self.len(), self.ring)
    }

    /// Serializes to the wire format (`encode().len() == byte_len()`).
    pub fn encode(&self) -> Vec<u8> {
        let mut w = WireWriter::with_capacity(self.byte_len() as usize);
        w.put_u32(self.len() as u32);
        for (&seed, b) in self.seeds.iter().zip(self.b_ntt.chunks_exact(self.ring)) {
            encode_seeded(&mut w, seed, b);
        }
        w.finish()
    }

    /// Parses an upload for the scheme `uh` from the wire format.
    /// Whatever decodes can be [`EncryptedSecret::expand`]ed under
    /// `uh`: the server never meets a malformed ciphertext past here.
    ///
    /// # Errors
    ///
    /// Fails on truncation, oversize counts, a ciphertext that is not
    /// of `uh`'s outer ring (polynomial length other than `N`, a word
    /// not reduced modulo `Q`), or trailing bytes.
    pub fn decode(bytes: &[u8], uh: &Underhood) -> Result<Self, WireError> {
        let mut r = WireReader::new(bytes);
        let n = r.get_u32()? as usize;
        if n > (1 << 20) {
            return Err(WireError::Invalid("too many secret-key ciphertexts"));
        }
        let ring = uh.ctx.params().degree;
        // Sized by the ciphertexts the bytes can hold (and one more,
        // in which a message that declares more than it has fails),
        // never by the possibly hostile count.
        let held = n.min(r.remaining() / seeded_byte_len(ring) as usize + 1);
        let mut b_ntt = Words::take(held * ring);
        let mut polys = b_ntt.chunks_exact_mut(ring);
        let seeds = (0..n)
            .map(|_| decode_seeded(&mut r, &uh.ctx, polys.next().ok_or(WireError::Truncated)?))
            .collect::<Result<Vec<_>, _>>()?;
        r.finish()?;
        Ok(Self { seeds, b_ntt: Arc::new(b_ntt), ring })
    }

    /// Expands all ciphertexts into NTT form (server side), on one
    /// thread per core when there are enough ([`prg_threads`]).
    ///
    /// # Panics
    ///
    /// Panics if the upload is not of `uh`'s outer ring.
    pub fn expand(&self, uh: &Underhood) -> ExpandedSecret {
        self.expand_with_threads(uh, 0)
    }

    /// [`Self::expand`] at a thread count: `â_i` follows from seed `i`.
    fn expand_with_threads(&self, uh: &Underhood, num_threads: usize) -> ExpandedSecret {
        let ring = self.ring;
        assert_eq!(ring, uh.ctx.params().degree, "upload is of another ring");
        let mut a_ntt = Words::take(self.b_ntt.len());
        let threads = prg_threads(num_threads, self.len(), ring, 1, 0);
        par_spans_mut(&mut a_ntt, ring, threads, |start, span| {
            for (a, &seed) in span.chunks_exact_mut(ring).zip(&self.seeds[start / ring..]) {
                expand_a(&uh.ctx, seed, a);
            }
        });
        ExpandedSecret { a_ntt, b_ntt: Arc::clone(&self.b_ntt), ring }
    }
}

/// A server-side expanded form of an [`EncryptedSecret`]: every `z_i`
/// in NTT domain, ready for token generation, one flat
/// `[secret coordinate][NTT word]` run per component. The upload
/// already carries `b̂` in that domain, so expansion is `n` PRG
/// expansions of `â`, no transform and no copy (`b̂` is the upload's
/// buffer); it is still done once and shared across services and
/// shards rather than once per token.
pub struct ExpandedSecret {
    a_ntt: Words,
    b_ntt: Arc<Words>,
    /// Ring degree `N`.
    ring: usize,
}

impl ExpandedSecret {
    /// Number of secret coordinates covered.
    pub fn len(&self) -> usize {
        self.a_ntt.len() / self.ring
    }

    /// Whether the expansion is empty.
    pub fn is_empty(&self) -> bool {
        self.a_ntt.is_empty()
    }
}

/// The server's NTT-ready form of a (bit-dropped, limb-decomposed)
/// hint: for each chunk of `N` hint rows, each limb, and each secret
/// coordinate `i`, the plaintext polynomial whose coefficient `r` is
/// `limb_j(H[chunk·N + r][i])`, as `N` plain NTT-domain words.
pub struct ServerHint {
    /// One flat `[limb][secret coordinate][NTT word]` run per chunk
    /// (see [`Underhood::hint_chunk_polys`]).
    chunks: Vec<Vec<u64>>,
    /// Original number of hint rows (before padding to chunks of `N`).
    rows: usize,
    /// Secret dimension `n` of this hint.
    n: usize,
    /// Ring degree `N`.
    ring: usize,
}

impl ServerHint {
    /// Number of hint rows covered (unpadded).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Secret dimension.
    pub fn secret_dim(&self) -> usize {
        self.n
    }

    /// Number of row chunks (`⌈rows / N⌉`).
    pub fn chunks(&self) -> usize {
        self.chunks.len()
    }

    /// Bytes resident for the hint polynomials: `chunks · limbs · n`
    /// polynomials of `N` 8-byte words.
    pub fn byte_len(&self) -> u64 {
        self.chunks.iter().map(|c| std::mem::size_of_val(c.as_slice()) as u64).sum()
    }

    /// Replaces one chunk's polynomials after an incremental hint
    /// update (§3.2 corpus updates).
    ///
    /// # Panics
    ///
    /// Panics if `chunk` is out of range or the layout differs.
    pub fn replace_chunk(&mut self, chunk: usize, polys: Vec<u64>) {
        assert!(chunk < self.chunks.len(), "chunk out of range");
        assert_eq!(polys.len(), self.chunks[chunk].len(), "chunk layout mismatch");
        self.chunks[chunk] = polys;
    }

    /// The `n` polynomials of `(chunk, limb)` unit `unit` (limb-minor),
    /// in secret-coordinate order.
    fn unit_polys(&self, unit: usize, limbs: usize) -> std::slice::ChunksExact<'_, u64> {
        let per_limb = self.n * self.ring;
        let limb = unit % limbs;
        self.chunks[unit / limbs][limb * per_limb..(limb + 1) * per_limb].chunks_exact(self.ring)
    }
}

impl Underhood {
    /// Preprocesses a hint for token generation (corpus-dependent
    /// only; runs in the data-loading batch phase).
    pub fn preprocess_hint<W: Word>(&self, hint: &Mat<W>) -> ServerHint {
        let ring = self.ctx.params().degree;
        let rows = hint.rows();
        let chunks = Self::hint_chunks(rows, ring);
        let chunks = (0..chunks).map(|c| self.hint_chunk_polys(hint, c)).collect();
        ServerHint { chunks, rows, n: hint.cols(), ring }
    }

    /// Chunks of `ring` rows (at least one) a hint of `rows` rows is cut
    /// into; a token holds [`Underhood::limb_count`] ciphertexts each.
    pub fn hint_chunks(rows: usize, ring: usize) -> usize {
        rows.div_ceil(ring).max(1)
    }

    /// Builds the NTT-ready limb polynomials of one chunk of `N_ring`
    /// hint rows (the unit of incremental refresh after a corpus
    /// update: touching one matrix row only invalidates its chunk), as
    /// one flat `[limb][secret coordinate][NTT word]` run.
    pub fn hint_chunk_polys<W: Word>(&self, hint: &Mat<W>, chunk: usize) -> Vec<u64> {
        let ring = self.ctx.params().degree;
        let rows = hint.rows();
        let n = hint.cols();
        let mut polys = vec![0u64; self.limbs as usize * n * ring];
        for (slot, poly) in polys.chunks_exact_mut(ring).enumerate() {
            let (j, i) = ((slot / n) as u32, slot % n);
            // A 16-bit limb is already reduced modulo Q.
            for (row, c) in (chunk * ring..rows).zip(poly.iter_mut()) {
                *c = self.limb(hint.get(row, i).to_u64(), j);
            }
            self.ctx.table().forward(poly);
        }
        polys
    }

    /// Generates a query token: evaluates `Enc2(limb_j(H)·s)` for every
    /// chunk and limb, then modulus-switches for download compression.
    ///
    /// This is the server-side work of the paper's token-generation
    /// step (§6.3); it runs before the client has a query. Callers
    /// serving several hints for one client (two services, many
    /// shards) should [`EncryptedSecret::expand`] once and use
    /// [`Underhood::generate_token_expanded`].
    ///
    /// # Panics
    ///
    /// Panics if the encrypted secret covers fewer coordinates than the
    /// hint's secret dimension.
    pub fn generate_token(&self, sh: &ServerHint, es: &EncryptedSecret) -> QueryToken {
        self.generate_token_expanded(sh, &es.expand(self))
    }

    /// Token generation over a pre-expanded secret:
    /// [`Underhood::generate_token_expanded_many`] at `B = 1`, one
    /// thread per core.
    ///
    /// # Panics
    ///
    /// Panics if the expansion covers fewer coordinates than the
    /// hint's secret dimension.
    pub fn generate_token_expanded(&self, sh: &ServerHint, es: &ExpandedSecret) -> QueryToken {
        self.generate_token_expanded_many(sh, &[es], 0).pop().expect("one token per secret")
    }

    /// Token generation, the one body: evaluates one hint against `B`
    /// clients' expanded secrets in one sweep over the secret
    /// coordinates.
    ///
    /// Every `(chunk, limb)` unit is `Σ_i h_i ∘ z_i` over the secret
    /// coordinates, and each NTT coefficient of it is a sum of its
    /// own, so `num_threads` threads (`0` = one per core, `1` =
    /// inline) split the *coefficient range*: each accumulates every
    /// unit and every client over its span with
    /// [`mul_acc_wide`], unreduced, and reduces each coefficient once
    /// after the last coordinate. A sweep visits the coordinates in
    /// groups of [`WIDE_GROUP`] and feeds a group to every unit and
    /// client while it is in cache, so each hint polynomial and each
    /// `z_i` comes from memory once a call (units beyond
    /// [`WIDE_ACC_BUDGET`] bytes of accumulators take a further sweep).
    /// The modulus switches then fan out per `(unit, client)`.
    ///
    /// A sum over the integers does not depend on how it was grouped,
    /// so every returned token is bit-identical to the one that client
    /// gets alone, at any batch size and thread count.
    ///
    /// # Panics
    ///
    /// Panics if any expansion covers fewer coordinates than the
    /// hint's secret dimension.
    pub fn generate_token_expanded_many(
        &self,
        sh: &ServerHint,
        secrets: &[&ExpandedSecret],
        num_threads: usize,
    ) -> Vec<QueryToken> {
        let b = secrets.len();
        if b == 0 {
            return Vec::new();
        }
        for es in secrets {
            assert!(es.len() >= sh.n, "encrypted secret too short for this hint");
            assert_eq!(es.ring, sh.ring, "expansion and hint are of different rings");
        }
        let q = self.ctx.q();
        let limbs = self.limbs as usize;
        let units = sh.chunks() * limbs;
        // One reduced NTT word per coefficient and `(unit, client,
        // component)` slot, coefficient-major so a thread owns rows.
        let slots = units * b * 2;
        let mut sums = vec![0u64; sh.ring * slots];
        par_spans_mut(&mut sums, slots, num_threads, |start, rows| {
            let len = rows.len() / slots;
            let span = start / slots..start / slots + len;
            // The hint's `n` polynomials of a flat component, cut to
            // this thread's coefficients.
            fn cut<'a>(z: &'a [u64], sh: &ServerHint, span: &Range<usize>) -> Vec<&'a [u64]> {
                z.chunks_exact(sh.ring).take(sh.n).map(|p| &p[span.clone()]).collect()
            }
            let za: Vec<Vec<&[u64]>> = secrets.iter().map(|es| cut(&es.a_ntt, sh, &span)).collect();
            let zb: Vec<Vec<&[u64]>> = secrets.iter().map(|es| cut(&es.b_ntt, sh, &span)).collect();
            // Accumulators of a sweep, `[unit][client][component]`.
            let per_unit = b * 2 * len;
            let tile = (WIDE_ACC_BUDGET / (per_unit * std::mem::size_of::<Wide>())).clamp(1, units);
            let mut acc = vec![Wide::default(); tile * per_unit];
            for first in (0..units).step_by(tile) {
                let h: Vec<Vec<&[u64]>> = (first..units.min(first + tile))
                    .map(|unit| sh.unit_polys(unit, limbs).map(|p| &p[span.clone()]).collect())
                    .collect();
                acc.fill(Wide::default());
                for lo in (0..sh.n).step_by(WIDE_GROUP) {
                    let group = lo..sh.n.min(lo + WIDE_GROUP);
                    for (acc, h) in acc.chunks_exact_mut(per_unit).zip(&h) {
                        for ((acc, za), zb) in acc.chunks_exact_mut(2 * len).zip(&za).zip(&zb) {
                            let (acc_a, acc_b) = acc.split_at_mut(len);
                            let (za, zb) = (&za[group.clone()], &zb[group.clone()]);
                            mul_acc_wide(&h[group.clone()], za, zb, acc_a, acc_b);
                        }
                    }
                }
                let totals = acc.chunks_exact(len).take(h.len() * b * 2);
                for (slot, totals) in (first * b * 2..).zip(totals) {
                    for (row, &total) in rows.chunks_exact_mut(slots).zip(totals) {
                        row[slot] = reduce_wide(total, q);
                    }
                }
            }
        });
        // `[unit][client]`, each the modulus switch of its two slots.
        let mut switched: Vec<Option<SwitchedCiphertext>> = (0..units * b).map(|_| None).collect();
        par_spans_mut(&mut switched, 1, num_threads, |start, span| {
            let poly = |slot: usize| {
                let data = sums.chunks_exact(slots).map(|row| row[slot]).collect();
                Poly::from_ntt_data(Arc::clone(self.ctx.table()), data)
            };
            for (pair, out) in (start..).zip(span) {
                let sum = RlweCiphertext { a: poly(2 * pair), b: poly(2 * pair + 1) };
                *out = Some(mod_switch(&self.ctx, &sum, self.switch_log_q2));
            }
        });
        (0..b)
            .map(|bi| {
                let mut limb = |unit: usize| switched[unit * b + bi].take().expect("switched");
                let chunk = |c: usize| (c * limbs..(c + 1) * limbs).map(&mut limb).collect();
                QueryToken { chunks: (0..sh.chunks()).map(chunk).collect(), rows: sh.rows }
            })
            .collect()
    }

    /// Decodes a token into the `H·s` words needed for inner
    /// decryption (client side, before the query).
    pub fn decode_token<W: Word>(&self, key: &ClientKey, token: &QueryToken) -> DecodedToken<W> {
        let n_ring = self.ctx.params().degree;
        let kept = self.lwe.log_q - self.kappa;
        let kept_mask: u128 = if kept >= 128 { u128::MAX } else { (1u128 << kept) - 1 };
        // Allocation bounded by the material actually present, not the
        // (possibly hostile) declared row count.
        let mut hs = Vec::with_capacity(token.rows.min(token.chunks.len() * n_ring));
        for chunk in &token.chunks {
            let limb_values: Vec<Vec<i64>> = chunk
                .iter()
                .map(|sw| decrypt_switched(&self.ctx, &key.rlwe_sk, sw))
                .collect();
            for r in 0..n_ring {
                if hs.len() == token.rows {
                    break;
                }
                // T = Σ_j 2^(16j) · P_j[r]  (mod 2^kept), exactly.
                let mut t: i128 = 0;
                for (j, limb) in limb_values.iter().enumerate() {
                    t += (limb[r] as i128) << (16 * j);
                }
                let t_mod = (t.rem_euclid(1i128 << kept) as u128) & kept_mask;
                // H·s ≈ 2^κ · T.
                hs.push(W::from_u64((t_mod as u64).wrapping_shl(self.kappa)));
            }
        }
        DecodedToken { hs: Some(hs) }
    }

    /// The query-independent part of a query encryption under the
    /// inner secret, `A·s + e` (§6.3: computed ahead of time, next to
    /// the token for the same key); [`QueryPad::seal`] makes it the
    /// ciphertext once the query is known.
    ///
    /// # Panics
    ///
    /// Panics if `a.cols()` differs from the inner secret dimension.
    pub fn encrypt_offline<W: Word, R: Rng + ?Sized>(
        &self,
        key: &ClientKey,
        a: &MatrixA,
        rng: &mut R,
    ) -> QueryPad<W> {
        let sk = key.lwe_key::<W>(&self.lwe);
        scheme::encrypt_offline(&self.lwe, &sk, a, rng)
    }

    /// Encrypts a query vector under the inner scheme: the
    /// [`Underhood::encrypt_offline`] pad sealed with `v`, the same
    /// bytes and the same draws as computing the pad ahead of time.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatches (see [`scheme::encrypt`]).
    pub fn encrypt_query<W: Word, R: Rng + ?Sized>(
        &self,
        key: &ClientKey,
        a: &MatrixA,
        v: &[u64],
        rng: &mut R,
    ) -> LweCiphertext<W> {
        self.encrypt_offline(key, a, rng).seal(v)
    }

    /// Final decryption: combines the (single-use) decoded token with
    /// the online response `c' = M·ct`.
    ///
    /// # Panics
    ///
    /// Panics if the token was already used or if `applied.len()`
    /// differs from the token's row count.
    pub fn decrypt<W: Word>(&self, token: &mut DecodedToken<W>, applied: &[W]) -> Vec<u64> {
        let hs = token.take_hs();
        scheme::decrypt_from_parts(&self.lwe, &hs, applied)
    }

    /// Upper bound on the total decryption error: inner LWE noise after
    /// `m` MAC steps plus the dropped hint mass `n·2^κ`. Must stay
    /// below `Δ/2` for correct rounding.
    pub fn total_noise_bound(&self, m: usize) -> f64 {
        self.lwe.noise_bound(m) + (self.lwe.n as f64) * (2f64).powi(self.kappa as i32)
    }

    /// Headroom before decryption rounds incorrectly at upload
    /// dimension `m`, in bits: `log2(Δ/2) − log2(total_noise_bound(m))`.
    pub fn noise_margin_bits(&self, m: usize) -> f64 {
        let delta_half = self.lwe.delta() as f64 / 2.0;
        delta_half.log2() - self.total_noise_bound(m).log2()
    }

    /// Whether the composed scheme decrypts reliably at upload
    /// dimension `m`.
    pub fn supports_upload_dim(&self, m: usize) -> bool {
        self.noise_margin_bits(m) > 0.0
    }
}

/// A query token: the modulus-switched `Enc2(H·s)` ciphertexts,
/// `[chunk][limb]`.
#[derive(Debug, Clone)]
pub struct QueryToken {
    chunks: Vec<Vec<SwitchedCiphertext>>,
    rows: usize,
}

impl QueryToken {
    /// Wire size in bytes of a header (rows, chunk count, limb count)
    /// and `chunks × limbs` switched ciphertexts of degree `ring`.
    pub fn wire_len(chunks: usize, limbs: usize, ring: usize, log_q2: u32) -> u64 {
        12 + (chunks * limbs) as u64 * SwitchedCiphertext::wire_len(ring, log_q2)
    }

    /// Wire size in bytes ([`QueryToken::wire_len`] of its shape; the
    /// decoder admits only ciphertexts of one degree and width).
    pub fn byte_len(&self) -> u64 {
        let limbs = self.chunks.first().map_or(0, Vec::len);
        let ct = self.chunks.iter().flatten().next();
        let (ring, log_q2) = ct.map_or((0, 0), |c| (c.a.len(), c.log_q2));
        Self::wire_len(self.chunks.len(), limbs, ring, log_q2)
    }

    /// Serializes to the wire format (`encode().len() == byte_len()`).
    pub fn encode(&self) -> Vec<u8> {
        let mut w = WireWriter::with_capacity(self.byte_len() as usize);
        w.put_u32(self.rows as u32);
        w.put_u32(self.chunks.len() as u32);
        w.put_u32(self.chunks.first().map_or(0, Vec::len) as u32);
        for chunk in &self.chunks {
            for limb in chunk {
                limb.encode_into(&mut w);
            }
        }
        w.finish()
    }

    /// Parses from the wire format.
    ///
    /// # Errors
    ///
    /// Fails on truncation, an inconsistent layout, or trailing bytes.
    pub fn decode(bytes: &[u8]) -> Result<Self, WireError> {
        let mut r = WireReader::new(bytes);
        let rows = r.get_u32()? as usize;
        let chunk_count = r.get_u32()? as usize;
        let limb_count = r.get_u32()? as usize;
        if chunk_count > (1 << 16) || limb_count > 8 {
            return Err(WireError::Invalid("token layout out of range"));
        }
        // Each chunk covers at most one ring degree of hint rows, so a
        // declared row count beyond chunks · 2^16 cannot be honest;
        // rejecting it here bounds the decode-side allocation.
        if rows > chunk_count.saturating_mul(1 << 16) {
            return Err(WireError::Invalid("token row count exceeds chunk capacity"));
        }
        let mut chunks = Vec::with_capacity(chunk_count);
        let mut shape = None;
        for _ in 0..chunk_count {
            let mut per_limb = Vec::with_capacity(limb_count);
            for _ in 0..limb_count {
                let ct = SwitchedCiphertext::decode_from(&mut r)?;
                if *shape.get_or_insert((ct.a.len(), ct.log_q2)) != (ct.a.len(), ct.log_q2) {
                    return Err(WireError::Invalid("token ciphertexts differ in shape"));
                }
                per_limb.push(ct);
            }
            chunks.push(per_limb);
        }
        r.finish()?;
        Ok(Self { chunks, rows })
    }

    /// Number of hint rows covered.
    pub fn rows(&self) -> usize {
        self.rows
    }
}

/// A decoded, **single-use** token holding the `H·s` words.
#[derive(Debug, Clone)]
pub struct DecodedToken<W: Word> {
    hs: Option<Vec<W>>,
}

impl<W: Word> DecodedToken<W> {
    /// Consumes the token's key material.
    ///
    /// # Panics
    ///
    /// Panics if the token was already used (reuse would break the
    /// semantic security of the inner scheme, paper §6.3).
    pub fn take_hs(&mut self) -> Vec<W> {
        self.hs.take().expect("query token already used; tokens are single-use")
    }

    /// Whether this token is still usable.
    pub fn is_fresh(&self) -> bool {
        self.hs.is_some()
    }

    /// Number of `H·s` words (only valid while fresh).
    pub fn rows(&self) -> usize {
        self.hs.as_ref().map_or(0, |v| v.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;
    use tiptoe_lwe::scheme::preproc;
    use tiptoe_math::rng::seeded_rng;
    use tiptoe_rlwe::{max_noise, mul_plain_acc, noise_budget_bits};

    /// `Apply` of one ciphertext on the caller's thread.
    fn apply<W: Word>(db: &Mat<u32>, ct: &LweCiphertext<W>) -> Vec<W> {
        scheme::apply(db, &[&ct.c], 1).pop().expect("one answer per ciphertext")
    }

    fn test_underhood_64() -> Underhood {
        // Inner: q = 2^64, p = 2^17 (ranking-like), n = 64.
        // Outer: small ring with t = 2^24 ≥ 2·64·2^16.
        let lwe = LweParams::insecure_test(64, 1 << 17, 81920.0);
        let rlwe = RlweParams { degree: 64, q_bits: 58, t: 1 << 24, sigma: 3.2 };
        Underhood::with_outer(lwe, rlwe, 44)
    }

    fn test_underhood_32() -> Underhood {
        // Inner: q = 2^32, p = 991 (URL-like), n = 64.
        let lwe = LweParams::insecure_test(32, 991, 6.4);
        let rlwe = RlweParams { degree: 64, q_bits: 58, t: 1 << 24, sigma: 3.2 };
        Underhood::with_outer(lwe, rlwe, 44)
    }

    /// Every `z_i` of an expansion as a ciphertext of the polynomial
    /// API.
    fn ciphertexts(uh: &Underhood, es: &ExpandedSecret) -> Vec<RlweCiphertext> {
        let poly = |p: &[u64]| Poly::from_ntt_data(Arc::clone(uh.outer().table()), p.to_vec());
        let (a, b) = (es.a_ntt.chunks_exact(es.ring), es.b_ntt.chunks_exact(es.ring));
        a.zip(b).map(|(a, b)| RlweCiphertext { a: poly(a), b: poly(b) }).collect()
    }

    fn random_db(rng: &mut impl Rng, rows: usize, cols: usize, p: u64) -> Mat<u32> {
        Mat::from_fn(rows, cols, |_, _| rng.gen_range(0..p) as u32)
    }

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

    /// Full protocol roundtrip against the plain-hint reference.
    fn roundtrip<W: Word>(uh: &Underhood, rows: usize, cols: usize, seed: u64, selection: bool) {
        let mut rng = seeded_rng(seed);
        let p = uh.lwe().p;
        let db = random_db(&mut rng, rows, cols, p.min(16));
        let a = MatrixA::new(77, cols, uh.lwe().n);
        let key = ClientKey::generate(uh, uh.lwe().n, &mut rng);

        // Offline: encrypted secret -> token, and the query pad under
        // the same key.
        let es = EncryptedSecret::encrypt(uh, &key, &mut rng);
        let pad = uh.encrypt_offline::<W, _>(&key, &a, &mut rng);
        let hint = preproc::<W>(&db, &a.row_range(0, cols), 1);
        let sh = uh.preprocess_hint(&hint);
        let token = uh.generate_token(&sh, &es);
        let mut decoded = uh.decode_token::<W>(&key, &token);

        // Online: the query sealed into the pad -> apply -> decrypt
        // with token.
        let (v, ct) = if selection {
            let mut v = vec![0u64; cols];
            v[cols / 3] = 1;
            (v, pad.seal_unit(cols / 3))
        } else {
            let v: Vec<u64> = (0..cols).map(|_| rng.gen_range(0..p)).collect();
            let ct = pad.seal(&v);
            (v, ct)
        };
        let applied = apply(&db, &ct);
        let got = uh.decrypt(&mut decoded, &applied);
        assert_eq!(got, matvec_mod_p(&db, &v, p));
    }

    #[test]
    fn roundtrip_ranking_like_q64() {
        roundtrip::<u64>(&test_underhood_64(), 10, 48, 1, false);
    }

    #[test]
    fn roundtrip_url_like_q32() {
        roundtrip::<u32>(&test_underhood_32(), 10, 48, 2, true);
    }

    #[test]
    fn roundtrip_multiple_chunks() {
        // More hint rows than the ring degree forces multi-chunk tokens.
        roundtrip::<u64>(&test_underhood_64(), 150, 32, 3, false);
    }

    /// A hint of `rows` rows (64 to a chunk) and `clients` expansions
    /// under independent keys.
    fn hint_and_expansions(
        uh: &Underhood,
        rows: usize,
        clients: usize,
        seed: u64,
    ) -> (ServerHint, Vec<ExpandedSecret>) {
        let mut rng = seeded_rng(seed);
        let db = random_db(&mut rng, rows, 32, 8);
        let a = MatrixA::new(21, 32, uh.lwe().n);
        let sh = uh.preprocess_hint(&preproc::<u64>(&db, &a.row_range(0, 32), 1));
        let expansions = (0..clients)
            .map(|_| {
                let key = ClientKey::generate(uh, uh.lwe().n, &mut rng);
                EncryptedSecret::encrypt(uh, &key, &mut rng).expand(uh)
            })
            .collect();
        (sh, expansions)
    }

    /// Thread counts whose spans do not all divide the 64-coefficient
    /// ring evenly (3 → 22, 22, 20; 5 → 13 × 4, 12), and auto.
    const THREAD_COUNTS: [usize; 5] = [1, 2, 3, 5, 0];

    #[test]
    fn parallel_token_generation_is_bit_identical() {
        let uh = test_underhood_64();
        for rows in [10, 150] {
            let (sh, expansions) = hint_and_expansions(&uh, rows, 1, 9);
            assert_eq!(sh.chunks(), rows.div_ceil(64));
            let one = &[&expansions[0]];
            let sequential = uh.generate_token_expanded_many(&sh, one, 1)[0].encode();
            assert_eq!(uh.generate_token_expanded(&sh, &expansions[0]).encode(), sequential);
            for threads in THREAD_COUNTS {
                let par = uh.generate_token_expanded_many(&sh, &[&expansions[0]], threads);
                assert_eq!(par.len(), 1);
                assert_eq!(par[0].encode(), sequential, "rows={rows} threads={threads}");
            }
        }
    }

    #[test]
    fn batched_token_generation_is_bit_identical_per_client() {
        // Clients with independent keys against one hint: every
        // batched token must equal that client's solo token
        // byte-for-byte, at any batch size and thread count (threads
        // split the coefficients, the batch shares each sweep).
        let uh = test_underhood_64();
        // 2,880 rows are 90 units: four clients' accumulators pass the
        // budget and the hint takes two sweeps where a solo takes one.
        let wide = std::mem::size_of::<Wide>();
        assert!((3 * 90 * 2 * 64 * wide..4 * 90 * 2 * 64 * wide).contains(&WIDE_ACC_BUDGET));
        for rows in [10, 150, 2880] {
            let (sh, expansions) = hint_and_expansions(&uh, rows, 4, 31);
            let solo: Vec<Vec<u8>> =
                expansions.iter().map(|es| uh.generate_token_expanded(&sh, es).encode()).collect();
            for b in [1, 3, 4] {
                let refs: Vec<&ExpandedSecret> = expansions[..b].iter().collect();
                for threads in THREAD_COUNTS {
                    let batched = uh.generate_token_expanded_many(&sh, &refs, threads);
                    assert_eq!(batched.len(), b);
                    for (bi, token) in batched.iter().enumerate() {
                        let case = format!("rows={rows} B={b} client {bi} threads={threads}");
                        assert_eq!(token.encode(), solo[bi], "{case}");
                    }
                }
            }
            assert!(uh.generate_token_expanded_many(&sh, &[], 1).is_empty());
        }
    }

    /// FNV-1a, 64-bit.
    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ b as u64).wrapping_mul(0x100_0000_01b3))
    }

    /// Leaves the spares holding `len`-word runs of `u64::MAX`, a word
    /// no upload, expansion or token can contain (each is `< Q`).
    fn stale_spares(len: usize) {
        (0..MAX_SPARES).for_each(|_| drop(Words(vec![u64::MAX; len])));
    }

    /// `H = M·A` by the definition: `A` read word by word from
    /// `seeded_rng(seed)`, each row its `n` words and the `stride − n`
    /// after them skipped, every entry a left fold over `k`.
    fn naive_hint<W: Word>(db: &Mat<u32>, a: &MatrixA) -> Mat<W> {
        let mut rng = seeded_rng(a.seed());
        let rows: Vec<Vec<W>> = (0..a.rows())
            .map(|_| {
                let row = (0..a.cols()).map(|_| W::from_u64(rng.gen::<u64>())).collect();
                (a.cols()..a.stride()).for_each(|_| {
                    rng.gen::<u64>();
                });
                row
            })
            .collect();
        Mat::from_fn(db.rows(), a.cols(), |i, j| {
            (0..a.rows()).fold(W::ZERO, |acc, k| {
                acc.wadd(W::from_u64(u64::from(db.get(i, k))).wmul(rows[k][j]))
            })
        })
    }

    /// The golden token's bytes; `stale` fills its upload and expansion
    /// from [`stale_spares`]. Its hint is checked against
    /// [`naive_hint`] first.
    fn golden_token<W: Word>(uh: &Underhood, rows: usize, stale: bool) -> Vec<u8> {
        if stale {
            stale_spares(uh.lwe().n * uh.outer().params().degree);
        }
        let mut rng = seeded_rng(2207);
        let db = random_db(&mut rng, rows, 32, 8);
        let a = MatrixA::new(29, 32, uh.lwe().n);
        let key = ClientKey::generate(uh, uh.lwe().n, &mut rng);
        let es = EncryptedSecret::encrypt(uh, &key, &mut rng);
        let hint = preproc::<W>(&db, &a.row_range(0, 32), 1);
        assert_eq!(hint, naive_hint(&db, &a), "the hint is M·A");
        uh.generate_token(&uh.preprocess_hint(&hint), &es).encode()
    }

    #[test]
    fn token_bytes_match_the_recorded_golden_hashes() {
        // Recorded from a hint built as `naive_hint` builds it, `A`
        // read word by word from its one stream: whatever the
        // server's arithmetic, every sum is the canonical
        // representative in [0, Q), so the bytes do not move. The
        // second pass starts from stale recycled buffers.
        for stale in [false, true] {
            let t64 = golden_token::<u64>(&test_underhood_64(), 150, stale);
            let t32 = golden_token::<u32>(&test_underhood_32(), 70, stale);
            assert_eq!((t64.len(), fnv1a(&t64)), (4302, 3242804189938488359), "64-bit words, 3 chunks");
            assert_eq!((t32.len(), fnv1a(&t32)), (2872, 18386000387506955683), "32-bit words, 2 chunks");
        }
    }

    /// An upload that fans out: 401 coordinates at the production
    /// ring are 1.6 M PRG words to encrypt (five threads' grain, spans
    /// of 81 and a tail of 77) and 0.8 M to expand (three threads').
    fn fan_out_underhood() -> Underhood {
        let lwe = LweParams { n: 401, ..LweParams::insecure_test(64, 1 << 17, 81920.0) };
        Underhood::with_outer(lwe, RlweParams::production(), 44)
    }

    fn golden_upload(uh: &Underhood, seed: u64, stale: bool) -> Vec<u8> {
        if stale {
            stale_spares(uh.lwe().n * uh.outer().params().degree);
        }
        let mut rng = seeded_rng(seed);
        let key = ClientKey::generate(uh, uh.lwe().n, &mut rng);
        EncryptedSecret::encrypt(uh, &key, &mut rng).encode()
    }

    #[test]
    fn upload_bytes_match_the_recorded_golden_hashes() {
        // Recorded on the one-`Vec`-a-ciphertext, one-thread upload
        // (PR 22), whose generator the draws-first order reads alike.
        // The second pass writes into stale recycled buffers.
        for stale in [false, true] {
            let small = golden_upload(&test_underhood_64(), 2301, stale);
            let wide = golden_upload(&fan_out_underhood(), 2302, stale);
            assert_eq!((small.len(), fnv1a(&small)), (33540, 10093058593094627701), "n = 64, N = 64");
            assert_eq!((wide.len(), fnv1a(&wide)), (6574800, 1952762845133890460), "n = 401, N = 2048");
        }
    }

    /// FNV-1a of an `Enc(q̃)` of `m` rows under `uh` and, after it, of
    /// the generator's next word: the ciphertext and where the query
    /// left the caller's stream.
    fn golden_query<W: Word>(uh: &Underhood, m: usize, seed: u64) -> (usize, u64) {
        let mut rng = seeded_rng(seed);
        let key = ClientKey::generate(uh, uh.lwe().n, &mut rng);
        let a = MatrixA::new(seed ^ 0x5eed, m, uh.lwe().n);
        let v: Vec<u64> = (0..m).map(|_| rng.gen_range(0..uh.lwe().p)).collect();
        let mut bytes = uh.encrypt_query::<W, _>(&key, &a, &v, &mut rng).encode();
        let len = bytes.len();
        bytes.extend_from_slice(&rng.gen::<u64>().to_le_bytes());
        (len, fnv1a(&bytes))
    }

    #[test]
    fn query_bytes_match_the_recorded_golden_hashes() {
        // Recorded from the definition, one thread, word by word: `A`
        // read from `seeded_rng(seed)`, each row its `n` words and the
        // `stride − n` after them skipped; the noise eight `next_u32`s
        // of the caller's generator as a key, then `gaussian_i64` in
        // row order from `StdRng::from_seed` of the key's bytes; at the
        // wide deployment's ranking and URL shapes and the production
        // ranking shape.
        let rank = golden_query::<u64>(&test_underhood_64(), 41_664, 3401);
        let url = golden_query::<u32>(&test_underhood_32(), 5_534, 3402);
        let prod = Underhood::with_outer(LweParams::ranking_text(), RlweParams::production(), 44);
        let prod = golden_query::<u64>(&prod, 17_088, 3403);
        assert_eq!(rank, (333_317, 16643388026629293540), "41664 x 64, u64");
        assert_eq!(url, (22_141, 9098581663037652367), "5534 x 64, u32");
        assert_eq!(prod, (136_709, 8589050217321397997), "17088 x 2048, u64");
    }

    #[test]
    fn recycled_buffers_hold_what_fresh_ones_do() {
        // A decode and its expansion over stale spares give the
        // original upload's bytes and `â`.
        let uh = test_underhood_64();
        let key = ClientKey::generate(&uh, uh.lwe().n, &mut seeded_rng(91));
        let es = EncryptedSecret::encrypt(&uh, &key, &mut seeded_rng(92));
        let (bytes, want_a) = (es.encode(), es.expand(&uh).a_ntt.to_vec());
        stale_spares(es.b_ntt.len());
        let decoded = EncryptedSecret::decode(&bytes, &uh).expect("an upload decodes");
        let expanded = decoded.expand(&uh);
        assert_eq!(decoded.encode(), bytes);
        assert_eq!((&expanded.a_ntt[..], &expanded.b_ntt[..]), (&want_a[..], &es.b_ntt[..]));

        // A buffer written at one thread count and reused at another.
        let uh = fan_out_underhood();
        let key = ClientKey::generate(&uh, uh.lwe().n, &mut seeded_rng(93));
        let upload = |threads| {
            EncryptedSecret::encrypt_with_threads(&uh, &key, &mut seeded_rng(94), threads)
        };
        for (first, then) in [(3, 1), (1, 3)] {
            let written = upload(first);
            let (bytes, a) =
                (written.encode(), written.expand_with_threads(&uh, first).a_ntt.to_vec());
            drop(written);
            let reused = upload(then);
            assert_eq!(reused.encode(), bytes, "written at {first} threads, reused at {then}");
            let a_then = reused.expand_with_threads(&uh, then).a_ntt;
            assert_eq!(a_then[..], a[..], "written at {first} threads, reused at {then}");
        }
    }

    #[test]
    fn upload_and_expansion_are_bit_identical_at_any_thread_count() {
        // Under the grain (every count runs inline) and above it, with
        // spans that do not divide the coordinates evenly.
        for (uh, inline) in [(test_underhood_64(), true), (fan_out_underhood(), false)] {
            let n = uh.lwe().n;
            let key = ClientKey::generate(&uh, n, &mut seeded_rng(71));
            let upload = |threads| {
                let mut rng = seeded_rng(72);
                let call = || EncryptedSecret::encrypt_with_threads(&uh, &key, &mut rng, threads);
                let (es, spans) = tiptoe_math::par::observe_spans(call);
                (es, spans, rng.gen::<u64>())
            };
            let (want, _, rng_after) = upload(1);
            let want_a = want.expand_with_threads(&uh, 1).a_ntt;
            for threads in THREAD_COUNTS {
                let (es, spans, after) = upload(threads);
                assert_eq!(es.encode(), want.encode(), "n={n} threads={threads}");
                assert_eq!(after, rng_after, "n={n} threads={threads}: generator position");
                match (inline, threads) {
                    (true, _) | (false, 1) => assert_eq!(spans.len(), 1, "n={n} threads={threads}"),
                    (false, 0) => {} // one a core of this host
                    (false, _) => assert_eq!(spans.len(), threads, "n={n}"),
                }
                let expanded = es.expand_with_threads(&uh, threads);
                assert_eq!(expanded.a_ntt, want_a, "n={n} threads={threads}");
                assert!(Arc::ptr_eq(&expanded.b_ntt, &es.b_ntt), "b̂ is shared, not copied");
            }
        }
    }

    #[test]
    fn upload_partition_and_randomness_do_not_see_the_secret() {
        // Two composite keys, one generator state: the same words are
        // taken from the generator and the same spans go to the same
        // threads (they follow n and N), and the seeds, which travel
        // in the clear, are the same; only the `b̂` differ.
        let uh = fan_out_underhood();
        let keys = [81, 82].map(|s| ClientKey::generate(&uh, uh.lwe().n, &mut seeded_rng(s)));
        assert_ne!(keys[0].ternary, keys[1].ternary);
        let observed = keys.each_ref().map(|key| {
            let mut rng = seeded_rng(83);
            let call = || EncryptedSecret::encrypt_with_threads(&uh, key, &mut rng, 3);
            let (es, upload_spans) = tiptoe_math::par::observe_spans(call);
            let (_, expand_spans) =
                tiptoe_math::par::observe_spans(|| es.expand_with_threads(&uh, 3));
            (es, upload_spans, expand_spans, rng.gen::<u64>())
        });
        let [(es0, upload0, expand0, after0), (es1, upload1, expand1, after1)] = observed;
        let ring = 2048;
        assert_eq!(upload0, [(0, 134 * ring), (134 * ring, 134 * ring), (268 * ring, 133 * ring)]);
        assert_eq!(expand0, upload0, "401 seeds over three threads as well");
        assert_eq!((upload0, expand0, after0), (upload1, expand1, after1));
        assert_eq!(es0.seeds, es1.seeds);
        assert_ne!(es0.b_ntt, es1.b_ntt);
    }

    #[test]
    fn token_reuse_is_rejected() {
        let uh = test_underhood_64();
        let mut rng = seeded_rng(4);
        let db = random_db(&mut rng, 4, 16, 8);
        let a = MatrixA::new(5, 16, uh.lwe().n);
        let key = ClientKey::generate(&uh, uh.lwe().n, &mut rng);
        let es = EncryptedSecret::encrypt(&uh, &key, &mut rng);
        let hint = preproc::<u64>(&db, &a.row_range(0, 16), 1);
        let sh = uh.preprocess_hint(&hint);
        let token = uh.generate_token(&sh, &es);
        let mut decoded = uh.decode_token::<u64>(&key, &token);
        assert!(decoded.is_fresh());
        let _ = decoded.take_hs();
        assert!(!decoded.is_fresh());
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = decoded.take_hs();
        }));
        assert!(result.is_err(), "second use must panic");
    }

    #[test]
    fn decoded_hs_matches_true_hint_product_up_to_budget() {
        let uh = test_underhood_64();
        let mut rng = seeded_rng(5);
        let cols = 32;
        let db = random_db(&mut rng, 8, cols, 16);
        let a = MatrixA::new(6, cols, uh.lwe().n);
        let key = ClientKey::generate(&uh, uh.lwe().n, &mut rng);
        let es = EncryptedSecret::encrypt(&uh, &key, &mut rng);
        let hint = preproc::<u64>(&db, &a.row_range(0, cols), 1);
        let sh = uh.preprocess_hint(&hint);
        let token = uh.generate_token(&sh, &es);
        let mut decoded = uh.decode_token::<u64>(&key, &token);
        let approx = decoded.take_hs();
        let exact = scheme::hint_times_secret(&hint, &key.lwe_key::<u64>(uh.lwe()));
        let budget = (uh.lwe().n as u64) << uh.dropped_bits();
        for (got, want) in approx.iter().zip(exact.iter()) {
            let err = want.wrapping_sub(*got);
            let err = (err as i64).unsigned_abs();
            assert!(err <= budget, "hint error {err} exceeds budget {budget}");
        }
    }

    /// Bits of outer noise budget left in the noisiest `(chunk, limb)`
    /// accumulation `Σ_hint Σ_i limb_j(hint)_i · z_i`, before the
    /// modulus switch. One hint is the token the server evaluates;
    /// several are the ciphertext sum of their separate tokens.
    fn min_outer_budget(
        uh: &Underhood,
        key: &ClientKey,
        es: &ExpandedSecret,
        hints: &[&Mat<u64>],
    ) -> f64 {
        let outer = uh.outer();
        let ring = outer.params().degree;
        let rows = hints[0].rows();
        let mut min = f64::INFINITY;
        let z = ciphertexts(uh, es);
        for chunk in 0..rows.div_ceil(ring) {
            for j in 0..uh.limb_count() {
                let mut acc = RlweCiphertext::zero(outer);
                let mut want = vec![0i64; ring];
                for hint in hints {
                    for (i, z) in z.iter().enumerate().take(hint.cols()) {
                        let limbs: Vec<u64> = (chunk * ring..(chunk + 1) * ring)
                            .map(|row| if row < rows { uh.limb(hint.get(row, i), j) } else { 0 })
                            .collect();
                        mul_plain_acc(&mut acc, &outer.plaintext_ntt(&limbs), z);
                        for (w, &l) in want.iter_mut().zip(&limbs) {
                            *w += key.ternary[i] * l as i64;
                        }
                    }
                }
                min = min.min(noise_budget_bits(outer, &key.rlwe_sk, &acc, &want));
            }
        }
        min
    }

    #[test]
    fn summed_hint_token_matches_plaintext_and_budget() {
        // Vertical sharding (§4.3): H = Σ_w H_w. One token over the
        // summed hint must decrypt exactly like the plaintext product,
        // stay within the dropped-bit budget of the true H·s, and leave
        // no less outer noise budget than the sum of the W shard
        // tokens.
        let uh = test_underhood_64();
        let (p, n) = (uh.lwe().p, uh.lwe().n);
        let cols = 48;
        let cases = [1usize, 2, 4].into_iter().flat_map(|w| [(w, 10usize), (w, 150)]);
        for (case, (shards, rows)) in cases.enumerate() {
            let mut rng = seeded_rng(60 + case as u64);
            let db = random_db(&mut rng, rows, cols, 16);
            let a = MatrixA::new(7, cols, n);
            let key = ClientKey::generate(&uh, n, &mut rng);
            let expanded = EncryptedSecret::encrypt(&uh, &key, &mut rng).expand(&uh);

            let width = cols / shards;
            let shard_hints: Vec<Mat<u64>> = (0..shards)
                .map(|w| {
                    let lo = w * width;
                    preproc::<u64>(&db.column_slice(lo, lo + width), &a.row_range(lo, width), 1)
                })
                .collect();
            let mut full = Mat::<u64>::zeros(rows, n);
            for hint in &shard_hints {
                for (t, &h) in full.data_mut().iter_mut().zip(hint.data()) {
                    *t = t.wrapping_add(h);
                }
            }
            assert_eq!(full.data(), preproc::<u64>(&db, &a.row_range(0, cols), 1).data());

            let token = uh.generate_token_expanded(&uh.preprocess_hint(&full), &expanded);
            let mut summed = uh.decode_token::<u64>(&key, &token);
            let exact = scheme::hint_times_secret(&full, &key.lwe_key::<u64>(uh.lwe()));
            let budget = (n as u64) << uh.dropped_bits();
            for (got, want) in summed.hs.as_ref().expect("fresh").iter().zip(&exact) {
                let err = (want.wrapping_sub(*got) as i64).unsigned_abs();
                assert!(err <= budget, "W={shards} rows={rows}: hint error {err} > {budget}");
            }

            let v: Vec<u64> = (0..cols).map(|_| rng.gen_range(0..p)).collect();
            let ct = uh.encrypt_query::<u64, _>(&key, &a, &v, &mut rng);
            let applied = apply(&db, &ct);
            let want = matvec_mod_p(&db, &v, p);
            assert_eq!(uh.decrypt(&mut summed, &applied), want, "W={shards} rows={rows}");

            let one = min_outer_budget(&uh, &key, &expanded, &[&full]);
            let per_shard: Vec<&Mat<u64>> = shard_hints.iter().collect();
            let combined = min_outer_budget(&uh, &key, &expanded, &per_shard);
            assert!(one > 0.0 && one >= combined, "W={shards} rows={rows}: {one} < {combined}");
        }
    }

    #[test]
    fn hostile_token_row_counts_are_rejected() {
        // A declared row count far beyond the shipped chunks must fail
        // decode instead of reserving gigabytes in decode_token.
        let uh = test_underhood_64();
        let mut rng = seeded_rng(17);
        let db = random_db(&mut rng, 8, 16, 8);
        let a = MatrixA::new(5, 16, uh.lwe().n);
        let key = ClientKey::generate(&uh, uh.lwe().n, &mut rng);
        let es = EncryptedSecret::encrypt(&uh, &key, &mut rng);
        let hint = preproc::<u64>(&db, &a.row_range(0, 16), 1);
        let token = uh.generate_token(&uh.preprocess_hint(&hint), &es);
        let mut bytes = token.encode();
        bytes[..4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(QueryToken::decode(&bytes), Err(WireError::Invalid(_))));
        // The original still roundtrips.
        let back = QueryToken::decode(&token.encode()).expect("valid token decodes");
        assert_eq!(back.rows(), token.rows());
    }

    #[test]
    fn server_hint_byte_len_is_eight_bytes_a_coefficient() {
        let uh = test_underhood_64();
        let (ring, n) = (uh.outer().params().degree, uh.lwe().n);
        for rows in [10usize, 150] {
            let sh = uh.preprocess_hint(&Mat::<u64>::zeros(rows, n));
            assert_eq!(sh.chunks(), rows.div_ceil(ring));
            let polys = sh.chunks() * uh.limb_count() as usize * n;
            assert_eq!(sh.byte_len(), (polys * ring * 8) as u64, "rows={rows}");
        }
    }

    #[test]
    fn layout_matches_parameters() {
        let uh64 = test_underhood_64();
        // q = 2^64, p = 2^17 -> Δ = 2^47; n = 64 -> κ = 47-4-6 = 37;
        // kept 27 bits -> 2 limbs.
        assert_eq!(uh64.dropped_bits(), 37);
        assert_eq!(uh64.limb_count(), 2);
        assert!(uh64.supports_upload_dim(1 << 10));

        let uh32 = test_underhood_32();
        // q = 2^32, p = 991 -> Δ ≈ 2^21.7; κ ≈ 21.7-3-6 ≈ 12.
        assert!(uh32.dropped_bits() >= 10 && uh32.dropped_bits() <= 13);
        assert_eq!(uh32.limb_count(), 2);
    }

    #[test]
    fn production_parameters_have_positive_budget() {
        let uh = Underhood::new(LweParams::ranking_text());
        // Ranking: Δ = 2^47, n = 2048 -> κ = 47-4-11 = 32, kept 32 bits
        // -> 2 limbs; still supports the paper's 2^21 upload dimension.
        assert_eq!(uh.dropped_bits(), 32);
        assert_eq!(uh.limb_count(), 2);
        assert!(uh.supports_upload_dim(1 << 21));
    }

    #[test]
    fn production_noise_margin_is_healthy() {
        // Production parameters, many trials, realistic upload width:
        // the measured decryption noise must stay well under Δ/2, and
        // no trial may decrypt incorrectly.
        let uh = Underhood::new(LweParams::ranking_text());
        let mut rng = seeded_rng(42);
        let p = uh.lwe().p;
        let cols = 384; // 2 clusters x d=192 at production dimensions.
        let db = random_db(&mut rng, 4, cols, 16);
        let a = MatrixA::new(77, cols, uh.lwe().n);
        let key = ClientKey::generate(&uh, uh.lwe().n, &mut rng);
        let es = EncryptedSecret::encrypt(&uh, &key, &mut rng);
        let hint = preproc::<u64>(&db, &a.row_range(0, cols), 1);
        let sh = uh.preprocess_hint(&hint);
        for trial in 0..3 {
            let token = uh.generate_token(&sh, &es);
            let mut decoded = uh.decode_token::<u64>(&key, &token);
            let v: Vec<u64> = (0..cols).map(|_| rng.gen_range(0..p)).collect();
            let ct = uh.encrypt_query::<u64, _>(&key, &a, &v, &mut rng);
            let applied = apply(&db, &ct);
            let got = uh.decrypt(&mut decoded, &applied);
            assert_eq!(got, matvec_mod_p(&db, &v, p), "trial {trial} decrypted wrong");
        }
        // The analytic budget agrees: margins at this width are ample.
        assert!(uh.total_noise_bound(cols) < uh.lwe().delta() as f64 / 8.0);

        // The outer scheme's half, over all n ciphertexts. Fresh errors
        // are bounded by the sampler's table, deterministically; and
        // `hint·s` at its deepest (one (chunk, limb) unit over a full
        // chunk, N rows of 16-bit limbs against every coordinate)
        // leaves budget to spare.
        let outer = uh.outer();
        let ring = outer.params().degree;
        let expanded = es.expand(&uh);
        let mut message = vec![0i64; ring];
        let mut acc = RlweCiphertext::zero(outer);
        let mut want = vec![0i64; ring];
        for (z, &s_i) in ciphertexts(&uh, &expanded).iter().zip(&key.ternary) {
            message[0] = s_i;
            let fresh = max_noise(outer, &key.rlwe_sk, z, &message);
            assert!(fresh <= outer.noise_bound(), "fresh |e| = {fresh} past the table");
            let limbs: Vec<u64> = (0..ring).map(|_| rng.gen_range(0..1u64 << 16)).collect();
            mul_plain_acc(&mut acc, &outer.plaintext_ntt(&limbs), z);
            for (w, &l) in want.iter_mut().zip(&limbs) {
                *w += s_i * l as i64;
            }
        }
        let budget = noise_budget_bits(outer, &key.rlwe_sk, &acc, &want);
        assert!(
            budget > 0.0,
            "{budget:.2} bits of outer budget left after hint·s (n = {}, N = {ring}, fresh |e| <= {})",
            expanded.len(),
            outer.noise_bound()
        );
    }

    #[test]
    fn token_is_smaller_than_unswitched_hint_download() {
        let uh = test_underhood_64();
        let mut rng = seeded_rng(8);
        let cols = 16;
        let db = random_db(&mut rng, 70, cols, 8);
        let a = MatrixA::new(9, cols, uh.lwe().n);
        let key = ClientKey::generate(&uh, uh.lwe().n, &mut rng);
        let es = EncryptedSecret::encrypt(&uh, &key, &mut rng);
        let hint = preproc::<u64>(&db, &a.row_range(0, cols), 1);
        let token = uh.generate_token(&uh.preprocess_hint(&hint), &es);
        // The raw hint would be rows×n 8-byte words.
        let raw_hint_bytes = (hint.rows() * hint.cols() * 8) as u64;
        assert!(token.byte_len() < raw_hint_bytes, "token should beat shipping the hint");
    }
}
