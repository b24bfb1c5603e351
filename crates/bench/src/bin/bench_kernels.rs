//! Machine-readable kernel benchmark for the perf trajectory: times
//! the LHE hot-path kernels against pinned-scalar baselines (`scan`
//! online at B = 1, B = 4 and a thread sweep — the `matvec*` rows —
//! `preproc` offline, and the
//! client's `expand_row`/`lwe_encrypt`), then the token path's
//! single-body kernels, and writes `BENCH_kernels.json` at the
//! repository root.
//!
//! The token rows (`ntt_forward`, `ntt_inverse`, `noise_sample`,
//! `rlwe_encrypt_scalar`, `rlwe_expand`, `hint_mac`) run at the
//! production outer ring (N = 2048, 62-bit Q) over one token's worth
//! of work: 2,048 ciphertexts, and for `hint_mac` one `(chunk, limb)`
//! unit of token generation (`mul_acc_wide` over 2,048 hint
//! polynomials against both components of the expanded secret, then
//! `reduce_wide` of the 4,096 totals; a token is one such unit per
//! chunk and limb of a service's hint). `noise_sample` is the errors
//! of those ciphertexts alone (keystream plus table pass, 2^22
//! samples, so seconds × 238 is ns per sample), one row per supported
//! tier with σ and the table length in the shape. The other kernels
//! have one scalar body and no tier to compare against, so their
//! `speedup_vs_scalar` is 1 by construction and only their time is of
//! interest. `rlwe_encrypt_scalar` and `rlwe_expand` are timed twice:
//! `scalar` is 2,048 standalone ciphertexts through the
//! one-ciphertext API, `parallel_t*` the same 2,048 as
//! `EncryptedSecret::{encrypt, expand}` run them, one flat buffer
//! filled on `t` threads (`lwe_encrypt` has the same sweep). These
//! kernels take no thread count, so the sweep pins them through
//! `TIPTOE_THREADS`. Each rep is one call of the public function, and
//! a call takes the buffer the rep before it dropped, as a fetch takes
//! the last fetch's: with the minimum over reps, these rows time the
//! steady state, not the page faults of a first fill. `token_gen` is
//! then the whole pass,
//! `Underhood::generate_token_expanded_many` over one hint at the
//! deployed ring parameters (every unit under one sweep of the secret
//! plus the modulus switches) for B = 1 and B = 4 uploads on one
//! thread, at the ranking shape (n = 2,048, one chunk × two limbs) and
//! the URL shape (n = 1,408, two chunks × two limbs): what each token
//! costs the server, and what a token-lane flush of four costs per
//! token.
//!
//! The client rows run at the two shipped upload shapes (m×n of the
//! seeded public matrix `A`): 17088×2048, the deployed text preset,
//! where a row is 32 8-block keystream batches (16 of the AVX-512
//! tier's 16-block ones), and 41664×64, where a row is one 8-block
//! batch and the encryptor expands 16 rows of the one stream to a
//! keystream call (`MatrixA::tile_rows`). `expand_row` times those
//! calls, one row per keystream tier the host supports, so the
//! artifact shows each tier beating the one below it. `lwe_encrypt`
//! runs at both and at 5534x64, the wide deployment's URL query (`u32`
//! words), whose thread sweep shows the row-cost grain fanning it out.
//! `lwe_seal`, beside it at each shape, times what is left of that
//! work once the query is known: `QueryPad::seal` of a pad computed
//! ahead of time with the token (one body, one pass adding `Δ·v`).
//!
//! `matvec` runs over the ranking layout, `i8` entries in `[−8, 8]`
//! against `u64` queries, at three shapes because they answer
//! different questions: the cache-resident **hot** shape (256×1024,
//! 256 KiB) isolates the kernel itself — this is where SIMD dispatch
//! shows its real arithmetic speedup — while the **streaming** shape
//! (2^15×1024, 32 MiB) reads the matrix from beyond the core's caches,
//! where the batched variant amortizes the matrix traffic across
//! queries. The hot row's scalar and dispatched reps alternate: the
//! scalar loop's time at that shape moves by up to 2× with the host's
//! state, and two mins taken one after the other gave a ratio that did
//! not reproduce. `matvec_shard` is a ranking shard of the end-to-end
//! benchmark's wide deployment (122×20,832): one query and a flush of
//! four, on one thread and two, the scan that `serve_solo` and
//! `serve_fleet` time; its `auto_*` rows ask for `0`, as every service
//! does, and run at the count `tiptoe_math::par::scan_threads` picks
//! for the shape (inline at B = 1, two threads at B = 4).
//!
//! ```text
//! cargo run --release -p tiptoe-bench --bin bench_kernels
//! ```
//!
//! Methodology: every variant runs one warmup plus ≥5 measured reps
//! and reports the **minimum** — on a shared/virtualized host the min
//! is the only estimator that converges on the true cost of the code
//! rather than the noise of the neighbourhood. `scalar` is the pinned
//! portable baseline (a local loop over `simd::dot_narrow_scalar` /
//! `simd::axpy_scalar`, never routed through dispatch); `dispatched`
//! is the production entry point (`scan`/`preproc` at one thread),
//! which routes through the runtime CPU-feature dispatch
//! (`TIPTOE_FORCE_SCALAR=1` pins it back to the scalar tier). The
//! same entry point is then swept over thread counts; `parallel_t1`
//! is the same call as `dispatched` (one thread runs inline) and is
//! the baseline to compare t≥2 against, not `scalar`.
//!
//! Knobs: `TIPTOE_THREADS` pins the sweep's top thread count
//! (default: one per core); `TIPTOE_BENCH_KERNEL_REPS` overrides the
//! per-variant repetition count (dev smoke runs only — the committed
//! artifact should use the default).

use std::fmt::Write as _;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tiptoe_lwe::matrix_a::MatrixARange;
use tiptoe_lwe::{scheme, LweParams, LweSecretKey, MatrixA, QueryPad};
use tiptoe_math::matrix::{scan, Mat};
use tiptoe_math::ntt::{mul_acc_wide, reduce_wide, Wide};
use tiptoe_math::par::max_threads;
use tiptoe_math::poly::Poly;
use tiptoe_math::rng::seeded_rng;
use tiptoe_math::sample::{gaussian_i64, noise_key, NoiseTable};
use tiptoe_math::simd::{self, KernelTier};
use tiptoe_math::zq::Word;
use tiptoe_rlwe::{RlweCiphertext, RlweContext, RlweParams, RlweSecretKey};
use tiptoe_underhood::{ClientKey, EncryptedSecret, ExpandedSecret, Underhood};

const MATVEC_ROWS: usize = 1 << 15;
const MATVEC_COLS: usize = 1 << 10;
/// Cache-resident kernel-isolation shape: 256×1024 i8 = 256 KiB, which
/// sits in L2 next to the 8 KiB query vector, so the measurement is
/// arithmetic, not DRAM.
const HOT_ROWS: usize = 1 << 8;
/// Inner repeats for the hot shape so each sample is milliseconds,
/// not microseconds (reported time is per single call).
const HOT_INNER: usize = 64;
const BATCH: usize = 4;
/// A ranking shard of the end-to-end benchmark's wide deployment
/// (`test_small` at 65,536 documents, two shards): rows × columns.
const SHARD_SHAPE: (usize, usize) = (122, 20_832);
const PREPROC_ROWS: usize = 1 << 15;
const PREPROC_COLS: usize = 64;
const PREPROC_N: usize = 256;
/// The two shipped upload shapes of the public matrix `A` (rows ×
/// secret dimension): `TiptoeConfig::text` and `test_small` as the
/// end-to-end benchmark deploys them.
const EXPAND_SHAPES: [(usize, usize); 2] = [(17_088, 2_048), (41_664, 64)];
/// Rows of `test_small`'s URL query at the end-to-end benchmark's
/// wide deployment (its `n` is 64 as well, its words `u32`).
const WIDE_URL_ROWS: usize = 5_534;

/// JSON note on every `parallel_t1` row.
const T1_NOTE: &str = "same call as the dispatched row: one thread runs inline on the caller's \
                       stack; compare t>=2 against this, not against scalar";

fn reps() -> usize {
    std::env::var("TIPTOE_BENCH_KERNEL_REPS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&r| r >= 1)
        .unwrap_or(5)
}

/// Min-of-`reps` seconds for one run of `f` (after one warmup). The
/// min, not the median: timing noise on a busy host is strictly
/// additive, so the smallest sample is the least contaminated one.
/// Each measured rep is an obs span, so `TIPTOE_TRACE=…` captures the
/// per-rep timeline (including the kernels' own `lwe.*` child spans).
/// Every measured rep is also recorded into the `bench.rep_us`
/// registry histogram; the run reports its rep count and mean from a
/// [`tiptoe_obs::metrics::MetricsSnapshot::delta`] over the measured
/// interval, so a warm registry (or a co-resident bench) cannot
/// contaminate the numbers.
fn time<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    std::hint::black_box(f());
    let hist = tiptoe_obs::metrics().histogram("bench.rep_us");
    (0..reps)
        .map(|_| {
            let (out, wall) = tiptoe_obs::timed_span("bench.rep", &mut f);
            std::hint::black_box(out);
            hist.record(wall.as_micros() as u64);
            wall.as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

/// [`time`] of two bodies whose ratio is a row, one warmed rep of each
/// in turn so that both see the same host state.
fn time_pair(reps: usize, mut f: impl FnMut(), mut g: impl FnMut()) -> (f64, f64) {
    (0..reps).fold((f64::INFINITY, f64::INFINITY), |(a, b), _| {
        (a.min(time(1, &mut f)), b.min(time(1, &mut g)))
    })
}

/// [`time`] for a `threads`-thread variant, or `None` when the host
/// has fewer cores: such a run measures scheduling, not scaling, and
/// the row is recorded as skipped.
fn time_threads<T>(threads: usize, cores: usize, reps: usize, f: impl FnMut() -> T) -> Option<f64> {
    (threads <= cores).then(|| time(reps, f))
}

struct Entry {
    kernel: &'static str,
    variant: String,
    shape: String,
    /// `None`: the host cannot measure this row (a thread count above
    /// its cores); it is recorded as `"skipped": "cores"`.
    seconds: Option<f64>,
    /// Per-query speedup over the scalar variant of the same kernel.
    speedup: f64,
    /// Set on entries that are not an apples-to-apples speedup claim
    /// (e.g. `parallel_t1`, the thread sweep's own baseline).
    note: Option<&'static str>,
}

/// Runs `f` with `TIPTOE_THREADS` set to `threads`. The client kernels
/// take no thread count (they ask for one per core), so the
/// environment cap is the one way to pin them; nothing else runs in
/// this process while it is changed.
fn pinned<T>(threads: usize, f: impl FnOnce() -> T) -> T {
    let before = std::env::var("TIPTOE_THREADS").ok();
    std::env::set_var("TIPTOE_THREADS", threads.to_string());
    let out = f();
    match before {
        Some(v) => std::env::set_var("TIPTOE_THREADS", v),
        None => std::env::remove_var("TIPTOE_THREADS"),
    }
    out
}

/// Thread counts for the parallel sweep: always 1 (the sweep's
/// baseline) and 2 (the smallest real parallelism), then the detected
/// core count when it adds a new point.
fn thread_sweep(top: usize) -> Vec<usize> {
    let mut ts = vec![1, 2];
    if top > 2 {
        ts.push(top);
    }
    ts
}

/// Pinned-scalar `M·v`: the portable four-way-unrolled dot per row,
/// never the SIMD tiers — the baseline of the `matvec*` rows.
fn matvec_scalar(db: &Mat<i8>, v: &[u64]) -> Vec<u64> {
    (0..db.rows()).map(|i| simd::dot_narrow_scalar([db.row(i)], v)[0]).collect()
}

/// Pinned-scalar `H = M·A`: `scheme::preproc`'s loop on the portable
/// axpy — the baseline of the `preproc` rows.
fn preproc_scalar(db: &Mat<u32>, a: &MatrixARange) -> Mat<u64> {
    let mut hint = Mat::zeros(db.rows(), a.cols());
    let mut a_row = vec![0u64; a.cols()];
    for k in 0..db.cols() {
        a.expand_row(k, &mut a_row);
        for i in 0..db.rows() {
            let m_ik = db.get(i, k);
            if m_ik != 0 {
                simd::axpy_scalar(hint.row_mut(i), m_ik as u64, &a_row);
            }
        }
    }
    hint
}

/// Rows of `a` from row `k` on, expanded at a pinned keystream tier:
/// the body of `MatrixA::{expand_row, expand_rows}` with the tier named
/// instead of detected (`rows` is a row's `n` words or a tile's whole
/// strides).
fn expand_row_at<W: Word>(tier: KernelTier, a: &MatrixA, k: usize, rows: &mut [W]) {
    let block = (k * a.stride() / 8) as u64;
    simd::keystream(tier, &StdRng::key_from_u64(a.seed()), block, rows);
}

/// The rows of a kernel with one body per keystream tier, as
/// `(variant, seconds, scalar seconds)`: `scalar`, `tier_*` for each
/// tier below the host's, and `dispatched_*`, which is `at(None)`, the
/// production entry.
fn tier_rows(mut at: impl FnMut(Option<KernelTier>) -> f64) -> Vec<(String, f64, f64)> {
    let scalar = at(Some(KernelTier::Scalar));
    let mut rows = vec![("scalar".to_string(), scalar, scalar)];
    for below in [KernelTier::Avx2, KernelTier::Avx512] {
        if below < simd::tier() {
            rows.push((format!("tier_{}", below.name()), at(Some(below)), scalar));
        }
    }
    rows.push((format!("dispatched_{}", simd::tier_name()), at(None), scalar));
    rows
}

/// `scheme::encrypt` on the scalar tier end to end (one-block
/// keystream a row at a time, scalar `row·s`, the noise a
/// [`noise_key`] of `rng` and then `gaussian_i64` draws from the
/// generator seeded with its bytes): the baseline of the
/// `lwe_encrypt` rows.
fn encrypt_scalar<W: Word>(
    params: &LweParams,
    sk: &LweSecretKey<W>,
    a: &MatrixA,
    v: &[u64],
    rng: &mut StdRng,
) -> Vec<W> {
    let mut row = vec![W::ZERO; a.cols()];
    let delta = W::from_u64(params.delta());
    let key = noise_key(rng);
    let mut noise = StdRng::from_seed(std::array::from_fn(|i| key[i / 4].to_le_bytes()[i % 4]));
    v.iter()
        .enumerate()
        .map(|(k, &vk)| {
            expand_row_at(KernelTier::Scalar, a, k, &mut row);
            let e = W::from_i64(gaussian_i64(&mut noise, params.sigma));
            simd::dot_wide_scalar(&row, sk.words()).wadd(e).wadd(delta.wmul(W::from_u64(vk)))
        })
        .collect()
}

/// The `lwe_encrypt` rows of one upload shape, as `(variant, seconds,
/// scalar seconds, note)`: `scalar`, `dispatched_*` (the public
/// `scheme::encrypt` on one thread) and the thread sweep, after
/// checking that the scalar and dispatched ciphertexts are one.
fn lwe_encrypt_rows<W: Word>(
    params: &LweParams,
    m: usize,
    rng: &mut StdRng,
    (reps, cores, threads): (usize, usize, usize),
) -> Vec<(String, Option<f64>, f64, Option<&'static str>)> {
    let a = MatrixA::new(31, m, params.n);
    let sk = LweSecretKey::<W>::generate(params, rng);
    let q: Vec<u64> = (0..m).map(|_| rng.gen_range(0..params.p)).collect();
    assert_eq!(
        scheme::encrypt(params, &sk, &a, &q, &mut seeded_rng(33)).c,
        encrypt_scalar(params, &sk, &a, &q, &mut seeded_rng(33)),
        "dispatched ciphertext must equal the scalar-tier one"
    );
    let scalar = time(reps, || encrypt_scalar(params, &sk, &a, &q, &mut seeded_rng(33)));
    let encrypt = || scheme::encrypt(params, &sk, &a, &q, &mut seeded_rng(33));
    let dispatched = pinned(1, || time(reps, encrypt));
    let mut rows = vec![
        ("scalar".to_string(), Some(scalar), scalar, None),
        (format!("dispatched_{}", simd::tier_name()), Some(dispatched), scalar, None),
    ];
    for t in thread_sweep(threads) {
        let seconds = pinned(t, || time_threads(t, cores, reps, encrypt));
        rows.push((format!("parallel_t{t}"), seconds, scalar, (t == 1).then_some(T1_NOTE)));
    }
    rows
}

/// The `lwe_seal` row of one upload shape: [`QueryPad::seal`] alone,
/// each rep sealing a pad made before the clock started, after checking
/// that a sealed pad is the `scheme::encrypt` ciphertext.
fn lwe_seal_seconds<W: Word>(params: &LweParams, m: usize, reps: usize) -> f64 {
    let mut rng = seeded_rng(37);
    let a = MatrixA::new(31, m, params.n);
    let sk = LweSecretKey::<W>::generate(params, &mut rng);
    let q: Vec<u64> = (0..m).map(|_| rng.gen_range(0..params.p)).collect();
    let pad = || scheme::encrypt_offline(params, &sk, &a, &mut seeded_rng(33));
    assert_eq!(
        pad().seal(&q),
        scheme::encrypt(params, &sk, &a, &q, &mut seeded_rng(33)),
        "a sealed pad must be the ciphertext"
    );
    let mut pads: Vec<QueryPad<W>> = (0..=reps).map(|_| pad()).collect();
    time(reps, || pads.pop().expect("one pad a rep, warm-up included").seal(&q))
}

fn main() {
    tiptoe_obs::init_from_env();
    let run_start = tiptoe_obs::metrics().snapshot();
    let reps = reps();
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = max_threads();
    let tier = tiptoe_math::simd::tier_name();
    let mut entries: Vec<Entry> = Vec::new();

    let mut rng = seeded_rng(21);
    let v: Vec<u64> = (0..MATVEC_COLS).map(|_| rng.gen()).collect();
    let vs: Vec<Vec<u64>> = (0..BATCH)
        .map(|s| {
            let mut r = seeded_rng(100 + s as u64);
            (0..MATVEC_COLS).map(|_| r.gen()).collect()
        })
        .collect();
    let vs: Vec<&[u64]> = vs.iter().map(Vec::as_slice).collect();
    let mut push = |kernel, variant: String, shape: &str, seconds: Option<f64>, scalar: f64, note| {
        entries.push(Entry {
            kernel,
            variant,
            shape: shape.to_string(),
            seconds,
            speedup: seconds.map_or(0.0, |s| scalar / s),
            note,
        });
    };

    // --- Online kernel, cache-resident shape: what the SIMD tiers buy
    // when the measurement is arithmetic rather than DRAM. ---
    let hot = Mat::from_fn(HOT_ROWS, MATVEC_COLS, |_, _| rng.gen_range(-8..=8i8));
    let shape = format!("{HOT_ROWS}x{MATVEC_COLS}");
    let (scalar, dispatched) = time_pair(
        reps,
        || (0..HOT_INNER).for_each(|_| drop(std::hint::black_box(matvec_scalar(&hot, &v)))),
        || (0..HOT_INNER).for_each(|_| drop(std::hint::black_box(scan(&hot, &[&v], 1)))),
    );
    let (scalar, dispatched) = (scalar / HOT_INNER as f64, dispatched / HOT_INNER as f64);
    push("matvec", "scalar".into(), &shape, Some(scalar), scalar, None);
    push("matvec", format!("dispatched_{tier}"), &shape, Some(dispatched), scalar, None);

    // --- Online kernel, paper-scale streaming shape (128 MiB): every
    // single-query variant is memory-bound here; batched amortizes the
    // database stream over BATCH queries. ---
    let db = Mat::from_fn(MATVEC_ROWS, MATVEC_COLS, |_, _| rng.gen_range(-8..=8i8));
    let shape = format!("{MATVEC_ROWS}x{MATVEC_COLS}");
    const STREAM_NOTE: &str = "memory-bound at this shape: the matrix streams from beyond the \
                               core's caches; see the cache-resident matvec entries for the \
                               kernel's arithmetic speedup";
    let scalar = time(reps, || matvec_scalar(&db, &v));
    let dispatched = time(reps, || scan(&db, &[&v], 1));
    // Batched answers BATCH queries per pass; report per-query time.
    let batched = time(reps, || scan(&db, &vs, 1)) / BATCH as f64;
    push("matvec_stream", "scalar".into(), &shape, Some(scalar), scalar, None);
    push("matvec_stream", format!("dispatched_{tier}"), &shape, Some(dispatched), scalar, Some(STREAM_NOTE));
    push("matvec_stream", format!("batched_b{BATCH}_per_query"), &shape, Some(batched), scalar, None);
    for t in thread_sweep(threads) {
        let seconds = time_threads(t, cores, reps, || scan(&db, &[&v], t));
        let note = (t == 1).then_some(T1_NOTE);
        push("matvec_stream", format!("parallel_t{t}"), &shape, seconds, scalar, note);
    }

    // --- Online kernel at a deployed shard: one query and a lane flush
    // of B = 4, on one thread and two. ---
    let (rows, cols) = SHARD_SHAPE;
    let mut shard_rng = seeded_rng(22);
    let shard = Mat::from_fn(rows, cols, |_, _| shard_rng.gen_range(-8..=8i8));
    let qs: Vec<Vec<u64>> =
        (0..BATCH).map(|_| (0..cols).map(|_| shard_rng.gen()).collect()).collect();
    let qs: Vec<&[u64]> = qs.iter().map(Vec::as_slice).collect();
    let shape = format!("{rows}x{cols}");
    let scalar = time(reps, || matvec_scalar(&shard, qs[0]));
    let dispatched = time(reps, || scan(&shard, &qs[..1], 1));
    push("matvec_shard", "scalar".into(), &shape, Some(scalar), scalar, None);
    push("matvec_shard", format!("dispatched_{tier}"), &shape, Some(dispatched), scalar, None);
    let batched = time(reps, || scan(&shard, &qs, 1)) / BATCH as f64;
    push("matvec_shard", format!("batched_b{BATCH}_per_query"), &shape, Some(batched), scalar, None);
    let seconds = time_threads(2, cores, reps, || scan(&shard, &qs[..1], 2));
    push("matvec_shard", "parallel_t2".into(), &shape, seconds, scalar, None);
    let seconds = time_threads(2, cores, reps, || scan(&shard, &qs, 2)).map(|s| s / BATCH as f64);
    push("matvec_shard", format!("batched_b{BATCH}_t2_per_query"), &shape, seconds, scalar, None);
    // What the services run: the count the scan's grain picks.
    let auto = time(reps, || scan(&shard, &qs[..1], 0));
    push("matvec_shard", "auto_b1".into(), &shape, Some(auto), scalar, None);
    let auto = time(reps, || scan(&shard, &qs, 0)) / BATCH as f64;
    push("matvec_shard", format!("auto_b{BATCH}_per_query"), &shape, Some(auto), scalar, None);

    // --- Offline kernel: preproc (hint = M·A with seeded A). ---
    let db = Mat::from_fn(PREPROC_ROWS, PREPROC_COLS, |_, _| rng.gen_range(0..16u32));
    let a = MatrixA::new(23, PREPROC_COLS, PREPROC_N);
    let range = a.row_range(0, PREPROC_COLS);
    let shape = format!("{PREPROC_ROWS}x{PREPROC_COLS}xn{PREPROC_N}");
    let scalar = time(reps, || preproc_scalar(&db, &range));
    let dispatched = time(reps, || scheme::preproc::<u64>(&db, &range, 1));
    push("preproc", "scalar".into(), &shape, Some(scalar), scalar, None);
    push("preproc", format!("dispatched_{tier}"), &shape, Some(dispatched), scalar, None);
    for t in thread_sweep(threads) {
        let seconds = time_threads(t, cores, reps, || scheme::preproc::<u64>(&db, &range, t));
        let note = (t == 1).then_some(T1_NOTE);
        push("preproc", format!("parallel_t{t}"), &shape, seconds, scalar, note);
    }

    // --- Client kernel: streaming the rows of the seeded public matrix
    // A (every online `Enc(q̃)` and every hint build walks all m of
    // them) in the tiles the encryptor expands, one row per supported
    // keystream tier. ---
    for (m, n) in EXPAND_SHAPES {
        let a = MatrixA::new(29, m, n);
        let shape = format!("{m}x{n}");
        let mut tile = vec![0u64; a.tile_rows() * a.stride()];
        let mut at = |tier: Option<KernelTier>| {
            time(reps, || {
                for k in (0..m).step_by(a.tile_rows()) {
                    let rows = &mut tile[..a.tile_rows().min(m - k) * a.stride()];
                    match tier {
                        Some(t) => expand_row_at(t, &a, k, rows),
                        None => a.expand_rows(k, rows),
                    }
                    std::hint::black_box(rows);
                }
            })
        };
        for (variant, seconds, scalar) in tier_rows(&mut at) {
            push("expand_row", variant, &shape, Some(seconds), scalar, None);
        }
    }

    // --- Client kernel: one `Enc(q̃)` (row expansion + row·s + noise
    // per upload coordinate) and the seal that is all of it left
    // online, at the deployed ranking shape and at the wide
    // deployment's ranking (u64) and URL (u32) shapes. ---
    let params = LweParams::ranking_text();
    let (m, n) = EXPAND_SHAPES[0];
    assert_eq!(params.n, n, "deployed ranking parameters changed shape");
    let wide_rank = LweParams::insecure_test(64, 1 << 17, 81920.0);
    let wide_url = LweParams::insecure_test(32, 991, 6.4);
    let (wide_m, url_m) = (EXPAND_SHAPES[1].0, WIDE_URL_ROWS);
    let sweep = (reps, cores, threads);
    let shapes = [
        (
            format!("{m}x{n}"),
            lwe_encrypt_rows::<u64>(&params, m, &mut rng, sweep),
            lwe_seal_seconds::<u64>(&params, m, reps),
        ),
        (
            format!("{wide_m}x{}", wide_rank.n),
            lwe_encrypt_rows::<u64>(&wide_rank, wide_m, &mut rng, sweep),
            lwe_seal_seconds::<u64>(&wide_rank, wide_m, reps),
        ),
        (
            format!("{url_m}x{}", wide_url.n),
            lwe_encrypt_rows::<u32>(&wide_url, url_m, &mut rng, sweep),
            lwe_seal_seconds::<u32>(&wide_url, url_m, reps),
        ),
    ];
    for (shape, rows, seal) in shapes {
        for (variant, seconds, scalar, note) in rows {
            push("lwe_encrypt", variant, &shape, seconds, scalar, note);
        }
        push("lwe_seal", "scalar".into(), &shape, Some(seal), seal, None);
    }

    // --- Token path at the production outer ring: what the client
    // pays to upload `Enc2(s)` and the server to expand it and run one
    // unit of `hint·s` under it. One scalar body each. ---
    let ctx = RlweContext::new(RlweParams::production());
    let ring = ctx.params().degree;
    let table = ctx.table();
    let rlwe_sk = RlweSecretKey::generate(&ctx, &mut rng);
    let shape = format!("{ring}x{ring}");
    let mut poly: Vec<u64> = (0..ring).map(|_| rng.gen_range(0..ctx.q())).collect();
    let forward = time(reps, || (0..ring).for_each(|_| table.forward(&mut poly)));
    push("ntt_forward", "scalar".into(), &shape, Some(forward), forward, None);
    let inverse = time(reps, || (0..ring).for_each(|_| table.inverse(&mut poly)));
    push("ntt_inverse", "scalar".into(), &shape, Some(inverse), inverse, None);

    let noise = NoiseTable::new(ctx.params().sigma);
    let noise_shape =
        format!("{ring}x{ring} sigma={} thresholds={}", ctx.params().sigma, noise.bound());
    let mut e = vec![0u64; ring];
    let mut noise_at = |tier: Option<KernelTier>| {
        time(reps, || {
            for i in 0..ring as u64 {
                noise.fill(tier.unwrap_or(simd::tier()), &StdRng::key_from_u64(i), ctx.q(), &mut e);
                std::hint::black_box(&mut e);
            }
        })
    };
    for (variant, seconds, scalar) in tier_rows(&mut noise_at) {
        push("noise_sample", variant, &noise_shape, Some(seconds), scalar, None);
    }

    let secret = tiptoe_math::sample::ternary_vec(&mut rng, ring);
    let encrypt_all = |rng: &mut StdRng| -> Vec<_> {
        let cts = secret.iter().zip(0u64..);
        cts.map(|(&s_i, seed)| tiptoe_rlwe::encrypt_scalar(&ctx, &rlwe_sk, s_i, seed, rng)).collect()
    };
    let encrypt = time(reps, || encrypt_all(&mut seeded_rng(35)));
    push("rlwe_encrypt_scalar", "scalar".into(), &shape, Some(encrypt), encrypt, None);
    let uploaded = encrypt_all(&mut seeded_rng(35));
    let expand_all =
        || -> Vec<RlweCiphertext> { uploaded.iter().map(|z| tiptoe_rlwe::expand(&ctx, z)).collect() };
    let expand = time(reps, expand_all);
    push("rlwe_expand", "scalar".into(), &shape, Some(expand), expand, None);
    // The same work as the client and the server do it: one upload in
    // one flat buffer, filled and expanded on `t` threads.
    let uh = Underhood::new(params);
    let key = ClientKey::generate(&uh, n, &mut rng);
    let upload = EncryptedSecret::encrypt(&uh, &key, &mut seeded_rng(35));
    for t in thread_sweep(threads) {
        let run = || EncryptedSecret::encrypt(&uh, &key, &mut seeded_rng(35));
        let seconds = pinned(t, || time_threads(t, cores, reps, run));
        push("rlwe_encrypt_scalar", format!("parallel_t{t}"), &shape, seconds, encrypt, None);
    }
    for t in thread_sweep(threads) {
        let seconds = pinned(t, || time_threads(t, cores, reps, || upload.expand(&uh)));
        push("rlwe_expand", format!("parallel_t{t}"), &shape, seconds, expand, None);
    }
    drop(upload);

    let expanded = expand_all();
    let hints: Vec<Poly> = (0..ring)
        .map(|_| {
            let limbs: Vec<u64> = (0..ring).map(|_| rng.gen_range(0..1u64 << 16)).collect();
            ctx.plaintext_ntt(&limbs)
        })
        .collect();
    let h: Vec<&[u64]> = hints.iter().map(Poly::data).collect();
    let za: Vec<&[u64]> = expanded.iter().map(|z| z.a.data()).collect();
    let zb: Vec<&[u64]> = expanded.iter().map(|z| z.b.data()).collect();
    let mac = time(reps, || {
        let (mut acc_a, mut acc_b) = (vec![Wide::default(); ring], vec![Wide::default(); ring]);
        mul_acc_wide(&h, &za, &zb, &mut acc_a, &mut acc_b);
        acc_a.iter().chain(&acc_b).map(|&w| reduce_wide(w, ctx.q())).collect::<Vec<u64>>()
    });
    push("hint_mac", "scalar".into(), &format!("{}x{ring}", 2 * ring), Some(mac), mac, None);
    drop((uploaded, expanded, hints));

    // --- The whole token pass at the deployed ring parameters, per
    // token on one thread, against B uploads of the one shared secret:
    // the ranking hint (one chunk × two limbs, 4,096 polynomials) and
    // the URL hint's shape (two chunks × two limbs over the first
    // 1,408 coordinates, four units under one sweep). ---
    let secrets: Vec<ExpandedSecret> = (0..BATCH)
        .map(|_| {
            let key = ClientKey::generate(&uh, n, &mut rng);
            EncryptedSecret::encrypt(&uh, &key, &mut rng).expand(&uh)
        })
        .collect();
    let secrets: Vec<&ExpandedSecret> = secrets.iter().collect();
    let url_uh = Underhood::new(LweParams::url(991));
    let url_n = url_uh.lwe().n;
    let shapes = [
        (&uh, uh.preprocess_hint(&Mat::from_fn(ring, n, |_, _| rng.gen::<u64>()))),
        (&url_uh, url_uh.preprocess_hint(&Mat::from_fn(2 * ring, url_n, |_, _| rng.gen::<u32>()))),
    ];
    for (uh, server_hint) in &shapes {
        let shape = format!(
            "{}x{} chunks={} limbs={}",
            server_hint.rows(),
            server_hint.secret_dim(),
            server_hint.chunks(),
            uh.limb_count()
        );
        let one = time(reps, || uh.generate_token_expanded_many(server_hint, &secrets[..1], 1));
        let batched =
            time(reps, || uh.generate_token_expanded_many(server_hint, &secrets, 1)) / BATCH as f64;
        push("token_gen", "b1".into(), &shape, Some(one), one, None);
        push("token_gen", format!("b{BATCH}_per_token"), &shape, Some(batched), one, None);
    }

    // --- Emit BENCH_kernels.json at the workspace root. The rep
    // accounting comes from a metrics-snapshot delta over the run, so
    // it covers exactly this run's samples. ---
    let run_delta = tiptoe_obs::metrics().snapshot().delta(&run_start);
    let rep_us = run_delta.histograms.iter().find(|h| h.name == "bench.rep_us");
    let rep_samples = rep_us.map_or(0, |h| h.count);
    let rep_mean_us = rep_us.map_or(0, |h| h.sum.checked_div(h.count).unwrap_or(0));
    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"bench\": \"kernels\",");
    let _ = writeln!(json, "  \"cores_detected\": {cores},");
    let _ = writeln!(json, "  \"threads_used\": {threads},");
    let _ = writeln!(json, "  \"simd_tier\": \"{tier}\",");
    let _ = writeln!(json, "  \"reps\": {reps},");
    let _ = writeln!(json, "  \"rep_samples\": {rep_samples},");
    let _ = writeln!(json, "  \"rep_mean_us\": {rep_mean_us},");
    let _ = writeln!(json, "  \"stat\": \"min\",");
    let _ = writeln!(json, "  \"results\": [");
    for (i, e) in entries.iter().enumerate() {
        let comma = if i + 1 < entries.len() { "," } else { "" };
        let note = e.note.map_or(String::new(), |n| format!(", \"note\": \"{n}\""));
        let measured = e.seconds.map_or("\"skipped\": \"cores\"".to_string(), |s| {
            format!("\"seconds\": {s:.6}, \"speedup_vs_scalar\": {:.3}", e.speedup)
        });
        let _ = writeln!(
            json,
            "    {{\"kernel\": \"{}\", \"variant\": \"{}\", \"shape\": \"{}\", \
             {measured}{note}}}{comma}",
            e.kernel, e.variant, e.shape
        );
    }
    json.push_str("  ]\n}\n");

    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_kernels.json");
    std::fs::write(root, &json).expect("write BENCH_kernels.json");

    tiptoe_obs::export::export_query_artifacts();

    println!("{json}");
    println!("wrote {root}");
    for e in &entries {
        let Some(seconds) = e.seconds else {
            println!("{:<13} {:<24} {:<20} skipped (cores)", e.kernel, e.variant, e.shape);
            continue;
        };
        println!(
            "{:<13} {:<24} {:<20} {:>10.3} ms   {:>6.2}x{}",
            e.kernel,
            e.variant,
            e.shape,
            seconds * 1e3,
            e.speedup,
            e.note.map_or("", |n| {
                if n == T1_NOTE {
                    "   (thread-sweep baseline)"
                } else {
                    "   (memory-bound; see JSON note)"
                }
            })
        );
    }
}
