//! Scoped-thread helpers for the row-parallel kernels: on the server
//! [`crate::matrix::scan`], the hint preprocessing in `tiptoe-lwe` and
//! token generation in `tiptoe-underhood`; on the client the `Enc2(s)`
//! upload, its expansion, and `Enc(q̃)`.
//!
//! They compute independent output rows, so they parallelize by
//! handing each thread a contiguous span of the output. Everything
//! here is plain `std::thread::scope` fan-out — no
//! work stealing, no runtime — because the spans are uniform and the
//! kernels are bandwidth-bound: static partitioning loses nothing and
//! keeps the code dependency-free.
//!
//! Determinism: the helpers only decide *which thread* computes each
//! span; the per-element arithmetic and its order are unchanged, so
//! every kernel built on them is bit-identical at any thread count
//! (enforced by the workspace property tests).
//!
//! Thread-count policy: `0` means "one thread per available core"
//! (capped by the `TIPTOE_THREADS` environment variable when set), any
//! other value is used as given; both are clamped so no thread ends up
//! without a full span of work. Server kernels get the count from
//! their caller's configuration; client kernels have none to get and
//! ask for `0` through [`prg_threads`].

use std::cell::RefCell;

/// Number of worker threads meant by a `num_threads` knob value of 0:
/// one per available core, overridable with `TIPTOE_THREADS`.
pub fn max_threads() -> usize {
    let detected = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    match std::env::var("TIPTOE_THREADS").ok().and_then(|v| v.parse::<usize>().ok()) {
        Some(n) if n >= 1 => n, // explicit override wins
        _ => detected,
    }
}

/// Resolves a `num_threads` knob (`0` = auto) against the number of
/// independent work items, so no thread is spawned without work.
pub fn effective_threads(num_threads: usize, work_items: usize) -> usize {
    let requested = if num_threads == 0 { max_threads() } else { num_threads };
    requested.clamp(1, work_items.max(1))
}

/// The grain of a client kernel, in keystream words of the widest
/// body: 2^18 of them are 0.29 ms at its ≈1.1 ns a word (`expand_row`
/// in `BENCH_kernels.json`; 9 ns scalar), against the tens of µs of a
/// spawn and join. [`prg_threads`] gives a thread at least this much
/// work, counting a row by what it costs (`PRG_BATCH_WORDS`,
/// `PRG_ROW_DRAW`): the test upload (64 rows of 128 words, 0.01 ms)
/// and an 89-row URL query (89 × 1,408 words and a draw a row, 0.15
/// ms) stay inline; the wide URL query (5,534 × 64 words in tiles of
/// 16 rows and a draw a row, ≈0.9 ms) gets two threads, the deployed
/// upload (2,048 × 4,096 words) 32 and the ranking queries (41,664 ×
/// 64 and 17,088 × 2,048) 21 and 138.
pub const MIN_PRG_WORDS_PER_THREAD: usize = 1 << 18;

/// Keystream words in one batch of the widest body, 16 ChaCha blocks.
/// A keystream call's whole batches cost ≈1.1 ns a word (`expand_row`
/// at 17088x2048, and at 41664x64 where a call is a tile of 16 rows),
/// and the rest of the call runs on the 8-lane body at ≈2.1: all of a
/// row under 16 blocks expanded on its own, as the test ring's `Enc2(s)`
/// expansion does.
const PRG_BATCH_WORDS: usize = 128;

/// A Box–Muller draw with the rest of its `Enc(q̃)` row besides the
/// keystream, in tenths of a nanosecond: ≈80 ns (65–93 over three
/// runs of `lwe_encrypt` `parallel_t1` less `expand_row` at 41664x64).
/// The draw alone is ≈31 ns; the rest is `row·s` and the row's
/// bookkeeping, which at n = 2,048 grows to ≈0.5 µs and is not counted.
const PRG_ROW_DRAW: usize = 800;

/// [`effective_threads`] for `rows` independent rows of `words`
/// keystream words and `draws` Box–Muller draws apiece, expanded
/// `tile` consecutive rows to a keystream call (`1`: one row a call),
/// capped so every thread has the grain above: a function of the shape
/// alone, never of what the rows hold.
pub fn prg_threads(
    num_threads: usize,
    rows: usize,
    words: usize,
    tile: usize,
    draws: usize,
) -> usize {
    // In tenths of a nanosecond.
    let tile = tile.max(1);
    let call = tile * words;
    let batched = call / PRG_BATCH_WORDS * PRG_BATCH_WORDS;
    let call_cost = 11 * batched + 21 * (call - batched);
    let work = rows * call_cost / tile + rows * PRG_ROW_DRAW * draws;
    effective_threads(num_threads, rows.min(work / (11 * MIN_PRG_WORDS_PER_THREAD)))
}

thread_local! {
    /// Spans handed out on this thread while [`observe_spans`] runs.
    static OBSERVED: RefCell<Option<Vec<(usize, usize)>>> = const { RefCell::new(None) };
}

/// Runs `f`; returns with its result the `(start, len)` of every span
/// its [`par_spans_mut`] calls on this thread handed out, inline runs
/// included. Tests compare them to show that a kernel's partition does
/// not follow its secret inputs.
pub fn observe_spans<R>(f: impl FnOnce() -> R) -> (R, Vec<(usize, usize)>) {
    OBSERVED.with(|o| *o.borrow_mut() = Some(Vec::new()));
    let out = f();
    (out, OBSERVED.with(|o| o.take()).unwrap_or_default())
}

fn note_span(start: usize, len: usize) {
    OBSERVED.with(|o| o.borrow_mut().iter_mut().for_each(|spans| spans.push((start, len))));
}

/// Runs `f(start, span)` over contiguous spans of `data`, one span per
/// thread, with span boundaries aligned to multiples of `align`
/// elements (an output row, say). `start` is the element offset of the
/// span within `data`. With one effective thread, runs inline on the
/// caller's stack — the scalar path has zero spawn overhead.
///
/// # Panics
///
/// Panics if `align == 0` or `data.len()` is not a multiple of
/// `align`.
pub fn par_spans_mut<T: Send>(
    data: &mut [T],
    align: usize,
    num_threads: usize,
    f: impl Fn(usize, &mut [T]) + Sync,
) {
    assert!(align > 0, "span alignment must be positive");
    assert_eq!(data.len() % align, 0, "data length must be a multiple of the alignment");
    let items = data.len() / align;
    let threads = effective_threads(num_threads, items);
    if threads <= 1 {
        note_span(0, data.len());
        f(0, data);
        return;
    }
    // Ceil-divide items over threads; the tail thread takes the short
    // span.
    let items_per = items.div_ceil(threads);
    std::thread::scope(|scope| {
        let mut rest = data;
        let mut start = 0usize;
        while !rest.is_empty() {
            let take = (items_per * align).min(rest.len());
            let (span, tail) = rest.split_at_mut(take);
            let f = &f;
            note_span(start, take);
            scope.spawn(move || f(start, span));
            start += take;
            rest = tail;
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn effective_threads_clamps_to_work() {
        assert_eq!(effective_threads(8, 3), 3);
        assert_eq!(effective_threads(2, 100), 2);
        assert_eq!(effective_threads(5, 0), 1);
        assert!(effective_threads(0, 1 << 20) >= 1);
    }

    #[test]
    fn prg_grain_keeps_small_shapes_inline_whatever_is_asked() {
        for asked in [0usize, 1, 2, 8] {
            // The test upload, an 89-row URL query, an empty kernel.
            assert_eq!(prg_threads(asked, 64, 128, 1, 0), 1);
            assert_eq!(prg_threads(asked, 89, 1408, 1, 1), 1);
            assert_eq!(prg_threads(asked, 0, 2048, 1, 1), 1);
        }
        // The deployed upload and ranking query take what is asked;
        // in between, what the grain leaves.
        assert_eq!(prg_threads(8, 2048, 4096, 1, 0), 8);
        assert_eq!(prg_threads(2, 17_088, 2048, 1, 1), 2);
        assert_eq!(prg_threads(8, 401, 2048, 1, 0), 3);
        assert_eq!(prg_threads(8, 3, 1 << 20, 1, 0), 3, "never more threads than rows");
    }

    #[test]
    fn a_row_weighs_what_it_costs() {
        // The wide URL query: 354,176 words in 16-row tiles, all at the
        // batched rate, and a draw a row: two grains and most of a
        // third. Rows of the same words expanded one at a time run the
        // 8-lane body, at ≈2.1 ns a word.
        assert_eq!(prg_threads(8, 5_534, 64, 16, 0), 1);
        assert_eq!(prg_threads(8, 5_534, 64, 16, 1), 2);
        assert_eq!(prg_threads(8, 5_534, 64, 1, 0), 2);
        // A tile is counted whole, its ragged tail at the 8-lane rate:
        // 14 rows of 72 words are 7 batches and 112 words, 872 tenths
        // of a ns a row, 30.2 grains over 100,000 rows.
        assert_eq!(prg_threads(64, 100_000, 72, 14, 0), 30);
        // Whole batches cost what they did: the shipped uploads and
        // expansions keep their counts.
        assert_eq!(prg_threads(64, 2048, 4096, 1, 0), 32);
        assert_eq!(prg_threads(64, 2048, 2048, 1, 0), 16);
        assert_eq!(prg_threads(64, 64, 64, 1, 0), 1);
        // The ranking queries.
        assert_eq!(prg_threads(256, 17_088, 2048, 1, 1), 138);
        assert_eq!(prg_threads(64, 41_664, 64, 16, 1), 21);
    }

    #[test]
    fn observed_spans_are_the_ones_handed_out() {
        let mut data = vec![0u8; 40];
        let fan_out = || par_spans_mut(&mut data, 8, 3, |_, span| span.fill(1));
        assert_eq!(observe_spans(fan_out).1, [(0, 16), (16, 16), (32, 8)]);
        let inline = || par_spans_mut(&mut data, 8, 1, |_, span| span.fill(2));
        assert_eq!(observe_spans(inline).1, [(0, 40)]);
        // Nothing is kept once the observation ends.
        par_spans_mut(&mut data, 8, 2, |_, _| {});
        assert_eq!(observe_spans(|| ()).1, []);
    }

    #[test]
    fn spans_cover_everything_exactly_once() {
        for threads in [1usize, 2, 3, 7] {
            let mut data = vec![0u64; 60];
            par_spans_mut(&mut data, 4, threads, |start, span| {
                for (off, slot) in span.iter_mut().enumerate() {
                    *slot = (start + off) as u64 + 1;
                }
            });
            for (i, &x) in data.iter().enumerate() {
                assert_eq!(x, i as u64 + 1, "threads={threads}");
            }
        }
    }

    #[test]
    fn spans_align_to_row_boundaries() {
        let mut data = vec![0usize; 40];
        par_spans_mut(&mut data, 8, 3, |start, span| {
            assert_eq!(start % 8, 0);
            assert_eq!(span.len() % 8, 0);
            span.fill(start / 8);
        });
        for row in 0..5 {
            let owner = data[row * 8];
            assert!(data[row * 8..(row + 1) * 8].iter().all(|&x| x == owner));
        }
    }

    #[test]
    #[should_panic(expected = "multiple of the alignment")]
    fn misaligned_data_rejected() {
        let mut data = vec![0u8; 10];
        par_spans_mut(&mut data, 3, 2, |_, _| {});
    }
}
