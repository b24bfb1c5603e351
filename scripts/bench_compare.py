#!/usr/bin/env python3
"""Bench-regression gate: compare a freshly generated bench artifact
against the committed baseline and fail on regression.

Usage: bench_compare.py <kind> <baseline.json> <current.json>
  kind: kernels | faults

Wall-clock numbers (qps, seconds, latency percentiles) are NOT gated —
they measure the runner, not the code. The gate covers:

  * structure: required keys present, result rows non-empty, counts
    consistent (e.g. offered == admitted + shed, every AZ-crash query
    failed);
  * deterministic values: seeded quality metrics (MRR at fault rate 0);
  * same-host ratios with a tolerance band: kernel speedup-vs-scalar may
    wobble with scheduling noise, but a collapse past the band means the
    optimization actually broke (e.g. SIMD dispatch silently pinned to
    scalar).

The token-path kernel rows (NTT, seeded RLWE encrypt/expand, hint
multiply-accumulate) have one scalar body and no dispatched twin, so
they have no ratio to band: they must be present in both files with a
positive time, and that time is reported like any other wall-clock
(their `parallel_t*` rows, and `lwe_encrypt`'s, likewise: a thread
sweep's speedup measures the runner's cores).
The noise sampler's row is required like them, and having one row per
tier its dispatched speedup is banded like any other. So is the whole
token pass (`token_gen`): its B = 1 time is reported, and its batched
per-token speedup over B = 1, a same-host ratio, is banded. The
AVX-512 keystream is banded tighter (75 %) on its time against the
AVX2 tier's at both `expand_row` shapes, the deployed 17088x2048 and
the short-row 41664x64 (rows of 8 blocks, expanded in tiles that fill
16-block batches), so that a fallback from its 16-lane body to 8 lanes
at either fails; a runner without AVX-512 skips it.

Kernel rows are matched by kernel/variant/shape; a row present only on
one side is reported, not gated.
"""

import json
import sys

# A ratio metric must stay above TOLERANCE x baseline to pass. The
# band is deliberately generous: CI boxes differ from the baseline
# host, and this gate exists to catch collapses, not jitter.
TOLERANCE = 0.5

# Kernels with one body (no scalar/dispatched pair): required rows.
SINGLE_BODY_KERNELS = (
    "ntt_forward",
    "ntt_inverse",
    "rlwe_encrypt_scalar",
    "rlwe_expand",
    "hint_mac",
)

# Token-path rows that must be present in both files.
TOKEN_KERNELS = SINGLE_BODY_KERNELS + ("noise_sample", "token_gen")

failures = []
notes = []


def fail(msg):
    failures.append(msg)


def note(msg):
    notes.append(msg)


# The AVX-512 keystream's 16-lane body over the AVX2 tier's 8 lanes, a
# same-host ratio on the deployed upload shape and on the short-row
# shape, whose tiles of 8-block rows fill 16-block batches. Its own,
# tighter band: a silent fallback to 8 lanes at the AVX-512 tier
# (~8x -> ~4.7x over scalar at 17088x2048, ~8x -> ~4.2x at 41664x64)
# would still pass the 50 % speedup band.
WIDE_KEYSTREAM = (("expand_row", "17088x2048"), ("expand_row", "41664x64"))
WIDE_KEYSTREAM_TOLERANCE = 0.75


def band(label, current, baseline, tolerance=TOLERANCE):
    """Gate `current >= tolerance * baseline` for a ratio metric."""
    if baseline <= 0:
        note(f"{label}: baseline {baseline} not gateable")
        return
    if current < tolerance * baseline:
        fail(
            f"{label}: {current:.3f} vs baseline {baseline:.3f} "
            f"(below {tolerance:.0%} band)"
        )
    else:
        note(f"{label}: {current:.3f} vs baseline {baseline:.3f} ok")


def wide_keystream_ratio(doc, kernel, shape):
    """`tier_avx2` over `dispatched_avx512` seconds of one `expand_row`
    shape, or None when the file has no AVX-512 row."""
    seconds = {
        r["variant"]: r["seconds"]
        for r in doc.get("results", [])
        if (r["kernel"], r["shape"]) == (kernel, shape) and "skipped" not in r
    }
    if "tier_avx2" not in seconds or "dispatched_avx512" not in seconds:
        return None
    return seconds["tier_avx2"] / seconds["dispatched_avx512"]


def same_config(base, cur, keys):
    return all(base.get(k) == cur.get(k) for k in keys)


def compare_kernels(base, cur):
    if not cur.get("results"):
        fail("kernels: no results")
        return
    reps = cur.get("reps", 0)
    samples = cur.get("rep_samples", 0)
    # Every measured row is one timed call of `reps` reps, so the
    # histogram must hold exactly reps samples per non-skipped row.
    measured = sum(1 for r in cur["results"] if "skipped" not in r)
    if samples and samples != reps * measured:
        fail(f"kernels: rep_samples {samples} != reps {reps} x {measured} measured rows")
    for side, doc in (("baseline", base), ("current", cur)):
        present = {r["kernel"] for r in doc.get("results", []) if "skipped" not in r}
        for kernel in TOKEN_KERNELS:
            if kernel not in present:
                fail(f"kernels {kernel}: no measured row in the {side} file")
    by_key = {
        (r["kernel"], r["variant"], r["shape"]): r for r in base["results"]
    }
    for r in cur["results"]:
        if "skipped" in r:
            # A row the host could not measure (a thread count above
            # its cores) carries no timing and gates nothing.
            note(f"kernels {r['kernel']}/{r['variant']}: skipped ({r['skipped']})")
            continue
        if r["seconds"] <= 0:
            fail(f"kernels {r['kernel']}/{r['variant']}: non-positive time")
        b = by_key.get((r["kernel"], r["variant"], r["shape"]))
        if b is None or "skipped" in b:
            # Variant names embed the SIMD tier; a different runner
            # produces different names, which is not a regression.
            note(f"kernels {r['kernel']}/{r['variant']}: no baseline row")
            continue
        token_b1 = (r["kernel"], r["variant"]) == ("token_gen", "b1")
        if r["kernel"] in SINGLE_BODY_KERNELS or token_b1:
            note(
                f"kernels {r['kernel']}: {r['seconds'] * 1e3:.1f} ms vs baseline "
                f"{b['seconds'] * 1e3:.1f} ms (reported, not gated)"
            )
            continue
        # Speedup over scalar is a same-host ratio: gate it, banded.
        # Skip overhead baselines and memory-bound shapes (their note
        # says the ratio measures DRAM, not the kernel).
        gated = r["variant"].startswith("dispatched") or r["kernel"] == "token_gen"
        if gated and "note" not in r:
            band(
                f"kernels {r['kernel']}/{r['variant']} speedup",
                r["speedup_vs_scalar"],
                b["speedup_vs_scalar"],
            )
    for kernel, shape in WIDE_KEYSTREAM:
        cur_wide = wide_keystream_ratio(cur, kernel, shape)
        base_wide = wide_keystream_ratio(base, kernel, shape)
        label = f"kernels {kernel} {shape} avx2/avx512"
        if cur_wide is None or base_wide is None:
            note(f"{label}: no AVX-512 row on one side; 16-lane check skipped")
        else:
            band(label, cur_wide, base_wide, WIDE_KEYSTREAM_TOLERANCE)


def compare_faults(base, cur):
    rows = cur.get("results", [])
    if not rows:
        fail("faults: no results")
        return
    ov = cur.get("overload", {})
    if ov:
        if ov["offered"] != ov["admitted"] + ov["shed"]:
            fail(
                f"faults overload: offered {ov['offered']} != admitted "
                f"{ov['admitted']} + shed {ov['shed']}"
            )
        if ov["admitted"] <= 0 or ov["shed"] <= 0:
            fail("faults overload: 2x-capacity drive must admit and shed")
    az = cur.get("az_crash")
    if az is None:
        fail("faults: no az_crash scenario")
    elif az["failed_queries"] != az["queries"] or az["answered"] != 0:
        # Every query needs every shard: a dead zone fails them all.
        fail(
            f"faults az_crash: {az['failed_queries']} of {az['queries']} queries "
            f"failed and {az['answered']} answered, want all failed"
        )
    clean = next((r for r in rows if r["fault_rate"] == 0.0), None)
    if clean is None:
        fail("faults: no fault_rate=0 row")
        return
    for key in ("retries", "timeouts", "corrupted", "failed_queries"):
        if clean[key] != 0:
            fail(f"faults rate=0: {key} = {clean[key]}, want 0")
    if abs(clean["mrr_at_k"] - cur["baseline_mrr"]) > 1e-9:
        fail("faults rate=0: MRR differs from the run's own baseline")
    if same_config(base, cur, ["docs", "queries", "shards", "k"]):
        # Seeded and deterministic: the clean-run MRR must match the
        # committed baseline exactly.
        if abs(cur["baseline_mrr"] - base["baseline_mrr"]) > 1e-6:
            fail(
                f"faults: baseline_mrr {cur['baseline_mrr']} != committed "
                f"{base['baseline_mrr']} at identical config"
            )
    else:
        note("faults: config differs from baseline; skipping MRR pin")


def main():
    if len(sys.argv) != 4:
        sys.exit(__doc__)
    kind, base_path, cur_path = sys.argv[1:]
    with open(base_path) as f:
        base = json.load(f)
    with open(cur_path) as f:
        cur = json.load(f)
    {
        "kernels": compare_kernels,
        "faults": compare_faults,
    }[kind](base, cur)
    for n in notes:
        print(f"  note: {n}")
    if failures:
        print(f"{kind}: {len(failures)} regression(s)")
        for f_ in failures:
            print(f"  FAIL: {f_}")
        sys.exit(1)
    print(f"{kind}: no regression ({len(notes)} checks)")


if __name__ == "__main__":
    main()
