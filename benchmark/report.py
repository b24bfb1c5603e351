#!/usr/bin/env python3
"""Runs every workload of the benchmark and compares results files.

Invoked by benchmark/run.sh. BENCHMARK.json is the one place where metric
names, directions and bounds are written; this script reads them there.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# The seed of the committed baseline; any other seed is as good.
DEFAULT_SEED = 1
SMOKE_SECONDS = 5


def load_contract():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def spread(values):
    """Distance between the quartiles as a share of the median."""
    if len(values) < 2:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def one_run(args, workload, seed, seconds, trace):
    """Runs the program once; returns (result line, detail line, problems)."""
    cmd = [args.bin, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if len(lines) < 2:
        sys.exit(f"{' '.join(cmd)}: exit code {proc.returncode}, no result")
    result, detail = json.loads(lines[-1]), json.loads(lines[-2])["detail"]
    problems = []
    if proc.returncode != 0 or not result["correct"] or result["failed"]:
        problems.append(f"{result['failed']} of {result['attempted']} operations failed: "
                        f"{detail['failures']}")
    if not detail.get("valid", True):
        problems.append("a layer-sum ratio is outside [0.85, 1.15]")
    return result, detail, problems


def run(args):
    contract = load_contract()
    names = [w["name"] for w in contract["workloads"]]
    for w in args.workload:
        if w not in names:
            sys.exit(f"unknown workload {w}; BENCHMARK.json has {', '.join(names)}")
    seconds = SMOKE_SECONDS if args.smoke else contract["run_seconds"]
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                capture_output=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    results = {"seed": args.seed, "runs": args.runs, "seconds": seconds, "smoke": args.smoke,
               "nproc": os.cpu_count(), "commit": commit, "workloads": {}}
    invalid = []
    for workload in args.workload or names:
        entry = {"end_to_end": {}, "per_layer": {}, "detail": {"untraced": []}, "problems": []}
        for i in range(args.runs):
            result, detail, problems = one_run(args, workload, args.seed + i, seconds, 0)
            got = set(result["metrics"])
            want = {m["name"] for m in contract["end_to_end"]}
            if got != want:
                problems.append(f"end-to-end metrics differ from BENCHMARK.json: {sorted(got ^ want)}")
            for name, m in result["metrics"].items():
                slot = entry["end_to_end"].setdefault(name, {"unit": m["unit"], "values": []})
                slot["values"].append(m["value"])
            entry["detail"]["untraced"].append(detail)
            entry["problems"] += problems
        for slot in entry["end_to_end"].values():
            slot["median"] = statistics.median(slot["values"])
            slot["spread"] = spread(slot["values"])
        result, detail, problems = one_run(args, workload, args.seed, seconds, 1)
        got = set(result["metrics"])
        want = {m["name"] for m in contract["per_layer"]}
        if got != want:
            problems.append(f"per-layer metrics differ from BENCHMARK.json: {sorted(got ^ want)}")
        entry["per_layer"] = result["metrics"]
        entry["detail"]["traced"] = detail
        entry["problems"] += problems
        results["workloads"][workload] = entry
        print_workload(workload, entry, args.smoke)
        if entry["problems"]:
            invalid.append(workload)

    out = args.out or os.path.join(ROOT, "benchmark", "out", "results.json")
    os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
    with open(out, "w") as f:
        json.dump(results, f, indent=1)
        f.write("\n")
    print(f"results: {out}")
    if invalid:
        sys.exit(f"invalid: {', '.join(invalid)}")


def print_workload(workload, entry, smoke):
    untraced = entry["detail"]["untraced"][0]
    traced = entry["detail"]["traced"]
    print(f"\n== {workload}  seed {untraced['seed']}  window {untraced['seconds']} s  "
          f"threads {untraced['threads']}  nproc {untraced['nproc']}  "
          f"deployment {json.dumps(untraced['deployment'])}")
    for problem in entry["problems"]:
        print(f"   INVALID: {problem}")
    if smoke:
        print("   smoke run: validity checks only")
        return
    samples = [d["samples"] for d in entry["detail"]["untraced"]]
    print(f"   end to end, tracing off ({len(samples)} runs, {min(samples)}-{max(samples)} "
          f"operations each):")
    for name, slot in entry["end_to_end"].items():
        note = "" if slot["spread"] is None else f"   spread {100 * slot['spread']:.1f} %"
        print(f"     {name:<28} {slot['median']:>14.4f} {slot['unit']}{note}")
    for key in ("slowdown", "op_tail", "token_p50_ms", "token_tail", "mean_batch",
                "offline_bytes_per_op"):
        if untraced.get(key) is not None:
            print(f"     {key:<28} {json.dumps(untraced[key])}")
    print(f"   per layer, staged replay ({traced['cycle_samples']} cycles, "
          f"{traced['serve_samples']} server operations, {traced['probe_samples']} probes; "
          f"trace {traced['trace_file']}):")
    for name, m in entry["per_layer"].items():
        print(f"     {name:<28} {m['value']:>14.4f} {m['unit']}")
    if "lwe.scan_roofline_pct" in traced:
        print(f"     {'lwe.scan_roofline_pct':<28} {traced['lwe.scan_roofline_pct']:>14.4f} %")
    else:
        print(f"     lwe.scan_roofline_pct omitted: stream bandwidth spread "
              f"{100 * traced['stream_spread']:.0f} % over its 5 passes")


def compare(args):
    contract = load_contract()
    with open(args.a) as f:
        a = json.load(f)["workloads"]
    with open(args.b) as f:
        b = json.load(f)["workloads"]
    regressed = False
    for workload in [w["name"] for w in contract["workloads"]]:
        if workload not in a or workload not in b:
            print(f"{workload:<12} missing from a results file")
            continue
        verdicts = []
        for metric in contract["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            sa, sb = a[workload]["end_to_end"][name], b[workload]["end_to_end"][name]
            change = (sb["median"] - sa["median"]) / sa["median"]
            worse = change if metric["better"] == "lower" else -change
            spreads = [s for s in (sa.get("spread"), sb.get("spread")) if s is not None]
            if spreads and max(spreads) > bound:
                verdicts.append(("unresolved", f"{name} spread {100 * max(spreads):.1f} % > "
                                               f"bound {100 * bound:.0f} %"))
            elif worse > bound:
                verdicts.append(("regression", f"{name} {sa['median']:.4g} -> {sb['median']:.4g} "
                                               f"{metric['unit']} ({100 * worse:+.1f} % worse, "
                                               f"bound {100 * bound:.0f} %)"))
            else:
                verdicts.append(("pass", name))
        kinds = {k for k, _ in verdicts}
        row = "regression" if "regression" in kinds else "unresolved" if "unresolved" in kinds else "pass"
        regressed |= row == "regression"
        notes = "; ".join(note for kind, note in verdicts if kind != "pass")
        print(f"{workload:<12} {row:<11} {notes}")
    sys.exit(1 if regressed else 0)


def main():
    parser = argparse.ArgumentParser(prog="benchmark/run.sh")
    sub = parser.add_subparsers(dest="command", required=True)
    r = sub.add_parser("run")
    r.add_argument("--bin", required=True)
    r.add_argument("--workload", action="append", default=[])
    r.add_argument("--seed", type=int, default=DEFAULT_SEED)
    r.add_argument("--runs", type=int, default=1,
                   help="untraced runs per workload, on seeds S, S+1, ...; medians and spreads")
    r.add_argument("--smoke", action="store_true",
                   help=f"{SMOKE_SECONDS} s windows, validity checks only")
    r.add_argument("--out")
    c = sub.add_parser("compare")
    c.add_argument("a")
    c.add_argument("b")
    args = parser.parse_args()
    run(args) if args.command == "run" else compare(args)


if __name__ == "__main__":
    main()
