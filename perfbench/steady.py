#!/usr/bin/env python3
"""Steadiness tool for the serve benchmark.

Runs one workload N times, each in a fresh process with its own seed,
and prints every metric's median, quartiles and spread -- (Q3 - Q1) /
median, quartiles as `statistics.quantiles(values, n=4)` gives them --
against the metric's bound in BENCHMARK.json. It can also compare two
saved sets: the second median may not be worse than the first by more
than the bound, and the failed share must be the same.

Run from the repository root:

    python3 perfbench/steady.py run --workload paper-grid --runs 10 \
        --first-seed 1 [--trace 0] [--save a.json]
    python3 perfbench/steady.py compare a.json b.json
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def load_benchmark(path="BENCHMARK.json"):
    with open(path) as f:
        return json.load(f)


def metric_table(bench, trace):
    """Metric name -> its BENCHMARK.json entry, for the given mode."""
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m for m in bench[key]}


def run_once(bench, workload, seed, trace):
    cmd = bench["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]),
        "--trace", str(trace),
    ]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    wall = time.monotonic() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"seed {seed}: exit code {proc.returncode}\n{proc.stdout}")
    result = json.loads(lines[-1])
    return {
        "seed": seed,
        "wall_s": wall,
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
    }


def summarize(values):
    """(q1, median, q3, spread) of a list of numbers."""
    if len(values) < 2:
        v = values[0]
        return v, v, v, 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / abs(q2) if q2 else float("inf")
    return q1, q2, q3, spread


def report(bench, saved):
    table = metric_table(bench, saved["trace"])
    runs = saved["runs"]
    shares = {(r["failed"], r["attempted"]) for r in runs}
    print(f"{saved['workload']}: {len(runs)} runs, seeds {[r['seed'] for r in runs]}")
    print(f"  failed/attempted per run: {sorted(shares)}")
    print(f"  {'metric':<24} {'unit':<8} {'median':>12} {'q1':>12} {'q3':>12}"
          f" {'spread':>8} {'bound':>6}")
    steady = True
    for name, entry in table.items():
        values = [r["metrics"][name] for r in runs
                  if r["metrics"].get(name) is not None]
        if not values:
            print(f"  {name:<24} missing")
            steady = False
            continue
        q1, q2, q3, spread = summarize(values)
        bound = entry.get("bound")
        flag = ""
        if bound is not None:
            if spread > bound:
                flag = "OVER BOUND"
                steady = steady and name == "setup_s"
            elif spread > bound / 3:
                flag = "above bound/3"
        print(f"  {name:<24} {entry['unit']:<8} {q2:>12.5g} {q1:>12.5g} {q3:>12.5g}"
              f" {spread:>8.4f} {bound if bound is not None else '':>6} {flag}")
    return steady


def compare(bench, a, b):
    table = metric_table(bench, a["trace"])
    ok = True
    share = lambda s: sorted({r["failed"] / r["attempted"] for r in s["runs"]})
    if share(a) != share(b):
        print(f"failed share differs: {share(a)} vs {share(b)}")
        ok = False
    print(f"{'metric':<24} {'first':>12} {'second':>12} {'worse by':>9} {'bound':>6}")
    for name, entry in table.items():
        va = [r["metrics"][name] for r in a["runs"]]
        vb = [r["metrics"][name] for r in b["runs"]]
        ma, mb = statistics.median(va), statistics.median(vb)
        worse = (mb - ma) / ma if entry["better"] == "lower" else (ma - mb) / ma
        bound = entry.get("bound")
        flag = "REGRESSION" if bound is not None and worse > bound else ""
        ok = ok and not flag
        print(f"{name:<24} {ma:>12.5g} {mb:>12.5g} {worse:>9.4f} "
              f"{bound if bound is not None else '':>6} {flag}")
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="cmd", required=True)
    run = sub.add_parser("run", help="run one workload N times")
    run.add_argument("--workload", required=True)
    run.add_argument("--runs", type=int, default=10)
    run.add_argument("--first-seed", type=int, default=1)
    run.add_argument("--trace", type=int, choices=(0, 1), default=0)
    run.add_argument("--save", help="write the runs to this JSON file")
    cmp_ = sub.add_parser("compare", help="compare two saved sets")
    cmp_.add_argument("first")
    cmp_.add_argument("second")
    args = parser.parse_args()
    bench = load_benchmark()

    if args.cmd == "run":
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            r = run_once(bench, args.workload, seed, args.trace)
            print(f"  seed {seed}: {r['wall_s']:.1f} s, attempted {r['attempted']}, "
                  f"failed {r['failed']}", file=sys.stderr)
            runs.append(r)
        saved = {"workload": args.workload, "trace": args.trace, "runs": runs}
        if args.save:
            with open(args.save, "w") as f:
                json.dump(saved, f, indent=1)
        sys.exit(0 if report(bench, saved) else 1)
    else:
        with open(args.first) as f:
            a = json.load(f)
        with open(args.second) as f:
            b = json.load(f)
        sys.exit(0 if compare(bench, a, b) else 1)


if __name__ == "__main__":
    main()
