#!/usr/bin/env python3
"""Steadiness check for the benchmark.

Runs one workload N times with seeds 1..N and prints for every end-to-end
metric the median, the quartiles and the spread (interquartile distance as
a share of the median) against the metric's bound in BENCHMARK.json.  With
--compare it also sets the medians against an earlier set of runs saved
with --out, and compares the share of failed operations exactly.

    python3 sacbench/steady.py --workload serve --runs 10 --out a.json
    python3 sacbench/steady.py --workload serve --runs 10 --compare a.json

Run it from the repository root.
"""

import argparse
import json
import statistics
import subprocess
import sys
from fractions import Fraction


def load_spec():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def run_once(spec, workload, seed, seconds):
    cmd = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    spread = (q3 - q1) / med if med else float("inf")
    return med, q1, q3, spread


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--out", help="save the runs as JSON")
    ap.add_argument("--compare", help="an earlier --out file to compare with")
    args = ap.parse_args()

    spec = load_spec()
    seconds = spec["run_seconds"]
    section = spec["end_to_end"]
    bounds = {m["name"]: m["bound"] for m in section}

    runs = []
    for i in range(args.runs):
        seed = i + 1
        result = run_once(spec, args.workload, seed, seconds)
        runs.append(result)
        print(f"run {i + 1}/{args.runs} seed {seed}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}",
              file=sys.stderr)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(runs, f)

    ok = all(r["correct"] for r in runs)
    shares = {Fraction(r["failed"], r["attempted"]) for r in runs}
    print(f"workload {args.workload}: {len(runs)} runs, all correct: {ok}, "
          f"failed shares: {sorted(str(s) for s in shares)}")
    previous = None
    if args.compare:
        with open(args.compare) as f:
            previous = json.load(f)
        old_shares = {Fraction(r["failed"], r["attempted"]) for r in previous}
        print(f"failed shares equal to the earlier set: {shares == old_shares}")
    print(f"{'metric':<28} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}  verdict")
    better = {m["name"]: m["better"] for m in section}
    for name in bounds:
        values = [r["metrics"][name]["value"] for r in runs]
        med, q1, q3, spread = summarize(values)
        bound = bounds[name]
        verdict = ("steady" if spread < bound / 3 else
                   "within bound" if spread <= bound else "TOO NOISY")
        line = (f"{name:<28} {med:>12.4g} {q1:>12.4g} {q3:>12.4g} {spread:>8.3f} "
                f"{bound:>6}  {verdict}")
        if previous is not None:
            old = statistics.median(r["metrics"][name]["value"] for r in previous)
            change = (med - old) / old if old else 0.0
            worse = change if better[name] == "lower" else -change
            flag = "" if worse <= bound else "  WORSE THAN BOUND"
            line += f"  vs earlier {old:.4g} ({change:+.3f}){flag}"
        print(line)


if __name__ == "__main__":
    main()
