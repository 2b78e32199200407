#!/usr/bin/env python3
"""Runs the benchmark once per seed and reports each metric's spread.

    python3 perfbench/spread.py --workload dse-wt --seeds 1-10 [--trace 0]

Run from the repository root. Each run is the command of BENCHMARK.json
with `--workload W --seed S --seconds <run_seconds> --trace T`. For every
metric the script prints the median over seeds, the first and third
quartile (`statistics.quantiles(values, n=4)`), and the spread: the
inter-quartile distance as a share of the median. End-to-end metrics also
show their bound and whether the spread stays below a third of it. The
exit code is 1 when a run fails or prints an incorrect result.
"""

import argparse
import json
import statistics
import subprocess
import sys


def seed_list(text):
    if "-" in text:
        lo, hi = text.split("-", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10", type=seed_list)
    ap.add_argument("--trace", default="0", choices=["0", "1"])
    ap.add_argument("--seconds", type=int, help="override run_seconds")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    section = "per_layer" if args.trace == "1" else "end_to_end"
    declared = {m["name"]: m for m in bench[section]}
    seconds = args.seconds or bench["run_seconds"]

    values = {name: [] for name in declared}
    ok = True
    for seed in args.seeds:
        cmd = bench["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", args.trace,
        ]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
            ok = False
            continue
        result = json.loads(lines[-1])
        if not result["correct"] or set(result["metrics"]) != set(declared):
            print(f"seed {seed}: incorrect result or metric names: {lines[-1]}")
            ok = False
        for name, m in result["metrics"].items():
            if name in values:
                values[name].append(m["value"])
        shown = ", ".join(f"{n}={result['metrics'][n]['value']:.6g}"
                          for n in list(declared)[:3] if n in result["metrics"])
        print(f"seed {seed}: {shown}", flush=True)

    print(f"\n{args.workload}, {len(args.seeds)} seeds, {seconds} s runs, trace {args.trace}")
    print(f"{'metric':<32} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8}  bound")
    for name, vals in values.items():
        if len(vals) < 2:
            continue
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / abs(med) if med else 0.0
        bound = declared[name].get("bound")
        verdict = ""
        if bound is not None:
            verdict = f"{bound:.2f} {'ok' if spread < bound / 3 else 'WIDE'}"
        print(f"{name:<32} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} {100 * spread:>7.2f}%  {verdict}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
