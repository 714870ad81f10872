#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py [--runs 10] [--first-seed 1] [--workloads a,b]
                                [--save set.json] [--against earlier.json]

Runs perfbench/run.py untraced once per seed for each workload, workloads
alternating so that slow drift on the host spreads over all of them, and
prints per metric the median, the quartiles (statistics.quantiles, n=4)
and their distance as a share of the median, next to the metric's bound
in BENCHMARK.json. Every run's result line must match the contract: the
exact end-to-end metric names, correct, and no failed units.

A spread at or above its bound fails the check; one above a third of
its bound is flagged as a warning. --save writes the values of this set;
--against compares this set's medians with a saved earlier set and fails
the check where a median is worse than the earlier one by its bound or
more.
"""
import argparse
import json
import pathlib
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    p = argparse.ArgumentParser()
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--workloads", default=",".join(names))
    p.add_argument("--save", type=pathlib.Path)
    p.add_argument("--against", type=pathlib.Path)
    args = p.parse_args()
    workloads = args.workloads.split(",")
    wanted = {m["name"]: m for m in bench["end_to_end"]}
    values = {w: {m: [] for m in wanted} for w in workloads}
    ok = True
    for i in range(args.runs):
        seed = args.first_seed + i
        for w in workloads:
            out = subprocess.run(
                [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", w,
                 "--seed", str(seed), "--seconds", str(bench["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True)
            lines = out.stdout.strip().splitlines()
            if out.returncode != 0 or not lines:
                print(f"{w} seed {seed}: exit {out.returncode}\n{out.stderr[-2000:]}")
                ok = False
                continue
            result = json.loads(lines[-1])
            if set(result["metrics"]) != set(wanted) or not result["correct"] or result["failed"]:
                print(f"{w} seed {seed}: bad result {lines[-1]}")
                ok = False
            for m, v in result["metrics"].items():
                if m in wanted:
                    values[w][m].append(v["value"])
            print(f"{w} seed {seed}: " + " ".join(
                f"{m}={v['value']:.6g}" for m, v in result["metrics"].items()), flush=True)
    if args.save:
        args.save.write_text(json.dumps(values, indent=1) + "\n")
    earlier = json.loads(args.against.read_text()) if args.against else {}
    print(f"\n{'workload':<20} {'metric':<18} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    for w in workloads:
        for m, spec in wanted.items():
            vals = values[w][m]
            if len(vals) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            flag = ""
            if spread >= spec["bound"]:
                flag, ok = "  <-- AT OR ABOVE BOUND", False
            elif spread >= spec["bound"] / 3:
                flag = "  <-- above bound/3"
            print(f"{w:<20} {m:<18} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} {spread:>7.2%} {spec['bound']:>6}{flag}")
            before = earlier.get(w, {}).get(m)
            if before:
                first = statistics.median(before)
                worse = (med - first) / first if spec["better"] == "lower" else (first - med) / first
                flag = ""
                if worse >= spec["bound"]:
                    flag, ok = "  <-- WORSE BY BOUND OR MORE", False
                print(f"{'':<20} {'':<18} {'earlier median':>14} {first:>12.6g}  worse by {worse:>7.2%}{flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
