#!/usr/bin/env python3
"""A/A check of the benchmark against its own bounds.

    bash benchmark/run.sh --repeat N --compare [--seed S] [--seeds] [--quick]
                          [--seconds S] [--workload NAME]

Runs every workload N times in each of two sets, each run a separate
process. By default every run uses the same seed (two sets of runs of the
same code must agree); with --seeds run i of each set uses seed S+i, which
is how the driver measures spread. For every end-to-end metric it prints
each set's median and the spread of the first set — the distance between
the first and third quartile, statistics.quantiles(values, n=4), as a share
of the median — and fails if a spread exceeds the metric's bound, or the
second median is worse than the first by more than the bound.
"""
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, extra):
    cmd = ["bash", os.path.join(HERE, "run.sh"), "--workload", workload, "--seed", str(seed)] + extra
    out = subprocess.run(cmd, cwd=ROOT, check=True, capture_output=True, text=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: incorrect results\n{out}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def main():
    args = sys.argv[1:]
    repeat, seed, seeds, extra, only = 2, 1, False, [], None
    i = 0
    while i < len(args):
        a = args[i]
        if a == "--repeat":
            repeat = int(args[i + 1]); i += 1
        elif a == "--seed":
            seed = int(args[i + 1]); i += 1
        elif a == "--workload":
            only = args[i + 1]; i += 1
        elif a == "--seconds":
            extra += [a, args[i + 1]]; i += 1
        elif a == "--seeds":
            seeds = True
        elif a == "--quick":
            extra.append(a)
        elif a != "--compare":
            sys.exit(f"compare.py: unknown argument {a}")
        i += 1

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = [w["name"] for w in spec["workloads"] if only in (None, w["name"])]
    failures = []
    for workload in workloads:
        sets = [[run_once(workload, seed + (r if seeds else 0), extra) for r in range(repeat)] for _ in range(2)]
        print(f"## {workload}: 2 sets x {repeat} runs, {'seeds ' + str(seed) + '..' + str(seed + repeat - 1) if seeds else 'seed ' + str(seed)}")
        for m in spec["end_to_end"]:
            name, bound, lower = m["name"], m["bound"], m["better"] == "lower"
            first, second = ([run[name] for run in s] for s in sets)
            med1, med2 = statistics.median(first), statistics.median(second)
            if repeat >= 2:
                q = statistics.quantiles(first, n=4)
                spread = (q[2] - q[0]) / med1
            else:
                spread = 0.0
            worse = (med2 - med1) / med1 if lower else (med1 - med2) / med1
            flags = []
            if spread > bound and name != "setup_s":
                flags.append("SPREAD>BOUND")
            elif spread > bound / 3 and name != "setup_s":
                flags.append("spread>bound/3")
            if worse > bound:
                flags.append("SECOND-SET-WORSE")
            print(f"  {name:<28} median {med1:>14.4f} | {med2:>14.4f} {m['unit']:<6} "
                  f"spread {spread:7.4f}  worse {worse:+8.4f}  bound {bound}  {' '.join(flags)}")
            failures += [f"{workload}.{name}: {f}" for f in flags if f.isupper()]
    if failures:
        sys.exit("A/A check failed:\n  " + "\n  ".join(failures))
    print("A/A check passed: every metric within its bound")


if __name__ == "__main__":
    main()
