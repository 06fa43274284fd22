#!/usr/bin/env python3
"""Run the workloads over several seeds and print each metric's spread.

    python3 perfbench/spread.py [--workload closed|formulas|traces] \
        [--seeds 1-10] [--seconds S] [--trace 0|1]

Without --workload it runs all three.  Each run is a fresh `run.py`
process, started one after the other.  For every metric of the last
output line this prints the median over the seeds with its unit, the
quartiles (`statistics.quantiles(values, n=4)`), their distance as a
share of the median, and the value of each run.  With a BENCHMARK.json
bound, the share is marked `ok` below a third of the bound.  The exit
status is 1 when a run fails or reports an incorrect result.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def spread(workload, seeds, seconds, trace, bounds):
    """Run the seeds on one workload; True when every run was correct."""
    values, units, ok = {}, {}, True
    for seed in seeds:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"),
             "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, check=False)
        if not proc.stdout.strip():
            print(f"{workload} seed {seed}: exit {proc.returncode}, "
                  f"no result\n{proc.stderr}", flush=True)
            ok = False
            continue
        last = json.loads(proc.stdout.splitlines()[-1])
        ok = ok and proc.returncode == 0 and last["correct"]
        print(f"{workload} seed {seed}: exit {proc.returncode}, correct "
              f"{last['correct']}, failed {last['failed']}/"
              f"{last['attempted']}", flush=True)
        for name, m in last["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]

    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 \
            else (med, med, med)
        share = (q3 - q1) / med if med else 0.0
        bound = bounds.get(name)
        mark = "" if bound is None else \
            f"  bound {bound}: {'ok' if share < bound / 3 else 'WIDE'}"
        print(f"{workload}/{name:28} {units[name]:6} median {med:<12.6g} "
              f"q1 {q1:<12.6g} q3 {q3:<12.6g} spread {share:.4f}{mark}")
        print(" " * 10 + " ".join(f"{v:.5g}" for v in vals))
    return ok


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=names)
    ap.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    ok = True
    for workload in [args.workload] if args.workload else names:
        ok = spread(workload, args.seeds, args.seconds, args.trace,
                    bounds) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
