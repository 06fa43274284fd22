#!/usr/bin/env python3
"""Sweep the scenario corpus: enumerate, detect, cross-check.

For every scenario under scenarios/ this enumerates the full system,
runs the belief-gain fixpoint on every distinct local history, and
cross-checks each verdict against the brute-force oracle.  `states`
counts the distinct global states among the points, the nodes on which
the oracle evaluates state formulas once.  Prints one
summary row per scenario and exits non-zero on any refuted verdict.

    python3 scripts/run_suite.py [--scenario NAME] [--json]
"""

import argparse
import json
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from byzlab.detect import cross_check
from byzlab.engine import enumerate_runs
from byzlab.oracle import InterpretedSystem
from byzlab.scenario import load_scenario

SCENARIO_DIR = os.path.join(os.path.dirname(__file__), "..", "scenarios")


def sweep(name):
    sc = load_scenario(os.path.join(SCENARIO_DIR, name + ".json"), name=name)
    start = time.monotonic()
    runs = enumerate_runs(sc.ctx)
    system = InterpretedSystem(runs)
    verdicts = cross_check(sc, system)
    return {
        "scenario": name, "n": sc.ctx.n, "f": sc.ctx.f,
        "horizon": sc.ctx.horizon, "runs": len(runs),
        "points": len(runs) * (system.horizon + 1),
        "states": system.nodes,
        "histories": sum(len(system.agent_classes(i))
                         for i in range(1, sc.ctx.n + 1)),
        "verdicts": len(verdicts),
        "refuted": sum(not ok for *_, ok in verdicts),
        "seconds": round(time.monotonic() - start, 3),
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--scenario", help="run a single scenario by name")
    ap.add_argument("--json", action="store_true", help="machine output")
    args = ap.parse_args()

    names = sorted(n[:-5] for n in os.listdir(SCENARIO_DIR)
                   if n.endswith(".json"))
    if args.scenario:
        names = [args.scenario]

    rows = [sweep(name) for name in names]
    if args.json:
        print(json.dumps(rows, indent=2))
    else:
        hdr = f"{'scenario':<22}{'n':>3}{'f':>3}{'runs':>6}{'points':>8}" \
              f"{'states':>8}{'verdicts':>10}{'refuted':>9}{'sec':>8}"
        print(hdr)
        print("-" * len(hdr))
        for r in rows:
            print(f"{r['scenario']:<22}{r['n']:>3}{r['f']:>3}{r['runs']:>6}"
                  f"{r['points']:>8}{r['states']:>8}{r['verdicts']:>10}"
                  f"{r['refuted']:>9}"
                  f"{r['seconds']:>8.3f}")
    total_refuted = sum(r["refuted"] for r in rows)
    total = sum(r["verdicts"] for r in rows)
    print(f"\n{total} verdicts, {total_refuted} refuted")
    return 1 if total_refuted else 0


if __name__ == "__main__":
    sys.exit(main())
