#!/usr/bin/env python3
"""Sweep the scenario corpus: enumerate, detect, cross-check.

For every scenario under scenarios/ this enumerates the full system,
runs the belief-gain fixpoint on every distinct local history, and
cross-checks each verdict against the brute-force oracle.  `states`
counts the distinct global states among the points, the nodes on which
the oracle evaluates state formulas once.  Prints one
summary row per scenario and exits non-zero on any refuted verdict.

With --stress H it instead builds one system of the stress family, the
benchmark's `formulas` scenario (perfbench/gen.py, seed 1) with its
round-0 menu repeated for H rounds, and prints one row: runs, distinct
states, expanded distinct states (the states enumeration stepped from),
histories, verdicts, the seconds spent enumerating, classing every
agent's histories and cross-checking, and the process's peak RSS.
H runs from 1 to byzlab.scenario.MAX_HORIZON.  ROADMAP.md's baseline
table gives these figures for H=4, 5 and 6 on one machine.

Either mode exits 1 on a refuted verdict, and 3 with one `error:` line
on stderr when enumeration passes a scenario's node cap or a detector's
packing passes its cap, as `byzlab` does.

    python3 scripts/run_suite.py [--scenario NAME | --stress H] [--json]
"""

import argparse
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(HERE, "..", "src"))
sys.path.insert(0, os.path.join(HERE, "..", "perfbench"))

import gen
from byzlab.chains import PackingCapExceeded
from byzlab.cli import EXIT_CAP
from byzlab.detect import cross_check
from byzlab.engine import CapExceeded, enumerate_runs, future_key
from byzlab.oracle import InterpretedSystem
from byzlab.scenario import MAX_HORIZON, load_scenario, scenario_from_json

SCENARIO_DIR = os.path.join(HERE, "..", "scenarios")


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


STRESS_COLUMNS = [("horizon", 8), ("runs", 8), ("states", 8),
                  ("expanded", 10), ("histories", 11), ("verdicts", 10),
                  ("refuted", 9), ("enumerate_s", 13), ("classes_s", 11),
                  ("cross_check_s", 15), ("peak_rss_mb", 13)]


def stress(horizon):
    doc, _ = gen.formulas(1)
    menus = doc["env_protocol"]["menus"]
    doc["env_protocol"]["menus"] = [menus[0]] * horizon
    doc["horizon"] = horizon
    sc = scenario_from_json(doc, f"stress{horizon}")
    start = time.monotonic()
    runs = enumerate_runs(sc.ctx)
    enumerated = time.monotonic()
    system = InterpretedSystem(runs)
    histories = sum(len(system.agent_classes(i))
                    for i in range(1, sc.ctx.n + 1))
    classed = time.monotonic()
    verdicts = cross_check(sc, system)
    checked = time.monotonic()
    nodes = {id(s): (t, s) for r in runs
             for t, s in enumerate(r.states[:-1])}.values()
    return {
        "horizon": horizon, "runs": len(runs), "states": system.nodes,
        "expanded": len({future_key(t, s) for t, s in nodes}),
        "histories": histories, "verdicts": len(verdicts),
        "refuted": sum(not ok for *_, ok in verdicts),
        "enumerate_s": round(enumerated - start, 3),
        "classes_s": round(classed - enumerated, 3),
        "cross_check_s": round(checked - classed, 3),
        "peak_rss_mb": round(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    which = ap.add_mutually_exclusive_group()
    which.add_argument("--scenario", metavar="NAME",
                       help="run a single scenario by name")
    which.add_argument("--stress", type=int, metavar="H",
                       help="run the stress family at horizon H instead")
    ap.add_argument("--json", action="store_true", help="machine output")
    args = ap.parse_args()
    try:
        return run(ap, args)
    except (CapExceeded, PackingCapExceeded) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CAP


def run(ap, args):
    if args.stress is not None:
        if not 1 <= args.stress <= MAX_HORIZON:
            ap.error(f"--stress needs a horizon in 1..{MAX_HORIZON}")
        row = stress(args.stress)
        if args.json:
            print(json.dumps(row, indent=2))
        else:
            print("".join(f"{k:>{w}}" for k, w in STRESS_COLUMNS))
            print("".join(f"{row[k]:>{w}}" for k, w in STRESS_COLUMNS))
        return 1 if row["refuted"] else 0

    names = sorted(n[:-5] for n in os.listdir(SCENARIO_DIR)
                   if n.endswith(".json"))
    if args.scenario:
        if args.scenario not in names:
            ap.error(f"unknown scenario {args.scenario!r}; known: "
                     + ", ".join(names))
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
        print(f"\n{sum(r['verdicts'] for r in rows)} verdicts, "
              f"{sum(r['refuted'] for r in rows)} refuted")
    return 1 if any(r["refuted"] for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
