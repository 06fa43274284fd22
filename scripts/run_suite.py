#!/usr/bin/env python3
"""Confront the scenario corpus, or one stress system: enumerate, detect,
cross-check.

The corpus is every scenario under scenarios/, or `--scenario NAME`.
`--stress H`, for H in 1..byzlab.scenario.MAX_HORIZON, instead builds
one system of the stress family: the benchmark's `formulas` scenario
(perfbench/gen.py, seed 1) with its round-0 menu repeated for H rounds.
ROADMAP.md's baseline table gives its figures for H=4, 5 and 6.

Each system gives one row, of one schema in both modes: its runs and
points; `states`, the distinct global states among the points, which
the interpreted system lists and on which the oracle evaluates state
formulas once; `expanded`, the distinct states enumeration stepped
from, counted as the distinct future keys of those states before the
horizon; the distinct histories of all agents; the detector verdicts
cross-checked against the brute-force oracle and the refuted ones; the
seconds spent enumerating, building the interpreted system over the
runs (`system_s`), classing every agent's histories (`classes_s`),
cross-checking and in all; and the process's peak RSS so far.  `--json`
prints the corpus as a list of rows and a stress system as one row.

Exit status, as `byzlab` gives it (`byzlab.cli.exit_status`): 1 on a
refuted verdict; 2, with one `error:` line on stderr that names the
file, on a scenario file that fails to load; 3, with one `error:` line, when enumeration
passes a scenario's node cap or a detector's packing passes its cap;
141 when stdout closes early.

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
from byzlab.cli import exit_status
from byzlab.detect import cross_check
from byzlab.engine import enumerate_runs, future_key
from byzlab.oracle import InterpretedSystem
from byzlab.scenario import MAX_HORIZON, scenario_from_json
from byzlab.serial import InputError, parse_json, read_text

SCENARIO_DIR = os.path.join(HERE, "..", "scenarios")

# The keys of the text tables' columns.
CORPUS_COLUMNS = ["scenario", "n", "f", "runs", "points", "states",
                  "expanded", "histories", "verdicts", "refuted", "seconds"]
STRESS_COLUMNS = ["horizon", "runs", "states", "expanded", "histories",
                  "verdicts", "refuted", "enumerate_s", "system_s",
                  "classes_s", "cross_check_s", "peak_rss_mb"]


def confront(sc):
    """The row of scenario `sc`: enumerate its system, class every
    agent's histories and cross-check each detector verdict."""
    start = time.monotonic()
    runs = enumerate_runs(sc.ctx)
    enumerated = time.monotonic()
    system = InterpretedSystem(runs)
    built = time.monotonic()
    histories = sum(len(system.agent_classes(i))
                    for i in range(1, sc.ctx.n + 1))
    classed = time.monotonic()
    verdicts = cross_check(sc, system)
    checked = time.monotonic()
    return {
        "scenario": sc.name, "n": sc.ctx.n, "f": sc.ctx.f,
        "horizon": sc.ctx.horizon, "runs": len(runs),
        "points": len(runs) * (system.horizon + 1),
        "states": len(system.states), "expanded": len({
            future_key(len(s.env), s) for s in system.states
            if len(s.env) < system.horizon}),
        "histories": histories, "verdicts": len(verdicts),
        "refuted": sum(not ok for *_, ok in verdicts),
        "enumerate_s": round(enumerated - start, 3),
        "system_s": round(built - enumerated, 3),
        "classes_s": round(classed - built, 3),
        "cross_check_s": round(checked - classed, 3),
        "seconds": round(checked - start, 3),
        "peak_rss_mb": round(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
    }


def stress(horizon):
    """The stress family's scenario at `horizon`."""
    doc, _ = gen.formulas(1)
    menus = doc["env_protocol"]["menus"]
    doc["env_protocol"]["menus"] = [menus[0]] * horizon
    doc["horizon"] = horizon
    return scenario_from_json(doc, f"stress{horizon}")


def corpus_scenario(name):
    """Corpus scenario `name`; an error in its content names its file
    before the JSON path, as a file that is no JSON already does."""
    path = os.path.join(SCENARIO_DIR, name + ".json")
    doc = parse_json(read_text(path), path)
    try:
        return scenario_from_json(doc, name)
    except InputError as e:
        raise InputError(path, str(e)) from None


def print_table(rows, columns):
    """Each column as wide as its widest cell; text left-aligned."""
    lines = [columns] + [[str(row[k]) for k in columns] for row in rows]
    widths = [max(map(len, cells)) for cells in zip(*lines)]
    left = [isinstance(rows[0][k], str) for k in columns]
    for line in lines:
        print("  ".join(c.ljust(w) if l else c.rjust(w)
                        for c, w, l in zip(line, widths, left)))
    print(f"\n{sum(r['verdicts'] for r in rows)} verdicts, "
          f"{sum(r['refuted'] for r in rows)} refuted")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    which = ap.add_mutually_exclusive_group()
    which.add_argument("--scenario", metavar="NAME",
                       help="run a single scenario by name")
    which.add_argument("--stress", type=int, metavar="H",
                       help="run the stress family at horizon H instead")
    ap.add_argument("--json", action="store_true", help="machine output")
    return exit_status(run, ap, ap.parse_args())


def run(ap, args):
    if args.stress is not None:
        if not 1 <= args.stress <= MAX_HORIZON:
            ap.error(f"--stress needs a horizon in 1..{MAX_HORIZON}")
        rows = [confront(stress(args.stress))]
        columns = STRESS_COLUMNS
    else:
        names = sorted(n[:-5] for n in os.listdir(SCENARIO_DIR)
                       if n.endswith(".json"))
        if args.scenario:
            if args.scenario not in names:
                ap.error(f"unknown scenario {args.scenario!r}; known: "
                         + ", ".join(names))
            names = [args.scenario]
        rows = [confront(corpus_scenario(name)) for name in names]
        columns = CORPUS_COLUMNS
    if args.json:
        print(json.dumps(rows[0] if args.stress else rows, indent=2))
    else:
        print_table(rows, columns)
    return 1 if any(r["refuted"] for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
