"""Command-line front end.

    byzlab simulate SCENARIO [--seed N] [--out FILE]
    byzlab simulate SCENARIO --enumerate
    byzlab detect   SCENARIO --trace FILE [--agent I] [--query EVENT,K]...
    byzlab check    SCENARIO [--formula STR] [--against-detection]
    byzlab validate SCENARIO

Exit codes: 0 success, 2 invalid scenario/trace/formula, 3 node cap
exceeded or a packing asked of more chains than the packing cap, 4 a
detector claim the oracle refutes or a trust entry whose contract the
enumerated system breaks, 141 (128 + SIGPIPE) a closed stdout, with
nothing on stderr.  BYZLAB_NODE_CAP overrides the scenario's node cap.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace

from .atoms import AtomTimeError
from .chains import PackingCapExceeded
from .detect import (
    DetectionInput, belief_who_is_faulty, cross_check, group_occurrence_belief,
)
from .engine import CapExceeded, count_choice_tree, enumerate_runs, seeded_run
from .formulas import parse_formula
from .haps import External
from .oracle import InterpretedSystem
from .protocols import check_closure_properties
from .scenario import Scenario, load_scenario
from .serial import InputError, hapset_to_json, typed
from .trace import read_trace, trace_lines, write_trace

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_CAP = 3
EXIT_UNSOUND = 4
EXIT_PIPE = 141  # 128 + SIGPIPE


def _int_arg(raw: str, where: str, lo: int, hi=None) -> int:
    """The integer the text `raw` spells, in lo..hi; InputError otherwise."""
    return typed(int(raw) if raw.strip().isdecimal() else raw,
                 where, int, lo, hi)


def _load(path: str) -> Scenario:
    raw = os.environ.get("BYZLAB_NODE_CAP")
    cap = None if raw is None else _int_arg(raw, "BYZLAB_NODE_CAP", 1)
    sc = load_scenario(path)
    if cap is not None:
        sc = replace(sc, ctx=replace(sc.ctx, node_cap=cap))
    return sc


def _build_system(sc: Scenario) -> InterpretedSystem:
    runs = enumerate_runs(sc.ctx)
    return InterpretedSystem(runs, quiescent=sc.ctx.env.span <= sc.ctx.horizon)


def cmd_simulate(args) -> int:
    sc = _load(args.scenario)
    if args.enumerate:
        if args.out:
            raise InputError("--out", "writes one seeded run's trace; "
                             "--enumerate writes no run file")
        runs = enumerate_runs(sc.ctx)
        print(json.dumps({"scenario": sc.name, "mode": "enumerate",
                          "runs": len(runs)}))
        return EXIT_OK
    seed = args.seed if args.seed is not None else sc.seed
    run = seeded_run(sc.ctx, seed)
    if args.out:
        write_trace(args.out, run, sc.name, seed)
        print(json.dumps({"scenario": sc.name, "mode": "seeded", "seed": seed,
                          "rounds": run.horizon, "out": args.out}))
    else:
        for line in trace_lines(run, sc.name, seed):
            print(line)
    return EXIT_OK


def _parse_query(raw: str, n: int, f: int):
    """EVENT and a group size K in 1..n-f, so that K + f <= n."""
    event, _, k = raw.rpartition(",")
    if not event:
        raise InputError("--query", f"expected EVENT,K, got {raw!r}")
    return event, _int_arg(k, "--query", 1, n - f)


def cmd_detect(args) -> int:
    sc = _load(args.scenario)
    run, header = read_trace(args.trace)
    n = sc.ctx.n
    if header["agents"] != n:
        raise InputError(args.trace, f"{header['agents']} agents, "
                         f"scenario has {n}")
    queries = [_parse_query(q, n, sc.ctx.f) for q in args.query]
    agents = list(range(1, n + 1)) if args.agent is None else \
        [typed(args.agent, "--agent", int, 1, n)]
    report = {"scenario": sc.name, "trace": args.trace, "agents": {}}
    for i in agents:
        h = run.local(i, run.horizon)
        bel = belief_who_is_faulty(DetectionInput(
            h, i, sc.ctx.f, sc.ctx.protocols, sc.trust))
        entry = {
            "faulty": sorted(bel.faulty),
            "iterations": bel.iterations,
            "provenance": {str(j): list(map(_jsonable, how))
                           for j, how in sorted(bel.provenance.items())},
        }
        if queries:
            entry["occurrence"] = [
                {"event": ev, "k": k,
                 "believed": group_occurrence_belief(
                     h, i, External(ev), k, sc.ctx.f, bel.faulty, sc.trust,
                     n, include_self=args.include_self,
                     extracted=bel.extracted)}
                for ev, k in queries]
        report["agents"][str(i)] = entry
    print(json.dumps(report, sort_keys=True, indent=2))
    return EXIT_OK


def _jsonable(v):
    if isinstance(v, frozenset):
        return sorted(map(list, v))
    return v


def cmd_check(args) -> int:
    sc = _load(args.scenario)
    if not args.formula and not args.against_detection:
        raise InputError("--formula", "need a formula or --against-detection")
    system = _build_system(sc)
    out = {"scenario": sc.name, "runs": len(system.runs),
           "points": len(system.runs) * (system.horizon + 1)}
    if args.formula:
        try:
            phi = parse_formula(args.formula, n=sc.ctx.n)
        except ValueError as e:
            raise InputError("--formula", str(e))
        try:
            verdicts, warning = system.check(phi)
        except AtomTimeError as e:
            raise InputError(
                "--formula", f"{args.formula!r} cannot be evaluated: {e}")
        true_pts = [p for p, v in verdicts if v]
        out["formula"] = args.formula
        out["true_at"] = len(true_pts)
        out["false_at"] = len(verdicts) - len(true_pts)
        out["counterexamples"] = [list(p) for p, v in verdicts if not v][:5]
        if warning:
            out["warning"] = warning
    unsound = []
    if args.against_detection:
        unsound = [{"agent": i, "about": j, "point": list(p)}
                   for i, j, p, ok in cross_check(sc, system) if not ok]
        out["detection_claims_refuted"] = unsound
    print(json.dumps(out, sort_keys=True, indent=2))
    return EXIT_UNSOUND if unsound else EXIT_OK


def cmd_validate(args) -> int:
    sc = _load(args.scenario)
    ctx = sc.ctx
    closure = check_closure_properties(ctx)
    # the trust check enumerates the system, whose runs are the leaves
    system = _build_system(sc) if sc.trust.entries else None
    leaves = count_choice_tree(ctx) if system is None else len(system.runs)
    report = {
        "scenario": sc.name,
        "agents": ctx.n, "f": ctx.f, "template": ctx.template,
        "horizon": ctx.horizon,
        "menu_sizes": [len(ctx.env(t)) for t in range(ctx.horizon)],
        "choice_tree_leaves": leaves,
        "trust_entries": len(sc.trust.entries),
        "closure": {str(i): props for i, props in sorted(closure.items())},
    }
    warnings = []
    for i, props in sorted(closure.items()):
        missing = [name for name, ok in sorted(props.items()) if not ok]
        if missing:
            warnings.append(f"agent {i} is not {', '.join(missing)} "
                            "under the environment protocol")
    if ctx.env.span > ctx.horizon:
        warnings.append("environment menus extend past the horizon; "
                        "G-formulas will carry a non-quiescence warning")
    if warnings:
        report["warnings"] = warnings
    violations = []
    if system is not None:
        for j, i, msg, (r, t) in system.verify_trust_table(
                sc.trust, ctx.protocols):
            h = system.runs[r].local(j, t)
            violations.append({
                "from": j, "to": i, "msg": msg, "point": [r, t],
                "history": {"initial": h.initial,
                            "rounds": list(map(hapset_to_json, h.rounds))}})
        report["trust_violations"] = violations
    print(json.dumps(report, sort_keys=True, indent=2))
    return EXIT_UNSOUND if violations else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="byzlab",
        description="simulate, detect and model-check byzantine scenarios")
    sub = ap.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run one seeded round sequence "
                         "or enumerate every run")
    sim.add_argument("scenario")
    g = sim.add_mutually_exclusive_group()
    g.add_argument("--seed", type=int, default=None)
    g.add_argument("--enumerate", action="store_true")
    sim.add_argument("--out", default=None)
    sim.set_defaults(fn=cmd_simulate)

    det = sub.add_parser("detect", help="run the local fault detectors "
                         "over a recorded trace")
    det.add_argument("scenario")
    det.add_argument("--trace", required=True)
    det.add_argument("--agent", type=int, default=None)
    det.add_argument("--query", action="append", default=[],
                     metavar="EVENT,K",
                     help="also test group occurrence belief for EVENT")
    det.add_argument("--include-self", action="store_true")
    det.set_defaults(fn=cmd_detect)

    chk = sub.add_parser("check", help="evaluate a formula over every "
                         "reachable point")
    chk.add_argument("scenario")
    chk.add_argument("--formula", default=None)
    chk.add_argument("--against-detection", action="store_true",
                     help="also refute-test every believed-faulty verdict")
    chk.set_defaults(fn=cmd_check)

    val = sub.add_parser("validate", help="sanity-check a scenario file "
                         "and its trust table's contract")
    val.add_argument("scenario")
    val.set_defaults(fn=cmd_validate)
    return ap


def exit_status(fn, *args) -> int:
    """`fn(*args)`'s exit code, with stdout flushed, or the code of the
    exception it raised: 141 for a closed stdout, 2 for invalid input
    and 3 for an exceeded cap, each but the first with one `error:` line
    on stderr.  Every front end runs its command through it."""
    try:
        code = fn(*args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:  # not an input error; the last flush needs a sink
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE
    except (InputError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INVALID
    except (CapExceeded, PackingCapExceeded) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CAP


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return exit_status(args.fn, args)


if __name__ == "__main__":
    sys.exit(main())
