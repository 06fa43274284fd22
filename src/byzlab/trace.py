"""Line-delimited JSON traces of runs.

A trace is one header line followed by one line per round:

    {"kind": "header", "version": 1, "scenario": ..., "seed": ...,
     "agents": n, "initials": [...]}
    {"kind": "round", "t": 0, "haps": [[...], ...]}
    ...

Each round line carries the environment's verbatim record of the round
(events plus every agent's performed actions); local histories are
reconstructed from it on load.  Serialization is canonical, so the same
run always produces byte-identical text.
"""

from __future__ import annotations

import json
from typing import List, Tuple

from .haps import Run, apply_round, initial_state
from .serial import ghap_from_json, ghap_to_json, hapset_to_json

TRACE_VERSION = 1


class TraceError(ValueError):
    pass


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def trace_lines(run: Run, scenario: str, seed=None) -> List[str]:
    final = run.state(run.horizon)
    lines = [_dumps({
        "kind": "header", "version": TRACE_VERSION, "scenario": scenario,
        "seed": seed, "agents": len(final.locals),
        "initials": [h.initial for h in final.locals],
    })]
    for t, rnd in enumerate(final.env):
        lines.append(_dumps({
            "kind": "round", "t": t,
            "haps": hapset_to_json(rnd, ghap_to_json),
        }))
    return lines


def write_trace(path: str, run: Run, scenario: str, seed=None) -> None:
    with open(path, "w") as fh:
        for line in trace_lines(run, scenario, seed):
            fh.write(line + "\n")


def read_trace(path: str) -> Tuple[Run, dict]:
    """Load a trace and rebuild the full run it records."""
    with open(path) as fh:
        lines = [ln for ln in fh.read().splitlines() if ln.strip()]
    if not lines:
        raise TraceError(f"{path}: empty trace")
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as e:
        raise TraceError(f"{path}:1: not valid JSON ({e})")
    if not isinstance(header, dict) or header.get("kind") != "header":
        raise TraceError(f"{path}:1: first line must be the header")
    if header.get("version") != TRACE_VERSION:
        raise TraceError(f"{path}:1: unsupported version {header.get('version')!r}")
    n = header.get("agents")
    if not isinstance(n, int) or n < 1:
        raise TraceError(f"{path}:1: agents must be a positive integer")
    initials = header.get("initials")
    if not isinstance(initials, list) \
            or not all(isinstance(s, str) for s in initials):
        raise TraceError(f"{path}:1: initials must be a list of state ids")
    if len(initials) != n:
        raise TraceError(f"{path}:1: got {len(initials)} initial states for {n} agents")

    state = initial_state(initials)
    states = [state]
    for lineno, line in enumerate(lines[1:], start=2):
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as e:
            raise TraceError(f"{path}:{lineno}: not valid JSON ({e})")
        if not isinstance(rec, dict) or rec.get("kind") != "round":
            raise TraceError(f"{path}:{lineno}: expected a round record")
        if rec.get("t") != lineno - 2:
            raise TraceError(f"{path}:{lineno}: rounds out of order "
                             f"(t={rec.get('t')!r}, expected {lineno - 2})")
        try:
            rnd = frozenset(ghap_from_json(v, n) for v in rec["haps"])
        except (ValueError, TypeError, IndexError, KeyError) as e:
            raise TraceError(f"{path}:{lineno}: bad hap ({e})")
        state = apply_round(state, rnd)
        states.append(state)
    return Run(tuple(states)), header
