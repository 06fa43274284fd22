"""Line-delimited JSON traces of runs.

A trace is one header line followed by one line per round:

    {"kind": "header", "version": 1, "scenario": ..., "seed": ...,
     "agents": n, "initials": [...]}
    {"kind": "round", "t": 0, "haps": [[...], ...]}
    ...

Each round line carries the environment's verbatim record of the round
(events plus every agent's performed actions); local histories are
reconstructed from it on load.  A delivery must name a send of the
record so far or one stamped with its own round (the action filter may
drop a send the causality filter let a delivery name).  Serialization
is canonical, so the same run always produces byte-identical text.
"""

from __future__ import annotations

import json
from typing import List, Tuple

from .haps import GRecv, Run, apply_round, initial_state
from .serial import (
    InputError, decode_haps, field, hap_key, parse_json, read_text, to_json,
    typed,
)

TRACE_VERSION = 1


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def trace_lines(run: Run, scenario: str, seed=None) -> List[str]:
    """The trace of `run`: the header, then one line per round record.
    A round line joins its haps' sorted `hap_key`s, so each hap is
    encoded once.  The text equals what `_dumps` writes of the line's
    object with the record's `hapset_to_json` forms: both encoders are
    compact and ASCII-only, the forms sort by that same key, and the
    object's keys are written in `sort_keys` order."""
    final = run.state(run.horizon)
    lines = [_dumps({
        "kind": "header", "version": TRACE_VERSION, "scenario": scenario,
        "seed": seed, "agents": len(final.locals),
        "initials": [h.initial for h in final.locals],
    })]
    for t, rnd in enumerate(final.env):
        lines.append('{"haps":[%s],"kind":"round","t":%d}'
                     % (",".join(sorted(map(hap_key, rnd))), t))
    return lines


def write_trace(path: str, run: Run, scenario: str, seed=None) -> None:
    with open(path, "w") as fh:
        for line in trace_lines(run, scenario, seed):
            fh.write(line + "\n")


def _record(at: str, line: str, kind: str) -> dict:
    """The JSON object on the line at `at`, which must be a `kind` record."""
    rec = parse_json(line, at)
    if typed(rec, at, dict).get("kind") != kind:
        raise InputError(at, f"expected a {kind} record")
    return rec


def read_trace(path: str) -> Tuple[Run, dict]:
    """Load a trace and rebuild the full run it records."""
    lines = [(no, ln) for no, ln in
             enumerate(read_text(path).split("\n"), start=1) if ln.strip()]
    if not lines:
        raise InputError(path, "empty trace")
    at = f"{path}:{lines[0][0]}"
    header = _record(at, lines[0][1], "header")
    if field(header, "version", f"{at}: version", int) != TRACE_VERSION:
        raise InputError(at, f"unsupported version {header['version']!r}")
    n = field(header, "agents", f"{at}: agents", int, lo=1)
    initials = [typed(s, f"{at}: initials", str) for s in
                field(header, "initials", f"{at}: initials", list, lo=n, hi=n)]

    state = initial_state(initials)
    states = [state]
    for t, (lineno, line) in enumerate(lines[1:]):
        at = f"{path}:{lineno}"
        rec = _record(at, line, "round")
        if field(rec, "t", f"{at}: t", int) != t:
            raise InputError(at, f"rounds out of order (t={rec['t']!r}, "
                             f"expected {t})")
        haps = decode_haps(rec.get("haps"), f"{at}: haps", "global hap", n)
        state = apply_round(state, haps)
        for g in haps:
            if isinstance(g, GRecv) and (g.gmi is None or g.gmi not in
                                         state.sent and g.gmi.sent_at != t):
                raise InputError(f"{at}: haps",
                                 f"{_dumps(to_json(g))} names no send")
        states.append(state)
    return Run(tuple(states)), header
