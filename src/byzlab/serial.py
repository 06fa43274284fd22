"""Canonical textual serialization of haps, histories and states.

Local haps serialize as JSON arrays:

    ["send", to, msg, copy]      ["recv", from, msg]      ["ext", event]

Global haps:

    ["gsend", agent, to, msg, copy, sent_at]
    ["grecv", agent, from, msg, gmi-or-null]   gmi = [i, j, msg, copy, t]
    ["gext", agent, event]
    ["byz_action", agent, gsend-or-null, gsend-or-null]
    ["byz_event", agent, event]
    ["go", agent]  ["sleep", agent]  ["hib", agent]  ["fail", agent]

Sets of haps serialize as sorted arrays, so equal sets always produce
identical text.  The decoders take the agent count n and check while
they decode: every agent a hap names, nested haps and GMIs included,
is an integer in 1..n, messages and events are strings, copies and
timestamps are integers, a byz_action carries only gsends and a
byz_event only a grecv or a gext.  A violation raises ValueError (or
whatever indexing the malformed value raises); `decode_haps` turns any
of these into an `InputError` at a given place.

Scenario files and traces are read through `read_text` and
`parse_json`, and every check of a JSON value read from them goes
through `typed` and `field`; all of these raise
`InputError(where, message)`.
"""

from __future__ import annotations

import json
from typing import Optional

from .haps import (
    ByzAction, ByzEvent, External, GExternal, GMI, GRecv, GSend, GlobalHap,
    GlobalState, Go, Hib, LocalHap, LocalHistory, Recv, Run, Send, Sleep,
)


def local_to_json(a: LocalHap) -> list:
    if isinstance(a, Send):
        return ["send", a.to, a.msg, a.copy]
    if isinstance(a, Recv):
        return ["recv", a.frm, a.msg]
    if isinstance(a, External):
        return ["ext", a.event]
    raise TypeError(f"not a local hap: {a!r}")


class InputError(ValueError):
    """Malformed input; `where` is a JSON path or a `file:line`."""

    def __init__(self, where: str, message: str):
        super().__init__(f"{where}: {message}")
        self.where = where


_KIND_NAMES = {int: "an integer", str: "a string", bool: "true or false",
               list: "a list", dict: "an object"}


def typed(v, where: str, kind: type, lo=None, hi=None):
    """`v` when it is a JSON value of `kind` (a bool is not an int) and,
    if `lo` is given, its value (an int) or length (a str or list) lies
    in lo..hi; InputError at `where` otherwise.  None is of no kind."""
    if type(v) is not kind and (kind is int or not isinstance(v, kind)):
        raise InputError(where, f"need {_KIND_NAMES[kind]}, got {v!r}")
    if lo is not None:
        size = v if kind is int else len(v)
        if size < lo or (hi is not None and size > hi):
            span = f"{lo} or more" if hi is None else f"in {lo}..{hi}"
            what = "" if kind is int else " whose length is"
            raise InputError(
                where, f"need {_KIND_NAMES[kind]}{what} {span}, got {v!r}")
    return v


def read_text(path: str) -> str:
    """The text of the file at `path`; InputError at `path:line` when
    its bytes are not UTF-8."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as e:
        line = data.count(b"\n", 0, e.start) + 1
        raise InputError(f"{path}:{line}", f"not UTF-8 text ({e.reason} "
                         f"at byte {e.start})") from None


def parse_json(text: str, where: str):
    """The JSON value `text` holds; InputError at `where` when it is not
    JSON or nests past the interpreter's recursion limit."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise InputError(where, f"not valid JSON ({e})") from None
    except RecursionError:
        raise InputError(where, "JSON nested too deeply to read") from None


def field(doc: dict, key: str, where: str, kind: type, default=None,
          lo=None, hi=None):
    """`typed(doc[key], where, ...)`, or of `default` when the key is
    absent; a key without a default is required."""
    return typed(doc.get(key, default), where, kind, lo, hi)


def decode_haps(v, where: str, decode, *args) -> frozenset:
    """The set of haps `decode(h, *args)` gives for each h of the JSON
    list `v`; any error a malformed hap raises becomes InputError at
    `where`."""
    typed(v, where, list)
    try:
        return frozenset(decode(h, *args) for h in v)
    except (ValueError, TypeError, IndexError, KeyError) as e:
        raise InputError(where, f"bad hap: {e}") from None


def agent_id(v, n: int, where: str = "agent") -> int:
    """`v` when it names one of agents 1..n; InputError otherwise."""
    return typed(v, where, int, 1, n)


def local_from_json(v: list, n: int) -> LocalHap:
    kind = v[0]
    if kind == "send":
        copy = typed(v[3], "copy", int) if len(v) > 3 else 0
        return Send(agent_id(v[1], n), typed(v[2], "msg", str), copy)
    if kind == "recv":
        return Recv(agent_id(v[1], n), typed(v[2], "msg", str))
    if kind == "ext":
        return External(typed(v[1], "event", str))
    raise ValueError(f"unknown local hap kind {kind!r}")


def _gmi_to_json(g: Optional[GMI]):
    return None if g is None else [g.sender, g.receiver, g.msg, g.copy, g.sent_at]


def _gmi_from_json(v, n: int) -> Optional[GMI]:
    return None if v is None else \
        GMI(agent_id(v[0], n), agent_id(v[1], n), typed(v[2], "msg", str),
            typed(v[3], "copy", int), typed(v[4], "sent_at", int))


def ghap_to_json(g: GlobalHap) -> list:
    if isinstance(g, GSend):
        return ["gsend", g.agent, g.to, g.msg, g.copy, g.sent_at]
    if isinstance(g, GRecv):
        return ["grecv", g.agent, g.frm, g.msg, _gmi_to_json(g.gmi)]
    if isinstance(g, GExternal):
        return ["gext", g.agent, g.event]
    if isinstance(g, ByzAction):
        if g.performed is None and g.recorded is None:
            return ["fail", g.agent]
        return ["byz_action", g.agent,
                None if g.performed is None else ghap_to_json(g.performed),
                None if g.recorded is None else ghap_to_json(g.recorded)]
    if isinstance(g, ByzEvent):
        return ["byz_event", g.agent, ghap_to_json(g.event)]
    if isinstance(g, Go):
        return ["go", g.agent]
    if isinstance(g, Sleep):
        return ["sleep", g.agent]
    if isinstance(g, Hib):
        return ["hib", g.agent]
    raise TypeError(f"not a global hap: {g!r}")


def _gsend_from_json(v, n: int, t: Optional[int]) -> Optional[GSend]:
    if v is None:
        return None
    if v[0] != "gsend":
        raise ValueError("byz_action carries gsends only")
    return ghap_from_json(v, n, t)


def ghap_from_json(v: list, n: int, t: Optional[int] = None) -> GlobalHap:
    """The hap `v` encodes, every agent it names checked against 1..n.
    A gsend's null `sent_at` is allowed only when `t`, the timestamp of
    the menu the hap appears in, is given, and is filled with it."""
    kind = v[0]
    if kind == "gsend":
        sent_at = t if v[5] is None and t is not None else v[5]
        return GSend(agent_id(v[1], n), agent_id(v[2], n),
                     typed(v[3], "msg", str), typed(v[4], "copy", int),
                     typed(sent_at, "sent_at", int))
    if kind == "grecv":
        return GRecv(agent_id(v[1], n), agent_id(v[2], n),
                     typed(v[3], "msg", str),
                     _gmi_from_json(v[4], n) if len(v) > 4 else None)
    if kind == "gext":
        return GExternal(agent_id(v[1], n), typed(v[2], "event", str))
    if kind == "fail":
        return ByzAction(agent_id(v[1], n), None, None)
    if kind == "byz_action":
        return ByzAction(agent_id(v[1], n), _gsend_from_json(v[2], n, t),
                         _gsend_from_json(v[3], n, t))
    if kind == "byz_event":
        if v[2][0] not in ("grecv", "gext"):
            raise ValueError("byz_event carries a grecv or a gext")
        return ByzEvent(agent_id(v[1], n), ghap_from_json(v[2], n, t))
    if kind == "go":
        return Go(agent_id(v[1], n))
    if kind == "sleep":
        return Sleep(agent_id(v[1], n))
    if kind == "hib":
        return Hib(agent_id(v[1], n))
    raise ValueError(f"unknown global hap kind {kind!r}")


def ghap_key(g: GlobalHap) -> str:
    return json.dumps(ghap_to_json(g), separators=(",", ":"))


def local_key(a: LocalHap) -> str:
    return json.dumps(local_to_json(a), separators=(",", ":"))


def order_sets(sets, hap_key) -> tuple:
    """Hap sets in canonical order: by their members' keys, sorted and
    joined with "|".  Each distinct hap's key is computed once."""
    keys = {h: hap_key(h) for h in frozenset().union(*sets)}
    return tuple(sorted(sets, key=lambda X: "|".join(sorted(keys[h] for h in X))))


def hapset_to_json(haps, to_json) -> list:
    return sorted((to_json(h) for h in haps),
                  key=lambda v: json.dumps(v, separators=(",", ":")))


def history_to_json(h: LocalHistory) -> dict:
    return {"initial": h.initial,
            "rounds": [hapset_to_json(rnd, local_to_json) for rnd in h.rounds]}


def history_from_json(v: dict, n: int) -> LocalHistory:
    return LocalHistory(
        v["initial"],
        tuple(frozenset(local_from_json(a, n) for a in rnd)
              for rnd in v["rounds"]))


def state_to_json(s: GlobalState) -> dict:
    return {"env": [hapset_to_json(rnd, ghap_to_json) for rnd in s.env],
            "locals": [history_to_json(h) for h in s.locals]}


def run_to_json(r: Run) -> list:
    return [state_to_json(s) for s in r.states]
