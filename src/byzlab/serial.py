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
lies in 1..n, a byz_action carries only gsends and a byz_event only a
grecv or a gext.  A violation raises ValueError.
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


def agent_id(v, n: int) -> int:
    """`v` when it names one of agents 1..n; ValueError otherwise."""
    if not (isinstance(v, int) and 1 <= v <= n):
        raise ValueError(f"agent {v!r} out of range 1..{n}")
    return v


def local_from_json(v: list, n: int) -> LocalHap:
    kind = v[0]
    if kind == "send":
        copy = v[3] if len(v) > 3 else 0
        return Send(agent_id(v[1], n), v[2], copy)
    if kind == "recv":
        return Recv(agent_id(v[1], n), v[2])
    if kind == "ext":
        return External(v[1])
    raise ValueError(f"unknown local hap kind {kind!r}")


def _gmi_to_json(g: Optional[GMI]):
    return None if g is None else [g.sender, g.receiver, g.msg, g.copy, g.sent_at]


def _gmi_from_json(v, n: int) -> Optional[GMI]:
    return None if v is None else \
        GMI(agent_id(v[0], n), agent_id(v[1], n), v[2], v[3], v[4])


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


def _gsend_from_json(v, n: int) -> Optional[GSend]:
    if v is None:
        return None
    if v[0] != "gsend":
        raise ValueError("byz_action carries gsends only")
    return ghap_from_json(v, n)


def ghap_from_json(v: list, n: int) -> GlobalHap:
    """The hap `v` encodes, every agent it names checked against 1..n."""
    kind = v[0]
    if kind == "gsend":
        return GSend(agent_id(v[1], n), agent_id(v[2], n), v[3], v[4], v[5])
    if kind == "grecv":
        return GRecv(agent_id(v[1], n), agent_id(v[2], n), v[3],
                     _gmi_from_json(v[4], n) if len(v) > 4 else None)
    if kind == "gext":
        return GExternal(agent_id(v[1], n), v[2])
    if kind == "fail":
        return ByzAction(agent_id(v[1], n), None, None)
    if kind == "byz_action":
        return ByzAction(agent_id(v[1], n), _gsend_from_json(v[2], n),
                         _gsend_from_json(v[3], n))
    if kind == "byz_event":
        if v[2][0] not in ("grecv", "gext"):
            raise ValueError("byz_event carries a grecv or a gext")
        return ByzEvent(agent_id(v[1], n), ghap_from_json(v[2], n))
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
