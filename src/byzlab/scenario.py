"""Scenario files: a JSON description of one finite system to explore.

Top-level keys:

    agents           int, number of agents (>= 1)
    f                int, fault budget (default 0)
    template         "B" or "Bf" (default "Bf")
    horizon          int, number of rounds to run
    initial_states   list of per-agent state-id lists, e.g. [["a","b","b"]]
    agent_protocols  map agent-id -> list of {"guard": ..., "choices": [[hap]]}
    env_protocol     {"menus": [{"sets": [[ghap]], "close": bool}, ...]}
    trust_table      list of {"from", "to", "msg", "formula", "chain"}
    adversary        {"mode": "seeded" | "enumerate", "seed": int}
    caps             {"node_cap": int, "menu_cap": int}   (optional)

Haps follow the canonical array serialization.  Menu sets hold events
only, and rule choices hold sends only: a correct send comes from an
agent's protocol, never from the environment.  A `gsend` inside a byz
action may give null for `sent_at`; it is filled with the timestamp of
the menu it appears in.  A menu marked "close" is saturated
so every agent stays fallible, correctable, delayable and gullible.
Every agent a hap or a `received`/`sent` guard names must lie in 1..n.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

from .chains import TrustTable
from .engine import AgentContext
from .formulas import parse_formula
from .haps import ByzAction, GSend, Send, is_event
from .protocols import (
    AgentProtocol, EnvProtocol, Rule, check_t_coherent, close_menu,
)
from .serial import agent_id, ghap_from_json, local_from_json


class ScenarioError(ValueError):
    """Invalid scenario file; `where` is a path into the JSON document."""

    def __init__(self, where: str, message: str):
        super().__init__(f"{where}: {message}")
        self.where = where


@dataclass(frozen=True)
class Scenario:
    name: str
    ctx: AgentContext
    trust: TrustTable
    seed: int


# guard operator -> number of arguments; "all" and "any" take any number
_GUARD_ARITY = {"always": 0, "self_faulty": 0, "received": 2, "sent": 2,
                "observed": 1, "initial": 1, "active_at_least": 1, "not": 1}


def _object(doc: dict, key: str) -> dict:
    """The optional object under `key`; {} when absent."""
    v = doc.get(key, {})
    if not isinstance(v, dict):
        raise ScenarioError(key, "must be an object")
    return v


def _guard_from_json(v, where: str, n: int) -> tuple:
    if not isinstance(v, list) or not v:
        raise ScenarioError(where, "guard must be a non-empty array")
    op = v[0]
    if op in _GUARD_ARITY and len(v) != 1 + _GUARD_ARITY[op]:
        raise ScenarioError(
            where, f"guard {op!r} takes {_GUARD_ARITY[op]} argument(s)")
    if op in ("always", "self_faulty"):
        return (op,)
    if op in ("received", "sent"):
        try:
            return (op, agent_id(v[1], n), v[2])
        except ValueError as e:
            raise ScenarioError(where, str(e))
    if op == "observed":
        try:
            return (op, local_from_json(v[1], n))
        except (ValueError, TypeError, IndexError, KeyError) as e:
            raise ScenarioError(where, f"bad hap: {e}")
    if op in ("initial", "active_at_least"):
        return (op, v[1])
    if op == "not":
        return (op, _guard_from_json(v[1], where, n))
    if op in ("all", "any"):
        return (op, *(_guard_from_json(g, where, n) for g in v[1:]))
    raise ScenarioError(where, f"unknown guard operator {op!r}")


def _fill_sent_at(g, t: int):
    if isinstance(g, GSend) and g.sent_at is None:
        return GSend(g.agent, g.to, g.msg, g.copy, t)
    if isinstance(g, ByzAction) and (g.performed or g.recorded):
        return ByzAction(
            g.agent,
            None if g.performed is None else _fill_sent_at(g.performed, t),
            None if g.recorded is None else _fill_sent_at(g.recorded, t))
    return g


def load_scenario(path: str, name: Optional[str] = None,
                  node_cap: Optional[int] = None) -> Scenario:
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as e:
            raise ScenarioError(path, f"not valid JSON ({e})")
    return scenario_from_json(doc, name or path, node_cap)


def scenario_from_json(doc: dict, name: str,
                       node_cap: Optional[int] = None) -> Scenario:
    if not isinstance(doc, dict):
        raise ScenarioError("$", "scenario must be a JSON object")

    n = doc.get("agents")
    if not isinstance(n, int) or n < 1:
        raise ScenarioError("agents", "need a positive agent count")
    f = doc.get("f", 0)
    if not isinstance(f, int) or f < 0 or f > n:
        raise ScenarioError("f", f"fault budget must lie in 0..{n}")
    template = doc.get("template", "Bf")
    if template not in ("B", "Bf"):
        raise ScenarioError("template", f"unknown template {template!r}")
    horizon = doc.get("horizon")
    if not isinstance(horizon, int) or horizon < 1:
        raise ScenarioError("horizon", "need a positive horizon")

    raw_inits = doc.get("initial_states")
    if not isinstance(raw_inits, list) or not raw_inits:
        raise ScenarioError("initial_states", "need at least one joint state")
    initials = []
    for k, joint in enumerate(raw_inits):
        if not isinstance(joint, list) or len(joint) != n:
            raise ScenarioError(f"initial_states[{k}]",
                                f"need one state id per agent ({n})")
        initials.append(tuple(str(s) for s in joint))

    raw_prots = doc.get("agent_protocols", {})
    if not isinstance(raw_prots, dict):
        raise ScenarioError("agent_protocols",
                            "must map agent ids to rule lists")
    protocols = []
    for i in range(1, n + 1):
        rules_doc = raw_prots.get(str(i))
        where = f"agent_protocols.{i}"
        if rules_doc is None:
            # no table: the agent idles, every round
            rules_doc = [{"guard": ["always"], "choices": [[]]}]
        if not isinstance(rules_doc, list):
            raise ScenarioError(where, "need a list of rules")
        rules = []
        for k, rd in enumerate(rules_doc):
            rw = f"{where}[{k}]"
            if not isinstance(rd, dict):
                raise ScenarioError(rw, "a rule must be an object")
            guard = _guard_from_json(rd.get("guard", ["always"]), rw + ".guard",
                                     n)
            choices_doc = rd.get("choices")
            if not isinstance(choices_doc, list) or not choices_doc:
                raise ScenarioError(rw + ".choices",
                                    "need a non-empty list of action sets")
            choices = []
            for m, D in enumerate(choices_doc):
                try:
                    choices.append(frozenset(local_from_json(a, n) for a in D))
                except (ValueError, TypeError, IndexError, KeyError) as e:
                    raise ScenarioError(f"{rw}.choices[{m}]", f"bad hap: {e}")
                if not all(isinstance(a, Send) for a in choices[-1]):
                    raise ScenarioError(f"{rw}.choices[{m}]",
                                        "choices hold sends only")
            rules.append(Rule(guard, tuple(choices)))
        if not any(r.guard == ("always",) for r in rules):
            rules.append(Rule(("always",), (frozenset(),)))
        protocols.append(AgentProtocol(i, tuple(rules)))

    env_doc = _object(doc, "env_protocol")
    menus_doc = env_doc.get("menus", [])
    if not isinstance(menus_doc, list):
        raise ScenarioError("env_protocol.menus", "need a list of menus")
    caps = _object(doc, "caps")
    menu_cap = caps.get("menu_cap", 4096)
    if not isinstance(menu_cap, int) or menu_cap < 1:
        raise ScenarioError("caps.menu_cap", "cap must be a positive integer")
    menus = []
    for t, md in enumerate(menus_doc):
        where = f"env_protocol.menus[{t}]"
        if not isinstance(md, dict):
            raise ScenarioError(where, "a menu must be an object")
        sets_doc = md.get("sets", [[]])
        menu = []
        for k, S in enumerate(sets_doc):
            try:
                X = frozenset(_fill_sent_at(ghap_from_json(g, n), t)
                              for g in S)
            except (ValueError, TypeError, IndexError, KeyError) as e:
                raise ScenarioError(f"{where}.sets[{k}]", f"bad hap: {e}")
            for g in X:
                if not is_event(g):
                    raise ScenarioError(f"{where}.sets[{k}]",
                                        "menus hold events only")
            if not check_t_coherent(X, t):
                raise ScenarioError(f"{where}.sets[{k}]",
                                    f"event set is not {t}-coherent")
            menu.append(X)
        if not menu:
            menu = [frozenset()]
        if md.get("close"):
            try:
                menu = list(close_menu(tuple(menu), n, t, cap=menu_cap))
            except ValueError as e:
                raise ScenarioError(where, str(e))
        menus.append(tuple(menu))
    if not menus:
        menus = [(frozenset(),)]

    trust_doc = doc.get("trust_table", [])
    entries = {}
    for k, ed in enumerate(trust_doc):
        where = f"trust_table[{k}]"
        try:
            sender, receiver, msg = ed["from"], ed["to"], ed["msg"]
        except (KeyError, TypeError):
            raise ScenarioError(where, "need from, to and msg")
        for a in (sender, receiver):
            if not isinstance(a, int) or not (1 <= a <= n):
                raise ScenarioError(where, f"agent {a!r} out of range 1..{n}")
        text = ed.get("formula")
        if not isinstance(text, str):
            raise ScenarioError(where + ".formula", "need a formula string")
        try:
            phi = parse_formula(text, n=n)
        except ValueError as e:
            raise ScenarioError(where + ".formula", str(e))
        chain = tuple(ed.get("chain", []))
        if any(not isinstance(a, int) or not (1 <= a <= n) for a in chain):
            raise ScenarioError(where + ".chain", f"agents must lie in 1..{n}")
        entries[(sender, receiver, msg)] = (phi, chain)
    try:
        trust = TrustTable(entries)
    except ValueError as e:
        raise ScenarioError("trust_table", str(e))

    adv = _object(doc, "adversary")
    mode = adv.get("mode", "seeded")
    if mode not in ("seeded", "enumerate"):
        raise ScenarioError("adversary.mode", f"unknown mode {mode!r}")
    seed = adv.get("seed", 0)
    if not isinstance(seed, int):
        raise ScenarioError("adversary.seed", "seed must be an integer")

    cap = node_cap if node_cap is not None else caps.get("node_cap", 10 ** 6)
    if not isinstance(cap, int) or cap < 1:
        raise ScenarioError("caps.node_cap", "cap must be a positive integer")

    ctx = AgentContext(
        n=n, env=EnvProtocol(tuple(menus)), protocols=tuple(protocols),
        initials=tuple(initials), template=template, f=f,
        horizon=horizon, node_cap=cap)
    return Scenario(name=name, ctx=ctx, trust=trust, seed=seed)
