"""Scenario files: a JSON description of one finite system to explore.

Top-level keys, with their JSON types; a key without a default is
required:

    agents           int >= 1, the number of agents n
    f                int in 0..n, fault budget (default 0)
    template         "B" or "Bf" (default "Bf")
    horizon          int in 1..MAX_HORIZON (256), number of rounds to run
    initial_states   non-empty list of joint states, each a list of n
                     state-id strings, e.g. [["a","b","b"]]
    agent_protocols  object from agent id "1".."n" to a list of rules
                     {"guard": guard (default ["always"]),
                      "choices": non-empty list of lists of local haps}
                     (default {}; an agent without rules idles)
    env_protocol     {"menus": list (default []) of menus
                      {"sets": list of lists of global haps (default [[]]),
                       "close": bool (default false)}}   (default {})
    trust_table      list (default []) of {"from": agent, "to": agent,
                     "msg": str, "formula": str, "chain": list of agents
                     (default [])}, at most one per (from, to, msg)
    adversary        {"seed": int (default 0)}   (default {}), the seed
                     of `byzlab simulate` without --seed
    caps             {"node_cap": int >= 1 (default 1000000),
                      "menu_cap": int >= 1 (default 4096)}   (default {})

Haps and guards take the forms `serial.FORMS` lists, each with exactly
its listed arguments.  Menu sets hold events only, and rule choices
hold sends only: a correct send comes from an agent's protocol, never
from the environment.  A menu marked "close" is saturated so every
agent stays fallible, correctable, delayable and gullible.
Every agent a hap, a guard, a trust entry or an `agent_protocols` key
names must lie in 1..n.  A value of the wrong type raises InputError
with its JSON path, like every other violation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .chains import TrustTable
from .engine import AgentContext
from .formulas import parse_formula
from .haps import Send, is_event
from .protocols import (
    AgentProtocol, EnvProtocol, Rule, check_t_coherent, close_menu,
)
from .serial import (
    InputError, decode, decode_haps, field, parse_json, read_text, typed,
)


@dataclass(frozen=True)
class Scenario:
    name: str
    ctx: AgentContext
    trust: TrustTable
    seed: int


# The longest horizon a scenario may ask for: the enumeration walks and the
# choice-tree count recurse once per round, and a horizon near 1,000 would
# exhaust Python's default recursion limit.
MAX_HORIZON = 256


def load_scenario(path: str, name: Optional[str] = None) -> Scenario:
    doc = parse_json(read_text(path), path)
    return scenario_from_json(doc, name or path)


def scenario_from_json(doc: dict, name: str) -> Scenario:
    typed(doc, "$", dict)
    n = field(doc, "agents", "agents", int, lo=1)
    f = field(doc, "f", "f", int, 0, 0, n)
    template = field(doc, "template", "template", str, "Bf")
    if template not in ("B", "Bf"):
        raise InputError("template", f"unknown template {template!r}")
    horizon = field(doc, "horizon", "horizon", int, lo=1, hi=MAX_HORIZON)

    initials = []
    for k, joint in enumerate(
            field(doc, "initial_states", "initial_states", list, lo=1)):
        where = f"initial_states[{k}]"
        initials.append(tuple(typed(s, f"{where}[{m}]", str) for m, s
                              in enumerate(typed(joint, where, list, n, n))))

    raw_prots = field(doc, "agent_protocols", "agent_protocols", dict, {})
    ids = [str(i) for i in range(1, n + 1)]
    for key in raw_prots:
        if key not in ids:
            raise InputError(f"agent_protocols.{key}",
                             f"no such agent among 1..{n}")
    protocols = []
    for i in range(1, n + 1):
        where = f"agent_protocols.{i}"
        rules = []
        for k, rd in enumerate(field(raw_prots, str(i), where, list, [])):
            rw = f"{where}[{k}]"
            guard = decode(typed(rd, rw, dict).get("guard", ["always"]),
                           rw + ".guard", "guard", n)
            choices = []
            for m, D in enumerate(field(rd, "choices", rw + ".choices", list,
                                        lo=1)):
                choices.append(decode_haps(D, f"{rw}.choices[{m}]",
                                           "local hap", n))
                if not all(isinstance(a, Send) for a in choices[-1]):
                    raise InputError(f"{rw}.choices[{m}]",
                                     "choices hold sends only")
            rules.append(Rule(guard, tuple(choices)))
        if not any(r.guard == ("always",) for r in rules):
            # the fallback; an agent without a table idles every round
            rules.append(Rule(("always",), (frozenset(),)))
        protocols.append(AgentProtocol(i, tuple(rules)))

    env_doc = field(doc, "env_protocol", "env_protocol", dict, {})
    caps = field(doc, "caps", "caps", dict, {})
    menu_cap = field(caps, "menu_cap", "caps.menu_cap", int, 4096, lo=1)
    menus = []
    for t, md in enumerate(
            field(env_doc, "menus", "env_protocol.menus", list, [])):
        where = f"env_protocol.menus[{t}]"
        menu = []
        for k, S in enumerate(field(typed(md, where, dict), "sets",
                                    where + ".sets", list, [[]])):
            X = decode_haps(S, f"{where}.sets[{k}]", "global hap", n, t)
            if not all(is_event(g) for g in X):
                raise InputError(f"{where}.sets[{k}]",
                                 "menus hold events only")
            if not check_t_coherent(X, t):
                raise InputError(f"{where}.sets[{k}]",
                                 f"event set is not {t}-coherent")
            menu.append(X)
        if not menu:
            menu = [frozenset()]
        if field(md, "close", where + ".close", bool, False):
            try:
                menu = list(close_menu(tuple(menu), n, t, cap=menu_cap))
            except ValueError as e:
                raise InputError(where, str(e))
        menus.append(tuple(menu))
    if not menus:
        menus = [(frozenset(),)]

    entries = {}
    for k, ed in enumerate(field(doc, "trust_table", "trust_table", list, [])):
        where = f"trust_table[{k}]"
        typed(ed, where, dict)
        key = (typed(ed.get("from"), where + ".from", int, 1, n),
               typed(ed.get("to"), where + ".to", int, 1, n),
               field(ed, "msg", where + ".msg", str))
        if key in entries:
            raise InputError(where, f"repeats the (from, to, msg) {key}")
        text = field(ed, "formula", where + ".formula", str)
        try:
            phi = parse_formula(text, n=n)
        except ValueError as e:
            raise InputError(where + ".formula", str(e))
        entries[key] = (phi, tuple(
            typed(a, where + ".chain", int, 1, n)
            for a in field(ed, "chain", where + ".chain", list, [])))
    try:
        trust = TrustTable(entries)
    except ValueError as e:
        raise InputError("trust_table", str(e))

    adv = field(doc, "adversary", "adversary", dict, {})
    seed = field(adv, "seed", "adversary.seed", int, 0)
    ctx = AgentContext(
        n=n, env=EnvProtocol(tuple(menus)), protocols=tuple(protocols),
        initials=tuple(initials), template=template, f=f, horizon=horizon,
        node_cap=field(caps, "node_cap", "caps.node_cap", int, 10 ** 6, lo=1))
    return Scenario(name=name, ctx=ctx, trust=trust, seed=seed)
