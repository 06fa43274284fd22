"""Agent and environment protocols as finite rule tables and event menus.

Agent protocols are ordered guard -> choices tables; the first matching
rule supplies the non-empty list of candidate action sets the adversary
picks from.  Guards are a small predicate language over the local
history, so scenarios stay readable while the table remains finite.

Environment protocols map each timestamp to a finite menu of coherent
event sets.  The closure properties (fallible, correctable, delayable,
gullible) are written once, as the moves a closed menu must admit from
each of its sets: `check_closure_properties` audits a context's menus
against them, and `close_menu` closes each agent's part of a t-coherent
base set under them and takes the product of the closed parts.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, combinations, product
from typing import Dict, Tuple

from .haps import (
    FAULT_KINDS, AgentId, ByzAction, ByzEvent, GExternal, GRecv, Go, Hib,
    LocalHistory, Recv, Send, Sleep, Timestamp, fail,
)
from .serial import order_sets


@dataclass(frozen=True)
class Rule:
    guard: tuple  # parsed guard expression, see guard_holds
    choices: tuple  # tuple of frozensets of local actions, never empty

    def __post_init__(self):
        # the adversary's deterministic order over the choices
        object.__setattr__(self, "choices", order_sets(self.choices))


@dataclass(frozen=True)
class AgentProtocol:
    """Total map from local histories to a non-empty range of action sets."""

    agent: AgentId
    rules: Tuple[Rule, ...]

    def __call__(self, h: LocalHistory, self_faulty=None) -> tuple:
        """The first matching rule's choices.  `self_faulty`, when known,
        is the `self_faulty` guard's value on `h`, sparing the audit."""
        for rule in self.rules:
            if guard_holds(rule.guard, h, self, self_faulty):
                return rule.choices
        raise RuntimeError(f"protocol of agent {self.agent} has no default rule")

    def emittable(self, to: AgentId) -> frozenset:
        """Message ids some rule could ever send to `to`.

        Over-approximates actual reachability: guards are ignored, which
        keeps obvious-fault detection sound (a listed message is never
        branded obviously faulty).
        """
        return frozenset(a.msg for rule in self.rules for choice in rule.choices
                         for a in choice if isinstance(a, Send) and a.to == to)


# Guards are the tuples (operator, *arguments) of `serial.FORMS`.

def guard_holds(guard: tuple, h: LocalHistory, protocol: AgentProtocol,
                self_faulty=None) -> bool:
    op = guard[0]
    if op == "always":
        return True
    if op == "received":
        return Recv(guard[1], guard[2]) in h
    if op == "sent":
        return any(isinstance(a, Send) and a.to == guard[1] and a.msg == guard[2]
                   for rnd in h.rounds for a in rnd)
    if op == "observed":
        return guard[1] in h
    if op == "initial":
        return h.initial == guard[1]
    if op == "active_at_least":
        return h.active_rounds >= guard[1]
    if op == "self_faulty":
        if self_faulty is not None:
            return self_faulty
        # own-action audit; it asks the protocol about shorter prefixes
        from .detect import self_check_faulty
        return self_check_faulty(h, protocol.agent, protocol)
    if op == "not":
        return not guard_holds(guard[1], h, protocol, self_faulty)
    if op == "all":
        return all(guard_holds(g, h, protocol, self_faulty) for g in guard[1:])
    if op == "any":
        return any(guard_holds(g, h, protocol, self_faulty) for g in guard[1:])
    raise ValueError(f"unknown guard {guard!r}")


@dataclass(frozen=True)
class EnvProtocol:
    """Per-timestamp menus of event sets; depends on t only."""

    menus: tuple  # index t -> tuple of frozensets of GlobalHap

    def __post_init__(self):
        # the adversary's deterministic order over each menu
        object.__setattr__(self, "menus", tuple(
            order_sets(menu) for menu in self.menus))

    def __call__(self, t: Timestamp) -> tuple:
        if t < len(self.menus):
            return self.menus[t]
        return (frozenset(),)

    @property
    def span(self) -> int:
        return len(self.menus)


def fault_alphabet(menu, n: AgentId) -> Dict[AgentId, frozenset]:
    """Per-agent fault events appearing in a menu, plus fail(i) for all i."""
    alpha = {i: {fail(i)} for i in range(1, n + 1)}
    for X in menu:
        for g in X:
            if isinstance(g, FAULT_KINDS):
                alpha[g.agent].add(g)
    return {i: frozenset(s) for i, s in alpha.items()}


# ---------------------------------------------------------------------------
# Coherence and the closure properties

def check_t_coherent(S: frozenset, t: Timestamp) -> bool:
    """The five mutual-compatibility conditions on a round's event set."""
    recvs = set()      # (receiver, sender, msg) with a correct delivery
    fake_recvs = set()
    exts = set()
    fake_exts = set()
    sys_seen = set()
    for g in S:
        if isinstance(g, ByzAction) and g.performed is not None \
                and g.performed.sent_at != t:
            return False
        if isinstance(g, (Go, Sleep, Hib)):
            if g.agent in sys_seen:
                return False
            sys_seen.add(g.agent)
        if isinstance(g, GExternal):
            exts.add((g.agent, g.event))
        if isinstance(g, ByzEvent):
            ev = g.event
            if isinstance(ev, GExternal):
                fake_exts.add((g.agent, ev.event))
            elif isinstance(ev, GRecv):
                fake_recvs.add((ev.agent, ev.frm, ev.msg))
        if isinstance(g, GRecv):
            recvs.add((g.agent, g.frm, g.msg))
    return not (exts & fake_exts or recvs & fake_recvs)


def _closure_moves(X: frozenset, alphabet: Dict[AgentId, frozenset],
                   joined: set, found=()):
    """(agent i, property, set) for each move a closed menu must admit
    from X: fallible adds fail(i), correctable drops i's fault events,
    delayable drops all of i's events and gullible joins that remainder
    with each subset of i's fault alphabet.  Those depend on X only via
    the remainder, so they are made once per (i, remainder) in `joined`,
    as they are read, and no more once (i, "gullible") is in `found`."""
    for i, alpha in alphabet.items():
        yield i, "fallible", X | {fail(i)}
        yield i, "correctable", X - frozenset(
            g for g in X if g.agent == i and isinstance(g, FAULT_KINDS))
        stripped = X - frozenset(g for g in X if g.agent == i)
        yield i, "delayable", stripped
        if (i, stripped) in joined:
            continue
        joined.add((i, stripped))
        for Y in chain.from_iterable(  # each subset, made as it is read
                combinations(alpha, k) for k in range(len(alpha) + 1)):
            if (i, "gullible") in found:
                break
            yield i, "gullible", stripped.union(Y)


def close_menu(base, n: AgentId, t: Timestamp, cap: int = 4096) -> frozenset:
    """Saturate a menu of t-coherent base sets under the four closure
    properties: each base set closes to the product of its agents'
    parts, each closed under its agent's moves.  ValueError for a base
    set that is not t-coherent, or as soon as the closure holds more
    than `cap` sets.  The closure comes back unordered; `EnvProtocol`
    orders it."""
    too_many = f"menu closure at t={t} exceeds cap {cap}"
    alphabet = fault_alphabet(base, n)

    @lru_cache(maxsize=None)
    def closed_part(i, X_i):
        # each part maps one-to-one into the closure: past `cap` is final
        seen, todo, joined = {X_i}, [X_i], set()
        while todo:
            for _, _, C in _closure_moves(todo.pop(), {i: alphabet[i]}, joined):
                if C not in seen and check_t_coherent(C, t):
                    seen.add(C)
                    todo.append(C)
                    if len(seen) > cap:
                        raise ValueError(too_many)
        return seen

    menu = set()
    for k, X in enumerate(base):
        if not check_t_coherent(X, t):
            raise ValueError(f"menu base set {k} is not {t}-coherent")
        fixed = frozenset(g for g in X if g.agent not in alphabet)
        for pick in product((fixed,), *(closed_part(i, frozenset(
                g for g in X if g.agent == i)) for i in alphabet)):
            menu.add(frozenset().union(*pick))
            if len(menu) > cap:
                raise ValueError(too_many)
    return frozenset(menu)


def check_closure_properties(ctx) -> Dict[AgentId, Dict[str, bool]]:
    """Check fallible/correctable/delayable/gullible per agent, all t: a
    property fails where one of its t-coherent moves leaves the menu.
    The moves of a property already found false are not tested."""
    found = set()  # (agent, property) pairs found false
    for t in range(ctx.horizon):
        menu, joined = set(ctx.env(t)), set()
        alphabet = fault_alphabet(menu, ctx.n)
        for X in menu:
            for i, prop, C in _closure_moves(X, alphabet, joined, found):
                if (i, prop) not in found and C not in menu \
                        and check_t_coherent(C, t):
                    found.add((i, prop))
    return {i: {prop: (i, prop) not in found for prop in
                ("fallible", "correctable", "delayable", "gullible")}
            for i in range(1, ctx.n + 1)}
