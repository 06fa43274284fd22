"""Agent and environment protocols as finite rule tables and event menus.

Agent protocols are ordered guard -> choices tables; the first matching
rule supplies the non-empty list of candidate action sets the adversary
picks from.  Guards are a small predicate language over the local
history, so scenarios stay readable while the table remains finite.

Environment protocols map each timestamp to a finite menu of coherent
event sets.  The closure properties (fallible, correctable, delayable,
gullible) are written once, as the moves a closed menu must admit from
each of its sets: `close_menu` saturates a base menu under them and
`check_closure_properties` audits a context's menus against them.
"""

from __future__ import annotations

from dataclasses import dataclass
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
        out = set()
        for rule in self.rules:
            for choice in rule.choices:
                for a in choice:
                    if isinstance(a, Send) and a.to == to:
                        out.add(a.msg)
        return frozenset(out)


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
        if isinstance(g, ByzAction) and g.performed is not None:
            if g.performed.sent_at != t:
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
    if exts & fake_exts:
        return False
    if recvs & fake_recvs:
        return False
    return True


def _subsets(items: frozenset):
    """Every subset of `items`, made as it is read."""
    for mask in range(1 << len(items)):
        yield frozenset(g for k, g in enumerate(items) if mask >> k & 1)


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
        for Y in _subsets(alpha):
            if (i, "gullible") in found:
                break
            yield i, "gullible", stripped | Y


def close_menu(base, n: AgentId, t: Timestamp, cap: int = 4096) -> frozenset:
    """Saturate a menu under the four agent-fault closure properties:
    the fixpoint of every t-coherent closure move.  The closure comes
    back unordered; `EnvProtocol` orders it.  ValueError as soon as it
    holds more than `cap` sets.
    """
    too_many = f"menu closure at t={t} exceeds cap {cap}"
    alphabet, joined = fault_alphabet(base, n), set()
    seen = {frozenset(X) for X in base}
    if len(seen) > cap:
        raise ValueError(too_many)
    frontier = list(seen)
    while frontier:
        new = []
        for X in frontier:
            for _, _, C in _closure_moves(X, alphabet, joined):
                if C not in seen and check_t_coherent(C, t):
                    seen.add(C)
                    new.append(C)
                    if len(seen) > cap:
                        raise ValueError(too_many)
        frontier = new
    return frozenset(seen)


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
