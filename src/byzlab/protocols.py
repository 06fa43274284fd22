"""Agent and environment protocols as finite rule tables and event menus.

Agent protocols are ordered guard -> choices tables; the first matching
rule supplies the non-empty list of candidate action sets the adversary
picks from.  Guards are a small predicate language over the local
history, so scenarios stay readable while the table remains finite.

Environment protocols map each timestamp to a finite menu of coherent
event sets.  The closure properties (fallible, correctable, delayable,
gullible) move only agent i's part X_i of a set, which they close to
X_i and its core (X_i without fault events), each with and without
fail(i), and G_i, the t-coherent subsets of i's fault alphabet.
`close_menu` takes the product of the closed parts; the audit
`check_closure_properties` groups a menu's sets by what lies outside
X_i and asks each group for those parts.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from itertools import chain, combinations, islice, product
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


def _coherent_subsets(alpha: frozenset, t: Timestamp, limit: int) -> list:
    """G_i: the t-coherent subsets of an agent's fault alphabet `alpha`,
    empty set first, read no further than `limit` of them."""
    subsets = map(frozenset, chain.from_iterable(
        combinations(alpha, k) for k in range(len(alpha) + 1)))
    return list(islice((Y for Y in subsets if check_t_coherent(Y, t)), limit))


def close_menu(base, n: AgentId, t: Timestamp, cap: int = 4096) -> frozenset:
    """Saturate a menu of t-coherent base sets under the four closure
    properties.  Agent i's moves change only its part X_i of a set, and
    close it to X_i, its core (X_i without fault events), each with and
    without fail(i), and G_i (`_coherent_subsets`).  Each base set
    closes to the product of its agents' closed parts.  ValueError for
    a base set that is not t-coherent, or as soon as the closure holds
    more than `cap` sets.  The closure comes back unordered;
    `EnvProtocol` orders it."""
    too_many = f"menu closure at t={t} exceeds cap {cap}"
    alphabet, gullible, menu = fault_alphabet(base, n), None, set()
    for k, X in enumerate(base):
        if not check_t_coherent(X, t):
            raise ValueError(f"menu base set {k} is not {t}-coherent")
        if gullible is None:  # every closed part of i holds all of G_i
            gullible = {i: _coherent_subsets(alpha, t, cap + 1)
                        for i, alpha in alphabet.items()}
            if any(len(G) > cap for G in gullible.values()):
                raise ValueError(too_many)
        parts = [(frozenset(g for g in X if g.agent not in alphabet),)]
        for i, alpha in alphabet.items():
            X_i = frozenset(g for g in X if g.agent == i)
            core = X_i - alpha
            parts.append({X_i, X_i | {fail(i)}, core, core | {fail(i)},
                          *gullible[i]})
        for pick in product(*parts):
            menu.add(frozenset().union(*pick))
            if len(menu) > cap:
                raise ValueError(too_many)
    return frozenset(menu)


def check_closure_properties(ctx) -> Dict[AgentId, Dict[str, bool]]:
    """Check fallible/correctable/delayable/gullible per agent, all t.
    Each menu must hold t-coherent sets only, as the loader ensures.
    Agent i's moves keep a set's rest, its other agents' parts, so the
    sets are grouped by rest: a property fails where a group with part
    X_i lacks X_i + fail(i) (fallible), X_i without its fault events
    (correctable), the empty part (delayable) or a member of G_i
    (gullible).  G_i is read to |menu| + 1 members: no group holds more."""
    holds = {i: dict.fromkeys(
        ("fallible", "correctable", "delayable", "gullible"), True)
        for i in range(1, ctx.n + 1)}
    for t in range(ctx.horizon):
        menu = ctx.env(t)
        for i, alpha in fault_alphabet(menu, ctx.n).items():
            groups = defaultdict(set)  # rest -> i's parts beside it
            for X in menu:
                X_i = frozenset(g for g in X if g.agent == i)
                groups[X - X_i].add(X_i)
            G = _coherent_subsets(alpha, t, len(menu) + 1)
            ok, f = holds[i], fail(i)
            for parts in groups.values():
                ok["delayable"] &= frozenset() in parts
                ok["gullible"] &= parts.issuperset(G)
                for X_i in parts:
                    ok["fallible"] &= X_i | {f} in parts
                    ok["correctable"] &= X_i - alpha in parts
    return holds
