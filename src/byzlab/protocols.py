"""Agent and environment protocols as finite rule tables and event menus.

Agent protocols are ordered guard -> choices tables; the first matching
rule supplies the non-empty list of candidate action sets the adversary
picks from.  Guards are a small predicate language over the local
history, so scenarios stay readable while the table remains finite.

Environment protocols map each timestamp to a finite menu of coherent
event sets.  `close_menu` saturates a base menu so that every agent is
fallible, correctable, delayable and gullible over the scenario's fault
alphabet.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from .haps import (
    AgentId, LocalHistory,
    Recv, Send, Timestamp, fail, is_fault_event,
)
from .serial import ghap_key, local_key, order_sets


@dataclass(frozen=True)
class Rule:
    guard: tuple  # parsed guard expression, see guard_holds
    choices: tuple  # tuple of frozensets of local actions, never empty

    def __post_init__(self):
        # the adversary's deterministic order over the choices
        object.__setattr__(self, "choices", order_sets(self.choices, local_key))


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


# Guards are tuples: ("always",), ("received", j, msg), ("sent", j, msg),
# ("observed", hap), ("initial", lam), ("active_at_least", k),
# ("self_faulty",), ("not", g), ("all", g...), ("any", g...).

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
            order_sets(menu, ghap_key) for menu in self.menus))

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
            if is_fault_event(g):
                alpha[g.agent].add(g)
    return {i: frozenset(s) for i, s in alpha.items()}


def _agent_events(X: frozenset, i: AgentId) -> frozenset:
    return frozenset(g for g in X if g.agent == i)


def close_menu(base, n: AgentId, t: Timestamp, cap: int = 4096) -> frozenset:
    """Saturate a menu under the four agent-fault closure properties.

    Fixpoint of: X u {fail(i)}; X minus FEvents_i; X minus GEvents_i; and
    Y joined with X minus GEvents_i for coherent Y over the fault
    alphabet.  Only t-coherent sets are admitted.  The closure comes back
    unordered; `EnvProtocol` orders it.
    """
    from .engine import check_t_coherent

    alpha = fault_alphabet(base, n)
    subsets = {i: list(_subsets(alpha[i])) for i in alpha}
    seen = {frozenset(X) for X in base}
    frontier = list(seen)
    while frontier:
        new = []
        for X in frontier:
            candidates = []
            for i in range(1, n + 1):
                candidates.append(X | {fail(i)})
                candidates.append(X - frozenset(g for g in X if is_fault_event(g) and g.agent == i))
                stripped = X - _agent_events(X, i)
                candidates.append(stripped)
                for Y in subsets[i]:
                    candidates.append(stripped | Y)
            for C in candidates:
                C = frozenset(C)
                if C not in seen and check_t_coherent(C, t):
                    seen.add(C)
                    new.append(C)
            if len(seen) > cap:
                raise ValueError(f"menu closure at t={t} exceeds cap {cap}")
        frontier = new
    return frozenset(seen)


def _subsets(s: frozenset):
    items = sorted(s, key=repr)
    for mask in range(1 << len(items)):
        yield frozenset(items[k] for k in range(len(items)) if mask >> k & 1)


def relay_rules(trust, agent: AgentId) -> List[Rule]:
    """Rules forwarding trust-tagged receipts one hop further.

    For every pair of table entries (j -> agent, mu) carrying (phi, chain)
    and (agent -> k, mu') carrying (phi, (j,) + chain), emit a rule that
    sends mu' upon having received mu.  Receipt of mu certifies belief in
    the nested hope the outgoing tag promises, so the generated rules
    keep the trust table verifiable.
    """
    rules = []
    for (s, r, msg), (phi, chain) in sorted(trust.entries.items(), key=repr):
        if s != agent:
            continue
        if not chain:
            continue
        j, rest = chain[0], tuple(chain[1:])
        for (s2, r2, msg2), (phi2, chain2) in trust.entries.items():
            if s2 == j and r2 == agent and phi2 == phi and chain2 == rest:
                rules.append(Rule(("received", j, msg2),
                                  (frozenset({Send(r, msg)}),)))
    return rules
