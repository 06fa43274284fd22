"""Hope chains: extraction from a local history, set difference over
agent sets, and exact maximum disjoint packing.

A chain (j, i1, ..., ik) extracted by agent i certifies the belief
B_i H_j H_{i1} ... H_{ik} phi.  Packing more than f - |F| pairwise
disjoint chains (after removing chains touching the believed-faulty set
F) lifts the nested hope to plain belief in phi.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, Set, Tuple

from .formulas import Formula, is_syntactically_persistent, nested_hope
from .haps import AgentId, LocalHistory, Recv

Chain = Tuple[AgentId, ...]

MAX_PACKING_INPUT = 64


class PackingCapExceeded(ValueError):
    pass


@dataclass(frozen=True)
class TrustTable:
    """(sender, receiver, message) -> (base formula, carried chain).

    An entry declares the message trustworthy for the nested hope built
    from the carried chain over the base formula; the sender's protocol
    must emit it only while holding the corresponding belief.
    """

    entries: dict

    def __post_init__(self):
        for key, (phi, chain) in self.entries.items():
            if not is_syntactically_persistent(phi):
                raise ValueError(
                    f"trust entry {key} carries a non-persistent base formula")


def certified_formula(entry) -> Formula:
    phi, chain = entry
    return nested_hope(chain, phi)


def extract_chains_all(h_i: LocalHistory, i: AgentId, phi: Formula,
                       trust: TrustTable) -> FrozenSet[Chain]:
    """Every chain (j,) + carried for a trusted receipt about phi."""
    out = set()
    for rnd in h_i.rounds:
        for o in rnd:
            if not isinstance(o, Recv):
                continue
            entry = trust.entries.get((o.frm, i, o.msg))
            if entry is not None and entry[0] == phi:
                out.add((o.frm,) + tuple(entry[1]))
    return frozenset(out)


def extract_chains(h_i: LocalHistory, i: AgentId, phi: Formula,
                   trust: TrustTable) -> FrozenSet[Chain]:
    """The refined chain set: only repetition-free chains."""
    return frozenset(s for s in extract_chains_all(h_i, i, phi, trust)
                     if len(set(s)) == len(s))


def shorten_chain(chain: Chain) -> Chain:
    """Cut every loop (segment starting and ending at one agent) out.

    The result is repetition-free and certifies the same belief with a
    shorter hope nesting.
    """
    out = list(chain)
    while len(set(out)) != len(out):
        seen: Dict[AgentId, int] = {}
        for pos, a in enumerate(out):
            if a in seen:
                del out[seen[a]:pos]
                break
            seen[a] = pos
    return tuple(out)


def chains_minus(chains: FrozenSet[Chain], S: Set[AgentId]) -> FrozenSet[Chain]:
    """Overloaded set difference: drop chains touching any member of S."""
    return frozenset(s for s in chains if not set(s) & set(S))


def max_disjoint(chains: FrozenSet[Chain]) -> Tuple[int, FrozenSet[Chain]]:
    """Largest set of pairwise agent-disjoint chains, exactly.

    Branch and bound over the conflict graph: chains in lexicographic
    order, include/exclude per chain, pruned by remaining count.  The
    witness is the lexicographically first maximum found.
    """
    if len(chains) > MAX_PACKING_INPUT:
        raise PackingCapExceeded(f"{len(chains)} chains exceed the packing "
                                 f"cap {MAX_PACKING_INPUT}")
    order = sorted(chains)
    agents = [set(s) for s in order]
    best: list = []

    def walk(idx: int, used: Set[AgentId], picked: list):
        nonlocal best
        if len(picked) + (len(order) - idx) <= len(best):
            return
        if idx == len(order):
            if len(picked) > len(best):
                best = list(picked)
            return
        if not agents[idx] & used:
            picked.append(order[idx])
            walk(idx + 1, used | agents[idx], picked)
            picked.pop()
        walk(idx + 1, used, picked)

    walk(0, set(), [])
    return len(best), frozenset(best)


def pairwise_disjoint(chains: Iterable[Chain]) -> bool:
    seen: Set[AgentId] = set()
    for s in chains:
        if set(s) & seen:
            return False
        seen |= set(s)
    return True


def threshold_belief(chains: FrozenSet[Chain], F: Set[AgentId], f: int) -> bool:
    """More than f - |F| disjoint chains survive removing F."""
    if len(F) > f:
        raise ValueError(f"|F|={len(F)} exceeds the fault bound f={f}")
    card, _ = max_disjoint(chains_minus(chains, F))
    return card > f - len(F)
