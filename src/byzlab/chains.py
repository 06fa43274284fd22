"""Hope chains: extraction from a local history, exact maximum disjoint
packing and the packing threshold.

A chain (j, i1, ..., ik) extracted by agent i certifies the belief
B_i H_j H_{i1} ... H_{ik} phi.  `extract_chains` reads a history's
receipts once and returns every chain, indexed by base formula;
`threshold_witness` holds the one packing rule: more than f - |F|
pairwise disjoint repetition-free chains avoiding the believed-faulty
set F (k + f - |F| for k-group occurrence) lift the nested hope to
plain belief in phi.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, Optional, Set, Tuple

from .formulas import Formula, is_syntactically_persistent
from .haps import AgentId, LocalHistory, Recv

Chain = Tuple[AgentId, ...]

# (base formula, its chains) per base, in the order of `TrustTable.bases`
Extraction = Tuple[Tuple[Formula, FrozenSet[Chain]], ...]

MAX_PACKING_INPUT = 64


class PackingCapExceeded(ValueError):
    pass


@dataclass(frozen=True)
class TrustTable:
    """(sender, receiver, message) -> (base formula, carried chain).

    An entry declares the message trustworthy for the nested hope built
    from the carried chain over the base formula; the sender's protocol
    must emit it only while holding the corresponding belief.  `bases`
    lists the distinct base formulas and `receipts` maps each key to
    its base's position there and the chain (sender,) + carried, so
    that extraction never hashes a formula.
    """

    entries: dict
    bases: tuple = field(init=False, repr=False, compare=False)
    receipts: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        position: Dict[Formula, int] = {}
        receipts = {}
        for key, (phi, chain) in self.entries.items():
            if not is_syntactically_persistent(phi):
                raise ValueError(
                    f"trust entry {key} carries a non-persistent base formula")
            receipts[key] = (position.setdefault(phi, len(position)),
                             (key[0],) + tuple(chain))
        object.__setattr__(self, "bases", tuple(position))
        object.__setattr__(self, "receipts", receipts)


def extract_chains(h_i: LocalHistory, i: AgentId,
                   trust: TrustTable) -> Extraction:
    """One pass over h_i's receipts: for each base formula of `trust`,
    the chain (j,) + carried of every trusted receipt about it, loops
    included."""
    found = [set() for _ in trust.bases]
    for rnd in h_i.rounds:
        for o in rnd:
            if isinstance(o, Recv):
                hit = trust.receipts.get((o.frm, i, o.msg))
                if hit is not None:
                    found[hit[0]].add(hit[1])
    return tuple(zip(trust.bases, map(frozenset, found)))


def chains_about(extracted: Extraction, phi: Formula) -> FrozenSet[Chain]:
    """The extracted chains about base formula `phi`.  Bases are compared,
    not hashed: a formula rehashes its whole tree on every hash; and only
    bases with chains are compared at all."""
    for base, chains in extracted:
        if chains and base == phi:
            return chains
    return frozenset()


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


def threshold_witness(chains: FrozenSet[Chain], F: Set[AgentId], f: int,
                      k: int = 1, avoid: Iterable[AgentId] = ()
                      ) -> Optional[FrozenSet[Chain]]:
    """The packing rule.  Keeps the repetition-free chains touching
    neither F nor `avoid` and packs them: the witness when at least
    k + f - |F| of them are pairwise disjoint (more than f - |F| at the
    default k = 1), else None.  An F larger than f needs no chain."""
    out = F.union(avoid)
    card, witness = max_disjoint(frozenset(
        s for s in chains if len(set(s)) == len(s) and out.isdisjoint(s)))
    return witness if card >= k + f - len(F) else None
