"""Hope chains: extraction from a local history, exact maximum disjoint
packing and the packing threshold.

A chain (j, i1, ..., ik) extracted by agent i certifies the belief
B_i H_j H_{i1} ... H_{ik} phi.  `extract_chains` reads a history's
receipts once and returns every chain, indexed by base formula;
`threshold_witness` holds the one packing rule: more than f - |F|
pairwise disjoint repetition-free chains avoiding the believed-faulty
set F (k + f - |F| for k-group occurrence) lift the nested hope to
plain belief in phi.  It counts before it searches: the exact packer
is asked only when enough chains survive to reach the threshold.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, Optional, Set, Tuple

from .atoms import Faulty
from .formulas import Atom, Formula, is_syntactically_persistent
from .haps import AgentId, LocalHistory, Recv

Chain = Tuple[AgentId, ...]

# (base formula, its chains) per base, in the order of `TrustTable.bases`
Extraction = Tuple[Tuple[Formula, FrozenSet[Chain]], ...]

# The most chains `max_disjoint` packs: its exact search is exponential,
# and 40 random two-agent chains already took 8 s on a 2-CPU VM.
MAX_PACKING_INPUT = 32


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
    that extraction never hashes a formula.  `suspects` holds, per
    position, the agent l when that base is exactly the untimed
    faulty(l), else None: the detectors' index of chains by suspect.
    """

    entries: dict
    bases: tuple = field(init=False, repr=False, compare=False)
    receipts: dict = field(init=False, repr=False, compare=False)
    suspects: tuple = field(init=False, repr=False, compare=False)

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
        object.__setattr__(self, "suspects", tuple(map(_suspect, position)))

    def about_suspects(self, extracted: Extraction
                       ) -> Dict[AgentId, FrozenSet[Chain]]:
        """The extracted chains about each untimed faulty(l), keyed by l:
        one pass over the extraction, no formula compared."""
        return {ell: chains for ell, (_, chains)
                in zip(self.suspects, extracted) if ell is not None}


def _suspect(phi: Formula) -> Optional[AgentId]:
    """l when phi is exactly the untimed faulty(l), else None."""
    if isinstance(phi, Atom) and isinstance(phi.prop, Faulty) \
            and phi.prop.at is None:
        return phi.prop.agent
    return None


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
    need = k + f - |F| of them are pairwise disjoint (more than f - |F|
    at the default k = 1), else None.  An F larger than f needs no
    chain.  Fewer than `need` survivors cannot pack to `need`, so they
    answer None without asking `max_disjoint`, and the packing cap
    applies only to packings that are asked."""
    need = k + f - len(F)
    if len(chains) < need:  # the filter only removes chains
        return None
    out = F.union(avoid)
    kept = frozenset(
        s for s in chains if len(set(s)) == len(s) and out.isdisjoint(s))
    if len(kept) < need:
        return None
    card, witness = max_disjoint(kept)
    return witness if card >= need else None
