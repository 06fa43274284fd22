"""Local fault detectors and the gain-belief fixpoint.

Everything here works on a single local history: the agent never sees
the run, only what it recorded.  Soundness of each detector against the
Kripke oracle is exercised by the acceptance suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Set

from .atoms import Faulty, OccurredCorrectly
from .chains import (
    TrustTable, chains_minus, extract_chains, max_disjoint,
)
from .formulas import Atom, Believe, group_occurrence_formula
from .haps import AgentId, LocalHistory, Recv, Send


@dataclass(frozen=True)
class DetectionInput:
    h_i: LocalHistory
    agent: AgentId
    f: int
    protocols: tuple  # AgentProtocol per agent, index agent-1
    trust: TrustTable

    @property
    def n(self) -> int:
        return len(self.protocols)


@dataclass
class BeliefReport:
    """Believed-faulty set with, per member, how the belief was gained."""

    faulty: Set[AgentId]
    provenance: Dict[AgentId, tuple]
    iterations: int


def dir_obs_faulty(h_i: LocalHistory, i: AgentId, protocols) -> Set[AgentId]:
    """Agents that sent i a message their protocol could never emit.

    Emittability is judged against the full rule table, so a message that
    merely could not occur in the particular run never triggers.
    """
    out = set()
    received: Dict[AgentId, Set[str]] = {}
    for rnd in h_i.rounds:
        for o in rnd:
            if isinstance(o, Recv):
                received.setdefault(o.frm, set()).add(o.msg)
    for j, msgs in received.items():
        if msgs - protocols[j - 1].emittable(i):
            out.add(j)
    return out


def dir_notif_faulty(h_i: LocalHistory, i: AgentId,
                     trust: TrustTable) -> Set[AgentId]:
    """Agents whose own-faultiness notification arrived as a singleton chain."""
    out = set()
    for j in {key[0] for key in trust.entries}:
        if (j,) in extract_chains(h_i, i, Atom(Faulty(j)), trust):
            out.add(j)
    return out


def self_check_faulty(h_i: LocalHistory, i: AgentId, protocol) -> bool:
    """True when some recorded action was never on offer at its prefix.
    Prefix m is reached only when no earlier round failed, so the protocol
    is told it is not self-faulty there: one call per sending round."""
    for m in range(h_i.active_rounds):
        actions = [a for a in h_i.rounds[m] if isinstance(a, Send)]
        if not actions:
            continue
        offered = protocol(h_i.prefix(m), self_faulty=False)
        for a in actions:
            if all(a not in D for D in offered):
                return True
    return False


def belief_who_is_faulty(inp: DetectionInput,
                         order: Optional[Sequence[AgentId]] = None) -> BeliefReport:
    """The gain-belief fixpoint for believed-faulty agents.

    Seeds from direct observation, direct notification and self
    detection, then repeatedly adds any agent backed by more than
    f - |F| disjoint hope chains avoiding the current F, until stable.
    """
    i, f, trust = inp.agent, inp.f, inp.trust
    agents = order if order is not None else range(1, inp.n + 1)
    provenance: Dict[AgentId, tuple] = {}
    F: Set[AgentId] = set()
    for j in dir_obs_faulty(inp.h_i, i, inp.protocols):
        F.add(j)
        provenance[j] = ("direct-observation",)
    for j in dir_notif_faulty(inp.h_i, i, trust):
        if j not in F:
            F.add(j)
            provenance[j] = ("direct-notification",)
    if self_check_faulty(inp.h_i, i, inp.protocols[i - 1]):
        if i not in F:
            F.add(i)
            provenance[i] = ("self-detection",)

    iterations = 0
    while True:
        iterations += 1
        stable = True
        for ell in agents:
            if ell in F:
                continue
            chains = chains_minus(
                extract_chains(inp.h_i, i, Atom(Faulty(ell)), trust), F)
            card, witness = max_disjoint(chains)
            if card > f - len(F):
                F.add(ell)
                provenance[ell] = ("chain-threshold", witness)
                stable = False
        if stable:
            break
    return BeliefReport(F, provenance, iterations)


def cross_check(scenario, system) -> list:
    """Every believed-faulty verdict of each distinct local history in an
    enumerated `system`, as (agent, suspect, point, confirmed): point is
    the first of the history's points, confirmed the oracle's verdict."""
    ctx = scenario.ctx
    verdicts = []
    for i in range(1, ctx.n + 1):
        for h, pts in system.agent_classes(i).items():
            rep = belief_who_is_faulty(DetectionInput(
                h, i, ctx.f, ctx.protocols, scenario.trust))
            for j in sorted(rep.faulty):
                verdicts.append((i, j, pts[0], system.eval(
                    pts[0], Believe(i, Atom(Faulty(j))))))
    return verdicts


def local_knowledge(h_i: LocalHistory, i: AgentId, query) -> bool:
    """Knowledge certified by the history itself: a recorded hap, or the
    initial state (pass the state id as a string)."""
    if isinstance(query, str):
        return h_i.initial == query
    return query in h_i


def group_occurrence_belief(h_i: LocalHistory, i: AgentId, o, k: int, f: int,
                            F: Set[AgentId], trust: TrustTable, n: int,
                            include_self: bool = False) -> bool:
    """Belief that k forever-correct agents believe o occurred correctly.

    Fires on enough disjoint chains for the occurrence itself (k + f - |F|,
    with k lowered by one when the agent observed o locally and no chain
    involves it), or on more than f - |F| chains for the k-group formula.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if k + f > n:
        raise ValueError(f"need k + f <= n, got {k} + {f} > {n}")
    if len(F) > f:
        raise ValueError(f"|F|={len(F)} exceeds f={f}")

    occ = chains_minus(
        extract_chains(h_i, i, Atom(OccurredCorrectly(o)), trust), F)
    card, _ = max_disjoint(occ)
    if card >= k + f - len(F):
        return True
    if include_self and local_knowledge(h_i, i, o):
        card_self, _ = max_disjoint(chains_minus(occ, {i}))
        if card_self >= (k - 1) + f - len(F):
            return True
    group = chains_minus(
        extract_chains(h_i, i, group_occurrence_formula(n, k, o), trust), F)
    card_g, _ = max_disjoint(group)
    return card_g > f - len(F)
