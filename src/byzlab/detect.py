"""Local fault detectors and the gain-belief fixpoint.

Everything here works on a single local history: the agent never sees
the run, only what it recorded.  Each detector call extracts the
history's chains once, indexed by base formula, and every packing test
goes through `chains.threshold_witness`.  Soundness of each detector
against the Kripke oracle is exercised by the acceptance suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Set

from .atoms import Faulty, OccurredCorrectly
# `max_disjoint` is looked up here by perfbench/tracing.py, which counts
# packings under this name as well as under `chains.max_disjoint`.
from .chains import (  # noqa: F401
    Extraction, TrustTable, chains_about, extract_chains, max_disjoint,
    threshold_witness,
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


def dir_notif_faulty(extracted: Extraction) -> Set[AgentId]:
    """Agents whose own-faultiness notification arrived as a singleton chain."""
    return {s[0] for base, chains in extracted for s in chains
            if len(s) == 1 and base == Atom(Faulty(s[0]))}


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
    i, f = inp.agent, inp.f
    agents = order if order is not None else range(1, inp.n + 1)
    extracted = extract_chains(inp.h_i, i, inp.trust)
    provenance: Dict[AgentId, tuple] = {}  # the first way found is kept
    for found, how in (
            (dir_obs_faulty(inp.h_i, i, inp.protocols), "direct-observation"),
            (dir_notif_faulty(extracted), "direct-notification"),
            ({i} if self_check_faulty(inp.h_i, i, inp.protocols[i - 1])
             else (), "self-detection")):
        for j in found:
            provenance.setdefault(j, (how,))
    F = set(provenance)

    about = {ell: chains_about(extracted, Atom(Faulty(ell))) for ell in agents}
    iterations, grown = 0, True
    while grown:
        iterations += 1
        grown = False
        for ell in agents:
            witness = None if ell in F else threshold_witness(about[ell], F, f)
            if witness is not None:
                F.add(ell)
                provenance[ell] = ("chain-threshold", witness)
                grown = True
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

    extracted = extract_chains(h_i, i, trust)
    occ = chains_about(extracted, Atom(OccurredCorrectly(o)))
    if threshold_witness(occ, F, f, k) is not None:
        return True
    if include_self and local_knowledge(h_i, i, o) and \
            threshold_witness(occ, F, f, k - 1, avoid=(i,)) is not None:
        return True
    group = chains_about(extracted, group_occurrence_formula(n, k, o))
    return threshold_witness(group, F, f) is not None
