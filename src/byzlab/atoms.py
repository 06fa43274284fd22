"""Designated atomic propositions, each evaluated at one global state."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .haps import (
    FAULT_KINDS, AgentId, ByzAction, ByzEvent, GExternal, GlobalState, GRecv,
    GSend, LocalHap, Timestamp, localize,
)


@dataclass(frozen=True)
class Correct:
    agent: AgentId
    at: Optional[Timestamp] = None


@dataclass(frozen=True)
class Faulty:
    agent: AgentId
    at: Optional[Timestamp] = None


@dataclass(frozen=True)
class Fake:
    agent: AgentId
    at: Timestamp
    hap: LocalHap


@dataclass(frozen=True)
class OccurredCorrectly:
    """occurred-correctly, in its three arities.

    agent=None quantifies over all agents; at=None over all rounds so far.
    """

    hap: LocalHap
    agent: Optional[AgentId] = None
    at: Optional[Timestamp] = None


@dataclass(frozen=True)
class Occurred:
    hap: LocalHap
    agent: AgentId


@dataclass(frozen=True)
class Happened:
    action: LocalHap
    agent: AgentId


@dataclass(frozen=True)
class FakeHappened:
    action: LocalHap
    agent: AgentId


@dataclass(frozen=True)
class Init:
    agent: AgentId
    state: str


# Atoms whose `at` names a round, 1..t; any other `at` is a time, 0..t.
ROUND_ATOMS = (Fake, OccurredCorrectly)


class AtomTimeError(ValueError):
    """An atom's time lies outside what the point it is read at admits."""


# The haps that give their agent a correct, a byzantine, or any reason to
# perceive what they localize to.
_CORRECT, _FAKE = (GRecv, GExternal, GSend), (ByzAction, ByzEvent)


def _reason(env: tuple, kinds, agent: AgentId, t: Timestamp,
            o: LocalHap) -> bool:
    # A reason of `kinds` for agent to perceive o in round (t-1)-and-a-half.
    for g in env[t - 1]:
        if isinstance(g, kinds) and g.agent == agent and localize(g) == o:
            return True
    return False


def eval_atom(state: GlobalState, atom) -> bool:
    """Evaluate a designated atom at a point whose state is `state`.

    Reads that one state: its time t is |env|, timed `correct(i,t')`
    and `faulty(i,t')` scan env[:t'] for a fault event of i, and the
    other atoms read env and the initial states of the local histories.
    Raises AtomTimeError when an explicit time lies outside 1..t for
    the `ROUND_ATOMS`, or outside 0..t for any other atom.
    """
    env = state.env
    t = len(env)
    at = getattr(atom, "at", None)
    if at is not None:
        lo = 1 if isinstance(atom, ROUND_ATOMS) else 0
        if not lo <= at <= t:
            raise AtomTimeError(
                f"atom time {at} outside {lo}..{t}, the point's time")

    if isinstance(atom, (Correct, Faulty)):
        faulty = atom.agent in state.faulty if at is None else any(
            isinstance(g, FAULT_KINDS) and g.agent == atom.agent
            for rnd in env[:at] for g in rnd)
        return faulty if isinstance(atom, Faulty) else not faulty

    if isinstance(atom, Fake):
        return _reason(env, _FAKE, atom.agent, at, atom.hap)

    if isinstance(atom, OccurredCorrectly):
        agents = [atom.agent] if atom.agent is not None else \
            range(1, len(state.locals) + 1)
        times = [at] if at is not None else range(1, t + 1)
        return any(_reason(env, _CORRECT, i, m, atom.hap)
                   for i in agents for m in times)

    if isinstance(atom, Occurred):
        return any(_reason(env, _CORRECT + _FAKE, atom.agent, m, atom.hap)
                   for m in range(1, t + 1))

    if isinstance(atom, (Happened, FakeHappened)):
        # Per the action bullets these scan the environment history at
        # t - 1, i.e. rounds strictly before the previous timestamp.
        # A byzantine action counts what it performed, not what it recorded.
        kinds = ByzAction if isinstance(atom, FakeHappened) else \
            (ByzAction, GSend)
        return any(isinstance(g, kinds) and g.agent == atom.agent
                   and localize(getattr(g, "performed", g)) == atom.action
                   for rnd in env[:t - 1] for g in rnd)

    if isinstance(atom, Init):
        return state.local(atom.agent).initial == atom.state

    raise TypeError(f"not a designated atom: {atom!r}")
