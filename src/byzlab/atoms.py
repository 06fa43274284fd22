"""Designated atomic propositions evaluated over run points."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .haps import (
    AgentId, ByzAction, ByzEvent, GExternal, GRecv, GSend, LocalHap, Run,
    Timestamp, localize,
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


DesignatedAtom = (Correct, Faulty, Fake, OccurredCorrectly, Occurred,
                  Happened, FakeHappened, Init)


class AtomTimeError(ValueError):
    """An atom's time lies outside what the point it is read at admits."""


def _fake_reason(env: tuple, agent: AgentId, t: Timestamp, o: LocalHap) -> bool:
    # A byzantine perception reason for o in round (t-1)-and-a-half.
    for g in env[t - 1]:
        if isinstance(g, (ByzAction, ByzEvent)) and g.agent == agent:
            if localize(g) == o:
                return True
    return False


def _correct_reason(env: tuple, agent: AgentId, t: Timestamp, o: LocalHap) -> bool:
    # A correct perception reason: delivered/external event or own action.
    for g in env[t - 1]:
        if isinstance(g, (GRecv, GExternal, GSend)) and g.agent == agent:
            if localize(g) == o:
                return True
    return False


def eval_atom(run: Run, t_eval: Timestamp, atom) -> bool:
    """Evaluate a designated atom at (run, t_eval).

    Reads the state at t_eval (its environment prefix and the initial
    states of its local histories) and, for `correct(i,t)` and
    `faulty(i,t)`, the `faulty` summary of the run's state at t, which
    lies on the same path from the root; so points that share a state
    share every atom's value.  Raises AtomTimeError when t_eval or an
    explicit time parameter is out of the admissible range.
    """
    if not 0 <= t_eval <= run.horizon:
        raise AtomTimeError(f"point time {t_eval} outside run horizon")
    state = run.states[t_eval]
    env = state.env

    if isinstance(atom, (Correct, Faulty)):
        t = t_eval if atom.at is None else atom.at
        if not 0 <= t <= t_eval:
            raise AtomTimeError(
                f"atom time {t} exceeds the point's time {t_eval}")
        faulty = atom.agent in run.states[t].faulty
        return faulty if isinstance(atom, Faulty) else not faulty

    if isinstance(atom, Fake):
        if not 1 <= atom.at <= t_eval:
            raise AtomTimeError(
                f"atom time {atom.at} exceeds the point's time {t_eval}")
        return _fake_reason(env, atom.agent, atom.at, atom.hap)

    if isinstance(atom, OccurredCorrectly):
        agents = [atom.agent] if atom.agent is not None else \
            range(1, len(state.locals) + 1)
        if atom.at is not None:
            if not 1 <= atom.at <= t_eval:
                raise AtomTimeError(
                    f"atom time {atom.at} exceeds the point's time {t_eval}")
            times = [atom.at]
        else:
            times = range(1, t_eval + 1)
        return any(_correct_reason(env, i, m, atom.hap)
                   for i in agents for m in times)

    if isinstance(atom, Occurred):
        return any(
            _correct_reason(env, atom.agent, m, atom.hap)
            or _fake_reason(env, atom.agent, m, atom.hap)
            for m in range(1, t_eval + 1))

    if isinstance(atom, (Happened, FakeHappened)):
        # Per the action bullets these scan the environment history at
        # t_eval - 1, i.e. rounds strictly before the previous timestamp.
        if t_eval == 0:
            return False
        for rnd in env[:t_eval - 1]:
            for g in rnd:
                if isinstance(g, GSend) and g.agent == atom.agent \
                        and not isinstance(atom, FakeHappened):
                    if localize(g) == atom.action:
                        return True
                if isinstance(g, ByzAction) and g.agent == atom.agent \
                        and g.performed is not None:
                    if localize(g.performed) == atom.action:
                        return True
        return False

    if isinstance(atom, Init):
        return state.local(atom.agent).initial == atom.state

    raise TypeError(f"not a designated atom: {atom!r}")
