"""Hap algebra: local and global actions/events, histories, and runs.

Local haps are what an agent records; global haps are the environment's
bookkeeping format, which additionally carries timestamps, message
identifiers and correct/byzantine tags.  All values here are immutable
and hashable, so they can be shared freely between enumeration workers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

AgentId = int
Timestamp = int


# ---------------------------------------------------------------------------
# Message identifiers

@dataclass(frozen=True, order=True)
class GMI:
    """Global message identifier: the injective 5-tuple tag of a send."""

    sender: AgentId
    receiver: AgentId
    msg: str
    copy: int
    sent_at: Timestamp


# ---------------------------------------------------------------------------
# Local format

@dataclass(frozen=True, order=True)
class Send:
    to: AgentId
    msg: str
    copy: int = 0


@dataclass(frozen=True, order=True)
class Recv:
    frm: AgentId
    msg: str


@dataclass(frozen=True, order=True)
class External:
    event: str


LocalHap = Union[Send, Recv, External]


# ---------------------------------------------------------------------------
# Global format

@dataclass(frozen=True, order=True)
class GSend:
    """Correct send action of `agent`, tagged with its GMI fields."""

    agent: AgentId
    to: AgentId
    msg: str
    copy: int
    sent_at: Timestamp

    @property
    def gmi(self) -> GMI:
        return GMI(self.agent, self.to, self.msg, self.copy, self.sent_at)


@dataclass(frozen=True, order=True)
class GRecv:
    """Correct delivery to `agent` of a message sent by `frm`.

    `gmi` is None for an unresolved delivery template in an environment
    menu; the engine materializes templates against actual sends before
    filtering.
    """

    agent: AgentId
    frm: AgentId
    msg: str
    gmi: Optional[GMI] = None


@dataclass(frozen=True, order=True)
class GExternal:
    agent: AgentId
    event: str


@dataclass(frozen=True, order=True)
class ByzAction:
    """Byzantine event: `agent` performs one action while recording another.

    Either side may be None (the non-action).  fail(i) is the invisible
    branding event ByzAction(i, None, None).
    """

    agent: AgentId
    performed: Optional[GSend] = None
    recorded: Optional[GSend] = None


@dataclass(frozen=True, order=True)
class ByzEvent:
    """Byzantine counterpart of a correct event: a faked perception."""

    agent: AgentId
    event: Union[GRecv, GExternal] = None


@dataclass(frozen=True, order=True)
class Go:
    agent: AgentId


@dataclass(frozen=True, order=True)
class Sleep:
    agent: AgentId


@dataclass(frozen=True, order=True)
class Hib:
    agent: AgentId


GlobalHap = Union[GSend, GRecv, GExternal, ByzAction, ByzEvent, Go, Sleep, Hib]

SYSTEM_KINDS = (Go, Sleep, Hib)
BYZ_KINDS = (ByzAction, ByzEvent)


def fail(agent: AgentId) -> ByzAction:
    return ByzAction(agent, None, None)


def is_system(g: GlobalHap) -> bool:
    return isinstance(g, SYSTEM_KINDS)


def is_fault_event(g: GlobalHap) -> bool:
    """Membership in FEvents: byzantine events plus sleep and hibernate."""
    return isinstance(g, BYZ_KINDS + (Sleep, Hib))


def is_event(g: GlobalHap) -> bool:
    return not isinstance(g, GSend)


def localize(g: GlobalHap) -> Optional[LocalHap]:
    """Convert a global hap to the local form its agent records, if any.

    System events and non-action byzantine recordings map to None.
    """
    if isinstance(g, GSend):
        return Send(g.to, g.msg, g.copy)
    if isinstance(g, GRecv):
        return Recv(g.frm, g.msg)
    if isinstance(g, GExternal):
        return External(g.event)
    if isinstance(g, ByzAction):
        return localize(g.recorded) if g.recorded is not None else None
    if isinstance(g, ByzEvent):
        return localize(g.event)
    return None


def globalize(agent: AgentId, t: Timestamp, a: LocalHap) -> GlobalHap:
    """Label a correct local action with its global format at time t."""
    if isinstance(a, Send):
        return GSend(agent, a.to, a.msg, a.copy, t)
    raise ValueError(f"not an action: {a!r}")


# ---------------------------------------------------------------------------
# Histories and states

@dataclass(frozen=True)
class LocalHistory:
    """An agent's view: initial state plus one hap set per active round.

    Rounds are stored oldest-first.  A round may be the empty set: the
    marker recorded when the agent was activated by go but perceived
    nothing; such markers never satisfy hap membership but do make
    histories distinguishable.
    """

    initial: str
    rounds: tuple = ()

    def __contains__(self, o: LocalHap) -> bool:
        return any(o in rnd for rnd in self.rounds)

    @property
    def active_rounds(self) -> int:
        return len(self.rounds)

    def prefix(self, k: int) -> "LocalHistory":
        return LocalHistory(self.initial, self.rounds[:k])

    def append(self, haps: frozenset) -> "LocalHistory":
        return LocalHistory(self.initial, self.rounds + (haps,))


@dataclass(frozen=True)
class GlobalState:
    """(environment history, n local histories); |env| is the global time."""

    env: tuple  # tuple of frozensets of GlobalHap, oldest-first
    locals: tuple  # tuple of LocalHistory, index agent-1

    def local(self, agent: AgentId) -> LocalHistory:
        return self.locals[agent - 1]


def initial_state(initials) -> GlobalState:
    return GlobalState((), tuple(LocalHistory(lam) for lam in initials))


@dataclass(frozen=True)
class Run:
    """A finite run prefix: states indexed 0..horizon."""

    states: tuple

    @property
    def horizon(self) -> Timestamp:
        return len(self.states) - 1

    def state(self, t: Timestamp) -> GlobalState:
        return self.states[t]

    def local(self, agent: AgentId, t: Timestamp) -> LocalHistory:
        return self.states[t].local(agent)


# ---------------------------------------------------------------------------
# State update functions

def perceived(X: frozenset) -> frozenset:
    """sigma(X): strip system events, then localize; drops non-recordings."""
    out = set()
    for g in X:
        if is_system(g):
            continue
        loc = localize(g)
        if loc is not None:
            out.add(loc)
    return frozenset(out)


def update_agent(h: LocalHistory, agent: AgentId, X_i: frozenset,
                 X_eps: frozenset) -> LocalHistory:
    """Update one local history with the round's actions and events.

    The history is untouched when the agent perceives nothing and was not
    activated, denying it knowledge that the round passed.  A go with an
    empty perception set appends an empty activation marker round.
    """
    X_eps_i = frozenset(g for g in X_eps if is_event(g) and g.agent == agent)
    if not perceived(X_eps_i) and Go(agent) not in X_eps:
        return h
    return h.append(perceived(X_eps_i | X_i))


def apply_round(state: GlobalState, rnd: frozenset) -> GlobalState:
    """The state after one round, given the environment's verbatim record
    of it: the round's events plus the correct sends agents performed.
    Each agent's actions are its `GSend`s, since menus hold events only."""
    locals_ = tuple(
        update_agent(h, i, frozenset(g for g in rnd
                                     if isinstance(g, GSend) and g.agent == i),
                     rnd)
        for i, h in enumerate(state.locals, start=1))
    return GlobalState(state.env + (rnd,), locals_)


def replay_local(agent: AgentId, env: tuple, initial: str) -> LocalHistory:
    """Rebuild an agent's local history from the environment history;
    tests check `apply_round` against it."""
    h = LocalHistory(initial)
    for rnd in env:
        X_i = frozenset(g for g in rnd if isinstance(g, GSend) and g.agent == agent)
        X_eps = frozenset(g for g in rnd if is_event(g))
        h = update_agent(h, agent, X_i, X_eps)
    return h
