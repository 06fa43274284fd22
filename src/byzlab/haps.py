"""Hap algebra: local and global actions/events, histories, and runs.

Local haps are what an agent records; global haps are the environment's
bookkeeping format, which additionally carries timestamps, message
identifiers and correct/byzantine tags.  A send is its own global
message identifier (GMI), which a delivery names, and a byzantine hap
acts as its own agent.  All values here are immutable and hashable, so
they can be shared freely between enumeration workers.

Haps and histories are tagged tuples, `(class name, *fields)`, so that
the millions of them a system builds are built, hashed and compared in
C; the tag keeps a value unequal to one of another type or a guard.
"""

from __future__ import annotations

import inspect
from collections import defaultdict
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Optional, Union

AgentId = int
Timestamp = int


class _Tagged(tuple):
    """A tagged tuple, whose type's `__new__` parameters name its fields;
    within one type, values order as their field tuples do."""

    __slots__ = ()

    def __init_subclass__(cls):
        cls._fields = tuple(inspect.signature(cls.__new__).parameters)[1:]
        for k, name in enumerate(cls._fields, 1):
            setattr(cls, name, property(itemgetter(k)))

    def __repr__(self) -> str:
        return f"{type(self).__name__}(" + ", ".join(
            f"{f}={v!r}" for f, v in zip(self._fields, self[1:])) + ")"

    def __getnewargs__(self) -> tuple:
        return self[1:]


# ---------------------------------------------------------------------------
# Local format

class Send(_Tagged):
    __slots__ = ()
    def __new__(cls, to: AgentId, msg: str, copy: int = 0):
        return tuple.__new__(cls, ("Send", to, msg, copy))


class Recv(_Tagged):
    __slots__ = ()
    def __new__(cls, frm: AgentId, msg: str):
        return tuple.__new__(cls, ("Recv", frm, msg))


class External(_Tagged):
    __slots__ = ()
    def __new__(cls, event: str):
        return tuple.__new__(cls, ("External", event))


LocalHap = Union[Send, Recv, External]


# ---------------------------------------------------------------------------
# Global format

class GSend(_Tagged):
    """A send of `agent`; its fields are its global message identifier."""

    __slots__ = ()
    def __new__(cls, agent: AgentId, to: AgentId, msg: str, copy: int,
                sent_at: Timestamp):
        return tuple.__new__(cls, ("GSend", agent, to, msg, copy, sent_at))


class GRecv(_Tagged):
    """Correct delivery to `agent` of a message sent by `frm`.

    `gmi` is the `GSend` delivered, a send of `msg` from `frm` to
    `agent`, or None for an unresolved delivery template in an
    environment menu; the engine materializes templates against actual
    sends before filtering.
    """

    __slots__ = ()
    def __new__(cls, agent: AgentId, frm: AgentId, msg: str,
                gmi: Optional[GSend] = None):
        g = tuple.__new__(cls, ("GRecv", agent, frm, msg, gmi))
        if gmi is not None and \
                (gmi.agent, gmi.to, gmi.msg) != (frm, agent, msg):
            raise ValueError(f"{g!r} names no send of {msg!r} from {frm} "
                             f"to {agent}")
        return g


class GExternal(_Tagged):
    __slots__ = ()
    def __new__(cls, agent: AgentId, event: str):
        return tuple.__new__(cls, ("GExternal", agent, event))


class ByzAction(_Tagged):
    """Byzantine event: `agent` performs one action while recording another.

    Either side may be None (the non-action).  fail(i) is the invisible
    branding event ByzAction(i, None, None).
    """

    __slots__ = ()
    def __new__(cls, agent: AgentId, performed: Optional[GSend] = None,
                recorded: Optional[GSend] = None):
        g = tuple.__new__(cls, ("ByzAction", agent, performed, recorded))
        return _own(g, performed, recorded)


class ByzEvent(_Tagged):
    """Byzantine counterpart of a correct event: a faked perception."""

    __slots__ = ()
    def __new__(cls, agent: AgentId, event: Union[GRecv, GExternal] = None):
        g = tuple.__new__(cls, ("ByzEvent", agent, event))
        return _own(g, event)


def _own(g, *haps):
    """`g`, or ValueError unless each of `haps` is None or of its agent."""
    for h in haps:
        if h is not None and h.agent != g.agent:
            raise ValueError(f"{g!r} holds another agent's hap")
    return g


class Go(_Tagged):
    __slots__ = ()
    def __new__(cls, agent: AgentId):
        return tuple.__new__(cls, ("Go", agent))


class Sleep(_Tagged):
    __slots__ = ()
    def __new__(cls, agent: AgentId):
        return tuple.__new__(cls, ("Sleep", agent))


class Hib(_Tagged):
    __slots__ = ()
    def __new__(cls, agent: AgentId):
        return tuple.__new__(cls, ("Hib", agent))


GlobalHap = Union[GSend, GRecv, GExternal, ByzAction, ByzEvent, Go, Sleep, Hib]

# FEvents: byzantine events plus sleep and hibernate
FAULT_KINDS = (ByzAction, ByzEvent, Sleep, Hib)


def fail(agent: AgentId) -> ByzAction:
    return ByzAction(agent, None, None)


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

class LocalHistory(_Tagged):
    """An agent's view: initial state plus one hap set per active round.

    Rounds are stored oldest-first.  A round may be the empty set: the
    marker recorded when the agent was activated by go but perceived
    nothing; such markers never satisfy hap membership but do make
    histories distinguishable.
    """

    __slots__ = ()
    def __new__(cls, initial: str, rounds: tuple = ()):
        return tuple.__new__(cls, ("LocalHistory", initial, rounds))

    def __contains__(self, o: LocalHap) -> bool:
        return any(o in rnd for rnd in self.rounds)

    @property
    def active_rounds(self) -> int:
        return len(self.rounds)

    def prefix(self, k: int) -> "LocalHistory":
        return LocalHistory(self.initial, self.rounds[:k])

    def append(self, haps: frozenset) -> "LocalHistory":
        return LocalHistory(self.initial, self.rounds + (haps,))


@dataclass(frozen=True, slots=True)
class GlobalState:
    """(environment history, n local histories); |env| is the global time.
    `sent` holds the record's sends, `delivered` those its correct
    deliveries name and `faulty` the agents with a fault event in it;
    they spare a step the rescan of env and take no part in equality."""

    env: tuple  # tuple of frozensets of GlobalHap, oldest-first
    locals: tuple  # tuple of LocalHistory, index agent-1
    sent: frozenset = field(default=frozenset(), compare=False)
    delivered: frozenset = field(default=frozenset(), compare=False)
    faulty: frozenset = field(default=frozenset(), compare=False)

    def local(self, agent: AgentId) -> LocalHistory:
        return self.locals[agent - 1]


def initial_state(initials) -> GlobalState:
    return GlobalState((), tuple(LocalHistory(lam) for lam in initials))


@dataclass(frozen=True, slots=True)
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

def _grow(old: frozenset, new: set) -> frozenset:
    return old if new <= old else old.union(new)


def compile_round(rnd: frozenset) -> tuple:
    """A round record compiled for `join_round`, in one pass that
    dispatches on each hap's exact type: (the record, a list of (agent,
    its appended round), and the sets of the record's sends, of the
    sends its correct deliveries name and of its faulty agents).  No
    part is changed once compiled, so states joined from one compiled
    record share its appended rounds.

    An agent's appended round holds its perceived events and its
    actions (its `GSend`s), system events stripped.  An agent that
    perceives no event and was not activated appends nothing, which
    denies it knowledge that the round passed; a go with nothing
    perceived appends an empty marker round."""
    heard = defaultdict(set)  # agent -> its perceived events, localized
    did = defaultdict(set)    # agent -> its correct sends, localized
    sent, delivered, faulty = set(), set(), set()
    for g in rnd:
        kind = type(g)
        if kind is GSend:
            did[g.agent].add(Send(g.to, g.msg, g.copy))
            sent.add(g)
        elif kind is GRecv:
            heard[g.agent].add(Recv(g.frm, g.msg))
            if g.gmi is not None:
                delivered.add(g.gmi)
        elif kind is Go:
            heard[g.agent]  # activated: a round marker even if empty
        elif kind is GExternal:
            heard[g.agent].add(External(g.event))
        elif kind in FAULT_KINDS:
            faulty.add(g.agent)
            if kind is ByzAction and g.performed is not None:
                sent.add(g.performed)
            loc = localize(g)
            if loc is not None:
                heard[g.agent].add(loc)
    return rnd, [(i, frozenset(haps.union(did[i]) if i in did else haps))
                 for i, haps in heard.items()], sent, delivered, faulty


def join_round(state: GlobalState, compiled: tuple) -> GlobalState:
    """The state after the round `compiled` by `compile_round`: each
    agent's history gains its appended round, the record extends `env`
    and its deltas extend the summaries."""
    rnd, rounds, sent, delivered, faulty = compiled
    locals_ = list(state.locals)
    for i, haps in rounds:
        if 0 < i <= len(locals_):
            locals_[i - 1] = locals_[i - 1].append(haps)
    return GlobalState(state.env + (rnd,), tuple(locals_),
                       _grow(state.sent, sent),
                       _grow(state.delivered, delivered),
                       _grow(state.faulty, faulty))


def apply_round(state: GlobalState, rnd: frozenset) -> GlobalState:
    """The state after one round, given the environment's verbatim record
    of it: the round's events plus the correct sends agents performed.
    The record is compiled (`compile_round`), then joined onto the state
    (`join_round`); `step` keeps each compiled record in its context."""
    return join_round(state, compile_round(rnd))
