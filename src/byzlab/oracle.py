"""Brute-force Kripke oracle over an enumerated run set.

Knowledge quantifies over all points whose local history matches; belief
and hope unfold into knowledge and correctness per their definitions.
The box operator quantifies over the remaining timestamps of the same
run, so its verdicts are relative to the bounded horizon; `check` flags
formulas whose truth could shift with a longer horizon when the final
round still offers activity.

Each formula is compiled once into a table of subformula ids, shared by
structure across every formula the system sees.  Points that hold the
same `GlobalState` object form one node (enumeration builds each
distinct state once and shares it between runs), and a subformula whose
value is a function of the state is evaluated once per node.  Only `G`
outside any `K` depends on the point itself and is kept per point;
knowledge is kept per history of its agent, and the classes of histories
are built per node.  An all-points `check` of a formula free of a `G`
outside any `K` evaluates it once per node and expands the values to the
points; only such a `G` walks the points.  A class reads its first point
from its first node; an agent's classes list their points, from the
nodes of each run, only when one of them is first walked.
"""

from __future__ import annotations

from collections.abc import Sequence
from itertools import chain
from typing import Dict, List, Optional, Tuple

from .atoms import AtomTimeError, Correct, eval_atom
from .engine import collector_paused
from .formulas import (
    Always, And, Atom, Believe, Formula, Hope, Implies, Know, Not, Or,
    nested_hope,
)
from .haps import AgentId, GlobalState, LocalHistory, Run, Send, Timestamp

Point = Tuple[int, Timestamp]  # (run index, time)

# Kinds of compiled subformulas.  A table row is (kind, a, b, per_point,
# always): a and b are subformula ids, except ATOM (a = designated atom)
# and KNOW (a = agent); per_point marks a `G` outside any `K`, and always
# a `G` anywhere.
ATOM, NOT, AND, OR, IMPLIES, KNOW, ALWAYS = range(7)
_BINARY = {And: AND, Or: OR, Implies: IMPLIES}


class _AgentClasses:
    """One agent's classes, numbered in the order of their first points:
    `index` maps a node to its class, `firsts` lists each class's first
    point of each of its nodes, and `members()` each class's points, for
    every class in one pass over the node rows when first asked for.  It
    holds the rows, not the system, so that the classes make no
    reference cycle."""

    __slots__ = ("index", "firsts", "_node_at", "_members")

    def __init__(self, index: List[int], firsts: List[List[Point]],
                 node_at: List[List[int]]):
        self.index = index
        self.firsts = firsts
        self._node_at = node_at  # run index -> t -> node
        self._members: Optional[List[List[Point]]] = None

    def members(self) -> List[List[Point]]:
        if self._members is None:
            with collector_paused():  # the build makes no reference cycles
                members: List[List[Point]] = [[] for _ in self.firsts]
                index = self.index
                for ridx, row in enumerate(self._node_at):
                    for t, node in enumerate(row):
                        members[index[node]].append((ridx, t))
                self._members = members
        return self._members


class _ClassPoints(Sequence):
    """The points of one class, in point order, read-only.  `[0]` is the
    class's first point; any other read lists the points of every class
    of the agent, once."""

    __slots__ = ("_classes", "_k")

    def __init__(self, classes: _AgentClasses, k: int):
        self._classes = classes
        self._k = k

    def _list(self) -> List[Point]:
        return self._classes.members()[self._k]

    def __getitem__(self, i):
        if i == 0:
            return self._classes.firsts[self._k][0]
        return self._list()[i]

    def __len__(self) -> int:
        return len(self._list())

    def __iter__(self):
        return iter(self._list())

    def __eq__(self, other) -> bool:
        if isinstance(other, _ClassPoints):
            other = other._list()
        return self._list() == other

    def __repr__(self) -> str:
        return repr(self._list())


class InterpretedSystem:
    """Enumerated runs, over which formulas of designated atoms are
    evaluated; `states` lists the distinct states among their points.
    `quiescent` says the final round offers no activity, so that `G`
    cannot change on a longer horizon."""

    def __init__(self, runs: List[Run], quiescent: bool = True):
        self.runs = list(runs)
        self.horizon = runs[0].horizon if runs else 0
        self.quiescent = quiescent
        self._table: List[tuple] = []         # subformula id -> row
        self._ids: Dict[tuple, int] = {}      # row -> subformula id
        self._memo: List[dict] = []           # subformula id -> key -> value
        self._classes: Dict[AgentId, Dict[LocalHistory, _ClassPoints]] = {}
        self._agents: Dict[AgentId, _AgentClasses] = {}
        self._points: Optional[List[Point]] = None
        # Nodes are numbered in the order of their first points.  Runs
        # that enumeration repeats are one `Run` object and share a row.
        self.states: List[GlobalState] = []   # node -> its state
        self._first_at: List[Point] = []      # node -> its first point
        self._node_at: List[List[int]] = []   # run index -> t -> node
        node_of: Dict[int, int] = {}  # id of a GlobalState -> its node
        rows: Dict[int, List[int]] = {}  # id of a Run -> its row
        for ridx, run in enumerate(self.runs):
            row = rows.get(id(run))
            if row is None:
                row = rows[id(run)] = []
                for t, state in enumerate(run.states):
                    node = node_of.setdefault(id(state), len(node_of))
                    if node == len(self.states):
                        self.states.append(state)
                        self._first_at.append((ridx, t))
                    row.append(node)
            self._node_at.append(row)

    # -- points ------------------------------------------------------------

    def points(self) -> List[Point]:
        """Every point in order, listed once when first asked for.
        Callers must not mutate it."""
        if self._points is None:
            self._points = [(ridx, t) for ridx in range(len(self.runs))
                            for t in range(self.horizon + 1)]
        return self._points

    def agent_classes(self,
                      agent: AgentId) -> Dict[LocalHistory, Sequence[Point]]:
        """The classes of `agent`'s histories, keyed in the order of their
        first points.  A class reads its first point from its first node;
        the first walk of any class of the agent lists all of them."""
        if agent not in self._classes:
            # one hash per node; classes are numbered, and each one's
            # firsts listed, in the order of the nodes' first points
            ids: Dict[LocalHistory, int] = {}
            index = [ids.setdefault(s.locals[agent - 1], len(ids))
                     for s in self.states]
            firsts: List[List[Point]] = [[] for _ in ids]
            for k, p in zip(index, self._first_at):
                firsts[k].append(p)
            classes = self._agents[agent] = _AgentClasses(
                index, firsts, self._node_at)
            self._classes[agent] = {h: _ClassPoints(classes, k)
                                    for h, k in ids.items()}
        return self._classes[agent]

    # -- compilation -------------------------------------------------------

    def _row(self, kind: int, a, b=None) -> int:
        key = (kind, a, b)
        fid = self._ids.get(key)
        if fid is None:
            if kind == ATOM:
                per_point = always = False
            elif kind == KNOW:  # kept per history, whatever b depends on
                per_point, always = False, self._table[b][4]
            else:
                ra = self._table[a]
                rb = ra if b is None else self._table[b]
                per_point = kind == ALWAYS or ra[3] or rb[3]
                always = kind == ALWAYS or ra[4] or rb[4]
            fid = self._ids[key] = len(self._table)
            self._table.append((kind, a, b, per_point, always))
            self._memo.append({})
        return fid

    def _belief(self, agent: AgentId, sub: int) -> int:
        # B_i phi = K_i(correct(i) -> phi)
        return self._row(KNOW, agent,
                         self._row(IMPLIES, self._row(ATOM, Correct(agent)), sub))

    def _compile(self, phi: Formula) -> int:
        if isinstance(phi, Atom):
            return self._row(ATOM, phi.prop)
        if isinstance(phi, Not):
            return self._row(NOT, self._compile(phi.sub))
        if type(phi) in _BINARY:
            return self._row(_BINARY[type(phi)], self._compile(phi.left),
                             self._compile(phi.right))
        if isinstance(phi, Know):
            return self._row(KNOW, phi.agent, self._compile(phi.sub))
        if isinstance(phi, Believe):
            return self._belief(phi.agent, self._compile(phi.sub))
        if isinstance(phi, Hope):
            # H_i phi = correct(i) -> B_i phi
            return self._row(IMPLIES, self._row(ATOM, Correct(phi.agent)),
                             self._belief(phi.agent, self._compile(phi.sub)))
        if isinstance(phi, Always):
            return self._row(ALWAYS, self._compile(phi.sub))
        raise TypeError(f"not a formula: {phi!r}")

    # -- values ------------------------------------------------------------

    def _point(self, p: Point) -> Point:
        ridx, t = p
        if not (0 <= ridx < len(self.runs) and 0 <= t <= self.horizon):
            raise ValueError(f"point {p} outside the system")
        return p

    def eval(self, p: Point, phi: Formula) -> bool:
        return self._value(self._compile(phi), *self._point(p))

    def _value(self, fid: int, ridx: int, t: Timestamp) -> bool:
        kind, a, b, per_point, _ = self._table[fid]
        node = self._node_at[ridx][t]
        if kind == KNOW:
            if a not in self._agents:
                self.agent_classes(a)
            classes = self._agents[a]
            key = classes.index[node]
        else:
            key = (ridx, t) if per_point else node
        memo = self._memo[fid]
        out = memo.get(key)
        if out is not None:
            return out
        if kind == ATOM:
            try:
                out = eval_atom(self.states[node], a)
            except AtomTimeError as e:
                raise AtomTimeError(f"{e} at run {ridx}, t={t}") from None
        elif kind == NOT:
            out = not self._value(a, ridx, t)
        elif kind == AND:
            out = self._value(a, ridx, t) and self._value(b, ridx, t)
        elif kind == OR:
            out = self._value(a, ridx, t) or self._value(b, ridx, t)
        elif kind == IMPLIES:
            out = (not self._value(a, ridx, t)) or self._value(b, ridx, t)
        elif kind == KNOW:
            # a class visits each node at its first point only, unless
            # the subformula depends on the point itself
            pts = classes.members() if self._table[b][3] else classes.firsts
            out = all(self._value(b, r, u) for r, u in pts[key])
        else:  # ALWAYS
            out = all(self._value(a, ridx, u)
                      for u in range(t, self.horizon + 1))
        memo[key] = out
        return out

    def check(self, phi: Formula, p: Optional[Point] = None):
        """Evaluate at one point or all points; returns (verdicts, warning).

        Over all points, a formula free of a `G` outside any `K` is
        evaluated once per node, at the node's first point, and its value
        expanded to the node's points.  Nodes are numbered in the order of
        their first points, so values are computed, and the first error
        raised, in the order a walk of the points would meet them."""
        warning = None
        fid = self._compile(phi)
        if not self.quiescent and self._table[fid][4]:
            warning = ("formula contains G and the final round is not "
                       "quiescent; its value may differ on a longer horizon")
        if p is not None:
            return [(p, self._value(fid, *self._point(p)))], warning
        if self._table[fid][3]:
            return [(q, self._value(fid, *q)) for q in self.points()], warning
        values = [self._value(fid, *q) for q in self._first_at]
        return [(q, values[node]) for q, node in zip(
            self.points(), chain.from_iterable(self._node_at))], warning

    # -- the trust contract ------------------------------------------------

    def verify_trust_table(self, trust, protocols) -> list:
        """Violations of the trustworthy-message contract, as a list of
        (sender, receiver, msg, point) tuples."""
        violations = []
        for (j, i, msg), (phi, chain) in sorted(trust.entries.items()):
            fid = self._compile(Believe(j, nested_hope(chain, phi)))
            for h, pts in self.agent_classes(j).items():
                offers = protocols[j - 1](h)
                if any(any(isinstance(a, Send) and a.to == i and a.msg == msg
                           for a in D) for D in offers):
                    if not self._value(fid, *pts[0]):
                        violations.append((j, i, msg, pts[0]))
        return violations
