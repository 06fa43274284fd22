"""Brute-force Kripke oracle over an enumerated run set.

Knowledge quantifies over all points whose local history matches; belief
and hope unfold into knowledge and correctness per their definitions.
The box operator quantifies over the remaining timestamps of the same
run, so its verdicts are relative to the bounded horizon; `check` flags
formulas whose truth could shift with a longer horizon when the final
round still offers activity.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from .atoms import Correct, eval_atom
from .formulas import (
    Always, And, Atom, Believe, Formula, Hope, Implies, Know, Not, Or,
)
from .haps import AgentId, LocalHistory, Run, Timestamp

Point = Tuple[int, Timestamp]  # (run index, time)


class UnknownProposition(ValueError):
    pass


class InterpretedSystem:
    """Enumerated runs plus a valuation for custom propositions."""

    def __init__(self, runs: List[Run], valuation: Optional[dict] = None,
                 quiescent: bool = True):
        self.runs = list(runs)
        self.horizon = runs[0].horizon if runs else 0
        self.valuation = {p: frozenset(pts) for p, (pts) in (valuation or {}).items()}
        self.quiescent = quiescent
        self._memo: Dict[tuple, bool] = {}
        self._classes: Dict[AgentId, Dict[LocalHistory, List[Point]]] = {}

    # -- points ------------------------------------------------------------

    def points(self):
        for ridx in range(len(self.runs)):
            for t in range(self.horizon + 1):
                yield (ridx, t)

    def local_at(self, p: Point, agent: AgentId) -> LocalHistory:
        ridx, t = p
        return self.runs[ridx].local(agent, t)

    def agent_classes(self, agent: AgentId) -> Dict[LocalHistory, List[Point]]:
        if agent not in self._classes:
            classes: Dict[LocalHistory, List[Point]] = {}
            for p in self.points():
                classes.setdefault(self.local_at(p, agent), []).append(p)
            self._classes[agent] = classes
        return self._classes[agent]

    # -- evaluation --------------------------------------------------------

    def eval(self, p: Point, phi: Formula) -> bool:
        key = (phi, p)
        if key in self._memo:
            return self._memo[key]
        out = self._eval(p, phi)
        self._memo[key] = out
        return out

    def _eval(self, p: Point, phi: Formula) -> bool:
        ridx, t = p
        if isinstance(phi, Atom):
            if isinstance(phi.prop, str):
                if phi.prop not in self.valuation:
                    raise UnknownProposition(
                        f"no valuation for proposition {phi.prop!r}")
                return p in self.valuation[phi.prop]
            return eval_atom(self.runs[ridx], t, phi.prop)
        if isinstance(phi, Not):
            return not self.eval(p, phi.sub)
        if isinstance(phi, And):
            return self.eval(p, phi.left) and self.eval(p, phi.right)
        if isinstance(phi, Or):
            return self.eval(p, phi.left) or self.eval(p, phi.right)
        if isinstance(phi, Implies):
            return (not self.eval(p, phi.left)) or self.eval(p, phi.right)
        if isinstance(phi, Know):
            return self._know(phi.agent, phi.sub, self.local_at(p, phi.agent))
        if isinstance(phi, Believe):
            return self._know(
                phi.agent, Implies(Atom(Correct(phi.agent)), phi.sub),
                self.local_at(p, phi.agent))
        if isinstance(phi, Hope):
            return self.eval(
                p, Implies(Atom(Correct(phi.agent)), Believe(phi.agent, phi.sub)))
        if isinstance(phi, Always):
            return all(self.eval((ridx, u), phi.sub)
                       for u in range(t, self.horizon + 1))
        raise TypeError(f"not a formula: {phi!r}")

    def _know(self, agent: AgentId, phi: Formula, h: LocalHistory) -> bool:
        key = ("K", agent, phi, h)
        if key in self._memo:
            return self._memo[key]
        out = all(self.eval(q, phi) for q in self.agent_classes(agent)[h])
        self._memo[key] = out
        return out

    def check(self, phi: Formula, p: Optional[Point] = None):
        """Evaluate at one point or all points; returns (verdicts, warning)."""
        warning = None
        if not self.quiescent and _mentions_always(phi):
            warning = ("formula contains G and the final round is not "
                       "quiescent; its value may differ on a longer horizon")
        pts = [p] if p is not None else list(self.points())
        return [(q, self.eval(q, phi)) for q in pts], warning

    # -- verification sweeps ------------------------------------------------

    def verify_persistent(self, phi: Formula):
        """(True, None) or (False, (run index, t, t')) with a violation."""
        for ridx in range(len(self.runs)):
            first_true = None
            for t in range(self.horizon + 1):
                val = self.eval((ridx, t), phi)
                if val and first_true is None:
                    first_true = t
                if not val and first_true is not None:
                    return False, (ridx, first_true, t)
        return True, None

    def verify_trust_table(self, trust, protocols) -> list:
        """Violations of the trustworthy-message contract, as a list of
        (sender, receiver, msg, point) tuples."""
        from .chains import certified_formula
        from .haps import Send
        violations = []
        for (j, i, msg), entry in sorted(trust.entries.items()):
            psi = certified_formula(entry)
            checked = set()
            for p in self.points():
                h = self.local_at(p, j)
                if h in checked:
                    continue
                checked.add(h)
                offers = protocols[j - 1](h)
                if any(any(isinstance(a, Send) and a.to == i and a.msg == msg
                           for a in D) for D in offers):
                    if not self.eval(p, Believe(j, psi)):
                        violations.append((j, i, msg, p))
        return violations


def _mentions_always(phi: Formula) -> bool:
    if isinstance(phi, Always):
        return True
    if isinstance(phi, (Not, Know, Believe, Hope)):
        return _mentions_always(phi.sub)
    if isinstance(phi, (And, Or, Implies)):
        return _mentions_always(phi.left) or _mentions_always(phi.right)
    return False
