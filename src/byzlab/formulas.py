"""Epistemic formula AST, textual syntax, and the persistence grammar.

Textual syntax (used in scenario files and the CLI):

    correct(i)  correct(i,t)  faulty(i)  faulty(i,t)
    fake(i,t,HAP)  occ_c(HAP)  occ_c(i,HAP)  occ_c(i,t,HAP)
    occ(i,HAP)  happened(i,HAP)  fhappened(i,HAP)  init(i,ID)
    K[i](F)  B[i](F)  H[i](F)  G(F)  !F  (F & F)  (F | F)  (F -> F)
    kgroup(k,HAP)          the k-group occurrence-belief disjunction
    bare identifiers       custom propositions

    HAP := recv(j,MSG) | send(j,MSG) | send(j,MSG,copy) | ext(ID)
"""

from __future__ import annotations

import functools
import itertools
import re
from dataclasses import dataclass
from typing import Optional, Sequence, Union

from .atoms import (
    Correct, Fake, FakeHappened, Faulty, Happened, Init,
    Occurred, OccurredCorrectly,
)
from .haps import AgentId, External, LocalHap, Recv, Send


@dataclass(frozen=True)
class Atom:
    """A designated atom or (as a plain string) a custom proposition."""

    prop: object


@dataclass(frozen=True)
class Not:
    sub: "Formula"


@dataclass(frozen=True)
class And:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Or:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Implies:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Know:
    agent: AgentId
    sub: "Formula"


@dataclass(frozen=True)
class Believe:
    """B_i phi, shorthand for K_i(correct(i) -> phi)."""

    agent: AgentId
    sub: "Formula"


@dataclass(frozen=True)
class Hope:
    """H_i phi, shorthand for correct(i) -> B_i phi."""

    agent: AgentId
    sub: "Formula"


@dataclass(frozen=True)
class Always:
    sub: "Formula"


Formula = Union[Atom, Not, And, Or, Implies, Know, Believe, Hope, Always]


def conj(parts: Sequence[Formula]) -> Formula:
    out = parts[0]
    for p in parts[1:]:
        out = And(out, p)
    return out


def disj(parts: Sequence[Formula]) -> Formula:
    out = parts[0]
    for p in parts[1:]:
        out = Or(out, p)
    return out


def nested_hope(sigma: Sequence[AgentId], phi: Formula) -> Formula:
    """H_{s1} H_{s2} ... H_{sk} phi; the empty sequence yields phi itself."""
    out = phi
    for agent in reversed(tuple(sigma)):
        out = Hope(agent, out)
    return out


@functools.lru_cache(maxsize=1024)
def group_occurrence_formula(n: AgentId, k: int, hap: LocalHap) -> Formula:
    """Some k agents each forever correct and believing the correct
    occurrence of `hap`.  Cached: detection asks for the same C(n, k)-way
    disjunction on every history, and formulas are immutable."""
    disjuncts = []
    for G in itertools.combinations(range(1, n + 1), k):
        disjuncts.append(conj([
            Always(And(Atom(Correct(j)),
                       Believe(j, Atom(OccurredCorrectly(hap)))))
            for j in G]))
    return disj(disjuncts)


# ---------------------------------------------------------------------------
# Persistence grammar (conservative syntactic check)

def is_syntactically_persistent(phi: Formula) -> bool:
    """True for formulas persistent by construction.

    Base atoms: faulty, occurred, occurred-correctly, init.  Closed under
    correct(i) -> . , the three epistemic modalities, conjunction and
    disjunction.  Box formulas are persistent outright: once `always phi`
    holds from t, it holds from every later time.
    """
    if isinstance(phi, Atom):
        return isinstance(phi.prop, (Faulty, Occurred, OccurredCorrectly, Init))
    if isinstance(phi, (Know, Believe, Hope)):
        return is_syntactically_persistent(phi.sub)
    if isinstance(phi, (And, Or)):
        return is_syntactically_persistent(phi.left) and \
            is_syntactically_persistent(phi.right)
    if isinstance(phi, Implies):
        return isinstance(phi.left, Atom) and isinstance(phi.left.prop, Correct) \
            and phi.left.prop.at is None \
            and is_syntactically_persistent(phi.right)
    if isinstance(phi, Always):
        return True
    return False


# ---------------------------------------------------------------------------
# Parser

_TOKEN = re.compile(r"\s*(->|[()\[\],&|!]|G\b|[A-Za-z_][A-Za-z0-9_']*|\d+)")


class FormulaSyntaxError(ValueError):
    pass


class _Parser:
    def __init__(self, text: str, n: Optional[AgentId] = None):
        self.text = text
        self.n = n
        self.tokens = []
        pos = 0
        while pos < len(text):
            m = _TOKEN.match(text, pos)
            if not m:
                raise FormulaSyntaxError(
                    f"bad character at offset {pos} in {text!r}")
            self.tokens.append(m.group(1))
            pos = m.end()
        self.i = 0

    def peek(self) -> Optional[str]:
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def take(self, expected: Optional[str] = None) -> str:
        tok = self.peek()
        if tok is None:
            raise FormulaSyntaxError(f"unexpected end of formula {self.text!r}")
        if expected is not None and tok != expected:
            raise FormulaSyntaxError(
                f"expected {expected!r}, found {tok!r} in {self.text!r}")
        self.i += 1
        return tok

    def parse(self) -> Formula:
        phi = self.implication()
        if self.peek() is not None:
            raise FormulaSyntaxError(
                f"trailing tokens after formula in {self.text!r}")
        return phi

    def implication(self) -> Formula:
        left = self.disjunct()
        if self.peek() == "->":
            self.take()
            return Implies(left, self.implication())
        return left

    def disjunct(self) -> Formula:
        out = self.conjunct()
        while self.peek() == "|":
            self.take()
            out = Or(out, self.conjunct())
        return out

    def conjunct(self) -> Formula:
        out = self.unary()
        while self.peek() == "&":
            self.take()
            out = And(out, self.unary())
        return out

    def unary(self) -> Formula:
        tok = self.peek()
        if tok == "!":
            self.take()
            return Not(self.unary())
        if tok in ("K", "B", "H"):
            self.take()
            self.take("[")
            agent = self._agent()
            self.take("]")
            self.take("(")
            sub = self.implication()
            self.take(")")
            return {"K": Know, "B": Believe, "H": Hope}[tok](agent, sub)
        if tok == "G":
            self.take()
            self.take("(")
            sub = self.implication()
            self.take(")")
            return Always(sub)
        if tok == "(":
            self.take()
            sub = self.implication()
            self.take(")")
            return sub
        return self.atom()

    def _int(self) -> int:
        tok = self.take()
        if not tok.isdigit():
            raise FormulaSyntaxError(f"expected integer, found {tok!r}")
        return int(tok)

    def _agent(self) -> AgentId:
        i = self._int()
        if self.n is not None and not 1 <= i <= self.n:
            raise FormulaSyntaxError(
                f"agent {i} out of range 1..{self.n} in {self.text!r}")
        return i

    def hap(self) -> LocalHap:
        kind = self.take()
        self.take("(")
        if kind == "recv":
            j = self._agent()
            self.take(",")
            msg = self.take()
            self.take(")")
            return Recv(j, msg)
        if kind == "send":
            j = self._agent()
            self.take(",")
            msg = self.take()
            copy = 0
            if self.peek() == ",":
                self.take()
                copy = self._int()
            self.take(")")
            return Send(j, msg, copy)
        if kind == "ext":
            ev = self.take()
            self.take(")")
            return External(ev)
        raise FormulaSyntaxError(f"unknown hap kind {kind!r} in {self.text!r}")

    def atom(self) -> Formula:
        tok = self.take()
        if tok in ("correct", "faulty"):
            self.take("(")
            i = self._agent()
            at = None
            if self.peek() == ",":
                self.take()
                at = self._int()
            self.take(")")
            cls = Correct if tok == "correct" else Faulty
            return Atom(cls(i, at))
        if tok == "fake":
            self.take("(")
            i = self._agent()
            self.take(",")
            at = self._int()
            self.take(",")
            hap = self.hap()
            self.take(")")
            return Atom(Fake(i, at, hap))
        if tok == "occ_c":
            self.take("(")
            if (self.peek() or "").isdigit():
                i = self._agent()
                self.take(",")
                if (self.peek() or "").isdigit():
                    at = self._int()
                    self.take(",")
                    hap = self.hap()
                    self.take(")")
                    return Atom(OccurredCorrectly(hap, i, at))
                hap = self.hap()
                self.take(")")
                return Atom(OccurredCorrectly(hap, i))
            hap = self.hap()
            self.take(")")
            return Atom(OccurredCorrectly(hap))
        if tok == "occ":
            self.take("(")
            i = self._agent()
            self.take(",")
            hap = self.hap()
            self.take(")")
            return Atom(Occurred(hap, i))
        if tok in ("happened", "fhappened"):
            self.take("(")
            i = self._agent()
            self.take(",")
            hap = self.hap()
            self.take(")")
            cls = Happened if tok == "happened" else FakeHappened
            return Atom(cls(hap, i))
        if tok == "init":
            self.take("(")
            i = self._agent()
            self.take(",")
            lam = self.take()
            self.take(")")
            return Atom(Init(i, lam))
        if tok == "kgroup":
            if self.n is None:
                raise FormulaSyntaxError(
                    "kgroup needs the agent count; none supplied to the parser")
            self.take("(")
            k = self._int()
            self.take(",")
            hap = self.hap()
            self.take(")")
            return group_occurrence_formula(self.n, k, hap)
        if re.fullmatch(r"[A-Za-z_][A-Za-z0-9_']*", tok):
            return Atom(tok)
        raise FormulaSyntaxError(f"unexpected token {tok!r} in {self.text!r}")


def parse_formula(text: str, n: Optional[AgentId] = None) -> Formula:
    return _Parser(text, n).parse()


def unparse(phi: Formula) -> str:
    """Canonical text; parse(unparse(phi)) == phi for parser-produced ASTs."""
    if isinstance(phi, Atom):
        return _unparse_atom(phi.prop)
    if isinstance(phi, Not):
        return f"!{unparse(phi.sub)}"
    if isinstance(phi, And):
        return f"({unparse(phi.left)} & {unparse(phi.right)})"
    if isinstance(phi, Or):
        return f"({unparse(phi.left)} | {unparse(phi.right)})"
    if isinstance(phi, Implies):
        return f"({unparse(phi.left)} -> {unparse(phi.right)})"
    if isinstance(phi, Know):
        return f"K[{phi.agent}]({unparse(phi.sub)})"
    if isinstance(phi, Believe):
        return f"B[{phi.agent}]({unparse(phi.sub)})"
    if isinstance(phi, Hope):
        return f"H[{phi.agent}]({unparse(phi.sub)})"
    if isinstance(phi, Always):
        return f"G({unparse(phi.sub)})"
    raise TypeError(f"not a formula: {phi!r}")


def _unparse_hap(hap: LocalHap) -> str:
    if isinstance(hap, Recv):
        return f"recv({hap.frm},{hap.msg})"
    if isinstance(hap, Send):
        return f"send({hap.to},{hap.msg},{hap.copy})" if hap.copy else \
            f"send({hap.to},{hap.msg})"
    return f"ext({hap.event})"


def _unparse_atom(prop) -> str:
    if isinstance(prop, str):
        return prop
    if isinstance(prop, (Correct, Faulty)):
        name = "correct" if isinstance(prop, Correct) else "faulty"
        return f"{name}({prop.agent},{prop.at})" if prop.at is not None else \
            f"{name}({prop.agent})"
    if isinstance(prop, Fake):
        return f"fake({prop.agent},{prop.at},{_unparse_hap(prop.hap)})"
    if isinstance(prop, OccurredCorrectly):
        if prop.agent is None:
            return f"occ_c({_unparse_hap(prop.hap)})"
        if prop.at is None:
            return f"occ_c({prop.agent},{_unparse_hap(prop.hap)})"
        return f"occ_c({prop.agent},{prop.at},{_unparse_hap(prop.hap)})"
    if isinstance(prop, Occurred):
        return f"occ({prop.agent},{_unparse_hap(prop.hap)})"
    if isinstance(prop, Happened):
        return f"happened({prop.agent},{_unparse_hap(prop.action)})"
    if isinstance(prop, FakeHappened):
        return f"fhappened({prop.agent},{_unparse_hap(prop.action)})"
    if isinstance(prop, Init):
        return f"init({prop.agent},{prop.state})"
    raise TypeError(f"not an atom payload: {prop!r}")
