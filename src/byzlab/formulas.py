"""Epistemic formula AST, textual syntax, and the persistence grammar.

Textual syntax (used in scenario files and the CLI):

    correct(i)  correct(i,t)  faulty(i)  faulty(i,t)
    fake(i,t,HAP)  occ_c(HAP)  occ_c(i,HAP)  occ_c(i,t,HAP)
    occ(i,HAP)  happened(i,HAP)  fhappened(i,HAP)  init(i,ID)
    K[i](F)  B[i](F)  H[i](F)  G(F)  !F  (F & F)  (F | F)  (F -> F)
    kgroup(k,HAP)          the k-group occurrence-belief disjunction

    HAP := recv(j,MSG) | send(j,MSG) | send(j,MSG,copy) | ext(ID)

Every atom is a designated one; any other bare name is a syntax error.
The t of `correct` and `faulty` is a time, from 0; that of `fake` and
`occ_c` names a round, from 1.  Given the agent count n, every agent id
(i, j) and kgroup's k must lie in 1..n; kgroup needs n.  `!`, `(`,
`K/B/H[i](` and `G(` nest at most `MAX_DEPTH` deep, so that neither the
parser nor the recursive walks over the AST exceed Python's default
recursion limit.  The forms of atoms and haps come from one table,
`_SIGNATURES`, which both the parser and `unparse` read.
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
    """A designated atom: a `Correct`, `Faulty`, ... value of `atoms`."""

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
    return _balanced(And, parts)


def disj(parts: Sequence[Formula]) -> Formula:
    return _balanced(Or, parts)


def _balanced(op, parts: Sequence[Formula]) -> Formula:
    """op over the halves, split at (len+1)//2, so the tree nests only
    log2(len) deep; three parts still give op(op(a, b), c)."""
    if len(parts) == 1:
        return parts[0]
    mid = (len(parts) + 1) // 2
    return op(_balanced(op, parts[:mid]), _balanced(op, parts[mid:]))


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
# Syntax of atoms and haps: each name's signatures, a builder and the fields
# its arguments fill in text order.  The parser picks the signature with as
# many fields as the call has arguments; the printer takes the first one
# that rebuilds the value.

_SIGNATURES = {
    "correct": ((Correct, ("agent",)), (Correct, ("agent", "at"))),
    "faulty": ((Faulty, ("agent",)), (Faulty, ("agent", "at"))),
    "fake": ((Fake, ("agent", "at", "hap")),),
    "occ_c": ((OccurredCorrectly, ("hap",)),
              (OccurredCorrectly, ("agent", "hap")),
              (OccurredCorrectly, ("agent", "at", "hap"))),
    "occ": ((Occurred, ("agent", "hap")),),
    "happened": ((Happened, ("agent", "action")),),
    "fhappened": ((FakeHappened, ("agent", "action")),),
    "init": ((Init, ("agent", "state")),),
    "kgroup": ((group_occurrence_formula, ("k", "hap")),),
    "recv": ((Recv, ("frm", "msg")),),
    "send": ((Send, ("to", "msg")), (Send, ("to", "msg", "copy"))),
    "ext": ((External, ("event",)),),
}

# What each field's argument must be; any other field takes a name.
_KINDS = {"agent": "agent", "frm": "agent", "to": "agent", "k": "group",
          "at": "int", "copy": "int", "hap": "hap", "action": "hap"}

_HAPS = (Recv, Send, External)

# Atoms whose `at` names a round, so that 0 names none.
_ROUND_ATOMS = (Fake, OccurredCorrectly)


def _is_hap(name: Optional[str]) -> bool:
    return name in _SIGNATURES and _SIGNATURES[name][0][0] in _HAPS


_TOKEN = re.compile(r"\s*(->|[()\[\],&|!]|G\b|[A-Za-z_][A-Za-z0-9_']*|\d+)")


# Deepest nesting of `!`, `(`, `K/B/H[i](` and `G(` the parser accepts.
MAX_DEPTH = 100


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
        self.depth = 0

    def peek(self, ahead: int = 0) -> Optional[str]:
        i = self.i + ahead
        return self.tokens[i] if i < len(self.tokens) else None

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
        if tok not in ("!", "K", "B", "H", "G", "("):
            return self.atom()
        self.depth += 1
        if self.depth > MAX_DEPTH:
            raise FormulaSyntaxError(
                f"formula nests deeper than {MAX_DEPTH} levels")
        self.take()
        if tok == "!":
            out = Not(self.unary())
        elif tok == "(":
            out = self.implication()
            self.take(")")
        elif tok == "G":
            out = Always(self.parenthesized())
        else:
            self.take("[")
            agent = self.check("agent", self.take())
            self.take("]")
            out = {"K": Know, "B": Believe, "H": Hope}[tok](
                agent, self.parenthesized())
        self.depth -= 1
        return out

    def parenthesized(self) -> Formula:
        self.take("(")
        sub = self.implication()
        self.take(")")
        return sub

    def atom(self) -> Formula:
        tok = self.peek()
        if tok in _SIGNATURES and not _is_hap(tok):
            phi = self.call()
            return phi if tok == "kgroup" else Atom(phi)
        raise FormulaSyntaxError(
            f"unexpected token {self.take()!r} in {self.text!r}")

    def call(self):
        """NAME "(" ARG {"," ARG} ")", where an ARG is a token or a hap."""
        name = self.take()
        self.take("(")
        args = [self.arg()]
        while self.peek() == ",":
            self.take()
            args.append(self.arg())
        self.take(")")
        for build, fields in _SIGNATURES[name]:
            if len(fields) == len(args):
                kw = {f: self.check(f, a) for f, a in zip(fields, args)}
                if build in _ROUND_ATOMS and kw.get("at") == 0:
                    raise FormulaSyntaxError(
                        f"{name} names round 0 in {self.text!r}; "
                        "rounds start at 1")
                # kgroup positionally, as the detectors call it, so that
                # both get the one cached expansion
                return build(self.n, *kw.values()) if name == "kgroup" \
                    else build(**kw)
        raise FormulaSyntaxError(
            f"{name} takes no {len(args)} arguments in {self.text!r}")

    def arg(self):
        return self.call() if _is_hap(self.peek()) and self.peek(1) == "(" \
            else self.take()

    def check(self, field: str, a):
        """Argument `a` of `field`, checked and converted by its kind."""
        kind = _KINDS.get(field, "name")
        if not isinstance(a, str):
            if kind == "hap":
                return a
            raise FormulaSyntaxError(
                f"{field} cannot be a hap in {self.text!r}")
        if kind == "hap":
            raise FormulaSyntaxError(
                f"expected a hap, found {a!r} in {self.text!r}")
        if kind == "name":
            return a
        if not a.isdigit():
            raise FormulaSyntaxError(f"expected integer, found {a!r}")
        v = int(a)
        if kind == "group" and self.n is None:
            raise FormulaSyntaxError(
                "kgroup needs the agent count; none supplied to the parser")
        if kind != "int" and self.n is not None and not 1 <= v <= self.n:
            what = "group size" if kind == "group" else "agent"
            raise FormulaSyntaxError(
                f"{what} {v} out of range 1..{self.n} in {self.text!r}")
        return v


def parse_formula(text: str, n: Optional[AgentId] = None) -> Formula:
    return _Parser(text, n).parse()


def unparse(phi: Formula) -> str:
    """Canonical text; parse(unparse(phi)) == phi for parser-produced ASTs."""
    if isinstance(phi, Atom):
        return _unparse_call(phi.prop)
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


def _unparse_call(v) -> str:
    """NAME(ARG,...) by the first signature that rebuilds `v`."""
    for name, sigs in _SIGNATURES.items():
        for build, fields in sigs:
            if type(v) is build and \
                    build(**{f: getattr(v, f) for f in fields}) == v:
                args = (getattr(v, f) for f in fields)
                return f"{name}(" + ",".join(
                    _unparse_call(a) if isinstance(a, _HAPS) else str(a)
                    for a in args) + ")"
    raise TypeError(f"not an atom payload: {v!r}")
