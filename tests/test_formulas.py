import pytest
from hypothesis import given, settings, strategies as st

from byzlab.atoms import (
    Correct, Fake, FakeHappened, Faulty, Happened, Init, Occurred,
    OccurredCorrectly,
)
from byzlab.formulas import (
    MAX_DEPTH, Always, And, Atom, Believe, FormulaSyntaxError, Hope, Implies,
    Know, Not, Or, group_occurrence_formula, is_syntactically_persistent,
    nested_hope, parse_formula, unparse,
)
from byzlab.haps import External, Recv, Send


def test_parse_basics():
    assert parse_formula("faulty(2)") == Atom(Faulty(2))
    assert parse_formula("correct(1,3)") == Atom(Correct(1, 3))
    assert parse_formula("B[1](faulty(2))") == Believe(1, Atom(Faulty(2)))
    assert parse_formula("H[2](occ_c(ext(boom)))") == \
        Hope(2, Atom(OccurredCorrectly(External("boom"))))
    assert parse_formula("K[1](occ(2,recv(3,m)))") == \
        Know(1, Atom(Occurred(Recv(3, "m"), 2)))
    assert parse_formula("init(1,s0)") == Atom(Init(1, "s0"))
    assert parse_formula("G(faulty(1))") == Always(Atom(Faulty(1)))
    p, q, r = Atom(Faulty(1)), Atom(Faulty(2)), Atom(Faulty(3))
    assert parse_formula("!faulty(1) & faulty(2)") == And(Not(p), q)
    assert parse_formula("faulty(1) -> faulty(2) -> faulty(3)") == \
        Implies(p, Implies(q, r))
    assert parse_formula("faulty(1) | faulty(2) & faulty(3)") == \
        Or(p, And(q, r))


def test_parse_rejects_garbage():
    for bad in ["", "faulty(", "K[1]", "B[x](faulty(1))",
                "faulty(1) faulty(2)", "kgroup(1,ext(e))"]:
        with pytest.raises(FormulaSyntaxError):
            parse_formula(bad)   # kgroup without agent count included


def test_parse_checks_agent_ids_against_n():
    for bad in ["K[0](faulty(1))", "B[5](faulty(1))", "faulty(5)", "init(0,s)",
                "occ(1,recv(7,m))", "happened(1,send(5,m))", "occ_c(9,ext(e))",
                "occ_c("]:
        with pytest.raises(FormulaSyntaxError):
            parse_formula(bad, n=4)
    assert parse_formula("K[4](occ(1,send(3,m,5)))", n=4) == \
        Know(4, Atom(Occurred(Send(3, "m", 5), 1)))
    assert parse_formula("faulty(1,9) & kgroup(1,ext(e))", n=2)
    assert parse_formula("K[9](faulty(1))") == Know(9, Atom(Faulty(1)))


def test_round_atoms_start_at_round_1():
    for bad in ["fake(1,0,ext(e))", "occ_c(1,0,ext(e))",
                "B[1](occ_c(2,0,recv(1,m)))"]:
        with pytest.raises(FormulaSyntaxError, match="names round 0"):
            parse_formula(bad, n=3)
    assert parse_formula("fake(1,1,ext(e))") == \
        Atom(Fake(1, 1, External("e")))
    assert parse_formula("occ_c(1,1,ext(e))") == \
        Atom(OccurredCorrectly(External("e"), 1, 1))
    # correct and faulty read a time, and time 0 is the initial state
    assert parse_formula("correct(1,0) & faulty(2,0)") == \
        And(Atom(Correct(1, 0)), Atom(Faulty(2, 0)))


def test_nesting_is_bounded():
    past = MAX_DEPTH + 1
    for deep in ("!" * 1200 + "faulty(1)", "(" * 300 + "faulty(1)" + ")" * 300,
                 "H[1](" * past + "faulty(2)" + ")" * past):
        with pytest.raises(FormulaSyntaxError, match="nests deeper"):
            parse_formula(deep, n=3)
    text = "H[1](" * MAX_DEPTH + "faulty(2)" + ")" * MAX_DEPTH
    phi = parse_formula(text, n=3)
    assert unparse(phi) == text and is_syntactically_persistent(phi)


def test_kgroup_expansion():
    phi = parse_formula("kgroup(2,ext(e))", n=3)
    # the very object the detectors look up, so comparing them is O(1)
    assert phi is group_occurrence_formula(3, 2, External("e"))
    assert unparse(phi).count("G(") == 6   # 3 pairs x 2 conjuncts


def test_nested_hope():
    base = Atom(Faulty(3))
    assert nested_hope((), base) == base
    assert nested_hope((2, 1), base) == Hope(2, Hope(1, base))


atoms = st.one_of(
    st.builds(lambda i: Atom(Faulty(i)), st.integers(1, 3)),
    st.builds(lambda i, t: Atom(Faulty(i, t)), st.integers(1, 3), st.integers(0, 2)),
    st.builds(lambda h: Atom(OccurredCorrectly(h)),
              st.builds(External, st.sampled_from(["e", "f"]))),
    st.builds(lambda i, h: Atom(Occurred(h, i)), st.integers(1, 3),
              st.builds(Send, st.integers(1, 3), st.sampled_from(["m", "n"]))),
    st.builds(lambda i: Atom(Init(i, "s")), st.integers(1, 3)),
)


def persistent_formulas(depth=3, leaves=atoms):
    if depth == 0:
        return leaves
    sub = persistent_formulas(depth - 1, leaves)
    agent = st.integers(1, 3)
    return st.one_of(
        leaves,
        st.builds(Know, agent, sub),
        st.builds(Believe, agent, sub),
        st.builds(Hope, agent, sub),
        st.builds(And, sub, sub),
        st.builds(Or, sub, sub),
        st.builds(lambda i, p: Implies(Atom(Correct(i)), p), agent, sub),
        st.builds(Always, sub),
    )


@given(persistent_formulas())
def test_grammar_accepts_its_own_productions(phi):
    assert is_syntactically_persistent(phi)


def test_grammar_rejects_non_persistent_shapes():
    assert not is_syntactically_persistent(Atom(Correct(1)))
    assert not is_syntactically_persistent(Not(Atom(Faulty(1))))
    assert not is_syntactically_persistent(
        Implies(Atom(Faulty(1)), Atom(Faulty(2))))
    assert not is_syntactically_persistent(
        Implies(Atom(Correct(1, 0)), Atom(Faulty(2))))   # timed antecedent
    assert not is_syntactically_persistent(
        And(Atom(Faulty(1)), Atom(Correct(2))))
    # but boxed non-persistent content is fine
    assert is_syntactically_persistent(Always(Not(Atom(Faulty(1)))))


# Every textual form: each signature of each atom and hap, with hap names
# among the names a message, event or initial state may take.  A time
# starts at 0, a round (of `fake` and `occ_c`) at 1.
agents, times, rounds = st.integers(1, 3), st.integers(0, 4), st.integers(1, 4)
names = st.sampled_from(["m", "e", "s0", "7", "recv", "send", "ext"])
haps = st.one_of(
    st.builds(Recv, agents, names),
    st.builds(Send, agents, names),
    st.builds(Send, agents, names, st.integers(1, 3)),
    st.builds(External, names),
)
every_atom = st.one_of(
    st.builds(Correct, agents), st.builds(Correct, agents, times),
    st.builds(Faulty, agents), st.builds(Faulty, agents, times),
    st.builds(Fake, agents, rounds, haps),
    st.builds(OccurredCorrectly, haps),
    st.builds(OccurredCorrectly, haps, agents),
    st.builds(OccurredCorrectly, haps, agents, rounds),
    st.builds(Occurred, haps, agents),
    st.builds(Happened, haps, agents),
    st.builds(FakeHappened, haps, agents),
    st.builds(Init, agents, names),
).map(Atom)


@settings(max_examples=300)
@given(st.one_of(persistent_formulas(leaves=every_atom),
                 st.builds(Not, every_atom)))
def test_unparse_parse_roundtrip(phi):
    assert parse_formula(unparse(phi), n=3) == phi


def test_group_formula_shape():
    phi = group_occurrence_formula(3, 1, External("e"))
    assert is_syntactically_persistent(phi)
    assert unparse(phi) == (
        "((G((correct(1) & B[1](occ_c(ext(e))))) | "
        "G((correct(2) & B[2](occ_c(ext(e)))))) | "
        "G((correct(3) & B[3](occ_c(ext(e))))))")
