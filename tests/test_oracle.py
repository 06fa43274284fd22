import gc
import weakref

import pytest

from byzlab.atoms import AtomTimeError, Correct, Faulty, Occurred, eval_atom
from byzlab.cli import main
from byzlab.detect import cross_check
from byzlab.engine import enumerate_runs
from byzlab.formulas import (
    Always, And, Atom, Believe, FormulaSyntaxError, Hope, Implies, Know, Not,
    Or, parse_formula,
)
from byzlab.haps import External, Recv, Send
from byzlab.oracle import InterpretedSystem
from byzlab.serial import hap_key
from tests.conftest import SCENARIO_NAMES, scenario_path, verify_persistent


def system(suite, name):
    return suite[name][2]


def runs(suite, name):
    return suite[name][1]


def final_points(suite, name, pred):
    sysm = system(suite, name)
    return [(ridx, sysm.horizon) for ridx in range(len(sysm.runs))
            if pred(sysm.runs[ridx])]


def test_knowledge_follows_delivery(suite):
    sysm = system(suite, "s08_delivery_race")
    phi = Know(2, Atom(Occurred(Recv(1, "m"), 2)))
    for p, v in sysm.check(phi)[0]:
        got = Recv(1, "m") in sysm.runs[p[0]].local(2, p[1])
        assert v == got, p


def test_knowledge_is_introspective(suite):
    sysm = system(suite, "s08_delivery_race")
    phi = Know(2, Atom(Occurred(Recv(1, "m"), 2)))
    for p, v in sysm.check(Implies(phi, Know(2, phi)))[0]:
        assert v, p


def test_belief_unfolds_to_conditional_knowledge(suite):
    sysm = system(suite, "s02_obvious")
    bare = Atom(Faulty(2))
    for p in sysm.points():
        assert sysm.eval(p, Believe(1, bare)) == \
            sysm.eval(p, Know(1, Implies(Atom(Correct(1)), bare)))
        assert sysm.eval(p, Hope(1, bare)) == \
            sysm.eval(p, Implies(Atom(Correct(1)), Believe(1, bare)))


def test_belief_about_fabricated_delivery_is_vacuously_sound(suite):
    # agent 1 sees a message 2 never sent; only a faulty 1 can see that,
    # so believing anything under "if I am correct" stays true
    sysm = system(suite, "s09_fake_delivery")
    tainted = final_points(
        suite, "s09_fake_delivery",
        lambda r: Recv(2, "junk2") in r.local(1, r.horizon))
    assert tainted
    for p in tainted:
        assert sysm.eval(p, Believe(1, Atom(Faulty(2))))
        assert not sysm.eval(p, Atom(Faulty(2)))
        assert sysm.eval(p, Atom(Faulty(1)))


def test_always_is_suffix_closed(suite):
    sysm = system(suite, "s02_obvious")
    phi = Always(Not(Atom(Faulty(1))))
    for (ridx, t), v in sysm.check(phi)[0]:
        if t < sysm.horizon:
            assert v == (sysm.eval((ridx, t), Not(Atom(Faulty(1))))
                         and sysm.eval((ridx, t + 1), phi))


def test_non_quiescence_warning():
    from byzlab.scenario import load_scenario
    from tests.conftest import scenario_path
    sc = load_scenario(scenario_path("s01_quiet"))
    sysm = InterpretedSystem(enumerate_runs(sc.ctx), quiescent=False)
    _, warning = sysm.check(Always(Atom(Faulty(1))))
    assert warning is not None
    _, no_warning = sysm.check(Atom(Faulty(1)))
    assert no_warning is None


def test_bare_names_are_syntax_errors(capsys):
    # every atom is a designated one; hap names are no atoms either
    for text in ("p", "mystery", "q'", "recv", "K[1](p)"):
        with pytest.raises(FormulaSyntaxError, match="unexpected token"):
            parse_formula(text, n=3)
    assert main(["check", scenario_path("s01_quiet"), "--formula", "p"]) == 2
    assert "unexpected token 'p'" in capsys.readouterr().err


def test_verify_persistent_finds_counterexamples(suite):
    sysm = system(suite, "s02_obvious")
    ok, _ = verify_persistent(sysm, Atom(Faulty(2)))
    assert ok
    # correct(2) starts true and is falsified by the byzantine send
    ok, witness = verify_persistent(sysm, Atom(Correct(2)))
    assert not ok and witness is not None


def test_trust_table_verification_catches_eager_senders(suite):
    # senders that announce faulty(3) unconditionally break the contract
    from byzlab.haps import Send
    from byzlab.protocols import AgentProtocol, Rule
    sc, _, sysm = suite["s10_one_chain"]
    assert sysm.verify_trust_table(sc.trust, sc.ctx.protocols) == []
    eager = list(sc.ctx.protocols)
    eager[1] = AgentProtocol(2, (
        Rule(("always",), (frozenset({Send(1, "alert3")}),)),))
    assert sysm.verify_trust_table(sc.trust, tuple(eager))


class Reference:
    """The uncompiled evaluator: memo per (formula, point), belief and
    hope unfolded at every call, classes gathered through `points()` and
    `local`.  Tests compare `InterpretedSystem` against it."""

    def __init__(self, system):
        self.system = system
        self.memo = {}
        self.classes = {}

    def agent_classes(self, agent):
        if agent not in self.classes:
            classes = {}
            for p in self.system.points():
                classes.setdefault(self.local(p, agent), []).append(p)
            self.classes[agent] = classes
        return self.classes[agent]

    def local(self, p, agent):
        return self.system.runs[p[0]].local(agent, p[1])

    def eval(self, p, phi):
        key = (phi, p)
        if key not in self.memo:
            self.memo[key] = self._eval(p, phi)
        return self.memo[key]

    def _eval(self, p, phi):
        ridx, t = p
        if isinstance(phi, Atom):
            return eval_atom(self.system.runs[ridx].states[t], phi.prop)
        if isinstance(phi, Not):
            return not self.eval(p, phi.sub)
        if isinstance(phi, And):
            return self.eval(p, phi.left) and self.eval(p, phi.right)
        if isinstance(phi, Or):
            return self.eval(p, phi.left) or self.eval(p, phi.right)
        if isinstance(phi, Implies):
            return (not self.eval(p, phi.left)) or self.eval(p, phi.right)
        if isinstance(phi, Know):
            return self._know(phi.agent, phi.sub,
                              self.local(p, phi.agent))
        if isinstance(phi, Believe):
            return self._know(
                phi.agent, Implies(Atom(Correct(phi.agent)), phi.sub),
                self.local(p, phi.agent))
        if isinstance(phi, Hope):
            return self.eval(
                p, Implies(Atom(Correct(phi.agent)), Believe(phi.agent, phi.sub)))
        if isinstance(phi, Always):
            return all(self.eval((ridx, u), phi.sub)
                       for u in range(t, self.system.horizon + 1))
        raise TypeError(f"not a formula: {phi!r}")

    def _know(self, agent, phi, h):
        key = ("K", agent, phi, h)
        if key not in self.memo:
            self.memo[key] = all(self.eval(q, phi)
                                 for q in self.agent_classes(agent)[h])
        return self.memo[key]


def test_classes_match_a_per_point_reference(contexts):
    # keys in the order of their first points, each class's points in
    # point order, and the first point of each of its states
    for name, ctx in contexts.items():
        system = InterpretedSystem(enumerate_runs(ctx))
        for i in range(1, ctx.n + 1):
            classes, firsts, seen = {}, {}, set()
            for p in system.points():
                state = system.runs[p[0]].states[p[1]]
                h = state.local(i)
                classes.setdefault(h, []).append(p)
                if id(state) not in seen:
                    seen.add(id(state))
                    firsts.setdefault(h, []).append(p)
            got = system.agent_classes(i)
            assert list(got.items()) == list(classes.items()), (name, i)
            assert system._agents[i].firsts == list(firsts.values())


def _listed(system):
    """Whether `system` has built its points list or any member list."""
    return system._points is not None or any(
        classes._members is not None for classes in system._agents.values())


def test_first_points_list_no_points(suite):
    # cross-checking and a walk of the keys and first points read each
    # class's first point from its first node
    for name in SCENARIO_NAMES:
        sc, runs, _ = suite[name]
        system = InterpretedSystem(runs)
        cross_check(sc, system)
        assert system._agents and not _listed(system), name
        system = InterpretedSystem(runs)
        firsts = [(i, h, pts[0]) for i in range(1, sc.ctx.n + 1)
                  for h, pts in system.agent_classes(i).items()]
        assert not _listed(system), name
        assert firsts == [(i, h, list(pts)[0]) for i in range(1, sc.ctx.n + 1)
                          for h, pts in system.agent_classes(i).items()], name
        assert _listed(system), name


def test_a_class_reads_as_the_list_of_its_points(suite):
    runs = suite["s04_two_chains"][1]
    system = InterpretedSystem(runs)
    ref = Reference(InterpretedSystem(runs)).agent_classes(2)
    got = system.agent_classes(2)
    assert len(got) > 1
    for (h, pts), want in zip(got.items(), ref.values()):
        assert pts[0] == want[0]
        assert len(pts) == len(want) and list(pts) == want
        assert pts[-1] == want[-1] and pts[1:] == want[1:]
        assert pts[::2] == want[::2] and list(reversed(pts)) == want[::-1]
        assert pts == want and want == pts and pts == got[h]
        assert pts != want[1:] and pts != tuple(want)
        assert want[-1] in pts and pts.index(want[-1]) == len(want) - 1
        assert repr(pts) == repr(want)
        with pytest.raises(IndexError):
            pts[len(want)]
        with pytest.raises(TypeError):
            pts[0] = want[0]
    assert list(got.values())[0] != list(got.values())[1]


def test_a_system_is_freed_without_the_collector(suite):
    # the classes hold the system's points, not the system, so that no
    # reference cycle keeps a dropped system for the cyclic collector
    sc, runs, _ = suite["s04_two_chains"]
    was = gc.isenabled()
    gc.disable()
    try:
        system = InterpretedSystem(runs)
        cross_check(sc, system)
        system.check(Know(1, Always(Atom(Correct(1)))))  # walks the classes
        classes = [system.agent_classes(i) for i in range(1, sc.ctx.n + 1)]
        assert _listed(system)
        dropped = weakref.ref(system)
        del system
        assert dropped() is None
        ref = Reference(InterpretedSystem(runs))
        assert classes == [ref.agent_classes(i)
                           for i in range(1, sc.ctx.n + 1)]
    finally:
        (gc.enable if was else gc.disable)()


def _hap_text(o):
    if isinstance(o, Recv):
        return f"recv({o.frm},{o.msg})"
    if isinstance(o, Send):
        return f"send({o.to},{o.msg},{o.copy})"
    return f"ext({o.event})"


# Every atom kind; nested K/B/H; G under and over K; kgroup; G alone and
# mixed with state formulas, under K and outside it.  J and HAP name an
# agent and a hap it records in the system; S is agent 1's initial state.
# The last group has atom times some points cannot admit.
REFERENCE_FORMULAS = [
    "correct(1)", "faulty(2)", "correct(3,0)", "occ_c(HAP)", "occ_c(J,HAP)",
    "occ(J,HAP)", "happened(J,HAP)", "fhappened(J,HAP)", "init(1,S)",
    "K[1](B[2](faulty(3)))", "H[1](H[J](occ(J,HAP)))",
    "B[1]((!K[2](correct(2)) | faulty(1)))", "(H[2](faulty(1)) -> correct(2))",
    "K[1](G(correct(1)))", "B[2](G(!faulty(3)))",
    "G(K[1](occ_c(HAP)))", "G((B[J](faulty(2)) -> faulty(2)))",
    "kgroup(1,HAP)", "kgroup(2,HAP)", "B[3](kgroup(1,HAP))",
    "G(!faulty(2))", "G(correct(1))", "K[1]((G(faulty(1)) | faulty(2)))",
    "(G(correct(2)) & B[1](faulty(2)))",
    "faulty(2,1)", "fake(J,1,HAP)", "occ_c(J,1,HAP)", "K[1](fake(J,1,HAP))",
    "G(correct(1,2))", "(faulty(1) -> occ_c(J,2,HAP))",
    "(faulty(1) | correct(3,2))",
]


# Scenarios where some formula above takes two values at two points of
# one state, so that the per-point memo of `G` is exercised.
SPLIT_SCENARIOS = {"s02_obvious", "s03_self_notify", "s06_two_byz",
                   "s07_sleep", "s09_fake_delivery", "s15_stripped_send"}


def _outcome(evaluate, p, phi):
    try:
        return evaluate(p, phi)
    except ValueError as e:
        return type(e)


@pytest.mark.parametrize("name", SCENARIO_NAMES)
def test_oracle_matches_reference_evaluator(suite, name):
    sc, runs, _ = suite[name]
    n = sc.ctx.n
    recorded = {(hap_key(o), i): o for r in runs for i in range(1, n + 1)
                for rnd in r.local(i, r.horizon).rounds for o in rnd}
    (_, j), hap = min(recorded.items()) if recorded else \
        ((None, 1), External("e"))
    initial = runs[0].local(1, 0).initial
    system = InterpretedSystem(runs)
    ref = Reference(InterpretedSystem(runs))
    for i in range(1, n + 1):
        assert system.agent_classes(i) == ref.agent_classes(i)
    raised, split = set(), False
    for text in REFERENCE_FORMULAS:
        phi = parse_formula(text.replace("J", str(j)).replace("S", initial)
                            .replace("HAP", _hap_text(hap)), n=n)
        want = [(p, _outcome(ref.eval, p, phi)) for p in system.points()]
        got = [(p, _outcome(system.eval, p, phi)) for p in system.points()]
        assert got == want, text
        assert all(v is AtomTimeError for _, v in got
                   if not isinstance(v, bool)), text
        if all(isinstance(v, bool) for _, v in want):
            assert InterpretedSystem(runs).check(phi)[0] == want, text
        else:
            raised.add(text)
            # an all-points check raises the first error a walk of the
            # points meets, and a one-point check matches eval there
            with pytest.raises(AtomTimeError) as checked:
                InterpretedSystem(runs).check(phi)
            walk = InterpretedSystem(runs)
            with pytest.raises(AtomTimeError) as walked:
                [walk.eval(p, phi) for p in walk.points()]
            assert str(checked.value) == str(walked.value), text
            single = InterpretedSystem(runs)
            for p, v in want:
                got = _outcome(lambda q, f: single.check(f, q)[0], p, phi)
                assert got == ([(p, v)] if isinstance(v, bool) else v), \
                    (text, p)
        values = {}
        for (r, t), v in want:
            values.setdefault(id(runs[r].states[t]), set()).add(v)
        split = split or any(len(vs) > 1 for vs in values.values())
    # the last one raises at points past the first, on more than one node
    assert raised >= {"faulty(2,1)", "fake(J,1,HAP)", "K[1](fake(J,1,HAP))",
                      "(faulty(1) | correct(3,2))"}
    assert split == (name in SPLIT_SCENARIOS)
