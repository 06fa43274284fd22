import pytest

from byzlab.atoms import (
    Correct, Fake, FakeHappened, Faulty, Happened, Init, Occurred,
    OccurredCorrectly, eval_atom,
)
from byzlab.haps import (
    ByzAction, ByzEvent, External, GExternal, GRecv, GSend, Go, Recv, Run,
    Send, apply_round, fail, initial_state,
)
from tests.conftest import has_fault_event


def build_run(env_rounds, initials=("a", "b")):
    """A run straight from environment rounds."""
    states = [initial_state(initials)]
    for rnd in env_rounds:
        states.append(apply_round(states[-1], frozenset(rnd)))
    return Run(tuple(states))


def fault_run():
    s = GSend(2, 1, "m", 0, 1)
    return build_run([
        {fail(2), GExternal(1, "e")},
        {s, Go(2), GRecv(1, 2, "m", s)},
    ])


def test_correct_and_faulty_track_fault_events():
    r = fault_run()
    assert eval_atom(r.states[0], Correct(2))
    assert not eval_atom(r.states[1], Correct(2))
    assert eval_atom(r.states[2], Faulty(2))
    assert eval_atom(r.states[2], Correct(1))
    # timed variants pin the inspection point
    assert eval_atom(r.states[2], Correct(2, 0))
    assert eval_atom(r.states[2], Faulty(2, 1))


def test_correct_and_faulty_match_the_env_scan(suite):
    for name, (sc, runs, _) in suite.items():
        for run in runs:
            for t_eval, state in enumerate(run.states):
                for i in range(1, sc.ctx.n + 1):
                    for t in range(t_eval + 1):
                        fault = has_fault_event(state.env, i, t)
                        assert eval_atom(state, Faulty(i, t)) == fault
                        assert eval_atom(state, Correct(i, t)) != fault
                    fault = has_fault_event(state.env, i, t_eval)
                    assert eval_atom(state, Faulty(i)) == fault, name
                    assert eval_atom(state, Correct(i)) != fault, name


def test_atom_time_bounds_are_enforced():
    r = fault_run()
    with pytest.raises(ValueError):
        eval_atom(r.states[1], Correct(2, 2))   # future reference
    with pytest.raises(ValueError):
        eval_atom(r.states[2], Fake(1, 0, External("e")))  # rounds from 1


def test_occurred_correctly_arities():
    r = fault_run()
    e = External("e")
    assert eval_atom(r.states[1], OccurredCorrectly(e))
    assert eval_atom(r.states[1], OccurredCorrectly(e, 1))
    assert not eval_atom(r.states[1], OccurredCorrectly(e, 2))
    assert eval_atom(r.states[2], OccurredCorrectly(e, 1, 1))
    assert not eval_atom(r.states[2], OccurredCorrectly(e, 1, 2))
    with pytest.raises(ValueError):
        eval_atom(r.states[1], OccurredCorrectly(e, 1, 2))


def test_fake_and_occurred_on_fabricated_delivery():
    ghost = GRecv(1, 2, "junk", GSend(2, 1, "junk", 0, 0))
    r = build_run([{ByzEvent(1, ghost)}])
    o = Recv(2, "junk")
    assert eval_atom(r.states[1], Fake(1, 1, o))
    assert eval_atom(r.states[1], Occurred(o, 1))          # fake reasons count
    assert not eval_atom(r.states[1], OccurredCorrectly(o))  # but not as correct
    assert eval_atom(r.states[1], Faulty(1))


def test_happened_lags_one_timestamp():
    r = fault_run()
    a = Send(1, "m")
    # the send lands in round 1; happened scans the env at t_eval - 1
    assert not eval_atom(r.states[2], Happened(a, 2))
    r3 = build_run(list(map(set, r.states[-1].env)) + [set()])
    assert eval_atom(r3.states[3], Happened(a, 2))


def test_fhappened_only_counts_byzantine_sends():
    bogus = ByzAction(2, GSend(2, 1, "x", 0, 0), GSend(2, 1, "x", 0, 0))
    r = build_run([{bogus}, set()])
    assert eval_atom(r.states[2], FakeHappened(Send(1, "x"), 2))
    assert eval_atom(r.states[2], Happened(Send(1, "x"), 2))
    honest = fault_run()
    assert not eval_atom(honest.states[2], FakeHappened(Send(1, "m"), 2))


def test_init_reads_round_zero():
    r = fault_run()
    assert eval_atom(r.states[2], Init(1, "a"))
    assert not eval_atom(r.states[0], Init(1, "b"))
