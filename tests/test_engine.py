import pytest

from byzlab.engine import (
    AgentContext, CapExceeded, check_t_coherent, count_choice_tree,
    enumerate_runs, filter_action_std, filter_env_B, filter_env_Bf,
    seeded_run, step,
)
from byzlab.haps import (
    ByzAction, ByzEvent, GExternal, GRecv, GSend, Go,
    Hib, Recv, Send, Sleep, fail, initial_state, replay_local,
)
from byzlab.protocols import AgentProtocol, EnvProtocol, Rule


def proto(i, *rules):
    return AgentProtocol(i, tuple(rules) + (Rule(("always",), (frozenset(),)),))


def simple_ctx(**kw):
    p1 = proto(1, Rule(("always",), (frozenset({Send(2, "m")}),)))
    env = EnvProtocol((
        (frozenset({Go(1)}),),
        (frozenset({Go(2), GRecv(2, 1, "m", None)}),),
    ))
    defaults = dict(n=2, env=env, protocols=(p1, proto(2)),
                    initials=(("a", "b"),), template="Bf", f=0, horizon=2)
    defaults.update(kw)
    return AgentContext(**defaults)


# -- coherence ---------------------------------------------------------------

def test_coherence_byz_send_timestamp():
    good = ByzAction(1, GSend(1, 2, "m", 0, 3), None)
    assert check_t_coherent(frozenset({good}), 3)
    assert not check_t_coherent(frozenset({good}), 2)


def test_coherence_single_system_event_per_agent():
    assert not check_t_coherent(frozenset({Go(1), Sleep(1)}), 0)
    assert not check_t_coherent(frozenset({Sleep(1), Hib(1)}), 0)
    assert check_t_coherent(frozenset({Go(1), Sleep(2)}), 0)


def test_coherence_external_vs_fake_external():
    real = GExternal(1, "e")
    faked = ByzEvent(1, GExternal(1, "e"))
    assert not check_t_coherent(frozenset({real, faked}), 0)
    assert check_t_coherent(frozenset({real, ByzEvent(1, GExternal(1, "f"))}), 0)


def test_coherence_real_and_fake_delivery_conflict():
    s = GSend(2, 1, "m", 0, 0)
    real = GRecv(1, 2, "m", s.gmi)
    faked = ByzEvent(1, GRecv(1, 2, "m", s.gmi))
    assert not check_t_coherent(frozenset({real, faked}), 1)


# -- filters -----------------------------------------------------------------

def test_causality_filter_drops_unsent_delivery():
    state = initial_state(("a", "b"))
    ghost = GRecv(1, 2, "zzz", GSend(2, 1, "zzz", 0, 0).gmi)
    out = filter_env_B(state, frozenset({ghost, Go(1)}), [frozenset()] * 2)
    assert out == frozenset({Go(1)})


def test_causality_filter_keeps_same_round_send():
    state = initial_state(("a", "b"))
    s = GSend(1, 2, "m", 0, 0)
    d = GRecv(2, 1, "m", s.gmi)
    out = filter_env_B(state, frozenset({d}), [frozenset({s}), frozenset()])
    assert d in out


def test_budget_filter_strips_excess_faults():
    state = initial_state(("a", "b", "c"))
    X = frozenset({fail(1), fail(2), Go(3)})
    out = filter_env_Bf(state, X, [frozenset()] * 3, f=1)
    assert out == frozenset({Go(3)})
    out2 = filter_env_Bf(state, frozenset({fail(1), Go(3)}), [frozenset()] * 3, f=1)
    assert fail(1) in out2


def test_budget_filter_drops_delivery_of_stripped_send():
    state = initial_state(("a", "b", "c"))
    bogus = GSend(2, 1, "x", 0, 0)
    d = GRecv(1, 2, "x", bogus.gmi)
    X = frozenset({ByzAction(2, bogus, bogus), d, fail(3)})
    assert filter_env_Bf(state, X, [frozenset()] * 3, f=1) == frozenset()
    assert filter_env_Bf(state, X - {fail(3)}, [frozenset()] * 3, f=1) \
        == X - {fail(3)}


def test_budget_filter_counts_sleep():
    state = initial_state(("a", "b", "c"))
    X = frozenset({Sleep(1), fail(2)})
    assert filter_env_Bf(state, X, [frozenset()] * 3, f=1) == frozenset()


def test_action_filter_requires_go():
    alphas = [frozenset({GSend(1, 2, "m", 0, 0)}), frozenset()]
    assert filter_action_std(1, alphas, frozenset()) == frozenset()
    assert filter_action_std(1, alphas, frozenset({Go(1)})) == alphas[0]


# -- stepping and enumeration ------------------------------------------------

def test_step_records_send_and_delivery():
    ctx = simple_ctx()
    s0 = initial_state(("a", "b"))
    s1 = step(ctx, s0, 0, frozenset({Go(1)}), [frozenset({Send(2, "m")}),
                                               frozenset()])
    assert Send(2, "m") in s1.local(1)
    s2 = step(ctx, s1, 1, frozenset({Go(2), GRecv(2, 1, "m", None)}),
              [frozenset({Send(2, "m")}), frozenset()])
    assert Recv(1, "m") in s2.local(2)
    # no go(1) at t=1: the offered send was filtered out
    assert s1.local(1) == s2.local(1)


def test_step_rejects_off_menu_choices():
    ctx = simple_ctx()
    s0 = initial_state(("a", "b"))
    with pytest.raises(ValueError):
        step(ctx, s0, 0, frozenset({Go(2)}), [frozenset(), frozenset()])
    with pytest.raises(ValueError):
        step(ctx, s0, 0, frozenset({Go(1)}), [frozenset({Send(2, "zzz")}),
                                              frozenset()])


def test_enumerate_covers_choice_tree():
    env = EnvProtocol((
        (frozenset({Go(1)}), frozenset()),
        (frozenset({Go(2), GRecv(2, 1, "m", None)}), frozenset()),
    ))
    ctx = simple_ctx(env=env)
    runs = enumerate_runs(ctx)
    assert len(runs) == count_choice_tree(ctx) == 4
    assert len({r.states for r in runs}) == len(runs)


def test_enumeration_cap():
    env = EnvProtocol(((frozenset({Go(1)}), frozenset()),) * 2)
    ctx = simple_ctx(env=env, node_cap=3)
    with pytest.raises(CapExceeded):
        enumerate_runs(ctx)


def test_seeded_run_is_an_enumerated_run():
    env = EnvProtocol((
        (frozenset({Go(1)}), frozenset()),
        (frozenset({Go(2), GRecv(2, 1, "m", None)}), frozenset()),
    ))
    ctx = simple_ctx(env=env)
    runs = {r.states for r in enumerate_runs(ctx)}
    for seed in range(8):
        assert seeded_run(ctx, seed).states in runs


def test_local_histories_replayable_from_env(suite):
    for name, (sc, runs, _) in suite.items():
        for r in runs:
            final = r.states[-1]
            for i in range(1, sc.ctx.n + 1):
                assert replay_local(i, final.env, final.local(i).initial) \
                    == final.local(i), name


def test_byz_performed_send_is_deliverable():
    bogus = ByzAction(2, GSend(2, 1, "x", 0, 0), GSend(2, 1, "x", 0, 0))
    env = EnvProtocol((
        (frozenset({bogus}),),
        (frozenset({GRecv(1, 2, "x", None)}),),
    ))
    ctx = simple_ctx(env=env, protocols=(proto(1), proto(2)), f=1)
    (run,) = enumerate_runs(ctx)
    assert Recv(2, "x") in run.local(1, 2)
