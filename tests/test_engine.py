import itertools
import math
from dataclasses import replace

import pytest
from hypothesis import assume, given, settings, strategies as st

from byzlab import engine
from byzlab.engine import (
    AgentContext, CapExceeded, _pick, count_choice_tree,
    enumerate_runs, filter_env_B, filter_env_Bf,
    seeded_run, step,
)
from byzlab.haps import (
    FAULT_KINDS, ByzAction, ByzEvent, GExternal, GlobalState, GRecv, GSend,
    Go, Hib, Recv, Send, Sleep, fail, globalize, initial_state,
)
from byzlab.oracle import InterpretedSystem
from byzlab.protocols import AgentProtocol, EnvProtocol, Rule, check_t_coherent
from byzlab.scenario import ScenarioError, scenario_from_json
from byzlab.serial import ghap_to_json
from tests.conftest import replay_local, update_agent


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
    ctx = simple_ctx()
    s0 = initial_state(("a", "b"))
    sends = [frozenset({Send(2, "m")}), frozenset()]
    idle = step(ctx, s0, 0, frozenset(), sends, validate=False)
    assert idle.env == (frozenset(),)
    went = step(ctx, s0, 0, frozenset({Go(1)}), sends)
    assert went.env == (frozenset({Go(1), GSend(1, 2, "m", 0, 0)}),)


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


def test_enumeration_cap(suite):
    env = EnvProtocol(((frozenset({Go(1)}), frozenset()),) * 2)
    ctx = simple_ctx(env=env, node_cap=3)
    with pytest.raises(CapExceeded):
        enumerate_runs(ctx)
    # the cap counts tree edges, however few distinct states they reach
    for name, (sc, runs, _) in suite.items():
        edges = tree_edges(sc.ctx)
        assert enumerate_runs(replace(sc.ctx, node_cap=edges)) == runs, name
        with pytest.raises(CapExceeded):
            enumerate_runs(replace(sc.ctx, node_cap=edges - 1))


def test_choice_tree_count_shares_the_node_cap(suite):
    # both walks count tree edges against one cap, with one message
    for name, (sc, runs, _) in suite.items():
        edges = tree_edges(sc.ctx)
        assert count_choice_tree(replace(sc.ctx, node_cap=edges)) == \
            len(runs), name
        for walk in (enumerate_runs, count_choice_tree):
            with pytest.raises(CapExceeded,
                               match=f"^enumeration exceeded {edges - 1} "
                               "explored nodes$"):
                walk(replace(sc.ctx, node_cap=edges - 1))


def ref_edges(ctx):
    """The reference walk's tree edges in walk order, each flagged when
    it leads to or lies below a repeated child: one whose state equals
    that of an earlier child of the same parent."""
    flags = []

    def walk(state, t, repeated):
        if t == ctx.horizon:
            return
        agent_opts = [ctx.protocol(i)(state.local(i))
                      for i in range(1, ctx.n + 1)]
        seen = set()
        for env_choice in ctx.env(t):
            for combo in itertools.product(*agent_opts):
                child = ref_step(ctx, state, t, env_choice, combo)
                flags.append(repeated or child in seen)
                walk(child, t + 1, flags[-1])
                seen.add(child)

    for initials in ctx.initials:
        walk(initial_state(initials), 0, False)
    return flags


@pytest.mark.parametrize("name", ["s07_sleep", "s15_stripped_send"])
def test_enumeration_cap_inside_a_repeated_subtree(suite, name):
    # the walk adds a repeated child's subtree to the count in one go; a
    # cap the reference walk exceeds on that subtree must still raise
    sc, runs, _ = suite[name]
    flags = ref_edges(sc.ctx)
    inside = [k for k, repeated in enumerate(flags) if repeated]
    assert inside
    for cap in inside:
        with pytest.raises(CapExceeded, match=f"exceeded {cap} explored"):
            enumerate_runs(replace(sc.ctx, node_cap=cap))
    assert enumerate_runs(replace(sc.ctx, node_cap=len(flags))) == runs


def test_enumeration_builds_each_distinct_state_once(contexts):
    # children of one parent with equal round records share one state,
    # and their subtrees share runs; the run list is the reference's
    for name, ctx in contexts.items():
        runs = enumerate_runs(ctx)
        assert [r.states for r in runs] == list(ref_runs(ctx)), name
        states = {s for r in runs for s in r.states}
        assert InterpretedSystem(runs).nodes == len(states), name
        assert len({id(r) for r in runs}) == len({r.states for r in runs}), \
            name


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


# -- the step against a reference that rescans the env history ---------------

def ref_sends(rounds):
    for rnd in rounds:
        for g in rnd:
            if isinstance(g, GSend):
                yield g
            elif isinstance(g, ByzAction) and g.performed is not None:
                yield g.performed


def ref_filter_B(state, X_eps, alphas):
    issued = {s.gmi for s in ref_sends(state.env + tuple(alphas) + (X_eps,))}
    return frozenset(g for g in X_eps if not isinstance(g, GRecv) or g.gmi in issued)


def ref_filter_Bf(state, X_eps, alphas, f):
    beta = ref_filter_B(state, X_eps, alphas)
    would_be = {g.agent for rnd in state.env + (beta,) for g in rnd
                if isinstance(g, FAULT_KINDS)}
    if len(would_be) > f:
        beta = ref_filter_B(
            state, frozenset(g for g in X_eps if not isinstance(g, FAULT_KINDS)), alphas)
    return beta


def ref_materialize(state, X_eps, alphas):
    out = set()
    delivered = {g.gmi for rnd in state.env for g in rnd
                 if isinstance(g, GRecv) and g.gmi is not None}
    candidates = sorted(set(ref_sends(state.env + tuple(alphas) + (X_eps,))),
                        key=lambda s: (s.sent_at, s.copy, s.agent, s.to, s.msg))
    for g in X_eps:
        if isinstance(g, GRecv) and g.gmi is None:
            matches = [s for s in candidates
                       if s.agent == g.frm and s.to == g.agent and s.msg == g.msg]
            fresh = [s for s in matches if s.gmi not in delivered]
            pick = (fresh or matches or [None])[0]
            out.add(g if pick is None else GRecv(g.agent, g.frm, g.msg, pick.gmi))
        else:
            out.add(g)
    return frozenset(out)


def ref_step(ctx, state, t, env_choice, agent_choices):
    n = ctx.n
    alphas = [frozenset(globalize(i, t, a) for a in agent_choices[i - 1])
              for i in range(1, n + 1)]
    alpha_eps = ref_materialize(state, env_choice, alphas)
    if ctx.template == "Bf":
        beta_eps = ref_filter_Bf(state, alpha_eps, alphas, ctx.f)
    else:
        beta_eps = ref_filter_B(state, alpha_eps, alphas)
    betas = [alphas[i - 1] if Go(i) in beta_eps else frozenset()
             for i in range(1, n + 1)]
    rnd = beta_eps.union(*betas)
    return GlobalState(state.env + (rnd,), tuple(
        update_agent(h, i, betas[i - 1], rnd)
        for i, h in enumerate(state.locals, start=1)))


def ref_runs(ctx):
    def walk(prefix, t):
        if t == ctx.horizon:
            yield tuple(prefix)
            return
        agent_opts = [ctx.protocol(i)(prefix[-1].local(i))
                      for i in range(1, ctx.n + 1)]
        for env_choice in ctx.env(t):
            for combo in itertools.product(*agent_opts):
                prefix.append(ref_step(ctx, prefix[-1], t, env_choice, combo))
                yield from walk(prefix, t + 1)
                prefix.pop()

    for initials in ctx.initials:
        yield from walk([initial_state(initials)], 0)


def ref_seeded_run(ctx, seed):
    state = initial_state(ctx.initials[_pick(seed, -1, 0, len(ctx.initials))])
    states = [state]
    for t in range(ctx.horizon):
        env_opts = ctx.env(t)
        env_choice = env_opts[_pick(seed, t, 0, len(env_opts))]
        combo = []
        for i in range(1, ctx.n + 1):
            opts = ctx.protocol(i)(state.local(i))
            combo.append(opts[_pick(seed, t, i, len(opts))])
        state = ref_step(ctx, state, t, env_choice, combo)
        states.append(state)
    return tuple(states)


def assert_summaries_fold_env(state):
    assert state.sent == {s.gmi for s in ref_sends(state.env)}
    assert state.delivered == {g.gmi for rnd in state.env for g in rnd
                               if isinstance(g, GRecv) and g.gmi is not None}
    assert state.faulty == {g.agent for rnd in state.env for g in rnd
                            if isinstance(g, FAULT_KINDS)}


def test_step_matches_rescanning_reference(suite):
    for name, (sc, runs, _) in suite.items():
        assert [r.states for r in runs] == list(ref_runs(sc.ctx)), name
        for r in runs:
            for state in r.states:
                assert_summaries_fold_env(state)
        for seed in (0, 1, 7):
            run = seeded_run(sc.ctx, seed)
            assert run.states == ref_seeded_run(sc.ctx, seed), (name, seed)
            for state in run.states:
                assert_summaries_fold_env(state)


def tree_edges(ctx):
    """Edges of the choice tree: the reference walk steps once per edge,
    and each step builds a new state."""
    runs = list(ref_runs(ctx))
    return len({id(state) for states in runs for state in states[1:]})


def test_enumeration_expands_each_distinct_state_once(suite, monkeypatch):
    calls = 0
    real_step = engine.step

    def counted(*args, **kwargs):
        nonlocal calls
        calls += 1
        return real_step(*args, **kwargs)

    monkeypatch.setattr(engine, "step", counted)
    shared = 0
    for name, (sc, runs, _) in suite.items():
        ctx = sc.ctx
        calls = 0
        assert enumerate_runs(ctx) == runs, name
        keys = {(t, s.locals, s.sent, s.delivered, s.faulty)
                for r in runs for t, s in enumerate(r.states[:-1])}
        expected = sum(
            len(ctx.env(t)) * math.prod(len(ctx.protocol(i)(h))
                                        for i, h in enumerate(locals_, 1))
            for t, locals_, *_ in keys)
        assert calls == expected, name
        edges = tree_edges(ctx)
        assert calls <= edges, name
        shared += calls < edges
    assert shared  # some corpus scenario reaches a state twice


def _deliveries_split_ctx():
    # Agent 1, already faulty, perceives m at round 1 from a correct
    # delivery or a fake one, so the nodes at t=2 differ only in the
    # delivered sends, and round 2's template binds to different sends.
    p2 = proto(2, Rule(("always",), (frozenset({Send(1, "m")}),)))
    recv = GRecv(1, 2, "m", None)
    env = EnvProtocol((
        (frozenset({Go(2), fail(1)}),),
        (frozenset({Go(2), recv}), frozenset({Go(2), ByzEvent(1, recv)})),
        (frozenset({recv}),),
    ))
    return simple_ctx(env=env, protocols=(proto(1), p2), f=1, horizon=3), 2


def _sends_split_ctx():
    # Agent 2 turns byzantine at round 0 with or without an unrecorded
    # send, so the nodes at t=1 differ only in the sends, and only the
    # send makes round 1's delivery pass.
    bogus = GSend(2, 1, "x", 0, 0)
    env = EnvProtocol((
        (frozenset({ByzAction(2, bogus, None)}), frozenset({fail(2)})),
        (frozenset({GRecv(1, 2, "x", None)}),),
    ))
    return simple_ctx(env=env, protocols=(proto(1), proto(2)), f=1), 1


@pytest.mark.parametrize("build", [_deliveries_split_ctx, _sends_split_ctx],
                         ids=["delivered", "sent"])
def test_enumeration_keys_on_each_summary(build):
    ctx, t = build()
    runs = enumerate_runs(ctx)
    assert [r.states for r in runs] == list(ref_runs(ctx))
    a, b = (r.states[t] for r in runs)
    assert a.locals == b.locals and a.faulty == b.faulty
    assert (a.sent, a.delivered) != (b.sent, b.delivered)
    assert runs[0].states[t + 1].env[t] != runs[1].states[t + 1].env[t]


# -- random small scenarios against the reference ----------------------------

@st.composite
def random_scenarios(draw):
    """A scenario document with n <= 3, horizon <= 3, random menus (some
    closed) and random send rules."""
    n = draw(st.integers(2, 3))
    horizon = draw(st.integers(1, 3))
    agent = st.integers(1, n)
    msg = st.sampled_from(["a", "b"])

    def other(i):
        return st.integers(1, n - 1).map(lambda d: (i + d - 1) % n + 1)

    def pair():  # (agent, another agent, msg)
        return agent.flatmap(lambda i: st.tuples(st.just(i), other(i), msg))

    def menu_hap(t):
        return st.one_of(
            st.builds(Go, agent), st.builds(Sleep, agent),
            st.builds(fail, agent), st.builds(GExternal, agent, st.just("e")),
            pair().map(lambda p: GRecv(*p, None)),
            pair().map(lambda p: ByzEvent(p[0], GRecv(*p, None))),
            st.tuples(pair(), st.booleans()).map(lambda pb: ByzAction(
                pb[0][0], GSend(*pb[0], 0, t),
                GSend(*pb[0], 0, t) if pb[1] else None)))

    menus = []
    for t in range(horizon):
        sets = draw(st.lists(
            st.frozensets(menu_hap(t), max_size=3).filter(
                lambda X, t=t: check_t_coherent(X, t)),
            min_size=1, max_size=3))
        menus.append({"sets": [[ghap_to_json(g) for g in X] for X in sets],
                      "close": draw(st.booleans())})
    guard = st.one_of(
        st.just(["always"]),
        st.tuples(st.sampled_from(["received", "sent"]), agent, msg).map(list),
        st.tuples(agent, msg).map(lambda p: ["not", ["received", *p]]),
        st.integers(1, 2).map(lambda k: ["active_at_least", k]))
    protocols = {}
    for i in range(1, n + 1):
        sends = st.frozensets(st.tuples(st.just("send"), other(i), msg,
                                        st.just(0)), max_size=2)
        protocols[str(i)] = draw(st.lists(st.fixed_dictionaries({
            "guard": guard,
            "choices": st.lists(sends.map(lambda X: [list(a) for a in X]),
                                min_size=1, max_size=2)}), max_size=2))
    return {
        "agents": n, "f": draw(st.integers(0, 2)),
        "template": draw(st.sampled_from(["B", "Bf"])), "horizon": horizon,
        "initial_states": [["s"] * n],
        "agent_protocols": protocols,
        "env_protocol": {"menus": menus},
        "caps": {"menu_cap": 64, "node_cap": 2000},
    }


@settings(max_examples=60, deadline=None)
@given(random_scenarios())
def test_enumeration_matches_reference_on_random_scenarios(doc):
    try:
        ctx = scenario_from_json(doc, "random").ctx
        runs = enumerate_runs(ctx)
    except (ScenarioError, CapExceeded):
        assume(False)
    assert [r.states for r in runs] == list(ref_runs(ctx))
    for r in runs:
        for state in r.states:
            assert_summaries_fold_env(state)
    assert len(runs) == count_choice_tree(ctx)
