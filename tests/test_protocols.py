import copy
import itertools
import json
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from byzlab import check_closure_properties
from byzlab.engine import AgentContext
from byzlab.haps import (
    ByzEvent, External, GExternal, GRecv, Go, Hib, LocalHistory, Recv,
    Send, Sleep, fail,
)
from byzlab.protocols import (
    AgentProtocol, EnvProtocol, Rule, check_t_coherent, close_menu,
    fault_alphabet, guard_holds,
)
from byzlab.scenario import load_scenario, scenario_from_json
from byzlab.serial import order_sets
from tests.conftest import (
    SCENARIO_NAMES, global_hap_strategy, perfbench_gen, reference_close_menu,
    reference_closure_audit, scenario_path,
)


def proto(i, *rules):
    return AgentProtocol(i, tuple(rules) + (Rule(("always",), (frozenset(),)),))


def test_guard_language():
    p = proto(1)
    h = LocalHistory("boot", (
        frozenset({Recv(2, "m"), Send(3, "x")}),
        frozenset({External("e")}),
    ))
    assert guard_holds(("received", 2, "m"), h, p)
    assert not guard_holds(("received", 2, "zzz"), h, p)
    assert guard_holds(("sent", 3, "x"), h, p)
    assert guard_holds(("observed", External("e")), h, p)
    assert guard_holds(("initial", "boot"), h, p)
    assert guard_holds(("active_at_least", 2), h, p)
    assert not guard_holds(("active_at_least", 3), h, p)
    assert guard_holds(("all", ("initial", "boot"),
                        ("not", ("received", 9, "q"))), h, p)
    assert guard_holds(("any", ("initial", "other"), ("sent", 3, "x")), h, p)
    with pytest.raises(ValueError):
        guard_holds(("sideways",), h, p)


def test_first_matching_rule_wins():
    p = AgentProtocol(1, (
        Rule(("received", 2, "m"), (frozenset({Send(2, "a")}),)),
        Rule(("always",), (frozenset({Send(2, "b")}),)),
    ))
    quiet = LocalHistory("s")
    assert p(quiet) == (frozenset({Send(2, "b")}),)
    loud = LocalHistory("s", (frozenset({Recv(2, "m")}),))
    assert p(loud) == (frozenset({Send(2, "a")}),)
    assert p.emittable(2) == frozenset({"a", "b"})
    assert p.emittable(3) == frozenset()


def test_protocol_without_default_rule_fails_loudly():
    p = AgentProtocol(1, (Rule(("received", 2, "m"), (frozenset(),)),))
    with pytest.raises(RuntimeError):
        p(LocalHistory("s"))


def test_env_protocol_defaults_to_quiescence():
    env = EnvProtocol(((frozenset({GExternal(1, "e")}),),))
    assert env(0) == (frozenset({GExternal(1, "e")}),)
    assert env(1) == (frozenset(),)
    assert env.span == 1


def test_env_protocol_orders_each_menu():
    menu = tuple(close_menu((frozenset({Sleep(2), GExternal(1, "e")}),), 2, 0))
    ordered = EnvProtocol((menu,))(0)
    assert sorted(ordered, key=repr) == sorted(menu, key=repr)
    assert EnvProtocol((ordered[::-1],))(0) == ordered  # deterministic order


def test_fault_alphabet_collects_per_agent_events():
    menu = (frozenset({Sleep(2), GExternal(1, "e")}),)
    alpha = fault_alphabet(menu, 2)
    assert alpha[1] == frozenset({fail(1)})
    assert alpha[2] == frozenset({fail(2), Sleep(2)})


def test_close_menu_realizes_closure_properties():
    base = (frozenset({Sleep(2), GExternal(1, "e")}),)
    menu = close_menu(base, 2, 0)
    menu_set = set(menu)
    alpha = fault_alphabet(base, 2)
    for X in menu_set:
        for i in (1, 2):
            assert X | {fail(i)} in menu_set                       # fallible
            assert frozenset(                                      # correctable
                g for g in X if g not in alpha[i] | {fail(i)}) in menu_set
            stripped = frozenset(g for g in X if g.agent != i)
            assert stripped in menu_set                            # delayable
            for k in range(len(alpha[i]) + 1):                     # gullible
                for Y in itertools.combinations(alpha[i], k):
                    cand = stripped | frozenset(Y)
                    if check_t_coherent(cand, 0):
                        assert cand in menu_set


ALL_HOLD = {"fallible": True, "correctable": True, "delayable": True,
            "gullible": True}


def test_closure_audit_holds_on_closed_menus():
    # round 0 is closed in each; a one-round context audits only it
    ctxs = [load_scenario(scenario_path(name)).ctx
            for name in ("s07_sleep", "s15_stripped_send")]
    ctxs += [scenario_from_json(doc, f"closed{k}").ctx
             for k, doc in enumerate(perfbench_gen().closed(1))]
    assert len(ctxs) == 10
    for ctx in ctxs:
        report = check_closure_properties(replace(ctx, horizon=1))
        assert report == {i: ALL_HOLD for i in range(1, ctx.n + 1)}


def test_closure_audit_names_what_an_open_menu_lacks():
    ctx = load_scenario(scenario_path("s07_sleep")).ctx
    round1 = replace(ctx, env=EnvProtocol((ctx.env(1),)), horizon=1)
    lacking = {"fallible": False, "correctable": True, "delayable": False,
               "gullible": False}
    assert check_closure_properties(round1) == {
        1: lacking, 2: lacking, 3: {**lacking, "delayable": True}}


def test_close_menu_cap():
    base = (frozenset({Sleep(i) for i in range(1, 5)}),)
    with pytest.raises(ValueError):
        close_menu(base, 4, 0, cap=3)


def test_close_menu_cap_counts_the_product():
    # each agent's part closes to {}, {fail}, {sleep}, {sleep, fail}:
    # no part passes the cap, but their product of 4^4 sets does
    base = (frozenset({Sleep(i) for i in range(1, 5)}),)
    parts = [(frozenset(), frozenset({fail(i)}), frozenset({Sleep(i)}),
              frozenset({Sleep(i), fail(i)})) for i in range(1, 5)]
    menu = frozenset(frozenset().union(*pick)
                     for pick in itertools.product(*parts))
    assert len(menu) == 256
    with pytest.raises(ValueError, match="exceeds cap 255"):
        close_menu(base, 4, 0, cap=255)
    assert close_menu(base, 4, 0, cap=256) == menu


def test_close_menu_rejects_an_incoherent_base_set():
    # a product of parts is the closure only of t-coherent sets
    base = (frozenset(), frozenset({Sleep(1), Hib(1)}))
    with pytest.raises(ValueError, match="menu base set 1 is not 0-coherent"):
        close_menu(base, 1, 0)


def test_close_menu_holds_haps_of_other_agents_fixed():
    # no move changes a hap whose agent lies outside 1..n
    base = (frozenset({GExternal(3, "e"), Sleep(1)}),)
    menu = close_menu(base, 2, 0)
    assert menu == reference_close_menu(base, 2, 0)
    assert all(GExternal(3, "e") in X for X in menu)


def _closed_docs():
    """(name, doc) of each scenario with a closed menu: the `closed`
    benchmark systems of seeds 1-5, s07 and s15."""
    for seed in range(1, 6):
        for k, doc in enumerate(perfbench_gen().closed(seed)):
            yield f"closed{seed}.{k}", doc
    for name in ("s07_sleep", "s15_stripped_send"):
        with open(scenario_path(name)) as fh:
            yield name, json.load(fh)


def test_loaded_menus_match_the_reference_closure():
    checked = 0
    for name, doc in _closed_docs():
        open_doc = copy.deepcopy(doc)
        for md in open_doc["env_protocol"]["menus"]:
            md["close"] = False
        closed = scenario_from_json(doc, name).ctx
        base = scenario_from_json(open_doc, name).ctx
        cap = doc.get("caps", {}).get("menu_cap", 4096)
        for t, md in enumerate(doc["env_protocol"]["menus"]):
            if md.get("close"):
                ref = reference_close_menu(base.env(t), base.n, t, cap)
                assert closed.env(t) == order_sets(ref), (name, t)
                checked += 1
    assert checked == 42


def test_loaded_menus_pass_the_reference_audit():
    # the corpus scenarios at their full horizon, and the closed menus
    names = [name for name in SCENARIO_NAMES
             if name not in ("s07_sleep", "s15_stripped_send")]
    ctxs = [load_scenario(scenario_path(name)).ctx for name in names]
    ctxs += [scenario_from_json(doc, name).ctx for name, doc in _closed_docs()]
    assert len(ctxs) == 55
    for ctx in ctxs:
        assert check_closure_properties(ctx) == reference_closure_audit(ctx)


PROBE_CAP = 200


def draw_base(data, n, t):
    """1-4 t-coherent sets of haps of agents 1..n, drawn from a pool that
    holds each correct delivery or external with its fake, and every
    agent's system events, so that the sets conflict in many ways."""
    agents, msgs = st.integers(1, n), st.sampled_from(["a", "b"])
    pool = data.draw(st.lists(global_hap_strategy(
        agents, msgs, st.integers(0, 2)), min_size=1, max_size=6),
        label="pool")
    pool += [ByzEvent(g.agent, g) for g in pool
             if isinstance(g, (GRecv, GExternal))]
    pool += [ev(i) for i in range(1, n + 1) for ev in (Go, Sleep, Hib)]
    base = []
    for draw in data.draw(st.lists(st.lists(st.sampled_from(pool),
                                            max_size=6),
                                   min_size=1, max_size=4), label="base"):
        X = frozenset()
        for g in draw:  # each set is kept t-coherent
            if check_t_coherent(X | {g}, t):
                X |= {g}
        base.append(X)
    return base


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_close_menu_matches_reference(data):
    n = data.draw(st.integers(1, 4), label="n")
    t = data.draw(st.integers(0, 2), label="t")
    base = draw_base(data, n, t)
    try:
        size = len(close_menu(base, n, t, cap=PROBE_CAP))
    except ValueError:
        size = PROBE_CAP + 1
    caps = [data.draw(st.integers(size, PROBE_CAP + 1), label="cap above")]
    if size > 1:
        caps.append(data.draw(st.integers(1, size - 1), label="cap below"))
    for cap in caps:
        outcomes = []
        for close in (close_menu, reference_close_menu):
            try:
                outcomes.append(close(base, n, t, cap))
            except ValueError as e:
                outcomes.append(str(e))
        assert outcomes[0] == outcomes[1], cap


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_closure_audit_matches_reference(data):
    # open, closed and nearly closed menus: the last lack a few sets of
    # a closure; every agent's sleep and hibernate lie in the pool, so
    # that G_i leaves out the subsets holding both
    n = data.draw(st.integers(1, 3), label="n")
    menus = []
    for t in range(data.draw(st.integers(1, 2), label="rounds")):
        menu = frozenset(draw_base(data, n, t))
        kind = data.draw(st.sampled_from(["open", "closed", "nearly"]),
                         label="kind")
        if kind != "open":
            try:
                menu = close_menu(menu, n, t, cap=PROBE_CAP)
            except ValueError:
                pass  # too wide to audit quickly: left open
        if kind == "nearly":
            drop = data.draw(st.lists(st.sampled_from(order_sets(menu)),
                                      max_size=3), label="drop")
            menu = menu.difference(drop) or frozenset({frozenset()})
        menus.append(tuple(menu))
    ctx = AgentContext(n, EnvProtocol(tuple(menus)), (), (),
                       horizon=len(menus))
    assert check_closure_properties(ctx) == reference_closure_audit(ctx)
