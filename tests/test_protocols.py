import itertools
from dataclasses import replace

import pytest

from byzlab import check_closure_properties
from byzlab.haps import (
    External, GExternal, LocalHistory, Recv, Send, Sleep, fail,
)
from byzlab.protocols import (
    AgentProtocol, EnvProtocol, Rule, check_t_coherent, close_menu,
    fault_alphabet, guard_holds,
)
from byzlab.scenario import load_scenario, scenario_from_json
from tests.conftest import perfbench_gen, scenario_path


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
