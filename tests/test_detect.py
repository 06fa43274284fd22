import itertools

import pytest
from hypothesis import given, settings, strategies as st

from byzlab.atoms import Faulty, OccurredCorrectly
from byzlab import detect
from byzlab.chains import TrustTable, extract_chains
from byzlab.detect import (
    DetectionInput, belief_who_is_faulty, dir_notif_faulty,
    dir_obs_faulty, group_occurrence_belief, local_knowledge,
    self_check_faulty,
)
from byzlab.formulas import Atom
from byzlab.haps import External, LocalHistory, Recv, Send
from byzlab.protocols import AgentProtocol, Rule, guard_holds


def proto(i, *rules):
    return AgentProtocol(i, tuple(rules) + (Rule(("always",), (frozenset(),)),))


def quiet_protocols(n):
    return tuple(proto(i) for i in range(1, n + 1))


def test_dir_obs_flags_unemittable_messages():
    protocols = (
        proto(1),
        proto(2, Rule(("always",), (frozenset({Send(1, "ok")}),))),
        proto(3),
    )
    h = LocalHistory("s", (frozenset({Recv(2, "ok"), Recv(3, "weird")}),))
    assert dir_obs_faulty(h, 1, protocols) == {3}


def test_dir_notif_needs_a_singleton_chain():
    trust = TrustTable({
        (2, 1, "sorry"): (Atom(Faulty(2)), ()),
        (3, 1, "gossip"): (Atom(Faulty(3)), (2,)),
    })
    h = LocalHistory("s", (frozenset({Recv(2, "sorry"), Recv(3, "gossip")}),))
    assert dir_notif_faulty(extract_chains(h, 1, trust)) == {2}


def test_self_check_spots_unoffered_actions():
    p = proto(1, Rule(("always",), (frozenset({Send(2, "a")}),)))
    fine = LocalHistory("s", (frozenset({Send(2, "a")}),))
    assert not self_check_faulty(fine, 1, p)
    rogue = LocalHistory("s", (frozenset({Send(2, "zzz")}),))
    assert self_check_faulty(rogue, 1, p)


def reference_choices(p, h):
    """The protocol's choices with every `self_faulty` guard audited in
    full: the recursive definition, 2^k - 1 calls on k rounds."""
    for rule in p.rules:
        if reference_guard(rule.guard, h, p):
            return rule.choices


def reference_guard(guard, h, p):
    op = guard[0]
    if op == "self_faulty":
        return reference_self_faulty(h, p)
    if op == "not":
        return not reference_guard(guard[1], h, p)
    if op == "all":
        return all(reference_guard(g, h, p) for g in guard[1:])
    if op == "any":
        return any(reference_guard(g, h, p) for g in guard[1:])
    return guard_holds(guard, h, p)


def reference_self_faulty(h, p):
    for m, rnd in enumerate(h.rounds):
        offered = reference_choices(p, h.prefix(m))
        if any(isinstance(a, Send) and all(a not in D for D in offered)
               for a in rnd):
            return True
    return False


AUDITOR = proto(
    1,
    Rule(("all", ("received", 2, "m"), ("not", ("self_faulty",))),
         (frozenset({Send(2, "a")}),)),
    Rule(("any", ("self_faulty",), ("sent", 2, "b")),
         (frozenset({Send(2, "sorry")}), frozenset())),
    Rule(("always",), (frozenset({Send(2, "a")}), frozenset({Send(2, "b")}))),
)


def test_self_faulty_audit_is_linear(monkeypatch, suite):
    calls = []
    inner = AgentProtocol.__call__

    def counted(self, *args, **kwargs):
        calls.append(1)
        return inner(self, *args, **kwargs)

    monkeypatch.setattr(AgentProtocol, "__call__", counted)
    busy = LocalHistory("s", (frozenset({Send(2, "a")}),) * 16)
    assert AUDITOR(busy) == (frozenset({Send(2, "a")}), frozenset({Send(2, "b")}))
    assert len(calls) <= 17
    monkeypatch.undo()

    for name, (sc, runs, _) in suite.items():
        histories = {(i, r.local(i, t)) for r in runs
                     for t in range(r.horizon + 1) for i in range(1, sc.ctx.n + 1)}
        for i, h in histories:
            p = sc.ctx.protocol(i)
            assert p(h) == reference_choices(p, h), name
            assert self_check_faulty(h, i, p) == reference_self_faulty(h, p), name


@settings(max_examples=150, deadline=None)
@given(st.lists(st.frozensets(st.sampled_from(
    [Send(2, "a"), Send(2, "b"), Send(2, "sorry"), Recv(2, "m")])), max_size=7))
def test_self_faulty_audit_matches_recursive_reference(rounds):
    h = LocalHistory("s", tuple(rounds))
    assert AUDITOR(h) == reference_choices(AUDITOR, h)
    assert self_check_faulty(h, 1, AUDITOR) == reference_self_faulty(h, AUDITOR)


def hand_trace_input():
    """Five agents, f=2: a bogus message from 2 plus notification chains
    (4,) and (5,) about agent 3."""
    trust = TrustTable({
        (4, 1, "a43"): (Atom(Faulty(3)), ()),
        (5, 1, "a53"): (Atom(Faulty(3)), ()),
    })
    h = LocalHistory("s", (
        frozenset({Recv(2, "bogus")}),
        frozenset({Recv(4, "a43"), Recv(5, "a53")}),
    ))
    protocols = (
        proto(1), proto(2), proto(3),
        proto(4, Rule(("received", 3, "junk"), (frozenset({Send(1, "a43")}),))),
        proto(5, Rule(("received", 3, "junk"), (frozenset({Send(1, "a53")}),))),
    )
    return DetectionInput(h, 1, 2, protocols, trust)


def test_fixpoint_hand_trace():
    rep = belief_who_is_faulty(hand_trace_input())
    assert rep.faulty == {2, 3}
    assert rep.provenance[2] == ("direct-observation",)
    assert rep.provenance[3][0] == "chain-threshold"
    assert rep.provenance[3][1] == frozenset({(4,), (5,)})
    assert rep.iterations <= 6


def test_fixpoint_respects_threshold():
    inp = hand_trace_input()
    # without the direct observation, 2 chains fail the f=2 threshold
    bare = DetectionInput(
        LocalHistory("s", inp.h_i.rounds[1:]), 1, 2, inp.protocols, inp.trust)
    assert belief_who_is_faulty(bare).faulty == set()


def test_fixpoint_order_invariance():
    inp = hand_trace_input()
    expected = belief_who_is_faulty(inp).faulty
    for order in itertools.permutations(range(1, 6)):
        assert belief_who_is_faulty(inp, order=order).faulty == expected


def test_local_knowledge():
    h = LocalHistory("boot", (frozenset({External("e")}),))
    assert local_knowledge(h, 1, External("e"))
    assert local_knowledge(h, 1, "boot")
    assert not local_knowledge(h, 1, External("f"))
    assert not local_knowledge(h, 1, "other")


OCC_TRUST = TrustTable({
    (2, 1, "saw2"): (Atom(OccurredCorrectly(External("e"))), ()),
})


def test_group_occurrence_guards():
    h = LocalHistory("s")
    with pytest.raises(ValueError):
        group_occurrence_belief(h, 1, External("e"), 2, 2, set(), OCC_TRUST, 3)
    with pytest.raises(ValueError):
        group_occurrence_belief(h, 1, External("e"), 0, 1, set(), OCC_TRUST, 3)
    with pytest.raises(ValueError):
        group_occurrence_belief(h, 1, External("e"), 1, 1, {2, 3}, OCC_TRUST, 3)


def test_group_occurrence_counts_chains():
    occ = Atom(OccurredCorrectly(External("e")))
    trust = TrustTable({
        (2, 1, "saw2"): (occ, ()),
        (3, 1, "saw3"): (occ, ()),
    })
    both = LocalHistory("s", (frozenset({Recv(2, "saw2"), Recv(3, "saw3")}),))
    one = LocalHistory("s", (frozenset({Recv(2, "saw2")}),))
    args = dict(o=External("e"), f=1, F=set(), trust=trust, n=3)
    assert group_occurrence_belief(both, 1, k=1, **args)
    assert not group_occurrence_belief(one, 1, k=1, **args)
    # k=2 needs the observer's own record plus the self variant
    self_both = LocalHistory("s", (
        frozenset({External("e"), Recv(2, "saw2"), Recv(3, "saw3")}),))
    assert not group_occurrence_belief(self_both, 1, k=2, **args)
    assert group_occurrence_belief(self_both, 1, k=2, include_self=True, **args)
    assert not group_occurrence_belief(both, 1, k=2, include_self=True, **args)


def test_one_extraction_per_detector_call(monkeypatch, suite):
    calls = []
    inner = detect.extract_chains

    def counted(*args):
        calls.append(1)
        return inner(*args)

    monkeypatch.setattr(detect, "extract_chains", counted)
    answered = 0
    for name, (sc, runs, system) in suite.items():
        n, f = sc.ctx.n, sc.ctx.f
        for i in range(1, n + 1):
            for h in system.agent_classes(i):
                calls.clear()
                rep = belief_who_is_faulty(DetectionInput(
                    h, i, f, sc.ctx.protocols, sc.trust))
                assert len(calls) == 1, (name, i, h)
                F = rep.faulty if len(rep.faulty) <= f else set()
                for k in range(1, n - f + 1):
                    calls.clear()
                    answered += group_occurrence_belief(
                        h, i, External("blast"), k, f, F, sc.trust, n,
                        include_self=True)
                    assert len(calls) == 1, (name, i, h, k)
    assert answered > 0
