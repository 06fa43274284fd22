import copy
import itertools
import pickle

import pytest
from hypothesis import example, given, strategies as st

from byzlab.haps import (
    FAULT_KINDS, ByzAction, ByzEvent, External, GExternal, GRecv, GSend, Go,
    Hib, LocalHistory, Recv, Send, Sleep, apply_round, compile_round, fail,
    globalize, initial_state, join_round, localize,
)
from tests.conftest import (
    global_hap_strategy, perceived, replay_local, update_agent,
)

agents = st.integers(min_value=1, max_value=5)
msgs = st.text(alphabet="abc", min_size=1, max_size=3)


# a send is its own global message identifier (GMI)

@given(agents, agents, msgs, st.integers(0, 3), st.integers(0, 4))
def test_gmi_roundtrip(i, j, mu, copy, t):
    s = GSend(i, j, mu, copy, t)
    assert (s.agent, s.to, s.msg, s.copy, s.sent_at) == (i, j, mu, copy, t)


@given(agents, agents, msgs, st.integers(0, 3), st.integers(0, 4),
       agents, agents, msgs, st.integers(0, 3), st.integers(0, 4))
def test_gmi_injective(i1, j1, m1, c1, t1, i2, j2, m2, c2, t2):
    same = (i1, j1, m1, c1, t1) == (i2, j2, m2, c2, t2)
    assert (GSend(i1, j1, m1, c1, t1) == GSend(i2, j2, m2, c2, t2)) == same


def test_localize_strips_global_detail():
    s = GSend(1, 2, "m", 0, 3)
    assert localize(s) == Send(2, "m")
    d = GRecv(2, 1, "m", s)
    assert localize(d) == Recv(1, "m")
    assert localize(GExternal(3, "quake")) == External("quake")
    # system events leave no local record
    assert localize(Go(1)) is None
    assert localize(Sleep(1)) is None


def test_globalize_tags_sender_and_time():
    g = globalize(1, 4, Send(2, "m", 1))
    assert g == GSend(1, 2, "m", 1, 4)
    # only sends are actions
    with pytest.raises(ValueError):
        globalize(1, 4, External("e"))


def test_perceived_drops_system_events():
    s = GSend(1, 2, "m", 0, 0)
    X = frozenset({Go(1), Sleep(2), s, GExternal(1, "e")})
    assert perceived(X) == frozenset({Send(2, "m"), External("e")})


def test_update_agent_round_rules():
    h = LocalHistory("init")
    # nothing perceived, no activation: history untouched
    assert update_agent(h, 1, frozenset(), frozenset()) is h
    # go with nothing perceived: empty marker round
    h2 = update_agent(h, 1, frozenset(), frozenset({Go(1)}))
    assert h2.rounds == (frozenset(),)
    # events for other agents never leak in
    h3 = update_agent(h, 1, frozenset(),
                      frozenset({GExternal(2, "e"), GExternal(1, "f")}))
    assert h3.rounds == (frozenset({External("f")}),)


def test_history_membership_and_prefix():
    h = LocalHistory("s", (frozenset({External("a")}), frozenset({External("b")})))
    assert External("a") in h and External("b") in h
    assert External("c") not in h
    assert h.prefix(1).rounds == (frozenset({External("a")}),)
    assert h.active_rounds == 2


def test_replay_matches_incremental_update():
    s = GSend(1, 2, "m", 0, 0)
    rounds = [
        frozenset({Go(1), s}),
        frozenset({Go(2), GRecv(2, 1, "m", s)}),
    ]
    state = initial_state(("a", "b"))
    for rnd in rounds:
        state = apply_round(state, rnd)
    assert state.env == tuple(rounds)
    for i in (1, 2):
        assert replay_local(i, state.env, state.local(i).initial) \
            == state.local(i)


def test_fail_is_the_empty_byzantine_action():
    g = fail(2)
    assert g.agent == 2 and g.performed is None and g.recorded is None
    assert localize(g) is None


S = GSend(1, 2, "m", 0, 0)


@given(st.lists(st.frozensets(global_hap_strategy(st.integers(1, 3), msgs),
                              max_size=6), max_size=4))
@example([frozenset({Go(1)}), frozenset({Go(2), Go(3)})])  # go only
@example([frozenset({S}), frozenset({S, GRecv(2, 1, "m", S)})])  # no go
def test_compiled_rounds_join_as_the_reference_updates(records):
    # each record compiled once and joined onto two states
    compiled = [compile_round(rnd) for rnd in records]
    finals = []
    for initials in (("a", "b", "c"), ("x", "y", "z")):
        state = initial_state(initials)
        for rnd, rec in zip(records, compiled):
            before, state = state, join_round(state, rec)
            assert state == apply_round(before, rnd)
        assert state.env == tuple(records)
        for i in (1, 2, 3):
            assert state.local(i) == replay_local(i, state.env, initials[i - 1])
        every = [g for rnd in records for g in rnd]
        assert state.sent == {g for g in every if isinstance(g, GSend)} | {
            g.performed for g in every if isinstance(g, ByzAction)} - {None}
        assert state.delivered == {g.gmi for g in every
                                   if isinstance(g, GRecv)} - {None}
        assert state.faulty == {g.agent for g in every
                                if isinstance(g, FAULT_KINDS)}
        finals.append(state)
    # each appended round is the compiled record's own set
    for i in (1, 2, 3):
        own = [haps for _, rounds, *_ in compiled for j, haps in rounds
               if j == i]
        for final in finals:
            assert len(own) == len(final.local(i).rounds)
            assert all(x is y for x, y in zip(own, final.local(i).rounds))


# haps and local histories are tagged tuples: value semantics

TYPES = (Send, Recv, External, GSend, GRecv, GExternal, ByzAction, ByzEvent,
         Go, Sleep, Hib, LocalHistory)

# one value of each type and its text, as the dataclasses printed it
REPRS = {
    Send(2, "m"): "Send(to=2, msg='m', copy=0)",
    Recv(1, "m"): "Recv(frm=1, msg='m')",
    External("quake"): "External(event='quake')",
    S: "GSend(agent=1, to=2, msg='m', copy=0, sent_at=0)",
    GRecv(2, 1, "m", S): "GRecv(agent=2, frm=1, msg='m', gmi=GSend(agent=1, "
                         "to=2, msg='m', copy=0, sent_at=0))",
    GExternal(3, "quake"): "GExternal(agent=3, event='quake')",
    ByzAction(1, S): "ByzAction(agent=1, performed=GSend(agent=1, to=2, "
                     "msg='m', copy=0, sent_at=0), recorded=None)",
    ByzEvent(2, GExternal(2, "e")):
        "ByzEvent(agent=2, event=GExternal(agent=2, event='e'))",
    Go(1): "Go(agent=1)", Sleep(2): "Sleep(agent=2)", Hib(3): "Hib(agent=3)",
    LocalHistory("s", (frozenset({Recv(1, "m")}), frozenset())):
        "LocalHistory(initial='s', rounds=(frozenset({Recv(frm=1, "
        "msg='m')}), frozenset()))",
}


def fields(h) -> tuple:
    return tuple(getattr(h, f) for f in h._fields)


def test_every_type_has_a_value_and_its_repr():
    assert {type(h) for h in REPRS} == set(TYPES)
    for h, text in REPRS.items():
        assert repr(h) == text
        assert h[0] == type(h).__name__  # the tag


def test_equal_fields_of_two_types_give_unequal_values():
    named = [(Go(1), Sleep(1)), (Go(1), Hib(1)), (Sleep(1), Hib(1)),
             (Go(1), fail(1)), (Recv(1, "m"), GExternal(1, "m"))]
    for a, b in named:
        assert a != b and b != a, (a, b)
    # every type built from one field tuple's prefix: equal fields, and
    # every pair of types unequal
    values = [t(*(1, None, None, None, None)[:len(t._fields)]) for t in TYPES]
    for a, b in itertools.combinations(values, 2):
        assert a != b, (a, b)
        if len(a._fields) == len(b._fields):
            assert fields(a) == fields(b)
    assert len(set(values)) == len(TYPES)


def test_no_value_equals_the_plain_tuple_of_its_fields():
    for h in REPRS:
        assert h != fields(h) and fields(h) != h
        assert h not in {fields(h)}
    # nor a guard of the same arguments
    assert Recv(1, "m") != ("received", 1, "m")


def test_values_are_read_only():
    for h in REPRS:
        name = h._fields[0]
        with pytest.raises(AttributeError):
            setattr(h, name, getattr(h, name))
        with pytest.raises(AttributeError):
            h.extra = 1


def test_copy_and_pickle_round_trip():
    for h in REPRS:
        copies = [copy.copy(h), copy.deepcopy(h)] + [
            pickle.loads(pickle.dumps(h, proto))
            for proto in range(pickle.HIGHEST_PROTOCOL + 1)]
        for c in copies:
            assert type(c) is type(h) and c == h and hash(c) == hash(h)
            assert repr(c) == repr(h)


@given(st.lists(st.tuples(agents, agents, msgs, st.integers(0, 3),
                          st.integers(0, 4)), min_size=2, max_size=6))
def test_order_within_a_type_follows_the_field_tuples(rows):
    sends = [GSend(*row) for row in rows]
    assert [fields(g) for g in sorted(sends)] == sorted(rows)
    for a, b in itertools.combinations(sends, 2):
        assert (a < b) == (fields(a) < fields(b))
    locals_ = [Send(row[1], row[2], row[3]) for row in rows]
    assert [fields(a) for a in sorted(locals_)] == sorted(map(fields, locals_))


def test_a_byzantine_hap_holds_only_its_own_agent_haps():
    other = GSend(2, 1, "m", 0, 0)
    for bad in (lambda: ByzAction(1, other), lambda: ByzAction(1, None, other),
                lambda: ByzAction(1, S, other),
                lambda: ByzEvent(1, GExternal(2, "e")),
                lambda: ByzEvent(1, GRecv(2, 1, "m", S))):
        with pytest.raises(ValueError, match="another agent's hap"):
            bad()
    assert ByzAction(2, other, other).performed == other
    assert ByzEvent(2, GRecv(2, 1, "m", S)).event.gmi == S


def test_a_delivery_names_a_send_of_its_sender_receiver_and_message():
    # S is a send of "m" from 1 to 2; each field of another send differs
    assert GRecv(2, 1, "m", S).gmi == S
    for other in (GSend(3, 1, "x", 0, 0), GSend(3, 2, "m", 0, 0),
                  GSend(1, 3, "m", 0, 0), GSend(1, 2, "x", 0, 0)):
        with pytest.raises(ValueError, match="names no send of 'm' from 1"):
            GRecv(2, 1, "m", other)
