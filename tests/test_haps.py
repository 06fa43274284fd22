import pytest
from hypothesis import example, given, strategies as st

from byzlab.haps import (
    FAULT_KINDS, ByzAction, External, GExternal, GRecv, GSend, Go,
    LocalHistory, Recv, Send, Sleep, apply_round, compile_round, fail,
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
