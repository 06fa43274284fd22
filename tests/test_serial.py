from hypothesis import given, strategies as st

from byzlab.haps import (
    ByzAction, ByzEvent, External, GExternal, GRecv, GSend, Go, Hib, Recv,
    Send, Sleep, fail,
)
from byzlab.serial import (
    ghap_from_json, ghap_key, ghap_to_json, local_from_json, local_to_json,
)

agents = st.integers(min_value=1, max_value=5)
msgs = st.text(alphabet="abcxyz", min_size=1, max_size=4)
times = st.integers(min_value=0, max_value=6)

local_haps = st.one_of(
    st.builds(Send, agents, msgs, st.integers(0, 3)),
    st.builds(Recv, agents, msgs),
    st.builds(External, msgs),
)

gsends = st.builds(GSend, agents, agents, msgs, st.integers(0, 3), times)

global_haps = st.one_of(
    gsends,
    st.builds(lambda s: GRecv(s.to, s.agent, s.msg, s.gmi), gsends),
    st.builds(GRecv, agents, agents, msgs),          # unresolved template
    st.builds(GExternal, agents, msgs),
    st.builds(Go, agents), st.builds(Sleep, agents), st.builds(Hib, agents),
    st.builds(fail, agents),
    st.builds(lambda i, p, r: ByzAction(i, p, r), agents, gsends, gsends),
    st.builds(lambda i, p: ByzAction(i, p, None), agents, gsends),
    st.builds(lambda i, e: ByzEvent(i, GExternal(i, e)), agents, msgs),
)


@given(local_haps)
def test_local_roundtrip(a):
    assert local_from_json(local_to_json(a), 5) == a


@given(global_haps)
def test_global_roundtrip(g):
    assert ghap_from_json(ghap_to_json(g), 5) == g


@given(st.frozensets(global_haps, max_size=6))
def test_key_separates_sets(X):
    # equal keys on elements iff equal haps
    keys = {ghap_key(g) for g in X}
    assert len(keys) == len(X)

