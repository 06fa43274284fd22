import itertools

import pytest
from hypothesis import given, settings, strategies as st

from byzlab.atoms import Faulty
from byzlab.chains import (
    PackingCapExceeded, TrustTable, chains_about, extract_chains,
    max_disjoint, shorten_chain, threshold_witness,
)
from byzlab.formulas import Atom, Not
from byzlab.haps import LocalHistory, Recv
from tests.conftest import pairwise_disjoint


def brute_force_max(chains):
    best = 0
    for r in range(len(chains), -1, -1):
        for combo in itertools.combinations(sorted(chains), r):
            if pairwise_disjoint(combo):
                return r
    return best


chain_sets = st.frozensets(
    st.lists(st.integers(1, 9), min_size=1, max_size=4).map(tuple),
    max_size=9)


@given(chain_sets)
@settings(max_examples=150)
def test_packing_matches_brute_force(chains):
    card, witness = max_disjoint(chains)
    assert card == brute_force_max(chains)
    assert witness <= chains
    assert pairwise_disjoint(witness) and len(witness) == card


def test_packing_cap():
    many = frozenset((i,) for i in range(1, 100))
    with pytest.raises(PackingCapExceeded):
        max_disjoint(many)


def test_trust_table_rejects_non_persistent_base():
    with pytest.raises(ValueError):
        TrustTable({(2, 1, "m"): (Not(Atom(Faulty(3))), ())})


PHI = Atom(Faulty(3))
TRUST = TrustTable({
    (2, 1, "direct"): (PHI, ()),
    (4, 1, "relay"): (PHI, (2,)),
    (4, 1, "loop"): (PHI, (1, 4)),
    (2, 1, "other"): (Atom(Faulty(4)), ()),
})


def test_extraction_matches_formula_and_receiver():
    h = LocalHistory("s", (
        frozenset({Recv(2, "direct"), Recv(2, "other")}),
        frozenset({Recv(4, "relay"), Recv(4, "loop"), Recv(5, "direct")}),
    ))
    # one entry per base formula, loops kept; Recv(5, direct) has no entry
    extracted = extract_chains(h, 1, TRUST)
    assert extracted == (
        (PHI, frozenset({(2,), (4, 2), (4, 1, 4)})),
        (Atom(Faulty(4)), frozenset({(2,)})),
    )
    assert chains_about(extracted, Atom(Faulty(4))) == frozenset({(2,)})
    assert chains_about(extracted, Atom(Faulty(5))) == frozenset()
    # receipts addressed to another agent certify nothing to agent 2
    assert extract_chains(h, 2, TRUST) == \
        ((PHI, frozenset()), (Atom(Faulty(4)), frozenset()))


def test_chains_minus_drops_touching_chains():
    chains = frozenset({(2,), (4, 2), (5,)})
    # F = {2} leaves (5,) alone; more than f - |F| = 0 chains is one
    assert threshold_witness(chains, {2}, 1) == frozenset({(5,)})
    assert threshold_witness(chains, set(), 1) == frozenset({(2,), (5,)})
    # `avoid` drops chains as F does without lowering the threshold
    assert threshold_witness(chains, set(), 0, avoid={2}) == \
        frozenset({(5,)})
    assert threshold_witness(chains, set(), 1, avoid={2}) is None


def test_shorten_chain_removes_loops():
    assert shorten_chain((2, 1, 2)) == (2,)
    assert shorten_chain((4, 1, 4)) == (4,)
    assert shorten_chain((1, 2, 3)) == (1, 2, 3)
    assert shorten_chain((1, 2, 1, 3, 2)) == (1, 3, 2) or \
        len(set(shorten_chain((1, 2, 1, 3, 2)))) == len(shorten_chain((1, 2, 1, 3, 2)))


@given(st.lists(st.integers(1, 5), min_size=1, max_size=8).map(tuple))
def test_shorten_chain_yields_repetition_free_subsequence(chain):
    short = shorten_chain(chain)
    assert len(set(short)) == len(short)
    assert set(short) <= set(chain)
    assert short[0] in chain and short[-1] == chain[-1]


def test_threshold_belief():
    chains = frozenset({(2,), (3,), (4, 5)})
    assert threshold_witness(chains, set(), 2) == chains     # 3 > 2
    assert threshold_witness(chains, set(), 3) is None       # 3 > 3 fails
    assert threshold_witness(chains, {4}, 2) is not None     # 2 > 1
    # k-group occurrence needs k + f - |F| chains: 3 >= 2 + 1, not 3 + 1
    assert threshold_witness(chains, set(), 1, k=2) is not None
    assert threshold_witness(chains, set(), 1, k=3) is None
    # a looped chain never counts
    assert threshold_witness(chains | {(6, 7, 6)}, set(), 3) is None
    # an F beyond f needs no chain at all: the empty packing clears it
    assert threshold_witness(frozenset(), {1, 2, 3}, 2) == frozenset()
