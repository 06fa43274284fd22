import importlib.util
import os
from itertools import chain, combinations

import pytest
from hypothesis import strategies as st

from byzlab.chains import max_disjoint
from byzlab.engine import enumerate_runs
from byzlab.haps import (
    FAULT_KINDS, ByzAction, ByzEvent, GExternal, GRecv, GSend, Go, Hib,
    LocalHistory, Sleep, fail, is_event, localize,
)
from byzlab.oracle import InterpretedSystem
from byzlab.protocols import check_t_coherent, fault_alphabet
from byzlab.scenario import load_scenario, scenario_from_json

SCENARIO_DIR = os.path.join(os.path.dirname(__file__), "..", "scenarios")

SCENARIO_NAMES = sorted(
    name[:-5] for name in os.listdir(SCENARIO_DIR) if name.endswith(".json"))


def scenario_path(name: str) -> str:
    return os.path.join(SCENARIO_DIR, name + ".json")


def pairwise_disjoint(chains) -> bool:
    """No agent lies on two of the chains."""
    seen = set()
    for s in chains:
        if seen & set(s):
            return False
        seen |= set(s)
    return True


def reference_threshold(chains, F, f, k=1, avoid=()):
    """The packing rule as first written: filter, pack with
    `max_disjoint`, then compare the packing with k + f - |F|."""
    out = F.union(avoid)
    card, witness = max_disjoint(frozenset(
        s for s in chains if len(set(s)) == len(s) and out.isdisjoint(s)))
    return witness if card >= k + f - len(F) else None


def shorten_chain(chain):
    """The chain with every loop (a segment from one agent back) cut."""
    out = list(chain)
    while len(set(out)) != len(out):
        seen = {}
        for pos, a in enumerate(out):
            if a in seen:
                del out[seen[a]:pos]
                break
            seen[a] = pos
    return tuple(out)


def closure_moves(X: frozenset, alphabet, joined: set, found=()):
    """(agent i, property, set) for each move a closed menu must admit
    from X: fallible adds fail(i), correctable drops i's fault events,
    delayable drops all of i's events and gullible joins that remainder
    with each subset of i's fault alphabet.  Those depend on X only via
    the remainder, so they are made once per (i, remainder) in `joined`,
    as they are read, and no more once (i, "gullible") is in `found`."""
    for i, alpha in alphabet.items():
        yield i, "fallible", X | {fail(i)}
        yield i, "correctable", X - frozenset(
            g for g in X if g.agent == i and isinstance(g, FAULT_KINDS))
        stripped = X - frozenset(g for g in X if g.agent == i)
        yield i, "delayable", stripped
        if (i, stripped) in joined:
            continue
        joined.add((i, stripped))
        for Y in chain.from_iterable(  # each subset, made as it is read
                combinations(alpha, k) for k in range(len(alpha) + 1)):
            if (i, "gullible") in found:
                break
            yield i, "gullible", stripped.union(Y)


def reference_closure_audit(ctx):
    """The closure audit as first written: every move from every set of
    each menu, which `protocols.check_closure_properties` is checked
    against.  A property fails where one of its t-coherent moves leaves
    the menu; the moves of a property already found false are skipped."""
    found = set()  # (agent, property) pairs found false
    for t in range(ctx.horizon):
        menu, joined = set(ctx.env(t)), set()
        alphabet = fault_alphabet(menu, ctx.n)
        for X in menu:
            for i, prop, C in closure_moves(X, alphabet, joined, found):
                if (i, prop) not in found and C not in menu \
                        and check_t_coherent(C, t):
                    found.add((i, prop))
    return {i: {prop: (i, prop) not in found for prop in
                ("fallible", "correctable", "delayable", "gullible")}
            for i in range(1, ctx.n + 1)}


def reference_close_menu(base, n, t, cap=4096):
    """The menu closure as first written: a breadth-first search over
    whole sets, which `protocols.close_menu` is checked against."""
    too_many = f"menu closure at t={t} exceeds cap {cap}"
    alphabet, joined = fault_alphabet(base, n), set()
    seen = {frozenset(X) for X in base}
    if len(seen) > cap:
        raise ValueError(too_many)
    frontier = list(seen)
    while frontier:
        new = []
        for X in frontier:
            for _, _, C in closure_moves(X, alphabet, joined):
                if C not in seen and check_t_coherent(C, t):
                    seen.add(C)
                    new.append(C)
                    if len(seen) > cap:
                        raise ValueError(too_many)
        frontier = new
    return frozenset(seen)


def verify_persistent(system, phi):
    """(True, None), or (False, (run, t, t')): phi holds at t, not t' > t."""
    first_true = {}
    for (ridx, t), v in system.check(phi)[0]:
        if v:
            first_true.setdefault(ridx, t)
        elif ridx in first_true:
            return False, (ridx, first_true[ridx], t)
    return True, None


@pytest.fixture(scope="session")
def suite():
    """name -> (scenario, runs, interpreted system), built once."""
    out = {}
    for name in SCENARIO_NAMES:
        sc = load_scenario(scenario_path(name), name=name)
        runs = enumerate_runs(sc.ctx)
        out[name] = (sc, runs, InterpretedSystem(
            runs, quiescent=sc.ctx.env.span <= sc.ctx.horizon))
    return out


def perfbench_gen():
    """perfbench/gen.py, loaded from its file without touching sys.path."""
    path = os.path.join(os.path.dirname(__file__), "..", "perfbench",
                        "gen.py")
    spec = importlib.util.spec_from_file_location("perfbench_gen", path)
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    return gen


@pytest.fixture(scope="session")
def contexts(suite):
    """name -> context of every corpus scenario and of the 8 `closed`
    benchmark systems of seed 1, whose closed round-0 menus give many
    choices of one parent the same round record."""
    out = {name: sc.ctx for name, (sc, _, _) in suite.items()}
    for k, doc in enumerate(perfbench_gen().closed(1)):
        out[f"closed{k}"] = scenario_from_json(doc, f"closed{k}").ctx
    return out


def global_hap_strategy(agents, msgs, times=st.integers(0, 6)):
    """Global haps of every form, with `agents` and message ids `msgs`."""
    gsends = st.builds(GSend, agents, agents, msgs, st.integers(0, 3), times)
    return st.one_of(
        gsends,
        st.builds(lambda s: GRecv(s.to, s.agent, s.msg, s), gsends),
        st.builds(GRecv, agents, agents, msgs),          # unresolved template
        st.builds(GExternal, agents, msgs),
        st.builds(Go, agents), st.builds(Sleep, agents), st.builds(Hib, agents),
        st.builds(fail, agents),
        # a byzantine agent's sends are its own
        st.builds(lambda p, r: ByzAction(
            p.agent, p, GSend(p.agent, r.to, r.msg, r.copy, r.sent_at)),
            gsends, gsends),
        st.builds(lambda p: ByzAction(p.agent, p, None), gsends),
        st.builds(lambda i, e: ByzEvent(i, GExternal(i, e)), agents, msgs),
    )


# -- the per-agent round update that `haps.apply_round` is checked against --

def perceived(X: frozenset) -> frozenset:
    """sigma(X): strip system events, then localize; drops non-recordings."""
    locs = (localize(g) for g in X if not isinstance(g, (Go, Sleep, Hib)))
    return frozenset(loc for loc in locs if loc is not None)


def update_agent(h: LocalHistory, agent: int, X_i: frozenset,
                 X_eps: frozenset) -> LocalHistory:
    """Update one local history with the round's actions and events."""
    X_eps_i = frozenset(g for g in X_eps if is_event(g) and g.agent == agent)
    if not perceived(X_eps_i) and Go(agent) not in X_eps:
        return h
    return h.append(perceived(X_eps_i | X_i))


def replay_local(agent: int, env: tuple, initial: str) -> LocalHistory:
    """Rebuild an agent's local history from the environment history."""
    h = LocalHistory(initial)
    for rnd in env:
        X_i = frozenset(g for g in rnd if isinstance(g, GSend) and g.agent == agent)
        X_eps = frozenset(g for g in rnd if is_event(g))
        h = update_agent(h, agent, X_i, X_eps)
    return h


# -- the env scan that the `correct` and `faulty` atoms are checked against --

def has_fault_event(env: tuple, agent: int, upto: int) -> bool:
    """Whether `agent` has a fault event in the first `upto` rounds."""
    return any(isinstance(g, FAULT_KINDS) and g.agent == agent
               for rnd in env[:upto] for g in rnd)
