import importlib.util
import os

import pytest

from byzlab.engine import enumerate_runs
from byzlab.haps import (
    FAULT_KINDS, GSend, Go, Hib, LocalHistory, Sleep, is_event, localize,
)
from byzlab.oracle import InterpretedSystem
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
