"""Round transitions: filters, the five-phase step, enumeration.

A round from timestamp t to t+1 runs through protocol, adversary,
labeling, filtering and updating phases.  `enumerate_runs` explores every
adversary choice exhaustively up to the context horizon, stepping once
per distinct future key and building each distinct state once, rather
than once per tree node; `seeded_run` resolves each choice point
deterministically from a seed.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass
from typing import Dict, List

from .haps import (
    FAULT_KINDS, AgentId, ByzAction, GRecv, GlobalState, Go, Run, Timestamp,
    apply_round, globalize, initial_state,
)
from .protocols import AgentProtocol, EnvProtocol


class CapExceeded(Exception):
    """Raised when a walk of the choice tree would take more edges than
    the context's node cap allows."""

    def __init__(self, cap: int):
        super().__init__(f"enumeration exceeded {cap} explored nodes")


@dataclass(frozen=True)
class AgentContext:
    """Environment protocol, joint protocol, initial states and template."""

    n: AgentId
    env: EnvProtocol
    protocols: tuple  # AgentProtocol per agent, index agent-1
    initials: tuple   # tuple of per-agent initial-state-id tuples
    template: str = "Bf"  # "B" or "Bf"
    f: int = 0
    horizon: Timestamp = 1
    node_cap: int = 10 ** 6

    def protocol(self, agent: AgentId) -> AgentProtocol:
        return self.protocols[agent - 1]


# ---------------------------------------------------------------------------
# Filters

def _sends_in_round(X_eps: frozenset, alphas):
    for X_i in alphas:
        yield from X_i
    for g in X_eps:
        if isinstance(g, ByzAction) and g.performed is not None:
            yield g.performed


def filter_env_B(state: GlobalState, X_eps: frozenset, alphas) -> frozenset:
    """Causality filter: drop correct deliveries with no matching send."""
    unsent = [g for g in X_eps if isinstance(g, GRecv) and g.gmi not in state.sent]
    if not unsent:
        return X_eps
    issued = {s.gmi for s in _sends_in_round(X_eps, alphas)}
    return X_eps.difference(g for g in unsent if g.gmi not in issued)


def filter_env_Bf(state: GlobalState, X_eps: frozenset, alphas,
                  f: int) -> frozenset:
    """Causality plus fault budget: strip the round's fault events when
    keeping them would push the count of ever-faulty agents beyond f.

    Sleep and hibernate brand an agent faulty just like byzantine events,
    so they count against (and are removed with) the budget.  Causality
    drops deliveries only, never a fault event, so the budget is decided
    on the whole set first; causality then runs on what the budget kept,
    and a delivery of a stripped byzantine send dies with that send.
    """
    if len(state.faulty.union(
            g.agent for g in X_eps if isinstance(g, FAULT_KINDS))) > f:
        X_eps = frozenset(g for g in X_eps if not isinstance(g, FAULT_KINDS))
    return filter_env_B(state, X_eps, alphas)


# ---------------------------------------------------------------------------
# Delivery template materialization

def _materialize(state: GlobalState, X_eps: frozenset, alphas) -> frozenset:
    """Resolve GMI-less delivery templates against actual sends.

    A template grecv(i, j, mu) binds to the earliest matching send not yet
    delivered to i, falling back to the earliest matching send at all.
    Unresolvable templates stay unresolved and die in the causality filter.
    """
    templates = [g for g in X_eps if isinstance(g, GRecv) and g.gmi is None]
    if not templates:
        return X_eps
    candidates = sorted(
        state.sent.union(s.gmi for s in _sends_in_round(X_eps, alphas)),
        key=lambda m: (m.sent_at, m.copy, m.sender, m.receiver, m.msg))
    out = set(X_eps.difference(templates))
    for g in templates:
        matches = [m for m in candidates
                   if m.sender == g.frm and m.receiver == g.agent and m.msg == g.msg]
        fresh = [m for m in matches if m not in state.delivered]
        pick = (fresh or matches or [None])[0]
        out.add(g if pick is None else GRecv(g.agent, g.frm, g.msg, pick))
    return frozenset(out)


# ---------------------------------------------------------------------------
# The five-phase step

def step(ctx: AgentContext, state: GlobalState, t: Timestamp,
         env_choice: frozenset, agent_choices, validate: bool = True) -> GlobalState:
    """Execute one round given the adversary's choices."""
    if validate:
        if env_choice not in ctx.env(t):
            raise ValueError(f"environment choice not offered at t={t}")
        for i in range(1, ctx.n + 1):
            if frozenset(agent_choices[i - 1]) not in ctx.protocol(i)(state.local(i)):
                raise ValueError(f"agent {i} choice outside protocol range")

    # Labeling: local actions to global format with GMIs.
    alphas = [frozenset(globalize(i, t, a) for a in X) if X else frozenset()
              for i, X in enumerate(agent_choices, start=1)]
    alpha_eps = _materialize(state, env_choice, alphas)

    # Event filtering.
    if ctx.template == "Bf":
        beta_eps = filter_env_Bf(state, alpha_eps, alphas, ctx.f)
    else:
        beta_eps = filter_env_B(state, alpha_eps, alphas)

    # Action filtering, then updating: actions pass when go(i) was granted.
    return apply_round(state, beta_eps.union(
        *(alphas[g.agent - 1] for g in beta_eps if isinstance(g, Go))))


# ---------------------------------------------------------------------------
# Exhaustive enumeration

def _choice_space(ctx: AgentContext, state: GlobalState, t: Timestamp):
    """The env menu and each agent's choices, in the order their
    protocols fixed at construction."""
    return ctx.env(t), [ctx.protocol(i)(state.local(i))
                        for i in range(1, ctx.n + 1)]


def future_key(t: Timestamp, state: GlobalState) -> tuple:
    """All that `step` reads of a state at time t: the protocols read
    `locals`, the filters and delivery binding read the summaries, and
    the update appends one round to `env` without reading it."""
    return (t, state.locals, state.sent, state.delivered, state.faulty)


def enumerate_runs(ctx: AgentContext) -> List[Run]:
    """All transitional runs of length horizon+1, in deterministic order.

    `step` reads a state only through its `future_key`, so tree nodes
    with one key have equal subtrees up to their env prefix.  A table
    local to the call maps each key to its children, one per (env choice, agent
    combo) in menu order, each kept as (round record, locals, sent,
    delivered, faulty) from one `step` call when the key is first
    reached.  Children of one parent with equal round records are one
    state, since the update is deterministic: the walk builds it and
    its subtree at the first of them and, at each later one, repeats
    the runs that subtree gave, sharing their `Run` objects.  So every
    state built is distinct by value, while the runs and their order
    are those of a plain walk that steps at every tree node.
    `ctx.node_cap` caps the tree edges, repeated subtrees included.
    """
    cap = ctx.node_cap
    runs: List[Run] = []
    explored = 0
    table: Dict[tuple, list] = {}  # future key -> its children

    def walk(prefix: List[GlobalState], t: Timestamp):
        nonlocal explored
        state = prefix[-1]
        if t == ctx.horizon:
            runs.append(Run(tuple(prefix)))
            return
        key = future_key(t, state)
        children = table.get(key)
        if children is None:
            env_opts, agent_opts = _choice_space(ctx, state, t)
            nexts = (step(ctx, state, t, env_choice, combo, validate=False)
                     for env_choice, combo in itertools.product(
                         env_opts, itertools.product(*agent_opts)))
            children = table[key] = [
                (s.env[-1], s.locals, s.sent, s.delivered, s.faulty)
                for s in nexts]
        done = {}  # round record -> (slice of its runs, edges to them)
        for rnd, locals_, sent, delivered, faulty in children:
            twin = done.get(rnd)
            explored += 1 if twin is None else twin[2]
            if explored > cap:
                raise CapExceeded(cap)
            if twin is not None:
                runs.extend(runs[twin[0]:twin[1]])
                continue
            lo, before = len(runs), explored - 1
            prefix.append(GlobalState(state.env + (rnd,), locals_, sent,
                                      delivered, faulty))
            walk(prefix, t + 1)
            prefix.pop()
            done[rnd] = lo, len(runs), explored - before

    try:
        for initials in ctx.initials:
            walk([initial_state(initials)], 0)
    finally:
        # `walk` refers to itself through its closure; breaking that
        # cycle frees the table on return instead of at the next
        # collection of the cyclic garbage collector
        walk = None
    return runs


def count_choice_tree(ctx: AgentContext) -> int:
    """Independent recursive count of adversary choice-tree leaves.
    `ctx.node_cap` caps the tree edges, as in `enumerate_runs`."""
    edges = 0

    def count(state: GlobalState, t: Timestamp) -> int:
        nonlocal edges
        if t == ctx.horizon:
            return 1
        env_opts, agent_opts = _choice_space(ctx, state, t)
        total = 0
        for env_choice in env_opts:
            for combo in itertools.product(*agent_opts):
                edges += 1
                if edges > ctx.node_cap:
                    raise CapExceeded(ctx.node_cap)
                total += count(step(ctx, state, t, env_choice, combo,
                                    validate=False), t + 1)
        return total

    return sum(count(initial_state(ins), 0) for ins in ctx.initials)


# ---------------------------------------------------------------------------
# Seeded adversary

def _pick(seed: int, t: Timestamp, point: int, n_options: int) -> int:
    digest = hashlib.sha256(f"{seed}|{t}|{point}".encode()).digest()
    return int.from_bytes(digest[:8], "big") % n_options


def seeded_run(ctx: AgentContext, seed: int) -> Run:
    """One run with every nondeterministic choice resolved from the seed."""
    initials = ctx.initials[_pick(seed, -1, 0, len(ctx.initials))]
    state = initial_state(initials)
    states = [state]
    for t in range(ctx.horizon):
        env_opts, agent_opts = _choice_space(ctx, state, t)
        env_choice = env_opts[_pick(seed, t, 0, len(env_opts))]
        combo = [opts[_pick(seed, t, 1 + i, len(opts))]
                 for i, opts in enumerate(agent_opts)]
        state = step(ctx, state, t, env_choice, combo, validate=False)
        states.append(state)
    return Run(tuple(states))

