"""Round transitions: filters, the five-phase step, enumeration.

A round from timestamp t to t+1 runs through protocol, adversary,
labeling, filtering and updating phases.  `enumerate_runs` explores every
adversary choice exhaustively up to the context horizon, stepping once
per distinct future key and class of equal env choices, and building
each distinct state once; `seeded_run` resolves each choice point
deterministically from a seed.
"""

from __future__ import annotations

import gc
import hashlib
import itertools
from dataclasses import dataclass, field, replace
from typing import Dict, List

from .haps import (
    FAULT_KINDS, AgentId, ByzAction, GRecv, GlobalState, Go, Run, Timestamp,
    compile_round, globalize, initial_state, join_round,
)
from .protocols import AgentProtocol, EnvProtocol


class CapExceeded(Exception):
    """Raised when a walk of the choice tree would take more edges than
    the context's node cap allows."""

    def __init__(self, cap: int):
        super().__init__(f"enumeration exceeded {cap} explored nodes")


@dataclass(frozen=True)
class AgentContext:
    """Environment protocol, joint protocol, initial states, template and
    the walks' tables, filled as they are asked: labels per (agent, t,
    choice), `_summary` per env set, `compile_round` per round record,
    each agent's choices per (agent, history) and `step`'s compiled
    record per (t, sent, delivered, faulty, env set, agent combo).  The
    tables are bounded by the distinct sets, records, histories and
    step keys the context's walks meet, and die with the context;
    `enumerate_runs` walks a copy with tables of its own, while
    `seeded_run` and `count_choice_tree` fill the context's own."""

    n: AgentId
    env: EnvProtocol
    protocols: tuple  # AgentProtocol per agent, index agent-1
    initials: tuple   # tuple of per-agent initial-state-id tuples
    template: str = "Bf"  # "B" or "Bf"
    f: int = 0
    horizon: Timestamp = 1
    node_cap: int = 10 ** 6
    labels: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    summaries: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    records: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    choices: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    steps: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def protocol(self, agent: AgentId) -> AgentProtocol:
        return self.protocols[agent - 1]


# ---------------------------------------------------------------------------
# Filters

def filter_env_B(state: GlobalState, X_eps: frozenset, alphas) -> frozenset:
    """Causality filter: drop correct deliveries with no matching send."""
    unsent = [g for g in X_eps if isinstance(g, GRecv) and g.gmi not in state.sent]
    if not unsent:
        return X_eps
    issued = set(itertools.chain(*alphas, (
        g.performed for g in X_eps if isinstance(g, ByzAction)))) - {None}
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

def _summary(ctx: AgentContext, X_eps: frozenset) -> tuple:
    """(agents its fault events brand, the set without them, the sends
    its byzantine actions perform, its delivery templates), made once."""
    out = ctx.summaries.get(X_eps)
    if out is None:
        agents, kept, performed, templates = [], [], [], []
        for g in X_eps:
            if isinstance(g, FAULT_KINDS):
                agents.append(g.agent)
                if isinstance(g, ByzAction) and g.performed is not None:
                    performed.append(g.performed)
            else:
                kept.append(g)
                if isinstance(g, GRecv) and g.gmi is None:
                    templates.append(g)
        out = ctx.summaries[X_eps] = (
            tuple(agents), frozenset(kept) if agents else X_eps,
            frozenset(performed), tuple(templates))
    return out


def _materialize(state: GlobalState, X_eps: frozenset, templates,
                 issued) -> frozenset:
    """Resolve the delivery `templates` of `X_eps` against `issued` sends.

    A template grecv(i, j, mu) binds to the earliest matching send not yet
    delivered to i, falling back to the earliest matching send at all.
    Unresolvable templates stay unresolved and die in the causality filter.
    """
    out = set(X_eps.difference(templates))
    for g in templates:
        matches = [s for sends in issued for s in sends
                   if s.agent == g.frm and s.to == g.agent and s.msg == g.msg]
        fresh = [s for s in matches if s not in state.delivered]
        out.add(GRecv(g.agent, g.frm, g.msg, min(
            fresh or matches, key=lambda s: (s.sent_at, s.copy)))
            if matches else g)
    return frozenset(out)


# ---------------------------------------------------------------------------
# The five-phase step

def step(ctx: AgentContext, state: GlobalState, t: Timestamp,
         env_choice: frozenset, agent_choices: tuple) -> GlobalState:
    """Execute one round given the adversary's choices.  The env set and
    each agent's choice must be ones `_choice_space(ctx, state, t)`
    offers, which is the one definition of what the adversary may
    choose; `step` does not check them.  The round record reads the
    state only through its summaries, so `ctx.steps` keeps it compiled
    per (t, sent, delivered, faulty, env set, agent combo), and a
    repeated key only joins it onto the state."""
    key = (t, state.sent, state.delivered, state.faulty, env_choice,
           agent_choices)
    compiled = ctx.steps.get(key)
    if compiled is None:
        compiled = ctx.steps[key] = _compile_step(
            ctx, state, t, env_choice, agent_choices)
    return join_round(state, compiled)


def _compile_step(ctx: AgentContext, state: GlobalState, t: Timestamp,
                  env_choice: frozenset, agent_choices: tuple) -> tuple:
    """The compiled round record of `step`: labeling, delivery binding,
    both filters, then `compile_round` once per record (`ctx.records`)."""
    # Labeling, once per (agent, t, choice): each send its own identifier.
    alphas = []
    for i, X in enumerate(agent_choices, start=1):
        alpha = ctx.labels.get((i, t, X))
        if alpha is None:
            alpha = ctx.labels[i, t, X] = frozenset(
                globalize(i, t, a) for a in X)
        alphas.append(alpha)
    _, _, performed, templates = _summary(ctx, env_choice)
    alpha_eps = _materialize(state, env_choice, templates, (
        state.sent, performed, *alphas)) if templates else env_choice

    # Event filtering.
    if ctx.template == "Bf":
        beta_eps = filter_env_Bf(state, alpha_eps, alphas, ctx.f)
    else:
        beta_eps = filter_env_B(state, alpha_eps, alphas)

    # Action filtering: actions pass when go(i) was granted.
    rnd = beta_eps.union(
        *(alphas[g.agent - 1] for g in beta_eps if isinstance(g, Go)))
    compiled = ctx.records.get(rnd)
    if compiled is None:
        compiled = ctx.records[rnd] = compile_round(rnd)
    return compiled


# ---------------------------------------------------------------------------
# Exhaustive enumeration

class collector_paused:
    """Pause the cyclic garbage collector, then leave it as it was."""

    def __enter__(self):
        self.collecting = gc.isenabled()
        gc.disable()

    def __exit__(self, *exc):
        if self.collecting:
            gc.enable()


def _choice_space(ctx: AgentContext, state: GlobalState, t: Timestamp):
    """The env menu and each agent's choices, in the order their
    protocols fixed at construction; each protocol is asked once per
    history (`ctx.choices`)."""
    agent_opts = []
    for key in enumerate(state.locals, start=1):
        opts = ctx.choices.get(key)
        if opts is None:
            opts = ctx.choices[key] = ctx.protocol(key[0])(key[1])
        agent_opts.append(opts)
    return ctx.env(t), agent_opts


def future_key(t: Timestamp, state: GlobalState) -> tuple:
    """All that `step` reads of a state at time t: the protocols read
    `locals`, the filters and delivery binding read the summaries, and
    the update appends one round to `env` without reading it."""
    return (t, state.locals, state.sent, state.delivered, state.faulty)


def env_classes(ctx: AgentContext, t: Timestamp, faulty: frozenset) -> list:
    """For each choice of the env menu at t, the index of the first choice
    that steps like it from any state with these `faulty` agents.  Under
    `Bf` a choice the budget strips, or with no fault events, steps like
    its rest, but a template there binds among its byzantine sends first."""
    firsts, out = {}, []  # class key -> its first choice; choice -> first
    for k, X in enumerate(ctx.env(t)):
        key = X
        if ctx.template == "Bf":
            faults, kept, performed, templates = _summary(ctx, X)
            if not faults or len(faulty.union(faults)) > ctx.f:
                key = kept, performed if templates else None
        out.append(firsts.setdefault(key, k))
    return out


def enumerate_runs(ctx: AgentContext) -> List[Run]:
    """All transitional runs of length horizon+1, in deterministic order.

    `step` reads a state only through its `future_key`, so tree nodes
    with one key have equal subtrees up to their env prefix.  A table
    local to the call maps each key to its children, one per (env
    choice, agent combo) in menu order, each kept as (round record,
    locals, sent, delivered, faulty); only the first choice of each of
    the `env_classes` is stepped.  Children of one parent with equal
    round records are one state: the walk builds it and its subtree at
    the first of them and, at each later one, repeats the runs that
    subtree gave, sharing their `Run` objects.  So every state built is
    distinct by value, while the runs and their order are those of a
    plain walk that steps at every tree node.  `ctx.node_cap` caps the
    tree edges, repeated subtrees included.
    """
    ctx = replace(ctx)  # with step tables of its own, which die with the call
    cap = ctx.node_cap
    runs: List[Run] = []
    explored = 0
    table: Dict[tuple, list] = {}  # future key -> its children
    classes: Dict[tuple, list] = {}  # (t, faulty) -> env_classes

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
            combos = list(itertools.product(*agent_opts))
            m, children = len(combos), []
            if (t, state.faulty) not in classes:
                classes[t, state.faulty] = env_classes(ctx, t, state.faulty)
            for k, first in enumerate(classes[t, state.faulty]):
                if first < k:  # its class was stepped: share the children
                    children += children[first * m:first * m + m]
                    continue
                for combo in combos:
                    s = step(ctx, state, t, env_opts[k], combo)
                    children.append((s.env[-1], s.locals, s.sent,
                                     s.delivered, s.faulty))
            table[key] = children
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
        with collector_paused():  # the walk makes no reference cycles
            for initials in ctx.initials:
                walk([initial_state(initials)], 0)
    finally:
        # `walk` refers to itself through its closure; breaking that
        # cycle frees the table on return
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
                total += count(step(ctx, state, t, env_choice, combo), t + 1)
        return total

    return sum(count(initial_state(ins), 0) for ins in ctx.initials)


# ---------------------------------------------------------------------------
# Seeded adversary

def _pick(seed: int, t: Timestamp, point: int, n_options: int) -> int:
    if n_options == 1:  # any digest mod 1 is 0
        return 0
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
        combo = tuple(opts[_pick(seed, t, 1 + i, len(opts))]
                      for i, opts in enumerate(agent_opts))
        state = step(ctx, state, t, env_choice, combo)
        states.append(state)
    return Run(tuple(states))

