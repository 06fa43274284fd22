"""The three benchmark workloads and the correctness gates they share.

A workload has

    passes                     passes over the ops per set-up
    setup(timed)               -> state     each part run through `timed`
    op_keys(state)             -> keys      one timed op per key
    run_op(state, key)         -> output    timed
    check_op(state, key, out)  -> (digest part, items attempted, failures)
    gates(state)               -> violations, run once after timing
    counts                     byzlab output counts, complete after gates

`timed(key, fn, *args)` calls `fn(*args)` and records its time under
`key`; the set-up time is the sum over its parts.  `check_op` is
untimed.  An item is one verdict in `closed` and one op elsewhere; each
failure description marks a failed item: a refuted verdict, a detector
exception or a trace round-trip mismatch.  Failures are counted and
listed but never stop the run; a gate violation makes the run
incorrect.  Every call into byzlab goes through its module attributes
(`bz.engine.enumerate_runs`, ...), so the wrappers of tracing.py see it.
"""

import collections
import hashlib
import json
import os

# Verdicts per corpus scenario; the oracle must confirm every one.
CORPUS = {
    "s01_quiet": 0, "s02_obvious": 2, "s03_self_notify": 3,
    "s04_two_chains": 6, "s05_relay": 3, "s06_two_byz": 5, "s07_sleep": 0,
    "s08_delivery_race": 0, "s09_fake_delivery": 1, "s10_one_chain": 3,
    "s11_occurrence": 0, "s12_two_provenances": 7, "s13_group_tag": 0,
    "s14_loop_chain": 5,
}


def _write_json(path, doc):
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)


def _faulty_claim(bz, i, j):
    return bz.formulas.Believe(i, bz.formulas.Atom(bz.atoms.Faulty(j)))


def confront(bz, sc, system):
    """Every believed-faulty verdict of every distinct history, checked
    with the oracle: a list of (agent, suspect, point, confirmed)."""
    ctx = sc.ctx
    verdicts = []
    for i in range(1, ctx.n + 1):
        for h, pts in system.agent_classes(i).items():
            rep = bz.detect.belief_who_is_faulty(bz.detect.DetectionInput(
                h, i, ctx.f, ctx.protocols, sc.trust))
            for j in sorted(rep.faulty):
                [(_, ok)], _ = system.check(_faulty_claim(bz, i, j), pts[0])
                verdicts.append((i, j, pts[0], ok))
    return verdicts


def oracle_counts(system, n):
    points = len(system.runs) * (system.horizon + 1)
    histories = sum(len(system.agent_classes(i)) for i in range(1, n + 1))
    return {"oracle.points": points, "oracle.histories": histories,
            "oracle.points_per_history": points * n / histories}


def tree_gate(bz, sc, runs):
    """Enumeration agrees with an independent count of the choice tree."""
    leaves = bz.engine.count_choice_tree(sc.ctx)
    if leaves != runs:
        return [f"enumerate_runs gave {runs} runs, "
                f"count_choice_tree {leaves}"]
    return []


def corpus_gate(bz, scenario_dir):
    """The committed corpus: its verdicts, all confirmed by the oracle."""
    bad = []
    for name, expected in sorted(CORPUS.items()):
        sc = bz.scenario.load_scenario(
            os.path.join(scenario_dir, name + ".json"), name=name)
        system = bz.oracle.InterpretedSystem(bz.engine.enumerate_runs(sc.ctx))
        verdicts = confront(bz, sc, system)
        refuted = sum(not ok for *_, ok in verdicts)
        if (len(verdicts), refuted) != (expected, 0):
            bad.append(f"corpus {name}: {len(verdicts)} verdicts, {refuted} "
                       f"refuted; expected {expected}, 0")
    return bad


class Closed:
    """Enumerate closed-menu systems and confront every verdict."""

    passes = 1

    def __init__(self, bz, gen, seed, work):
        self.bz = bz
        self.paths = []
        for k, doc in enumerate(gen.closed(seed)):
            self.paths.append(os.path.join(work, f"closed{k}.json"))
            _write_json(self.paths[-1], doc)
        self.op_counts = {}
        self.run_counts = {}

    def setup(self, timed):
        return [timed(("load", k), self.bz.scenario.load_scenario, path,
                      f"closed{k}")
                for k, path in enumerate(self.paths)]

    def op_keys(self, scs):
        return range(len(scs))

    def run_op(self, scs, key):
        runs = self.bz.engine.enumerate_runs(scs[key].ctx)
        system = self.bz.oracle.InterpretedSystem(runs)
        return system, confront(self.bz, scs[key], system)

    def check_op(self, scs, key, out):
        system, verdicts = out
        refuted = [v for v in verdicts if not v[3]]
        self.op_counts[key] = {**oracle_counts(system, scs[key].ctx.n),
                               "confront.verdicts": len(verdicts),
                               "confront.refuted": len(refuted)}
        self.run_counts[key] = len(system.runs)
        failures = [f"closed{key}: agent {i} believes {j} faulty at run "
                    f"{p[0]} t={p[1]}; the oracle refutes it"
                    for i, j, p, _ in refuted]
        return verdicts, len(verdicts), failures

    @property
    def counts(self):
        """Sums over the systems of one pass; the ratio is their mean."""
        total = collections.Counter()
        for counts in self.op_counts.values():
            total.update(counts)
        if self.op_counts:
            total["oracle.points_per_history"] /= len(self.op_counts)
        return dict(total)

    def gates(self, scs):
        return [bad for k, sc in enumerate(scs)
                for bad in tree_gate(self.bz, sc, self.run_counts[k])]


class Formulas:
    """Model-check formulas at every point of an enumerated system."""

    passes = 1  # a second pass on one system would hit the oracle's memo

    def __init__(self, bz, gen, seed, work):
        self.bz = bz
        self.path = os.path.join(work, "formulas.json")
        doc, self.texts = gen.formulas(seed)
        _write_json(self.path, doc)
        self.phis = [bz.formulas.parse_formula(t, n=doc["agents"])
                     for t in self.texts]
        self.counts = {}

    def setup(self, timed):
        bz = self.bz
        sc = timed("load", bz.scenario.load_scenario, self.path, "formulas")
        runs = timed("enumerate", bz.engine.enumerate_runs, sc.ctx)
        return sc, runs, bz.oracle.InterpretedSystem(runs)

    def op_keys(self, state):
        return range(len(self.phis))

    def run_op(self, state, key):
        verdicts, _ = state[2].check(self.phis[key])
        return verdicts

    def check_op(self, state, key, verdicts):
        bits = "".join("1" if v else "0" for _, v in verdicts)
        part = (self.texts[key], bits.count("1"),
                hashlib.sha256(bits.encode()).hexdigest())
        return part, 1, []

    def gates(self, state):
        bz = self.bz
        sc, runs, system = state
        self.counts = oracle_counts(system, sc.ctx.n)
        bad = tree_gate(bz, sc, len(runs))
        # K and B verdicts are constant on the agent's classes; K is factive.
        for text, phi in zip(self.texts, self.phis):
            if not isinstance(phi, (bz.formulas.Know, bz.formulas.Believe)):
                continue
            for pts in system.agent_classes(phi.agent).values():
                values = {system.eval(p, phi) for p in pts}
                if len(values) > 1:
                    bad.append(f"{text}: differs inside one class")
                    break
                if isinstance(phi, bz.formulas.Know) and values == {True} \
                        and not all(system.eval(p, phi.sub) for p in pts):
                    bad.append(f"{text}: known but false")
                    break
        return bad


class Traces:
    """Record seeded runs as traces, then run the detectors on each file."""

    passes = 2  # the ops are cheap beside set-up; time each one twice

    def __init__(self, bz, gen, seed, work):
        self.bz = bz
        self.path = os.path.join(work, "traces.json")
        doc, self.seeds, queries = gen.traces(seed)
        _write_json(self.path, doc)
        self.queries = [(bz.haps.External(ev), k) for ev, k in queries]
        self.files = [os.path.join(work, f"run{k:03d}.trace")
                      for k in range(len(self.seeds))]
        self.counts = {}

    def setup(self, timed):
        sc = timed("load", self.bz.scenario.load_scenario, self.path,
                   "traces")
        runs = [timed(("record", k), self._record, sc.ctx, seed, path)
                for k, (seed, path) in enumerate(zip(self.seeds, self.files))]
        return sc, runs

    def _record(self, ctx, seed, path):
        run = self.bz.engine.seeded_run(ctx, seed)
        self.bz.trace.write_trace(path, run, "traces", seed)
        return run

    def op_keys(self, state):
        return range(len(self.files))

    def run_op(self, state, key):
        """What `byzlab detect --query` does with one trace file."""
        bz = self.bz
        ctx, trust = state[0].ctx, state[0].trust
        run, _ = bz.trace.read_trace(self.files[key])
        results = []
        for i in range(1, ctx.n + 1):
            h = run.local(i, run.horizon)
            try:
                bel = bz.detect.belief_who_is_faulty(bz.detect.DetectionInput(
                    h, i, ctx.f, ctx.protocols, trust))
                answers = [bz.detect.group_occurrence_belief(
                    h, i, o, k, ctx.f, bel.faulty, trust, ctx.n)
                    for o, k in self.queries]
                results.append((i, sorted(bel.faulty), answers))
            except Exception as e:  # a detector failure is a failed op
                results.append((i, "error", f"{type(e).__name__}: {e}"))
        return run, results

    def check_op(self, state, key, out):
        run, results = out
        problems = [f"agent {i}: {msg}" for i, tag, msg in results
                    if tag == "error"]
        if run != state[1][key]:
            problems.append("read_trace does not reproduce the written run")
        failures = [f"trace {key} (adversary seed {self.seeds[key]}): "
                    + "; ".join(problems)] if problems else []
        with open(self.files[key], "rb") as fh:
            part = (hashlib.sha256(fh.read()).hexdigest(), results)
        return part, 1, failures

    def gates(self, state):
        return []


WORKLOADS = {"closed": Closed, "formulas": Formulas, "traces": Traces}
