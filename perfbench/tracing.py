"""Spans and counters installed around byzlab's public functions.

Nothing here is imported by byzlab itself: `Tracer.install` swaps the
module and class attributes that byzlab code looks up at call time for
wrappers, and `uninstall` puts the originals back.

Layer-entry calls get spans [name, layer, parent index, start, end].  A
call made from inside a span of its own layer is internal to that layer
(the oracle's `check` asking for `agent_classes`), so it is counted but
gets no span.  Hot inner calls get counters only; `step` and
`max_disjoint` also add up their inclusive time.  Spans stay in memory
until `dump`.  A layer's self time is the time of its spans not covered
by their child spans; the benchmark's own "setup" and "op" spans form
the `bench` layer.
"""

import collections
import functools
import json
import statistics
import time

# (module[.class], attribute, span name, layer, tally counter or None)
SPANS = [
    ("scenario", "load_scenario", "load_scenario", "scenario", None),
    ("engine", "enumerate_runs", "enumerate_runs", "engine", "engine.runs"),
    ("engine", "seeded_run", "seeded_run", "engine", None),
    ("oracle.InterpretedSystem", "agent_classes", "agent_classes", "oracle",
     None),
    ("oracle.InterpretedSystem", "check", "check", "oracle", None),
    ("detect", "belief_who_is_faulty", "belief_who_is_faulty", "detect",
     "detect.iterations"),
    ("detect", "group_occurrence_belief", "group_occurrence_belief",
     "detect", None),
    ("trace", "read_trace", "read_trace", "trace", None),
    ("trace", "write_trace", "write_trace", "trace", None),
]

# (module[.class], attribute, counter, add up time?, tally counter or None).
# Functions imported by name are wrapped where the caller looks them up.
COUNTERS = [
    ("engine", "step", "engine.step_calls", True, None),
    ("engine", "filter_env_B", "engine.filter_calls", False, None),
    ("engine", "filter_env_Bf", "engine.filter_calls", False, None),
    ("protocols.AgentProtocol", "__call__", "protocols.calls", False, None),
    ("detect", "self_check_faulty", "protocols.self_check_calls", False,
     None),
    ("scenario", "close_menu", "protocols.close_menu_calls", False,
     "protocols.close_menu_sets"),
    ("oracle.InterpretedSystem", "eval", "oracle.eval_calls", False, None),
    ("oracle", "eval_atom", "atoms.eval_calls", False, None),
    ("detect", "extract_chains", "chains.extract_calls", False, None),
    ("detect", "max_disjoint", "chains.pack_calls", True, None),
    ("chains", "max_disjoint", "chains.pack_calls", True, None),
]

TALLY = {
    "engine.runs": len,
    "detect.iterations": lambda report: report.iterations,
    "protocols.close_menu_sets": len,
}

LAYERS = ("bench", "scenario", "engine", "oracle", "detect", "trace")


class Tracer:
    def __init__(self, package):
        self.package = package
        self.spans = []    # [name, layer, parent index or None, start, end]
        self.stack = []    # indices of the open spans
        self.counts = collections.Counter()
        self.times = collections.Counter()
        self._undo = []

    # -- spans ---------------------------------------------------------------

    def open(self, name, layer):
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, layer, parent, time.perf_counter(), None])
        self.stack.append(len(self.spans) - 1)

    def close(self):
        self.spans[self.stack.pop()][4] = time.perf_counter()

    def _spanned(self, fn, name, layer, tally):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.stack and self.spans[self.stack[-1]][1] == layer:
                return fn(*args, **kwargs)
            self.open(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close()
            if tally:
                self.counts[tally] += TALLY[tally](result)
            return result
        return wrapper

    def _counted(self, fn, name, timed, tally):
        counts, times = self.counts, self.times

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            if not timed:
                result = fn(*args, **kwargs)
            else:
                start = time.perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    times[name] += time.perf_counter() - start
            if tally:
                counts[tally] += TALLY[tally](result)
            return result
        return wrapper

    # -- installation --------------------------------------------------------

    def install(self):
        for dotted, attr, name, layer, tally in SPANS:
            self._swap(dotted, attr, self._spanned(
                self._original(dotted, attr), name, layer, tally))
        for dotted, attr, name, timed, tally in COUNTERS:
            self._swap(dotted, attr, self._counted(
                self._original(dotted, attr), name, timed, tally))

    def _target(self, dotted):
        mod, _, cls = dotted.partition(".")
        obj = getattr(self.package, mod)
        return getattr(obj, cls) if cls else obj

    def _original(self, dotted, attr):
        return self._target(dotted).__dict__[attr]

    def _swap(self, dotted, attr, wrapper):
        obj = self._target(dotted)
        self._undo.append((obj, attr, obj.__dict__[attr]))
        setattr(obj, attr, wrapper)

    def uninstall(self):
        while self._undo:
            obj, attr, original = self._undo.pop()
            setattr(obj, attr, original)

    # -- summaries -----------------------------------------------------------

    def span_totals(self):
        """Inclusive seconds and call count per span name."""
        secs, calls = collections.Counter(), collections.Counter()
        for name, _, _, start, end in self.spans:
            secs[name] += end - start
            calls[name] += 1
        return secs, calls

    def self_times(self, within=None):
        """Seconds per layer not covered by child spans; with `within`,
        only inside spans of that name."""
        child = collections.Counter()
        for _, _, parent, start, end in self.spans:
            if parent is not None:
                child[parent] += end - start
        inside = set()
        out = collections.Counter()
        for idx, (name, layer, parent, start, end) in enumerate(self.spans):
            if within is None or name == within or parent in inside:
                inside.add(idx)
                out[layer] += end - start - child[idx]
        return out

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "layer", "parent", "start", "end"],
                       "spans": self.spans, "counts": dict(self.counts),
                       "times": dict(self.times)}, fh)


# Per-layer metric -> unit.  Values are per cycle (one set-up plus one
# pass); the end-to-end metric each should move is in README.md.
PER_LAYER = {
    "scenario.load_s": "s", "protocols.close_menu_sets": "count",
    "engine.enumerate_s": "s", "engine.runs": "count",
    "engine.step_calls": "count", "engine.step_s": "s",
    "engine.filter_calls": "count", "engine.seeded_run_s": "s",
    "trace.write_s": "s", "protocols.calls": "count",
    "protocols.self_check_calls": "count",
    "oracle.classes_s": "s", "oracle.points": "count",
    "oracle.histories": "count", "oracle.points_per_history": "ratio",
    "oracle.check_s": "s", "oracle.eval_calls": "count",
    "atoms.eval_calls": "count",
    "detect.fixpoint_s": "s", "detect.fixpoint_calls": "count",
    "detect.iterations": "count", "detect.occurrence_s": "s",
    "chains.extract_calls": "count", "chains.pack_calls": "count",
    "chains.pack_s": "s", "trace.read_s": "s",
    "confront.verdicts": "count", "confront.refuted": "count",
    "process.cpu_s": "s",
    **{f"self.{layer}_s": "s" for layer in LAYERS},
    **{f"op.{layer}_share": "ratio" for layer in LAYERS},
    "tracing.spans": "count", "tracing.overhead": "ratio",
}

SPAN_METRICS = {
    "scenario.load_s": "load_scenario", "engine.enumerate_s": "enumerate_runs",
    "engine.seeded_run_s": "seeded_run", "trace.write_s": "write_trace",
    "trace.read_s": "read_trace", "oracle.classes_s": "agent_classes",
    "oracle.check_s": "check", "detect.fixpoint_s": "belief_who_is_faulty",
    "detect.occurrence_s": "group_occurrence_belief",
}


def per_layer(tracer, traced, untraced, counts):
    """Per-layer metrics of the traced cycles, as name -> (value, unit).

    `counts` holds the workload's own counts read from byzlab's outputs;
    `process.cpu_s` and the tracing overhead come from the untraced run.
    """
    cycles = traced.cycles
    secs, calls = tracer.span_totals()
    out = {name: secs[span] / cycles for name, span in SPAN_METRICS.items()}
    out.update({name: n / cycles for name, n in tracer.counts.items()})
    out["engine.step_s"] = tracer.times["engine.step_calls"] / cycles
    out["chains.pack_s"] = tracer.times["chains.pack_calls"] / cycles
    out["detect.fixpoint_calls"] = calls["belief_who_is_faulty"] / cycles
    out.update(counts)
    out["process.cpu_s"] = statistics.median(untraced.cpu_s)
    for layer, sec in tracer.self_times().items():
        out[f"self.{layer}_s"] = sec / cycles
    for layer, sec in tracer.self_times(within="op").items():
        out[f"op.{layer}_share"] = sec / secs["op"]
    out["tracing.spans"] = len(tracer.spans) / cycles
    out["tracing.overhead"] = \
        sum(traced.best(traced.op_s)) / sum(untraced.best(untraced.op_s)) - 1
    return {name: (out.get(name, 0), unit) for name, unit in PER_LAYER.items()}
