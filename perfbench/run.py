#!/usr/bin/env python3
"""byzlab benchmark: one workload, timed, checked, one JSON result line.

    python3 perfbench/run.py --workload closed|formulas|traces \
        --seed N --seconds S --trace 0|1

Run from the repository root; byzlab is imported from ./src and nothing
else.  The seed generates the workload's scenario (gen.py), which is
written as JSON under perfbench/_work/ and read back with
`load_scenario`.

A run repeats cycles of one set-up and its passes over the workload's
ops until --seconds have passed.  Set-up parts and ops are timed one by
one, and each one's latency is its fastest time over the cycles: on a
shared host the speed of the same code alternates between levels about
1.4x apart, so a median moves with the share of time spent at each
level while the fastest time of a short unit holds still (README.md has
the measurements).  `setup_s` and `confront_s` sum those latencies over
the set-up parts and over the ops; `op_p50_ms` and `op_p95_ms` are taken
across the distinct ops.

With --trace 0 the last line carries the end-to-end metrics, with
--trace 1 the per-layer metrics of a traced run (tracing.py); the line
before it is a report with the host, the failed items and the output
digest.  `attempted` and `failed` count the items of one pass (all
passes give the same outputs).  Exit status is 1 when a correctness gate
fails; failed items never change it.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import threading
import time

import gen
import workloads
from tracing import Tracer, per_layer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, "_work")
MAX_LISTED = 20


def import_byzlab():
    if not os.path.isfile(os.path.join(SRC, "byzlab", "__init__.py")):
        sys.exit(f"error: no byzlab sources under {SRC}")
    sys.path.insert(0, SRC)
    import byzlab
    if not os.path.abspath(byzlab.__file__).startswith(SRC + os.sep):
        sys.exit(f"error: byzlab imported from {byzlab.__file__}, not {SRC}")
    return byzlab


def digest(obj):
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(text.encode()).hexdigest()


class Measure:
    """Cycles of set-up plus passes over the ops, with their timings.

    Set-up parts and ops are timed one by one, keyed, in every cycle.
    """

    def __init__(self, wl, tracer=None):
        self.wl = wl
        self.tracer = tracer
        self.cycles = 0
        self.setup_s = {}
        self.op_s = {}
        self.cpu_s = []
        self.digests = set()
        self.attempted = self.failures = None
        self.state = None

    def _timed(self, times, key, span, fn, *args):
        if self.tracer:
            self.tracer.open(span, "bench")
        cpu, start = time.process_time(), time.perf_counter()
        try:
            return fn(*args)
        finally:
            times.setdefault(key, []).append(time.perf_counter() - start)
            self._cpu += time.process_time() - cpu
            if self.tracer:
                self.tracer.close()

    def cycle(self):
        wl = self.wl
        self.state = None  # release the previous cycle's state first
        self._cpu = 0.0
        state = wl.setup(lambda key, fn, *args: self._timed(
            self.setup_s, key, "setup", fn, *args))
        for _ in range(wl.passes):
            parts, attempted, failures = [], 0, []
            for key in wl.op_keys(state):
                out = self._timed(self.op_s, key, "op", wl.run_op, state, key)
                part, items, failed = wl.check_op(state, key, out)
                parts.append(part)
                attempted += items
                failures += failed
            self.digests.add(digest(parts))
        self.cpu_s.append(self._cpu)
        self.attempted, self.failures = attempted, failures
        self.cycles += 1
        self.state = state

    def run_for(self, seconds, min_cycles=2):
        end = time.perf_counter() + seconds
        while self.cycles < min_cycles or time.perf_counter() < end:
            self.cycle()

    @staticmethod
    def best(times):
        """Fastest time of each key."""
        return [min(ts) for ts in times.values()]


def end_to_end(m, peak_rss_mb):
    best = m.best(m.op_s)
    pct = statistics.quantiles(best, n=100, method="inclusive")
    return {
        "setup_s": (sum(m.best(m.setup_s)), "s"),
        "confront_s": (sum(best), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "op_p50_ms": (pct[49] * 1e3, "ms"),
        "op_p95_ms": (pct[94] * 1e3, "ms"),
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    bz = import_byzlab()

    work = os.path.join(WORK, args.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    wl = workloads.WORKLOADS[args.workload](bz, gen, args.seed, work)

    untraced = Measure(wl)
    measures = [untraced]
    if not args.trace:
        untraced.run_for(args.seconds)
    else:
        untraced.run_for(args.seconds / 2)
        untraced.state = None
        tracer = Tracer(bz)
        tracer.install()
        try:
            traced = Measure(wl, tracer)
            traced.run_for(args.seconds / 2)
        finally:
            tracer.uninstall()
        tracer.dump(os.path.join(work, "spans.json"))
        measures.append(traced)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    bad = wl.gates(measures[-1].state)
    bad += workloads.corpus_gate(bz, os.path.join(ROOT, "scenarios"))
    digests = set().union(*(m.digests for m in measures))
    if len(digests) != 1:
        bad.append(f"outputs differ between passes: {len(digests)} digests")
    if threading.active_count() != 1:
        bad.append(f"{threading.active_count()} threads running")

    e2e = end_to_end(untraced, peak_rss_mb)
    attempted, failures = untraced.attempted, untraced.failures
    if args.trace:
        metrics = per_layer(tracer, traced, untraced, wl.counts)
    else:
        metrics = e2e
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "cycles": [m.cycles for m in measures],
        "ops_per_pass": len(untraced.op_s),
        "host": {"nproc": os.cpu_count(),
                 "python": platform.python_version(),
                 "loadavg": os.getloadavg()},
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in {
            **e2e, "fail_share": (len(failures) / max(attempted, 1), "ratio"),
            "process.cpu_s": (statistics.median(untraced.cpu_s), "s"),
        }.items()},
        "attempted": attempted, "failed": len(failures),
        "failures": failures[:MAX_LISTED],
        "digest": sorted(digests), "gate_violations": bad,
    }))
    print(json.dumps({
        "correct": not bad, "attempted": attempted, "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
