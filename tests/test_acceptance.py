"""Acceptance gate: one test per headline guarantee, each printing a
single PASS/FAIL line straight to the terminal (capture is suspended
for just that line, so plain `pytest -v` shows all twelve verdicts).

The suite is the whole scenario corpus; detectors always run on bare
local histories while the oracle sees the full enumerated system, so
every check here compares an agent-side claim against ground truth it
never had access to.
"""

import itertools
import random
import time

import pytest

from byzlab.atoms import Correct, Faulty, Init, Occurred, OccurredCorrectly
from byzlab.chains import extract_chains, max_disjoint, threshold_witness
from byzlab.detect import (
    DetectionInput, belief_who_is_faulty, cross_check, group_occurrence_belief,
)
from byzlab.engine import enumerate_runs, seeded_run
from byzlab.formulas import (
    Always, And, Atom, Believe, Hope, Implies, Know, Or,
    group_occurrence_formula, is_syntactically_persistent, nested_hope,
)
from byzlab.haps import External, Recv
from byzlab.scenario import load_scenario
from byzlab.trace import trace_lines
from tests.conftest import (pairwise_disjoint, scenario_path, shorten_chain,
                            verify_persistent)


_CAPMAN = None


@pytest.fixture(autouse=True)
def _verdict_channel(request):
    # remember the capture manager so verdict() can print uncaptured
    global _CAPMAN
    _CAPMAN = request.config.pluginmanager.getplugin("capturemanager")
    yield


def verdict(num, label, violations):
    line = "PASS" if not violations else "FAIL"
    detail = "" if not violations else f" ({len(violations)} violations, first: {violations[0]})"
    text = f"[criterion {num:2d}] {line}: {label}{detail}"
    if _CAPMAN is not None:
        with _CAPMAN.global_and_fixture_disabled():
            print(f"\n{text}", flush=True)
    else:
        print(text)
    assert not violations, f"criterion {num}: {violations[:5]}"


def detection_reports(suite):
    """(name, i, history) -> report, deduplicated across points."""
    out = {}
    for name, (sc, runs, sysm) in suite.items():
        for i in range(1, sc.ctx.n + 1):
            for h in sysm.agent_classes(i):
                out[(name, i, h)] = belief_who_is_faulty(DetectionInput(
                    h, i, sc.ctx.f, sc.ctx.protocols, sc.trust))
    return out


@pytest.fixture(scope="module")
def reports(suite):
    return detection_reports(suite)


def test_01_detection_soundness(suite):
    start = time.monotonic()
    bad = [(name, i, p, ell)
           for name, (sc, runs, sysm) in suite.items()
           for i, ell, p, confirmed in cross_check(sc, sysm) if not confirmed]
    elapsed = time.monotonic() - start
    assert elapsed < 300
    verdict(1, "every believed-faulty verdict holds as belief in the oracle",
            bad)


def test_02_cap_at_correct_points(suite, reports):
    bad = []
    for name, (sc, runs, sysm) in suite.items():
        for i in range(1, sc.ctx.n + 1):
            for h, pts in sysm.agent_classes(i).items():
                rep = reports[(name, i, h)]
                for p in pts:
                    if sysm.eval(p, Atom(Correct(i))) and len(rep.faulty) > sc.ctx.f:
                        bad.append((name, i, p, sorted(rep.faulty)))
    verdict(2, "correct agents never believe more than f agents faulty", bad)


def test_03_fixpoint_terminates_quickly(suite, reports):
    bad = [(name, i, rep.iterations)
           for (name, i, _), rep in reports.items()
           if rep.iterations > suite[name][0].ctx.n + 1]
    verdict(3, "fixpoint outer loop bounded by n + 1 everywhere", bad)


def random_persistent_formula(rng, depth=2):
    if depth == 0 or rng.random() < 0.3:
        # timed atoms are undefined before their timestamp, so only
        # the untimed base atoms can be checked across every point
        return rng.choice([
            Atom(Faulty(rng.randint(1, 3))),
            Atom(OccurredCorrectly(External(rng.choice(["blast", "e"])))),
            Atom(Occurred(Recv(rng.randint(1, 3), rng.choice(["m", "bogus"])),
                          rng.randint(1, 3))),
            Atom(Init(rng.randint(1, 3), "s")),
        ])
    sub = random_persistent_formula(rng, depth - 1)
    kind = rng.randrange(7)
    agent = rng.randint(1, 3)
    if kind == 0:
        return Know(agent, sub)
    if kind == 1:
        return Believe(agent, sub)
    if kind == 2:
        return Hope(agent, sub)
    if kind == 3:
        return And(sub, random_persistent_formula(rng, depth - 1))
    if kind == 4:
        return Or(sub, random_persistent_formula(rng, depth - 1))
    if kind == 5:
        return Implies(Atom(Correct(agent)), sub)
    return Always(sub)


def test_04_persistence_of_grammar_formulas(suite):
    rng = random.Random(20260826)
    formulas = []
    while len(formulas) < 50:
        phi = random_persistent_formula(rng)
        assert is_syntactically_persistent(phi)
        formulas.append(phi)
    bad = []
    for name, (sc, runs, sysm) in suite.items():
        for phi in formulas:
            ok, witness = verify_persistent(sysm, phi)
            if not ok:
                bad.append((name, phi, witness))
    verdict(4, "50 random grammar formulas persist in every system", bad)


def test_05_trustworthy_receipts(suite):
    bad = []
    receipts = 0
    for name, (sc, runs, sysm) in suite.items():
        if not sc.trust.entries:
            continue
        if sysm.verify_trust_table(sc.trust, sc.ctx.protocols):
            bad.append((name, "trust table itself unverified"))
            continue
        for (j, i, msg), (phi, chain) in sorted(sc.trust.entries.items()):
            claim = Believe(i, nested_hope((j,) + tuple(chain), phi))
            for h, pts in sysm.agent_classes(i).items():
                if Recv(j, msg) in h:
                    receipts += 1
                    if not sysm.eval(pts[0], claim):
                        bad.append((name, i, j, msg, pts[0]))
    assert receipts > 0
    verdict(5, "every trustworthy receipt yields belief in the hoped formula",
            bad)


def test_06_chain_soundness_and_shortening(suite):
    bad = []
    looped = 0
    for name, (sc, runs, sysm) in suite.items():
        for i in range(1, sc.ctx.n + 1):
            for h, pts in sysm.agent_classes(i).items():
                for phi, chains in extract_chains(h, i, sc.trust):
                    for sigma in sorted(chains):
                        if not sysm.eval(pts[0],
                                         Believe(i, nested_hope(sigma, phi))):
                            bad.append((name, i, sigma, "unsound"))
                        if len(set(sigma)) != len(sigma):
                            looped += 1
                            short = shorten_chain(sigma)
                            if not sysm.eval(
                                    pts[0], Believe(i, nested_hope(short, phi))):
                                bad.append((name, i, sigma, short, "shortening"))
    assert looped > 0, "no looped chain in the corpus; shortening untested"
    verdict(6, "extracted chains certify nested hope; loops shorten safely",
            bad)


def test_07_threshold_packing(suite, reports):
    bad = []
    fired = 0
    for name, (sc, runs, sysm) in suite.items():
        refuted = {(i, p) for i, _, p, confirmed in cross_check(sc, sysm)
                   if not confirmed}
        for i in range(1, sc.ctx.n + 1):
            for h, pts in sysm.agent_classes(i).items():
                rep = reports[(name, i, h)]
                F = rep.faulty
                if len(F) > sc.ctx.f:
                    continue
                # only oracle-verified F feeds the threshold rule
                if (i, pts[0]) in refuted:
                    continue
                for phi, chains in extract_chains(h, i, sc.trust):
                    if threshold_witness(chains, F, sc.ctx.f) is not None:
                        fired += 1
                        if not sysm.eval(pts[0], Believe(i, phi)):
                            bad.append((name, i, phi, pts[0]))
    assert fired > 0
    verdict(7, "clearing the f - |F| packing threshold yields belief", bad)


def test_08_group_occurrence(suite, reports):
    bad = []
    confirmed = 0
    o = External("blast")
    for name in ("s11_occurrence", "s13_group_tag"):
        sc, runs, sysm = suite[name]
        n, f = sc.ctx.n, sc.ctx.f
        for i in range(1, n + 1):
            for h, pts in sysm.agent_classes(i).items():
                rep = reports[(name, i, h)]
                F = rep.faulty
                for k in (1, 2):
                    if k + f > n:
                        continue
                    for include_self in (False, True):
                        if not group_occurrence_belief(
                                h, i, o, k, f, F, sc.trust, n,
                                include_self=include_self):
                            continue
                        confirmed += 1
                        claim = Believe(
                            i, group_occurrence_formula(n, k, o))
                        if not sysm.eval(pts[0], claim):
                            bad.append((name, i, k, include_self, pts[0]))
    assert confirmed > 0
    verdict(8, "group occurrence verdicts for k in {1,2} oracle-confirmed",
            bad)


def test_09_local_knowledge(suite):
    bad = []
    for name, (sc, runs, sysm) in suite.items():
        for i in range(1, sc.ctx.n + 1):
            for h, pts in sysm.agent_classes(i).items():
                for rnd in h.rounds:
                    for o in rnd:
                        if not sysm.eval(pts[0], Know(i, Atom(Occurred(o, i)))):
                            bad.append((name, i, o, pts[0]))
    verdict(9, "recorded haps are known occurrences", bad)


def test_10_packing_equivalence():
    rng = random.Random(11)
    start = time.monotonic()
    bad = []
    for trial in range(200):
        size = rng.randint(0, 12)
        chains = frozenset(
            tuple(rng.sample(range(1, 10), rng.randint(1, 3)))
            for _ in range(size))
        card, witness = max_disjoint(chains)
        best = 0
        pool = sorted(chains)
        for mask in range(1 << len(pool)):
            picked = [pool[b] for b in range(len(pool)) if mask >> b & 1]
            if len(picked) > best and pairwise_disjoint(picked):
                best = len(picked)
        if card != best or not pairwise_disjoint(witness):
            bad.append((trial, chains, card, best))
    elapsed = time.monotonic() - start
    assert elapsed < 60
    verdict(10, "exact packing matches 2^|sigma| enumeration on 200 sets", bad)


def test_11_determinism(suite):
    bad = []
    for name, (sc, runs, sysm) in suite.items():
        sc2 = load_scenario(scenario_path(name), name=name)
        for seed in (0, 1, 17):
            a = "\n".join(trace_lines(seeded_run(sc.ctx, seed), name, seed))
            b = "\n".join(trace_lines(seeded_run(sc2.ctx, seed), name, seed))
            if a != b:
                bad.append((name, seed, "seeded trace differs"))
        again = enumerate_runs(sc2.ctx)
        if [r.states for r in again] != [r.states for r in runs]:
            bad.append((name, "enumeration order differs"))
    verdict(11, "identical seeds give byte-identical traces; "
            "enumeration is order-stable", bad)


def test_12_fixpoint_confluence(suite, reports):
    bad = []
    for name, (sc, runs, sysm) in suite.items():
        if sc.ctx.n > 4:
            continue
        agents = range(1, sc.ctx.n + 1)
        for i in agents:
            for h in sysm.agent_classes(i):
                inp = DetectionInput(h, i, sc.ctx.f, sc.ctx.protocols, sc.trust)
                expected = reports[(name, i, h)].faulty
                for order in itertools.permutations(agents):
                    got = belief_who_is_faulty(inp, order=order).faulty
                    if got != expected:
                        bad.append((name, i, order, got, expected))
                        break
    verdict(12, "final F independent of the iteration order over agents", bad)
