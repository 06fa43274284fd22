import importlib.util
import json
import os
import resource
import subprocess
import sys
import time

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import byzlab
from byzlab import cli
from byzlab.chains import MAX_PACKING_INPUT
from byzlab.cli import main
from byzlab.engine import count_choice_tree, seeded_run
from byzlab.formulas import MAX_DEPTH
from byzlab.scenario import MAX_HORIZON, load_scenario, scenario_from_json
from byzlab.serial import InputError
from byzlab.trace import read_trace, trace_lines
from tests.conftest import SCENARIO_NAMES, scenario_path


def minimal_doc(**over):
    doc = {
        "agents": 2, "f": 0, "horizon": 1,
        "initial_states": [["a", "b"]],
        "env_protocol": {"menus": [{"sets": [[["go", 1]]]}]},
    }
    doc.update(over)
    return doc


def test_corpus_loads():
    for name in SCENARIO_NAMES:
        sc = load_scenario(scenario_path(name), name=name)
        assert sc.ctx.n >= 3 and sc.ctx.horizon >= 1


def test_scenario_errors_carry_locations(tmp_path):
    cases = [
        ({"agents": 0}, "agents"),
        (minimal_doc(f=5), "f"),
        (minimal_doc(template="X"), "template"),
        (minimal_doc(horizon=0), "horizon"),
        (minimal_doc(initial_states=[["a"]]), "initial_states[0]"),
        (minimal_doc(env_protocol={"menus": [
            {"sets": [[["go", 7]]]}]}), "env_protocol.menus[0].sets[0]"),
        (minimal_doc(env_protocol={"menus": [
            {"sets": [[["go", 1], ["sleep", 1]]]}]}), "menus[0].sets[0]"),
        (minimal_doc(trust_table=[{"from": 1, "to": 2, "msg": "m",
                                   "formula": "!!bad("}]), "formula"),
        (minimal_doc(trust_table=[{"from": 1, "to": 2, "msg": "m",
                                   "formula": "correct(1)"}]), "trust_table"),
        # a correct send comes from a protocol, never from a menu
        (minimal_doc(env_protocol={"menus": [
            {"sets": [[["go", 1], ["gsend", 1, 2, "m", 0, None]]]}]}),
         "env_protocol.menus[0].sets[0]"),
        (minimal_doc(agent_protocols={"1": [
            {"guard": ["always"], "choices": [[["send", 2, "m"]],
                                              [["ext", "e"]]]}]}),
         "agent_protocols.1[0].choices[1]"),
    ]
    for doc, needle in cases:
        with pytest.raises(InputError) as exc:
            scenario_from_json(doc, "test")
        assert needle in str(exc.value), doc


def _relay_choice(doc):
    doc["agent_protocols"]["2"][0]["choices"] = [[["zzz", 2]]]


def _relay_choice_agent(doc):
    doc["agent_protocols"]["2"][0]["choices"] = [[["send", 9, "m", 0]]]


def _relay_observed_agent(doc):
    doc["agent_protocols"]["2"][0]["guard"] = ["observed", ["recv", 9, "m"]]


def _relay_received_agent(doc):
    doc["agent_protocols"]["2"][0]["guard"] = ["received", 9, "bogus"]


def _relay_sent_agent(doc):
    doc["agent_protocols"]["2"][0]["guard"] = \
        ["not", ["sent", "x", "a24"]]


def _relay_menu_hap(doc):
    doc["env_protocol"]["menus"][1]["sets"][0] = [["go", "x"]]


def _relay_menu_hap_object(doc):
    doc["env_protocol"]["menus"][1]["sets"][0] = [{"go": 2}]


def _relay_protocol_list(doc):
    doc["agent_protocols"] = [doc["agent_protocols"]["2"]]


def _relay_short_guard(doc):
    doc["agent_protocols"]["2"][0]["guard"] = ["received"]


def _relay_no_formula(doc):
    del doc["trust_table"][0]["formula"]


def _relay_byz_sender(doc):
    doc["env_protocol"]["menus"][0]["sets"][0][0] = \
        ["byz_action", 4, ["gsend", 9, 2, "bogus", 0, None], None]


def _relay_byz_performs_go(doc):
    doc["env_protocol"]["menus"][0]["sets"][0][0] = \
        ["byz_action", 4, ["go", 4], None]


def _relay_fake_recv_sender(doc):
    doc["env_protocol"]["menus"][1]["sets"][1] = \
        [["byz_event", 3, ["grecv", 3, 9, "a24", None]]]


def _relay_recv_sender(doc):
    doc["env_protocol"]["menus"][2]["sets"][0][1] = ["grecv", 1, 0, "a34", None]


def _relay_env_list(doc):
    doc["env_protocol"] = []


def _relay_menus_object(doc):
    doc["env_protocol"]["menus"] = {}


def _relay_menu_list(doc):
    doc["env_protocol"]["menus"][0] = []


def _relay_caps_list(doc):
    doc["caps"] = []


def _relay_adversary_list(doc):
    doc["adversary"] = []


def _put(*path, value):
    """A mutation that sets the node at `path` of the document to `value`."""
    def mutate(doc):
        for key in path[:-1]:
            doc = doc[key]
        doc[path[-1]] = value
    return mutate


_GUARD = ("agent_protocols", "2", 0, "guard")


@pytest.mark.parametrize("mutate, where", [
    (_relay_choice, "agent_protocols.2[0].choices[0]"),
    (_relay_choice_agent, "agent_protocols.2[0].choices[0]"),
    (_relay_observed_agent, "agent_protocols.2[0].guard"),
    (_relay_received_agent, "agent_protocols.2[0].guard"),
    (_relay_sent_agent, "agent_protocols.2[0].guard"),
    (_relay_menu_hap, "env_protocol.menus[1].sets[0]"),
    (_relay_menu_hap_object, "env_protocol.menus[1].sets[0]"),
    (_relay_protocol_list, "agent_protocols"),
    (_relay_short_guard, "agent_protocols.2[0].guard"),
    (_relay_no_formula, "trust_table[0].formula"),
    (_relay_byz_sender, "env_protocol.menus[0].sets[0]"),
    (_relay_byz_performs_go, "env_protocol.menus[0].sets[0]"),
    (_relay_fake_recv_sender, "env_protocol.menus[1].sets[1]"),
    (_relay_recv_sender, "env_protocol.menus[2].sets[0]"),
    (_relay_env_list, "env_protocol"),
    (_relay_menus_object, "env_protocol.menus"),
    (_relay_menu_list, "env_protocol.menus[0]"),
    (_relay_caps_list, "caps"),
    (_relay_adversary_list, "adversary"),
    (_put("env_protocol", "menus", 1, "sets", value=5),
     "env_protocol.menus[1].sets"),
    (_put("trust_table", value=5), "trust_table"),
    (_put("trust_table", 1, "chain", value=5), "trust_table[1].chain"),
    (_put(*_GUARD, value=["active_at_least", "x"]),
     "agent_protocols.2[0].guard"),
    (_put("trust_table", 0, "msg", value=["a24"]), "trust_table[0].msg"),
    (_put(*_GUARD, value=["initial", ["s"]]), "agent_protocols.2[0].guard"),
    (_put(*_GUARD, value=["received", 4, 7]), "agent_protocols.2[0].guard"),
    (_put(*_GUARD, value=["sent", 3, None]), "agent_protocols.2[0].guard"),
    (_put("env_protocol", "menus", 0, "close", value="no"),
     "env_protocol.menus[0].close"),
    (_put("agents", value=True), "agents"),
    (_put("horizon", value=True), "horizon"),
    (_put("adversary", "seed", value=True), "adversary.seed"),
    (_put("agent_protocols", "9", value=[]), "agent_protocols.9"),
    (_put("initial_states", 0, 2, value=None), "initial_states[0][2]"),
    (_put("agent_protocols", "2", 0, "choices", value=[[["send", 3, 5, 0]]]),
     "agent_protocols.2[0].choices[0]"),
    (_put("agent_protocols", "2", 0, "choices",
          value=[[["send", 3, "a24", 0, 0]]]),
     "agent_protocols.2[0].choices[0]"),
    (_put(*_GUARD, value=["observed", ["ext", "e", "x"]]),
     "agent_protocols.2[0].guard"),
    (_put("env_protocol", "menus", 1, "sets", 0, 0, value=["go", 2, 2]),
     "env_protocol.menus[1].sets[0]"),
    (_put("env_protocol", "menus", 1, "sets", 0, 1,
          value=["grecv", 3, 2, "a24", None, None]),
     "env_protocol.menus[1].sets[0]"),
    # a byzantine hap acts as its own agent
    (_put("env_protocol", "menus", 0, "sets", 0, 0, value=[
        "byz_action", 4, ["gsend", 1, 2, "bogus", 0, None], None]),
     "env_protocol.menus[0].sets[0]"),
    (_put("env_protocol", "menus", 0, "sets", 0, 0, value=[
        "byz_action", 4, None, ["gsend", 1, 2, "bogus", 0, None]]),
     "env_protocol.menus[0].sets[0]"),
    (_put("env_protocol", "menus", 1, "sets", 1,
          value=[["byz_event", 3, ["grecv", 2, 1, "a24", None]]]),
     "env_protocol.menus[1].sets[1]"),
    (_put("env_protocol", "menus", 1, "sets", 1,
          value=[["byz_event", 3, ["gext", 1, "e"]]]),
     "env_protocol.menus[1].sets[1]"),
    (lambda doc: doc["trust_table"].append(
        dict(doc["trust_table"][0], formula="faulty(1)")), "trust_table[2]"),
], ids=["choice-kind", "choice-agent", "observed-agent", "received-agent",
        "sent-agent", "menu-agent", "menu-hap-object", "protocols-list", "guard-arity",
        "trust-formula", "byz-action-sender", "byz-action-go",
        "byz-event-sender", "grecv-sender", "env-list", "menus-object",
        "menu-list",
        "caps-list", "adversary-list", "sets-int", "trust-table-int",
        "chain-int", "active-at-least-string", "trust-msg-list",
        "initial-list", "received-msg-int", "sent-msg-null", "close-string",
        "agents-true", "horizon-true", "seed-true", "protocol-key-9",
        "initial-state-null", "choice-msg-int", "send-extra",
        "observed-ext-extra", "go-extra", "grecv-extra",
        "byz-action-performs-other", "byz-action-records-other",
        "byz-event-other-grecv", "byz-event-other-gext", "trust-key-repeat"])
def test_malformed_relay_exits_2_with_its_path(tmp_path, capsys, mutate,
                                               where):
    with open(scenario_path("s05_relay")) as fh:
        doc = json.load(fh)
    mutate(doc)
    with pytest.raises(InputError) as exc:
        scenario_from_json(doc, "relay")
    assert exc.value.where == where
    p = tmp_path / "relay.json"
    p.write_text(json.dumps(doc))
    assert main(["validate", str(p)]) == 2
    assert f"error: {where}: " in capsys.readouterr().err


@pytest.mark.parametrize("cap", ["many", 0, 2.5])
def test_menu_cap_must_be_a_positive_integer(tmp_path, capsys, cap):
    with open(scenario_path("s15_stripped_send")) as fh:
        doc = json.load(fh)
    doc["caps"] = {"menu_cap": cap}
    p = tmp_path / "capped.json"
    p.write_text(json.dumps(doc))
    assert main(["validate", str(p)]) == 2
    assert "error: caps.menu_cap: " in capsys.readouterr().err


def test_bad_json_file(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{nope")
    with pytest.raises(InputError):
        load_scenario(str(p))


def _deep_guard_text(depth):
    """s05_relay with agent 2's first guard under `depth` nested nots,
    written as text: past Python's recursion limit `json.loads` fails."""
    with open(scenario_path("s05_relay")) as fh:
        doc = json.load(fh)
    guard = doc["agent_protocols"]["2"][0]["guard"]
    doc["agent_protocols"]["2"][0]["guard"] = "GUARD"
    return json.dumps(doc).replace(
        '"GUARD"', '["not", ' * depth + json.dumps(guard) + "]" * depth)


def test_unreadable_scenario_exits_2_with_its_path(tmp_path, capsys):
    latin = tmp_path / "latin.json"
    latin.write_bytes(b'\xff\xfe{"agents": 3}')
    deep = tmp_path / "deep.json"
    deep.write_text(_deep_guard_text(1500))
    for path, where in ((latin, f"{latin}:1"), (deep, str(deep))):
        with pytest.raises(InputError) as err:
            load_scenario(str(path))
        assert err.value.where == where
        assert main(["validate", str(path)]) == 2
        assert f"error: {where}: " in capsys.readouterr().err
    shallow = tmp_path / "shallow.json"
    shallow.write_text(_deep_guard_text(4))
    assert main(["validate", str(shallow)]) == 0
    # an odd count of nots negates agent 2's guard, so 2 sends a24 to 3
    # without the belief its trust entry requires, and 3 relays it as a34
    shallow.write_text(_deep_guard_text(3))
    capsys.readouterr()
    assert main(["validate", str(shallow)]) == 4
    assert {(v["from"], v["to"], v["msg"]) for v in json.loads(
        capsys.readouterr().out)["trust_violations"]} == \
        {(2, 3, "a24"), (3, 1, "a34")}


def test_missing_agent_table_defaults_to_idle():
    sc = scenario_from_json(minimal_doc(), "test")
    from byzlab.haps import LocalHistory
    assert sc.ctx.protocol(2)(LocalHistory("b")) == (frozenset(),)


def test_cli_validate_ok(capsys):
    assert main(["validate", scenario_path("s01_quiet")]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["agents"] == 3
    assert report["choice_tree_leaves"] >= 1


def test_cli_validate_rejects_garbage(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(minimal_doc(f=5)))
    assert main(["validate", str(p)]) == 2
    assert main(["validate", str(tmp_path / "absent.json")]) == 2


def test_cli_validate_checks_every_corpus_trust_table(capsys, monkeypatch):
    for name in SCENARIO_NAMES:
        if not load_scenario(scenario_path(name)).trust.entries:
            continue
        assert main(["validate", scenario_path(name)]) == 0, name
        assert json.loads(capsys.readouterr().out)["trust_violations"] == []
    # a scenario without a trust table enumerates nothing more
    monkeypatch.setattr(cli, "_build_system", None)
    assert main(["validate", scenario_path("s01_quiet")]) == 0
    assert "trust_violations" not in json.loads(capsys.readouterr().out)


@pytest.mark.parametrize("name, entry, key, broken", [
    ("s05_relay", 0, "chain", [3]),
    ("s10_one_chain", 0, "formula", "faulty(1)"),
])
def test_cli_validate_reports_a_broken_trust_entry(tmp_path, capsys, name,
                                                   entry, key, broken):
    doc = _load_json(scenario_path(name))
    doc["trust_table"][entry][key] = broken
    p = tmp_path / "broken.json"
    p.write_text(json.dumps(doc))
    assert main(["validate", str(p)]) == 4
    violations = json.loads(capsys.readouterr().out)["trust_violations"]
    assert violations
    sent = doc["trust_table"][entry]
    for v in violations:
        assert (v["from"], v["to"], v["msg"]) == \
            (sent["from"], sent["to"], sent["msg"])
        # the sender's history at the point: at most one round per time
        assert len(v["history"]["rounds"]) <= v["point"][1]
        assert v["history"]["initial"] == \
            doc["initial_states"][0][sent["from"] - 1]


def test_cli_simulate_roundtrip(tmp_path, capsys):
    out = tmp_path / "run.trace"
    for name in SCENARIO_NAMES:
        sc = load_scenario(scenario_path(name), name=name)
        for seed in (0, 1, 7):
            assert main(["simulate", scenario_path(name),
                         "--seed", str(seed), "--out", str(out)]) == 0
            run, header = read_trace(str(out))
            assert header["seed"] == seed
            assert run == seeded_run(sc.ctx, seed), (name, seed)


def test_cli_simulate_enumerate(capsys):
    assert main(["simulate", scenario_path("s08_delivery_race"),
                 "--enumerate"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["runs"] == 6


def test_cli_simulate_enumerate_writes_no_run_file(tmp_path, capsys):
    out = tmp_path / "runs.json"
    assert main(["simulate", scenario_path("s08_delivery_race"),
                 "--enumerate", "--out", str(out)]) == 2
    assert "error: --out: " in capsys.readouterr().err
    assert not out.exists()


def test_cli_detect(tmp_path, capsys):
    out = tmp_path / "run.trace"
    main(["simulate", scenario_path("s02_obvious"), "--seed", "1",
          "--out", str(out)])
    capsys.readouterr()
    assert main(["detect", scenario_path("s02_obvious"),
                 "--trace", str(out), "--query", "blast,1"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert set(report["agents"]) == {"1", "2", "3"}
    for entry in report["agents"].values():
        assert "faulty" in entry and len(entry["occurrence"]) == 1


@pytest.mark.parametrize("agent", ["0", "9", "2"])
def test_cli_detect_checks_the_agent(tmp_path, capsys, agent):
    out = tmp_path / "run.trace"
    main(["simulate", scenario_path("s01_quiet"), "--seed", "0",
          "--out", str(out)])
    capsys.readouterr()
    code = main(["detect", scenario_path("s01_quiet"), "--trace", str(out),
                 "--agent", agent])
    if agent == "2":
        assert code == 0
        assert set(json.loads(capsys.readouterr().out)["agents"]) == {"2"}
    else:
        assert code == 2
        assert "error: --agent: " in capsys.readouterr().err


@pytest.mark.parametrize("query", ["e,0", "e,4", "e,5", "e,x", "e,-1"])
def test_cli_detect_checks_the_group_size(tmp_path, capsys, query):
    # s01_quiet has n = 3 and f = 0, so K lies in 1..3
    out = tmp_path / "run.trace"
    main(["simulate", scenario_path("s01_quiet"), "--seed", "0",
          "--out", str(out)])
    capsys.readouterr()
    assert main(["detect", scenario_path("s01_quiet"), "--trace", str(out),
                 "--query", query]) == 2
    assert "error: --query: " in capsys.readouterr().err
    assert main(["detect", scenario_path("s01_quiet"), "--trace", str(out),
                 "--query", "e,3"]) == 0


def test_cli_detect_query_past_the_fault_budget(tmp_path, capsys):
    # agent 1 brands 2 and 3 on receipts they never sent, then itself, as
    # |F| > f needs no chain; the oracle agrees at the final point
    fake = [["byz_event", 1, ["grecv", 1, j, "bogus", None]] for j in (2, 3)]
    scen, out = tmp_path / "bf.json", tmp_path / "run.trace"
    scen.write_text(json.dumps(minimal_doc(
        agents=3, f=1, initial_states=[["s"] * 3],
        env_protocol={"menus": [{"sets": [fake]}]})))
    assert main(["simulate", str(scen), "--out", str(out)]) == 0
    capsys.readouterr()
    for k in ("1", "2"):
        assert main(["detect", str(scen), "--trace", str(out), "--agent", "1",
                     "--query", "e," + k]) == 0
        entry = json.loads(capsys.readouterr().out)["agents"]["1"]
        assert entry["faulty"] == [1, 2, 3] and entry["occurrence"][0]["believed"]
        assert main(["check", str(scen), "--formula",
                     f"B[1](kgroup({k},ext(e)))"]) == 0
        assert json.loads(capsys.readouterr().out)["counterexamples"] == [[0, 0]]


def test_cli_check_formula(capsys):
    assert main(["check", scenario_path("s02_obvious"),
                 "--formula", "B[1](faulty(2))"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["true_at"] >= 1
    assert main(["check", scenario_path("s02_obvious"),
                 "--formula", "faulty(("]) == 2


def test_cli_check_names_an_inadmissible_atom_time(capsys):
    # faulty(4,2) asks about time 2, which no point at t < 2 admits
    assert main(["check", scenario_path("s05_relay"),
                 "--formula", "faulty(4,2)"]) == 2
    err = capsys.readouterr().err
    assert "'faulty(4,2)'" in err and "at run 0, t=0" in err


@pytest.mark.parametrize("formula", ["fake(1,0,ext(e))", "occ_c(1,0,ext(e))"])
def test_round_0_atom_exits_2_naming_the_formula(tmp_path, capsys, formula):
    assert main(["check", scenario_path("s01_quiet"),
                 "--formula", formula]) == 2
    err = capsys.readouterr().err
    assert "error: --formula: " in err and repr(formula) in err
    assert "names round 0" in err
    with open(scenario_path("s01_quiet")) as fh:
        doc = json.load(fh)
    doc["trust_table"] = [{"from": 1, "to": 2, "msg": "m",
                           "formula": f"H[1]({formula})"}]
    p = tmp_path / "round0.json"
    p.write_text(json.dumps(doc))
    assert main(["validate", str(p)]) == 2
    err = capsys.readouterr().err
    assert "error: trust_table[0].formula: " in err and formula in err


@pytest.mark.parametrize("formula", ["K[0](faulty(4))", "K[9](faulty(4))",
                                     "B[1](occ(2,recv(5,a24)))"])
def test_cli_check_rejects_agents_out_of_range(capsys, formula):
    assert main(["check", scenario_path("s05_relay"),
                 "--formula", formula]) == 2
    assert "out of range 1..4" in capsys.readouterr().err


@pytest.mark.parametrize("k", ["0", "4"])
def test_kgroup_size_out_of_range_exits_2(tmp_path, capsys, k):
    formula = f"kgroup({k},ext(e))"
    assert main(["check", scenario_path("s01_quiet"),
                 "--formula", formula]) == 2
    assert "error: --formula: group size" in capsys.readouterr().err
    with open(scenario_path("s01_quiet")) as fh:
        doc = json.load(fh)
    doc["trust_table"] = [{"from": 1, "to": 2, "msg": "m",
                           "formula": formula}]
    p = tmp_path / "kgroup.json"
    p.write_text(json.dumps(doc))
    assert main(["validate", str(p)]) == 2
    assert "error: trust_table[0].formula: group size" in \
        capsys.readouterr().err


@pytest.mark.parametrize("formula", ["!" * 1200 + "faulty(1)",
                                     "(" * 300 + "faulty(1)" + ")" * 300])
def test_cli_check_rejects_deep_nesting(capsys, formula):
    assert main(["check", scenario_path("s01_quiet"),
                 "--formula", formula]) == 2
    assert "error: --formula: formula nests deeper" in capsys.readouterr().err


def test_cli_check_evaluates_a_formula_at_the_nesting_bound(capsys):
    # H[i] compiles to three rows per level, the deepest expansion
    formula = "H[1](" * MAX_DEPTH + "faulty(2)" + ")" * MAX_DEPTH
    assert main(["check", scenario_path("s01_quiet"),
                 "--formula", formula]) == 0
    assert json.loads(capsys.readouterr().out)["points"] > 0


def test_trust_formula_past_the_nesting_bound_exits_2(tmp_path, capsys):
    with open(scenario_path("s01_quiet")) as fh:
        doc = json.load(fh)
    depth = MAX_DEPTH + 1
    doc["trust_table"] = [{"from": 1, "to": 2, "msg": "m",
                           "formula": "(" * depth + "faulty(2)" + ")" * depth}]
    p = tmp_path / "deep.json"
    p.write_text(json.dumps(doc))
    assert main(["validate", str(p)]) == 2
    assert "error: trust_table[0].formula: formula nests deeper" in \
        capsys.readouterr().err


def test_cli_check_kgroup_over_many_agents(tmp_path, capsys):
    # kgroup(7,...) over 14 agents is a disjunction of C(14,7) = 3,432
    # conjunctions, which must not nest one level per disjunct
    p = tmp_path / "idle14.json"
    p.write_text(json.dumps(minimal_doc(
        agents=14, initial_states=[["s"] * 14],
        env_protocol={"menus": [{"sets": [[]]}]})))
    assert main(["check", str(p), "--formula", "kgroup(7,ext(e))"]) == 0
    assert json.loads(capsys.readouterr().out)["false_at"] == 2


def test_cli_check_against_detection(capsys):
    for name in ("s02_obvious", "s04_two_chains", "s09_fake_delivery"):
        assert main(["check", scenario_path(name),
                     "--against-detection"]) == 0, name


def test_menu_delivery_of_another_send_exits_2(tmp_path, capsys):
    # agent 2 would perceive a correct Recv(1, "m") that 1 never sent,
    # and the oracle would refute the detector's verdicts
    p = tmp_path / "other_send.json"
    p.write_text(json.dumps(minimal_doc(
        agents=3, horizon=2, initial_states=[["s"] * 3],
        agent_protocols={"3": [{"choices": [[["send", 1, "x"]]]}]},
        env_protocol={"menus": [
            {"sets": [[["go", 3]]]},
            {"sets": [[["grecv", 2, 1, "m", [3, 1, "x", 0, 0]]]]}]})))
    assert main(["check", str(p), "--against-detection"]) == 2
    assert "error: env_protocol.menus[1].sets[0]: bad global hap: " in \
        capsys.readouterr().err


def test_cli_node_cap_env(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("BYZLAB_NODE_CAP", "2")
    assert main(["check", scenario_path("s08_delivery_race"),
                 "--formula", "faulty(1)"]) == 3
    capsys.readouterr()
    # validate counts the choice tree against the same cap
    monkeypatch.setenv("BYZLAB_NODE_CAP", "5")
    for argv in (["validate"], ["simulate", "--enumerate"]):
        assert main(argv[:1] + [scenario_path("s07_sleep")] + argv[1:]) == 3
        assert "error: enumeration exceeded 5 explored nodes" in \
            capsys.readouterr().err, argv
    # s01_quiet has no caps, so the error must name the variable
    for raw in ("many", "0", "-4", "2.5"):
        monkeypatch.setenv("BYZLAB_NODE_CAP", raw)
        assert main(["validate", scenario_path("s01_quiet")]) == 2
        assert "error: BYZLAB_NODE_CAP: " in capsys.readouterr().err, raw


def _write_idle(tmp_path, horizon):
    p = tmp_path / f"idle{horizon}.json"
    p.write_text(json.dumps(minimal_doc(horizon=horizon,
                                        env_protocol={"menus": []})))
    return str(p)


def test_horizon_is_bounded(tmp_path, capsys):
    # the enumeration walks and the choice-tree count recurse once per
    # round: at the bound every command still runs, past it loading fails
    commands = (["validate"], ["simulate", "--enumerate"],
                ["check", "--formula", "faulty(1)"])
    path = _write_idle(tmp_path, MAX_HORIZON)
    for argv in commands:
        assert main(argv[:1] + [path] + argv[1:]) == 0, argv
    capsys.readouterr()
    path = _write_idle(tmp_path, MAX_HORIZON + 1)
    for argv in commands:
        assert main(argv[:1] + [path] + argv[1:]) == 2, argv
        assert "error: horizon: " in capsys.readouterr().err, argv


RUN_SUITE = os.path.join(os.path.dirname(__file__), "..", "scripts",
                         "run_suite.py")


@pytest.mark.parametrize("argv, message", [
    (["--stress", "0"], f"--stress needs a horizon in 1..{MAX_HORIZON}"),
    (["--stress", str(MAX_HORIZON + 1)],
     f"--stress needs a horizon in 1..{MAX_HORIZON}"),
    (["--scenario", "s01_quiet", "--stress", "2"],
     "argument --stress: not allowed with argument --scenario"),
    (["--scenario", "nope", "--stress", "2"],
     "argument --stress: not allowed with argument --scenario"),
], ids=["stress_0", "stress_past_max_horizon", "scenario_and_stress",
        "unknown_scenario_and_stress"])
def test_run_suite_rejects_bad_arguments(argv, message):
    # exit 2 with a usage message before any system is built
    proc = subprocess.run([sys.executable, RUN_SUITE, *argv],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("usage: run_suite.py ")
    assert f"run_suite.py: error: {message}\n" in proc.stderr
    assert "Traceback" not in proc.stderr and not proc.stdout


def _import_run_suite(monkeypatch):
    # the script puts src/ and perfbench/ first on sys.path when imported
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location("run_suite", RUN_SUITE)
    run_suite = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run_suite)
    return run_suite


def test_run_suite_exits_3_on_a_capped_stress_horizon(monkeypatch, capsys):
    run_suite = _import_run_suite(monkeypatch)
    formulas = run_suite.gen.formulas

    def capped(seed):
        doc, rest = formulas(seed)
        doc["caps"] = {**doc.get("caps", {}), "node_cap": 100}
        return doc, rest

    monkeypatch.setattr(run_suite.gen, "formulas", capped)
    monkeypatch.setattr(sys, "argv", ["run_suite.py", "--stress", "3"])
    assert run_suite.main() == cli.EXIT_CAP
    out, err = capsys.readouterr()
    assert not out
    assert err == "error: enumeration exceeded 100 explored nodes\n"


def test_run_suite_exits_2_on_a_malformed_corpus_scenario(
        monkeypatch, capsys, tmp_path):
    # a corpus file that fails to load is invalid input, not a refutation
    run_suite = _import_run_suite(monkeypatch)
    # and its one error line names the file before the JSON path
    bad = tmp_path / "s16_bad.json"
    bad.write_text('{"agents": 0}')
    monkeypatch.setattr(run_suite, "SCENARIO_DIR", str(tmp_path))
    for argv in ([], ["--scenario", "s16_bad"], ["--json"]):
        monkeypatch.setattr(sys, "argv", ["run_suite.py", *argv])
        assert run_suite.main() == cli.EXIT_INVALID, argv
        out, err = capsys.readouterr()
        assert not out, argv
        assert err.startswith(f"error: {bad}: agents: ") and \
            err.count("\n") == 1, (argv, err)


def _run_suite_json(*argv):
    proc = subprocess.run([sys.executable, RUN_SUITE, *argv, "--json"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


TIMINGS = {"enumerate_s", "system_s", "classes_s", "cross_check_s",
           "seconds", "peak_rss_mb"}


def test_run_suite_rows_share_one_schema():
    # a corpus sweep prints a list of rows, a stress system one row
    corpus = _run_suite_json()
    stress = _run_suite_json("--stress", "2")
    assert len(corpus) == len(SCENARIO_NAMES)
    assert {frozenset(row) for row in corpus} == {frozenset(stress)}
    assert TIMINGS < set(stress)


def test_run_suite_scenario_row_is_its_sweep_row():
    sweep = {row["scenario"]: row for row in _run_suite_json()}
    [row] = _run_suite_json("--scenario", "s04_two_chains")
    assert row.keys() == sweep["s04_two_chains"].keys()
    for key in row.keys() - TIMINGS:
        assert row[key] == sweep["s04_two_chains"][key], key


@pytest.mark.parametrize("argv", [
    ["-m", "byzlab.cli", "validate", scenario_path("s01_quiet")],
    [RUN_SUITE, "--stress", "2", "--json"],
], ids=["byzlab_validate", "run_suite_stress"])
def test_a_closed_stdout_exits_141_in_silence(argv):
    # the reader is gone before the command writes: 128 + SIGPIPE, and no
    # `error:` line, since the input was fine
    read, write = os.pipe()
    os.close(read)
    src = os.path.dirname(os.path.dirname(byzlab.__file__))
    try:
        proc = subprocess.run([sys.executable, *argv], stdout=write,
                              stderr=subprocess.PIPE, timeout=60,
                              env={**os.environ, "PYTHONPATH": src})
    finally:
        os.close(write)
    assert proc.returncode == cli.EXIT_PIPE == 141
    assert proc.stderr == b""


def _byzlab_limited(argv, megabytes=256, seconds=20):
    """`byzlab argv` in a child process held to `megabytes` of address
    space, so that a closure that grows exponentially fails fast."""
    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (megabytes << 20,) * 2)
    src = os.path.dirname(os.path.dirname(byzlab.__file__))
    return subprocess.run(
        [sys.executable, "-m", "byzlab.cli", *argv], capture_output=True,
        text=True, timeout=seconds, preexec_fn=limit,
        env={**os.environ, "PYTHONPATH": src})


FAKE_EXTERNALS = 24


@pytest.mark.parametrize("close", [False, True])
def test_menu_closure_is_lazy_in_the_fault_alphabet(tmp_path, close):
    # one menu set of k fake externals of agent 1: its fault alphabet
    # has 2^(k+1) subsets, which neither the audit nor the closure may
    # build before it has its answer
    with open(scenario_path("s01_quiet")) as fh:
        doc = json.load(fh)
    fakes = [["byz_event", 1, ["gext", 1, f"e{j}"]]
             for j in range(FAKE_EXTERNALS)]
    doc.update(f=1, horizon=1,
               env_protocol={"menus": [{"close": close, "sets": [fakes]}]})
    p = tmp_path / "fakes.json"
    p.write_text(json.dumps(doc))
    start = time.perf_counter()
    proc = _byzlab_limited(["validate", str(p)])
    assert time.perf_counter() - start < 10
    if close:
        assert proc.returncode == 2
        assert "error: env_protocol.menus[0]: menu closure at t=0 exceeds " \
            "cap 4096" in proc.stderr
    else:
        assert proc.returncode == 0, proc.stderr
        assert not json.loads(proc.stdout)["closure"]["1"]["gullible"]


WIDE_MENUS = [
    # 10 fake externals of agent 1 (3 agents): 2^11 parts of agent 1
    # beside 4 parts of the others
    pytest.param(3, [[["byz_event", 1, ["gext", 1, f"e{j}"]]
                      for j in range(10)]], 8192, id="one_agent"),
    # 2 fake externals of each of 4 agents, and one base set of a correct
    # external per agent: 10 parts per agent
    pytest.param(4, [[["byz_event", i, ["gext", i, f"e{j}"]]
                      for i in range(1, 5) for j in range(2)],
                     [["gext", i, "c"] for i in range(1, 5)]], 10000,
                 id="four_agents"),
]


@pytest.mark.parametrize("agents, sets, size", WIDE_MENUS)
def test_closure_walks_each_remainder_once(tmp_path, agents, sets, size):
    # the sets close to a wide menu, which the `validate` audit groups
    # by each agent's rest, the other agents' parts, once per agent
    with open(scenario_path("s01_quiet")) as fh:
        doc = json.load(fh)
    doc.update(agents=agents, initial_states=[["s"] * agents], f=1,
               horizon=1, caps={"menu_cap": 10000},
               env_protocol={"menus": [{"close": True, "sets": sets}]})
    p = tmp_path / "fakes.json"
    p.write_text(json.dumps(doc))
    start = time.perf_counter()
    proc = _byzlab_limited(["validate", str(p)])
    assert time.perf_counter() - start < 5
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["menu_sizes"] == [size]
    assert "warnings" not in report


def test_detect_past_the_packing_cap_exits_3(tmp_path, capsys):
    # agent 1 receives one trusted message about faulty(2) per chain
    # (sender, x), each of which its sender's protocol may emit and each
    # delivered in the round its sender sends it
    pairs = [(s, x) for s in range(2, 10) for x in range(2, 10)
             if s != x][:MAX_PACKING_INPUT + 1]
    emits = {str(s): [{"guard": ["not", ["always"]], "choices": [
        [["send", 1, f"m{s}{x}"]] for s2, x in pairs if s2 == s]}]
        for s in {s for s, _ in pairs}}
    trust = [{"from": s, "to": 1, "msg": f"m{s}{x}", "formula": "faulty(2)",
              "chain": [x]} for s, x in pairs]
    doc = minimal_doc(agents=9, f=1, initial_states=[["s"] * 9],
                      env_protocol={}, agent_protocols=emits,
                      trust_table=trust)
    scen, trace = tmp_path / "pack.json", tmp_path / "pack.trace"
    scen.write_text(json.dumps(doc))
    trace.write_text("".join(json.dumps(rec) + "\n" for rec in (
        {**HEADER, "agents": 9, "initials": ["s"] * 9},
        {"kind": "round", "t": 0, "haps": [
            hap for s, x in pairs for hap in (
                ["go", s], ["gsend", s, 1, f"m{s}{x}", 0, 0],
                ["grecv", 1, s, f"m{s}{x}", [s, 1, f"m{s}{x}", 0, 0]])]})))
    assert main(["detect", str(scen), "--trace", str(trace)]) == 3
    assert f"error: {MAX_PACKING_INPUT + 1} chains exceed the packing cap " \
        f"{MAX_PACKING_INPUT}" in capsys.readouterr().err


def test_trace_rejects_corruption(tmp_path):
    p = tmp_path / "t.trace"
    p.write_text("")
    with pytest.raises(InputError):
        read_trace(str(p))
    p.write_text('{"kind":"round","t":0,"haps":[]}\n')
    with pytest.raises(InputError):
        read_trace(str(p))


HEADER = {"kind": "header", "version": 1, "scenario": "s", "seed": 0,
          "agents": 3, "initials": ["s", "s", "s"]}


def test_unreadable_trace_exits_2_with_its_line(tmp_path, capsys):
    head = (json.dumps(HEADER) + "\n").encode()
    latin = tmp_path / "latin.trace"
    latin.write_bytes(head + b'{"kind":"round","t":0,"haps":'
                      b'[["gext",1,"caf\xe9"]]}\n')
    deep = tmp_path / "deep.trace"
    deep.write_bytes(head + b'{"kind":"round","t":0,"haps":'
                     + b"[" * 1500 + b"]" * 1500 + b"}\n")
    for path in (latin, deep):
        with pytest.raises(InputError) as err:
            read_trace(str(path))
        assert err.value.where == f"{path}:2"
        assert main(["detect", scenario_path("s01_quiet"),
                     "--trace", str(path)]) == 2
        assert f"error: {path}:2: " in capsys.readouterr().err


def test_trace_numbers_physical_lines(tmp_path, capsys):
    run = seeded_run(load_scenario(scenario_path("s01_quiet")).ctx, 0)
    lines = trace_lines(run, "s01_quiet", 0)
    lines[2] = json.dumps({"kind": "round", "t": 1, "haps": [["go", 9]]})
    p = tmp_path / "blank.trace"
    p.write_text(lines[0] + "\n\n" + "\n".join(lines[1:]) + "\n")
    with pytest.raises(InputError, match=":4: haps: "):
        read_trace(str(p))
    assert main(["detect", scenario_path("s01_quiet"), "--trace", str(p)]) == 2
    assert f"error: {p}:4: haps: " in capsys.readouterr().err


@pytest.mark.parametrize("lines, lineno", [
    ([[HEADER]], 1),
    ([{k: v for k, v in HEADER.items() if k != "agents"}], 1),
    ([{**HEADER, "agents": "3"}], 1),
    ([{k: v for k, v in HEADER.items() if k != "initials"}], 1),
    ([{**HEADER, "initials": "sss"}], 1),
    ([HEADER, {"kind": "round", "t": 0, "haps": [["go", 4]]}], 2),
    ([HEADER, {"kind": "round", "t": 0, "haps": [["gext", 0, "e"]]}], 2),
    ([HEADER, {"kind": "round", "t": 0, "haps": [["go", 1]]},
      {"kind": "round", "t": 1, "haps": [["grecv", 1, 9, "m", None]]}], 3),
    ([{**HEADER, "agents": True, "initials": ["s"]}], 1),
    ([HEADER, {"kind": "round", "t": 0, "haps": [["gext", 1, 7]]}], 2),
    ([HEADER, {"kind": "round", "t": 0,
               "haps": [["gsend", 1, 2, "m", 0, None]]}], 2),
    ([HEADER, {"kind": "round", "t": 0, "haps": [["go", True]]}], 2),
    ([HEADER, {"kind": "round", "t": 0,
               "haps": [["byz_action", 2, ["gext", 2, "e"], None]]}], 2),
    ([HEADER, {"kind": "round", "t": 0,
               "haps": [["byz_event", 2, ["go", 2]]]}], 2),
    ([HEADER, {"kind": "round", "t": 0,
               "haps": [["gsend", 1, 9, "m", 0, 0]]}], 2),
    ([HEADER, {"kind": "round", "t": 0,
               "haps": [["grecv", 2, 1, "m", [1, 9, "m", 0, 0]]]}], 2),
    ([HEADER, {"kind": "round", "t": 0, "haps": [["go", 1, 2]]}], 2),
    ([HEADER, {"kind": "round", "t": 0,
               "haps": [["grecv", 2, 1, "m", [1, 2, "m", 0, 0, 0]]]}], 2),
    # a delivery names a send of the record, or one sent in its round
    ([HEADER, {"kind": "round", "t": 0, "haps": [["grecv", 1, 2, "m"]]}], 2),
    ([HEADER, {"kind": "round", "t": 0, "haps": [["go", 2]]},
      {"kind": "round", "t": 1,
       "haps": [["grecv", 1, 2, "m", [2, 1, "m", 0, 0]]]}], 3),
    ([HEADER, {"kind": "round", "t": 0,
               "haps": [["grecv", 1, 2, "m", [2, 1, "m", 0, 1]]]},
      {"kind": "round", "t": 1,
       "haps": [["gsend", 2, 1, "m", 0, 1]]}], 2),
    # a byzantine hap acts as its own agent
    ([HEADER, {"kind": "round", "t": 0, "haps": [
        ["byz_action", 2, ["gsend", 1, 3, "m", 0, 0], None]]}], 2),
    ([HEADER, {"kind": "round", "t": 0, "haps": [
        ["byz_action", 2, None, ["gsend", 1, 3, "m", 0, 0]]]}], 2),
    ([HEADER, {"kind": "round", "t": 0, "haps": [
        ["byz_event", 2, ["grecv", 1, 3, "m", None]]]}], 2),
    # a delivery's GMI is a send of its message from its sender to it
    ([HEADER, {"kind": "round", "t": 0,
               "haps": [["go", 3], ["gsend", 3, 1, "x", 0, 0]]},
      {"kind": "round", "t": 1,
       "haps": [["grecv", 2, 1, "m", [3, 1, "x", 0, 0]]]}], 3),
    # a round's sends are its own: stamped with it, a correct one with a go
    ([HEADER, {"kind": "round", "t": 0,
               "haps": [["gsend", 1, 2, "ping", 0, 0]]},
      {"kind": "round", "t": 1, "haps": [
          ["go", 2], ["grecv", 2, 1, "ping", [1, 2, "ping", 0, 0]]]}], 2),
    ([HEADER, {"kind": "round", "t": 0,
               "haps": [["go", 1], ["gsend", 1, 2, "m", 0, 7]]}], 2),
    ([HEADER, {"kind": "round", "t": 0, "haps": [["go", 1]]},
      {"kind": "round", "t": 1, "haps": [
          ["byz_action", 2, ["gsend", 2, 1, "m", 0, 0], None]]}], 3),
], ids=["header-array", "no-agents", "agents-string", "no-initials",
        "initials-string", "agent-above-n", "agent-zero", "grecv-sender",
        "agents-true", "gext-event-int", "sent-at-null", "agent-true",
        "byz-action-gext", "byz-event-go", "gsend-receiver", "gmi-agent",
        "go-extra", "gmi-extra", "grecv-template", "grecv-unsent",
        "grecv-sent-later", "byz-action-performs-other",
        "byz-action-records-other", "byz-event-other", "grecv-other-send",
        "gsend-without-go", "gsend-stamped-later", "byz-send-stamped-earlier"])
def test_trace_rejects_malformed_input(tmp_path, capsys, lines, lineno):
    p = tmp_path / "t.trace"
    p.write_text("".join(json.dumps(rec) + "\n" for rec in lines))
    with pytest.raises(InputError, match=f":{lineno}: "):
        read_trace(str(p))
    assert main(["detect", scenario_path("s01_quiet"),
                 "--trace", str(p)]) == 2


# -- fuzzing: one JSON node replaced by a value of another JSON type --------

def _json_type(v) -> str:
    return "bool" if isinstance(v, bool) else type(v).__name__


json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 9)
    | st.text("ab1", max_size=3),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text("ab", max_size=2), inner, max_size=2),
    max_leaves=4)


def _paths(v, path=()):
    """The path of every node of the JSON value `v`, `v` itself included."""
    yield path
    items = v.items() if isinstance(v, dict) else \
        enumerate(v) if isinstance(v, list) else ()
    for key, child in items:
        yield from _paths(child, path + (key,))


def _replaced(doc, path, draw):
    """`doc` with the node at `path` replaced by a value of another type."""
    doc = json.loads(json.dumps(doc))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    old = parent[path[-1]] if path else doc
    new = draw(json_values.filter(lambda v: _json_type(v) != _json_type(old)))
    if not path:
        return new
    parent[path[-1]] = new
    return doc


def _load_json(path):
    with open(path) as fh:
        return json.load(fh)


CORPUS = {name: _load_json(scenario_path(name)) for name in SCENARIO_NAMES}


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(SCENARIO_NAMES), st.data())
def test_fuzzed_scenario_loads_or_raises_scenario_error(name, data):
    doc = CORPUS[name]
    path = data.draw(st.sampled_from(list(_paths(doc))))
    try:
        scenario_from_json(_replaced(doc, path, data.draw), name)
    except InputError:
        pass


def _trace_records(name):
    sc = load_scenario(scenario_path(name), name=name)
    run = seeded_run(sc.ctx, 0)
    return [json.loads(ln) for ln in trace_lines(run, name, 0)]


TRACES = {name: _trace_records(name) for name in SCENARIO_NAMES}


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.sampled_from(SCENARIO_NAMES), st.data())
def test_fuzzed_trace_reads_or_raises_trace_error(tmp_path, name, data):
    records = TRACES[name]
    # a header field, or any node of a round's haps
    paths = [(0, key) for key in records[0]] + [
        (k, "haps") + p for k in range(1, len(records))
        for p in _paths(records[k]["haps"]) if p]
    path = data.draw(st.sampled_from(paths))
    p = tmp_path / "fuzzed.trace"
    p.write_text("".join(json.dumps(rec) + "\n"
                         for rec in _replaced(records, path, data.draw)))
    try:
        read_trace(str(p))
    except InputError:
        pass


def test_cli_validate_counts_leaves_from_the_trust_check(capsys, monkeypatch):
    # a scenario with a trust table walks the choice tree once
    leaves = count_choice_tree(load_scenario(scenario_path("s05_relay")).ctx)

    def walked_again(ctx):
        raise AssertionError("count_choice_tree walked the tree again")

    monkeypatch.setattr(cli, "count_choice_tree", walked_again)
    assert main(["validate", scenario_path("s05_relay")]) == 0
    assert json.loads(capsys.readouterr().out)["choice_tree_leaves"] == leaves
