#!/usr/bin/env python3
"""Regenerate the scenario corpus under scenarios/.

Each scenario is a small hand-designed system exercising one feature of
the pipeline: obvious faults, self detection, notification chains,
thresholds, group occurrence, closed menus, nondeterministic delivery.
Run from the repository root:  python3 scripts/gen_scenarios.py
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(HERE, "..", "src"))

from byzlab.haps import (
    ByzAction, ByzEvent, GExternal, GRecv, GSend, Go, Send, Sleep,
)
from byzlab.serial import to_json

OUT = os.path.join(HERE, "..", "scenarios")


def byz_send(i, j, msg):
    """A plain bogus send: performed == recorded, sent at the menu's t."""
    s = GSend(i, j, msg, 0, None)
    return ByzAction(i, s, s)


def rule(guard, *choices):
    return {"guard": guard,
            "choices": [sorted(map(to_json, c)) for c in choices]}


def trust(frm, to, msg, formula, chain=()):
    return {"from": frm, "to": to, "msg": msg, "formula": formula,
            "chain": list(chain)}


def scenario(name, agents, f, horizon, menus, protocols=None, trust_table=(),
             initials=None, template="Bf", seed=0, close_at=()):
    doc = {
        "agents": agents, "f": f, "template": template, "horizon": horizon,
        "initial_states": initials or [["s"] * agents],
        "agent_protocols": {str(i): rs for i, rs in (protocols or {}).items()},
        "env_protocol": {"menus": [
            {"sets": [list(map(to_json, S)) for S in m], "close": t in close_at}
            for t, m in enumerate(menus)]},
        "trust_table": list(trust_table),
        "adversary": {"seed": seed},
    }
    path = os.path.join(OUT, name + ".json")
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print("wrote", os.path.relpath(path))


def main():
    os.makedirs(OUT, exist_ok=True)

    # Fault-free ping-pong with same-round delivery; baseline sanity.
    scenario(
        "s01_quiet", agents=3, f=0, horizon=2,
        menus=[
            [[Go(1), GRecv(2, 1, "ping")], []],
            [[Go(2), GRecv(1, 2, "pong")], []],
        ],
        protocols={
            1: [rule(["always"], [Send(2, "ping")])],
            2: [rule(["received", 1, "ping"], [Send(1, "pong")])],
        })

    # Agent 2 byzantine-sends a message its table never emits; agent 1
    # brands it on sight.
    scenario(
        "s02_obvious", agents=3, f=1, horizon=2,
        menus=[
            [[byz_send(2, 1, "bogus")], []],
            [[GRecv(1, 2, "bogus")], []],
        ])

    # A recorded-but-never-offered action lets agent 2 detect itself and
    # notify agent 1 with a singleton-chain trustworthy message.
    scenario(
        "s03_self_notify", agents=3, f=1, horizon=3,
        menus=[
            [[ByzAction(2, None, GSend(2, 1, "ghost", 0, None))], []],
            [[Go(2)], []],
            [[GRecv(1, 2, "sorry")], []],
        ],
        protocols={
            2: [rule(["self_faulty"], [Send(1, "sorry")])],
        },
        trust_table=[trust(2, 1, "sorry", "faulty(2)")])

    # Two disjoint singleton chains about agent 4 clear the f=1 threshold.
    scenario(
        "s04_two_chains", agents=4, f=1, horizon=2,
        menus=[
            [[byz_send(4, 2, "bogus"), byz_send(4, 3, "bogus"),
              GRecv(2, 4, "bogus"), GRecv(3, 4, "bogus")], []],
            [[Go(2), Go(3), GRecv(1, 2, "alert4"), GRecv(1, 3, "alert4")], []],
        ],
        protocols={
            2: [rule(["received", 4, "bogus"], [Send(1, "alert4")])],
            3: [rule(["received", 4, "bogus"], [Send(1, "alert4")])],
        },
        trust_table=[trust(2, 1, "alert4", "faulty(4)"),
                     trust(3, 1, "alert4", "faulty(4)")])

    # One-hop relay: 2 observes, tells 3, 3 forwards to 1; chain (3, 2).
    scenario(
        "s05_relay", agents=4, f=1, horizon=3,
        menus=[
            [[byz_send(4, 2, "bogus"), GRecv(2, 4, "bogus")], []],
            [[Go(2), GRecv(3, 2, "a24")], []],
            [[Go(3), GRecv(1, 3, "a34")], []],
        ],
        protocols={
            2: [rule(["received", 4, "bogus"], [Send(3, "a24")])],
            3: [rule(["received", 2, "a24"], [Send(1, "a34")])],
        },
        trust_table=[trust(2, 3, "a24", "faulty(4)"),
                     trust(3, 1, "a34", "faulty(4)", chain=(2,))])

    # f=2 lets the adversary burn the budget on two obvious faults.
    scenario(
        "s06_two_byz", agents=3, f=2, horizon=2,
        menus=[
            [[byz_send(2, 1, "junk2"), byz_send(3, 1, "junk3")],
             [byz_send(2, 1, "junk2")], []],
            [[GRecv(1, 2, "junk2"), GRecv(1, 3, "junk3")], []],
        ])

    # Sleep brands an agent faulty without leaving local evidence; the
    # closed first menu keeps every agent fallible/correctable/delayable.
    scenario(
        "s07_sleep", agents=3, f=1, horizon=2,
        menus=[
            [[Sleep(2)]],
            [[Go(1), GRecv(2, 1, "hi")], []],
        ],
        protocols={1: [rule(["always"], [Send(2, "hi")])]},
        close_at=(0,))

    # Fault-free nondeterministic delivery order; knowledge differs with it.
    scenario(
        "s08_delivery_race", agents=3, f=0, horizon=2,
        menus=[
            [[Go(1), GRecv(2, 1, "m")], [Go(1), GRecv(3, 1, "m")], [Go(1)]],
            [[GRecv(2, 1, "m"), GRecv(3, 1, "m")], []],
        ],
        protocols={1: [rule(["always"], [Send(2, "m"), Send(3, "m")])]})

    # A fabricated delivery: agent 1 seems to receive a message 2 never
    # sent.  Branding 2 stays (vacuously) sound: the fabrication itself
    # proves 1 faulty at every indistinguishable point.
    scenario(
        "s09_fake_delivery", agents=3, f=1, horizon=2,
        menus=[
            [[ByzEvent(1, GRecv(1, 2, "junk2",
                                GSend(2, 1, "junk2", 0, 0)))], []],
            [[], [Go(3)]],
        ])

    # A single notification chain is below the f=1 threshold: no belief.
    scenario(
        "s10_one_chain", agents=3, f=1, horizon=2,
        menus=[
            [[byz_send(3, 2, "bogus"), GRecv(2, 3, "bogus")], []],
            [[Go(2), GRecv(1, 2, "alert3")], []],
        ],
        protocols={2: [rule(["received", 3, "bogus"], [Send(1, "alert3")])]},
        trust_table=[trust(2, 1, "alert3", "faulty(3)")])

    # Occurrence chains: the external event fires at 1, 2 and 3; 2 and 3
    # certify it to 1.  k=1 clears k+f-|F|; k=2 needs the self variant.
    scenario(
        "s11_occurrence", agents=3, f=1, horizon=2,
        menus=[
            [[GExternal(1, "blast"), GExternal(2, "blast"), GExternal(3, "blast")], []],
            [[Go(2), Go(3), GRecv(1, 2, "saw2"), GRecv(1, 3, "saw3")], []],
        ],
        protocols={
            2: [rule(["observed", ["ext", "blast"]], [Send(1, "saw2")])],
            3: [rule(["observed", ["ext", "blast"]], [Send(1, "saw3")])],
        },
        trust_table=[trust(2, 1, "saw2", "occ_c(ext(blast))"),
                     trust(3, 1, "saw3", "occ_c(ext(blast))")])

    # Direct observation and a cleared chain threshold point at the same
    # culprit through different runs.
    scenario(
        "s12_two_provenances", agents=4, f=1, horizon=2,
        menus=[
            [[byz_send(4, 1, "bogus"), byz_send(4, 2, "bogus"),
              byz_send(4, 3, "bogus"), GRecv(2, 4, "bogus"),
              GRecv(3, 4, "bogus")], []],
            [[Go(2), Go(3), GRecv(1, 2, "alert4"), GRecv(1, 3, "alert4"),
              GRecv(1, 4, "bogus")],
             [Go(2), Go(3), GRecv(1, 2, "alert4"), GRecv(1, 3, "alert4")],
             []],
        ],
        protocols={
            2: [rule(["received", 4, "bogus"], [Send(1, "alert4")])],
            3: [rule(["received", 4, "bogus"], [Send(1, "alert4")])],
        },
        trust_table=[trust(2, 1, "alert4", "faulty(4)"),
                     trust(3, 1, "alert4", "faulty(4)")])

    # A trust tag certifying a group formula instead of a plain atom.
    scenario(
        "s13_group_tag", agents=3, f=0, horizon=2,
        menus=[
            [[GExternal(2, "blast"), GExternal(3, "blast")], []],
            [[Go(2), GRecv(1, 2, "wit")], []],
        ],
        protocols={
            2: [rule(["observed", ["ext", "blast"]], [Send(1, "wit")])],
        },
        trust_table=[trust(2, 1, "wit", "kgroup(1,ext(blast))")])

    # A notification that loops 2 -> 1 -> 2 -> 1; the looped chain
    # (2,1,2) must shorten to (2) without losing the belief.
    scenario(
        "s14_loop_chain", agents=3, f=1, horizon=4,
        menus=[
            [[byz_send(3, 2, "bogus"), GRecv(2, 3, "bogus")], []],
            [[Go(2), GRecv(1, 2, "m0")]],
            [[Go(1), GRecv(2, 1, "m1")]],
            [[Go(2), GRecv(1, 2, "m2")]],
        ],
        protocols={
            1: [rule(["received", 2, "m0"], [Send(2, "m1")])],
            2: [rule(["all", ["received", 3, "bogus"],
                      ["not", ["received", 1, "m1"]]], [Send(1, "m0")]),
                rule(["received", 1, "m1"], [Send(1, "m2")])],
        },
        trust_table=[trust(2, 1, "m0", "faulty(3)"),
                     trust(1, 2, "m1", "faulty(3)", chain=(2,)),
                     trust(2, 1, "m2", "faulty(3)", chain=(1, 2))])

    # Closure joins fail(3) to the byzantine send, so the f=1 budget
    # strips both; the send's same-round delivery must die with it, or
    # agent 1 brands a sender that stayed correct.
    scenario(
        "s15_stripped_send", agents=3, f=1, horizon=1,
        menus=[
            [[byz_send(2, 1, "bogus"), GRecv(1, 2, "bogus")], []],
        ],
        close_at=(0,))


if __name__ == "__main__":
    sys.exit(main())
