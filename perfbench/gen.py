"""Seeded scenario generators for the three benchmark workloads.

Each family is a fixed system shape written over roles.  The workload
seed renames every message and event, maps the roles onto agent ids
(except in `formulas`) and, in `traces`, picks the adversary seeds of
the recorded runs.  So a seed changes what a scenario says but never its
sizes: menu sizes, run counts, horizons, formula shapes and op counts
are the same for every seed, and timings from different seeds stay
comparable.

Haps use the canonical array form of `byzlab.serial`; a `gsend` with a
null `sent_at` is stamped with the round of the menu it appears in.
"""

import random
import string

# ---------------------------------------------------------------------------
# Hap and rule builders


def go(i):
    return ["go", i]


def grecv(i, j, msg):
    return ["grecv", i, j, msg, None]


def gsend(i, j, msg):
    return ["gsend", i, j, msg, 0, None]


def byz_send(i, j, msg):
    return ["byz_action", i, gsend(i, j, msg), gsend(i, j, msg)]


def gext(i, event):
    return ["gext", i, event]


def send(j, msg):
    return ["send", j, msg, 0]


def rule(guard, *choices):
    return {"guard": guard, "choices": [list(c) for c in choices]}


def trust(frm, to, msg, formula, chain=()):
    return {"from": frm, "to": to, "msg": msg, "formula": formula,
            "chain": list(chain)}


def _rng(family, seed):
    return random.Random(f"{family}|{seed}")


def _roles(rng, names):
    """A random bijection from role names onto agent ids 1..n."""
    ids = list(range(1, len(names) + 1))
    rng.shuffle(ids)
    return dict(zip(names, ids))


def _words(rng, keys):
    """A fresh identifier per key; same length for every seed."""
    return {k: k[0] + "".join(rng.choice(string.ascii_lowercase)
                              for _ in range(5)) for k in keys}


def _scenario(n, f, horizon, menus, protocols, trust_table, close_at=()):
    return {
        "agents": n, "f": f, "template": "Bf", "horizon": horizon,
        "initial_states": [["s"] * n],
        "agent_protocols": {str(i): rs for i, rs in sorted(protocols.items())},
        "env_protocol": {"menus": [{"sets": m, "close": t in close_at}
                                   for t, m in enumerate(menus)]},
        "trust_table": trust_table,
        "adversary": {"mode": "enumerate", "seed": 0},
    }


# ---------------------------------------------------------------------------
# closed: many runs, few histories

CLOSED_SYSTEMS = 8


def closed(seed):
    """Why: the north-star confrontation on menus closed by `close_menu`.

    Returns CLOSED_SYSTEMS scenarios of one shape, each with its own
    roles and words.  n=4, f=1, horizon 3.  Round 0 offers a byzantine
    send with its delivery, an external event and the empty set, and is
    closed (96 sets).  Rounds 1 and 2 let the receiver relay an alert,
    which a trust entry certifies.  Closure mixes `fail(k)` into sets
    that already carry the byzantine send, so the `Bf` budget filter
    strips fault events at round 0 in many branches.  Each system has
    352 runs but only 14 distinct histories: `engine` enumeration and
    `oracle` classing dominate, detection is noise.  Several small
    systems, rather than one large one, keep each timed op short, so
    that the fastest of its repeats is steady.
    """
    rng = _rng("closed", seed)
    return [_closed_system(rng) for _ in range(CLOSED_SYSTEMS)]


def _closed_system(rng):
    r = _roles(rng, ["src", "rcv", "aux", "dst"])
    w = _words(rng, ["bogus", "alert", "relay", "event"])
    A, B, C, D = r["src"], r["rcv"], r["aux"], r["dst"]
    menus = [
        [[byz_send(A, B, w["bogus"]), grecv(B, A, w["bogus"])],
         [gext(C, w["event"])],
         []],
        [[go(B), grecv(D, B, w["alert"])]],
        [[go(D), grecv(C, D, w["relay"])], []],
    ]
    protocols = {
        B: [rule(["received", A, w["bogus"]], [send(D, w["alert"])], [])],
        D: [rule(["received", B, w["alert"]], [send(C, w["relay"])], [])],
    }
    trust_table = [
        trust(B, D, w["alert"], f"faulty({A})"),
        trust(D, C, w["relay"], f"faulty({A})", chain=(B,)),
    ]
    return _scenario(4, 1, 3, menus, protocols, trust_table, close_at=(0,))


# ---------------------------------------------------------------------------
# formulas: oracle-heavy model checking

# Formula shapes over the roles a, b, c; each is instantiated for three
# role orders.  They mix designated atoms, nested K/B/H, G and kgroup.
FORMULA_SHAPES = [
    "correct({a})",
    "faulty({a})",
    "K[{a}](correct({b}))",
    "B[{a}](faulty({b}))",
    "H[{a}](occ_c(send({b},{msg})))",
    "K[{a}](B[{b}](faulty({c})))",
    "G(correct({a}) -> B[{a}](occ_c(ext({event}))))",
    "kgroup(1,recv({a},{fwd}))",
    "kgroup(2,recv({b},{fwd}))",
    "B[{a}](H[{b}](faulty({c}) | occ({a},recv({b},{fwd}))))",
    "!K[{a}](!B[{b}](G(correct({c}))))",
    "occ({a},recv({b},{fwd})) & K[{a}](occ({b},recv({c},{fwd})))",
    "init({a},s) -> K[{b}](init({a},s))",
    "happened({a},send({b},{msg})) | fhappened({a},send({b},{fwd}))",
    "H[{a}](H[{b}](occ_c({c},ext({event}))))",
    "G(B[{a}](correct({b})) -> K[{c}](correct({b})))",
    "K[{a}](K[{b}](occ_c(send({c},{msg}))))",
    "B[{a}](kgroup(1,send({b},{msg})))",
    "G(K[{a}](faulty({b})) | correct({c}))",
    "B[{a}](faulty({b})) & B[{b}](faulty({a}))",
    "K[{a}](G(faulty({b}) -> B[{c}](faulty({b}))))",
]
ROLE_ORDERS = [("snd", "rel", "wit"), ("rel", "wit", "snd"),
               ("wit", "snd", "rel")]


def formulas(seed):
    """Why: `oracle`/`atoms` evaluation and memo growth in isolation.

    The open-menu stress family of the roadmap baseline: n=3, f=1, four
    event sets per round, one sender with two choices, a relay and one
    trust entry.  Horizon 2 gives 64 runs and 192 points and keeps each
    op under about 40 ms.  Enumeration is set-up; each op checks one of
    63 formulas at every point.
    Returns the scenario and the formula texts.
    """
    rng = _rng("formulas", seed)
    # Fixed agent ids: each op's cost depends on the enumeration order,
    # which follows the ids, and p50/p95 are taken over single ops.
    r = {"snd": 1, "rel": 2, "wit": 3}
    w = _words(rng, ["msg", "fwd", "event"])
    S, R, W = r["snd"], r["rel"], r["wit"]
    menu = [[go(S), go(R), grecv(R, S, w["msg"]), grecv(W, R, w["fwd"])],
            [go(S), gext(W, w["event"])],
            [byz_send(R, W, w["fwd"]), grecv(W, R, w["fwd"]), go(S)],
            []]
    protocols = {
        S: [rule(["always"], [send(R, w["msg"])], [])],
        R: [rule(["received", S, w["msg"]], [send(W, w["fwd"])])],
    }
    trust_table = [trust(R, W, w["fwd"], f"occ_c(send({R},{w['msg']}))")]
    doc = _scenario(3, 1, 2, [menu] * 2, protocols, trust_table)
    texts = [shape.format(a=r[x], b=r[y], c=r[z], **w)
             for shape in FORMULA_SHAPES for x, y, z in ROLE_ORDERS]
    return doc, texts


# ---------------------------------------------------------------------------
# traces: field use on recorded runs

TRACES_HORIZON = 8
TRACE_COUNT = 200
SELF_CHECK_ROUNDS = 7  # rounds in which the self-auditing agent may act


def traces(seed):
    """Why: what `byzlab detect --query` does on recorded runs.

    n=6, f=1, horizon 8, no enumeration.  A byzantine source sends
    bogus messages to two relays, which alert the target directly and
    along a relay chain; a second agent's byzantine send is budget-
    stripped after the first one's, so its delivery survives (defect (a)
    of the benchmark doc) and can push a target's believed-faulty set
    past f.  Three agents witness an external event and certify it to
    the target, which feeds the group-occurrence queries.  One agent
    audits itself with a `self_faulty` guard, which costs 2^k - 1
    protocol calls over its k sending rounds.  Returns the scenario,
    the adversary seeds of the recorded runs and the queries
    (event, k).
    """
    rng = _rng("traces", seed)
    r = _roles(rng, ["src", "byz", "rla", "rlb", "tgt", "aud"])
    w = _words(rng, ["bogus", "junk", "alert", "relay", "chain", "saw",
                     "ping", "sorry", "event"])
    X, Y, A, B, T, Z = (r[k] for k in ("src", "byz", "rla", "rlb", "tgt",
                                        "aud"))
    menus = []
    for t in range(TRACES_HORIZON):
        audit = [go(Z), grecv(T, Z, w["ping"]), grecv(T, Z, w["sorry"])] \
            if t < SELF_CHECK_ROUNDS else [grecv(T, Z, w["ping"])]
        menus.append([
            [byz_send(X, A, w["bogus"]), grecv(A, X, w["bogus"]),
             byz_send(X, B, w["bogus"]), grecv(B, X, w["bogus"])] + audit,
            [go(A), go(B), grecv(T, A, w["alert"]), grecv(T, B, w["alert"]),
             grecv(B, A, w["relay"]), grecv(T, B, w["chain"])] + audit,
            [gext(A, w["event"]), gext(B, w["event"]), gext(T, w["event"])]
            + audit,
            [byz_send(Y, T, w["junk"]), grecv(T, Y, w["junk"]), go(A)]
            + audit,
            [go(A), go(B), grecv(T, A, w["saw"]), grecv(T, B, w["saw"])]
            + audit,
            audit,
        ])
    protocols = {
        A: [rule(["received", X, w["bogus"]],
                 [send(T, w["alert"]), send(B, w["relay"])]),
            rule(["observed", ["ext", w["event"]]], [send(T, w["saw"])])],
        B: [rule(["received", A, w["relay"]], [send(T, w["chain"])]),
            rule(["received", X, w["bogus"]], [send(T, w["alert"])]),
            rule(["observed", ["ext", w["event"]]], [send(T, w["saw"])])],
        Z: [rule(["self_faulty"], [send(T, w["sorry"])]),
            rule(["always"], [send(T, w["ping"])], [])],
    }
    trust_table = [
        trust(A, T, w["alert"], f"faulty({X})"),
        trust(B, T, w["alert"], f"faulty({X})"),
        trust(A, B, w["relay"], f"faulty({X})"),
        trust(B, T, w["chain"], f"faulty({X})", chain=(A,)),
        trust(A, T, w["saw"], f"occ_c(ext({w['event']}))"),
        trust(B, T, w["saw"], f"occ_c(ext({w['event']}))"),
        trust(Z, T, w["sorry"], f"faulty({Z})"),
    ]
    doc = _scenario(6, 1, TRACES_HORIZON, menus, protocols, trust_table)
    adv_seeds = [rng.randrange(2 ** 31) for _ in range(TRACE_COUNT)]
    queries = [(w["event"], 1), (w["event"], 2)]
    return doc, adv_seeds, queries
