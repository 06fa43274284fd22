import hashlib

import pytest
from hypothesis import given, strategies as st

from byzlab.engine import seeded_run
from byzlab.haps import (
    External, GlobalState, GRecv, LocalHistory, Recv, Run, Send,
)
from byzlab.scenario import load_scenario
from byzlab.serial import (
    FORMS, InputError, decode, hap_key, hapset_to_json, parse_json, to_json,
)
from byzlab.trace import _dumps, trace_lines
from tests.conftest import SCENARIO_NAMES, global_hap_strategy, scenario_path

agents = st.integers(min_value=1, max_value=5)
msgs = st.text(alphabet="abcxyz", min_size=1, max_size=4)
times = st.integers(min_value=0, max_value=6)

local_haps = st.one_of(
    st.builds(Send, agents, msgs, st.integers(0, 3)),
    st.builds(Recv, agents, msgs),
    st.builds(External, msgs),
)

global_haps = global_hap_strategy(agents, msgs, times)


@given(local_haps)
def test_local_roundtrip(a):
    assert decode(to_json(a), "hap", "local hap", 5) == a


@given(global_haps)
def test_global_roundtrip(g):
    assert decode(to_json(g), "hap", "global hap", 5) == g


@given(st.frozensets(global_haps, max_size=6))
def test_key_separates_sets(X):
    # equal keys on elements iff equal haps
    keys = {hap_key(g) for g in X}
    assert len(keys) == len(X)


# one JSON argument of each kind, as a menu at time 3 may spell it
SAMPLE = {"agent": 2, "string": "m", "integer": 1, "copy": 1, "time": 3,
          "GMI or null": [2, 2, "m", 0, 3],
          "gsend or null": ["gsend", 2, 1, "m", 0, 3],
          "grecv or gext": ["gext", 2, "e"]}

HAP_FORMS = [(family, name) for family in ("local hap", "global hap")
             for name in FORMS[family]]


@pytest.mark.parametrize("family, name", HAP_FORMS)
def test_every_hap_form_roundtrips_with_exactly_its_arguments(family, name):
    form = [name] + [SAMPLE[kind] for kind in FORMS[family][name][1]]
    assert to_json(decode(form, "hap", family, 2, 3)) == form
    with pytest.raises(InputError):
        decode(form + [0], "hap", family, 2, 3)


def test_optional_trailing_arguments_take_their_defaults():
    assert decode(["send", 2, "m"], "hap", "local hap", 2) == Send(2, "m", 0)
    assert decode(["grecv", 1, 2, "m"], "hap", "global hap", 2) == \
        GRecv(1, 2, "m", None)


# sha256 of the trace text of each corpus scenario at seeds 0, 1 and 7, as
# `write_trace` writes it: a codec that respelled or reordered haps on
# both the writing and the reading side would change these bytes
TRACE_SHA256 = {
    "s01_quiet": (
        "cbf814365a5c1f16ae4835b70c962e639f069766ea105fef993ee903fb9df5af",
        "1a1781871128356612797e334dbf39e51917653753d1fe07d7cf9fa8588111eb",
        "475d5a9a4770c8f1725c4040c96133fc181d0c897fa30e2293e930aa40ade495",
    ),
    "s02_obvious": (
        "421169a291ba150b36439d92469cd3be193eac93a17490734f02a6a70f3e6ae8",
        "6138099178f14a059eb6aad9cb9dc88eec79702ebe3d299cbfb3e338b3cfac72",
        "94a7073aa0a13052a5a4834ed41f365ec7bf527115615e1d1238267c68182d4c",
    ),
    "s03_self_notify": (
        "9b693c384b923d58055026c4edcd9c8215a4a9077e6e594b54c05024a21be3e4",
        "58f455bfb6f201f4546014134c9a89408385f77d1ae081c25a40527808e9599c",
        "ddd7391a37699cc881a0066e853d8560cd8854a9b5889aa8ddbb80d877d416a2",
    ),
    "s04_two_chains": (
        "9a0b0c397e71010f29594a7992adf785ab446ef499f96c1f29da1afd7bd1e6d6",
        "0385da11555311e6fbc0cfa7d3b69f4a74ba6833dd06b36a2de2e96e963306b8",
        "ff59dc0cab532b2c0dc285731a79b44e74143e05770d592b50b5660b5892b923",
    ),
    "s05_relay": (
        "54f4ac86f270b812c16ce6d6b26f30407c60e4e5d9f473d8582a2a8849a3dde2",
        "29ab5d7b9d3370b6f7f5927bf34aa50696390c5a76b5f00db5259d8a7a5c704b",
        "1f74d71545cd7dc5f05814f849d731a4d4b5658fccbdbffd40592d1f68f6dc67",
    ),
    "s06_two_byz": (
        "31abee96e5728974567380b4cb865ab462d9d2038364121f37192829b8723300",
        "085ee6c1687db13274e0b9025c28144125b7987345564131f1dd5a4a0989bf04",
        "6178be75fb79cfa69821989f8b1f9cc037eeb059e31fedaf65addd95d272b7ce",
    ),
    "s07_sleep": (
        "2b7b0d36e5b70e97084e56e7693ad5814efd9252509d2859ee0c7d5f3499269d",
        "4ec9bfa520b7a7a4aceef198da4cf7fe5d1b1882f647c9f856600a002fddc7b5",
        "df1333c7da4a3e0d83d133f13c70f92c633813342c389276199f90db1386429f",
    ),
    "s08_delivery_race": (
        "d4806640d21a129f652c414a878bb789d50a41b52066d5ce290330c7a173a197",
        "8a804bfc3e9db07b799e0c5c86fd2e3a9fda0e0a9af3c8c2919afbc1e16e25fc",
        "1886e35f51227bdf51af8ae464d6cd48215295e4216205820200ae855d390fa9",
    ),
    "s09_fake_delivery": (
        "406701bafb8b5e247faebf38a2db0fbca0780afbfdda55dfe524424c54e5b816",
        "cdaf36ca412cda919b9bee59f49ae8d6219c88779fb170c5f3c4afadb572fbb7",
        "5167c194cdcb67072d3560baaa2dbeda1a800cbcbe65b07afd530a2fec71c2f1",
    ),
    "s10_one_chain": (
        "0cbfbe7ea0c84a13e42d5fea2e9029f9b2b12eb93e990462643a06aa2dd08c52",
        "cb75d3f3412f83dd9501e9dc7f1124c16db0d58fd38e7fd42f71311fb512da28",
        "18fafc85b71085d6ae7dfbf138ca905b7fb01c53708fde14774684bcd777c689",
    ),
    "s11_occurrence": (
        "e4f0cc4eec34194ab50b4524223def67b26481fc40529953752a1d5e2590acf5",
        "eab81554e7c1daeecd6a8bfd880693364c8f5ebc9757e3d172167b05fb20b132",
        "8c2c091df3bb2e65375ce8ed7ba30edda1f3d270f55c7515dd50db60f0e88a5a",
    ),
    "s12_two_provenances": (
        "262a290eda2324ecb427e83ace88ca8008a880187f014905eae938d4f000b5e1",
        "1aa992576d661ac100e254f3792a065df57f4654ac53122aef21ecae956f55ef",
        "b9c9c2950ccdb7e8e30cb938d25587bfe1f9cbfc5695e3ac98bf60c491760ebf",
    ),
    "s13_group_tag": (
        "3f9ab8a4e4ab4b88d49abbc9d403f9bc4af275ada0daa9378c1edeffeff20cb0",
        "80309236b9f9c5bde626c73013084a24f4e78200a32866ed9014cc92a239eeaa",
        "8a44c0992b7895e7b95506917dcde3cbf36373e21e893c908c1921ac042e68a7",
    ),
    "s14_loop_chain": (
        "3a8d19cd20d765a0e2f1074e20be9ced2aff204ac90a6715181c9a85fa22a443",
        "2398db08ba035c1dd835c61158d10a2b692556128d804ebff565ed33d07c5a2c",
        "2fad7b1f44cf18a36049a8ee6e7ff9c7ba5139c18b1fcaa93cb1968ea50a2e2e",
    ),
    "s15_stripped_send": (
        "ca3efe22480f2dfc8088e812f0750ff9624e1382cd0c6c24d47552b6ae3312bd",
        "6f626fbc7e67f1cf45b7ae5dc1ba4eb3c76494ed5912b402243dc36315cacb48",
        "5df4281ff036f6777996c8f619aee79cdf967e1cc0e11b7f125a1b2a46745349",
    ),
}


def test_trace_bytes_are_pinned():
    assert sorted(TRACE_SHA256) == SCENARIO_NAMES
    for name in SCENARIO_NAMES:
        ctx = load_scenario(scenario_path(name), name=name).ctx
        for seed, want in zip((0, 1, 7), TRACE_SHA256[name]):
            text = "".join(line + "\n" for line in
                           trace_lines(seeded_run(ctx, seed), name, seed))
            assert hashlib.sha256(text.encode()).hexdigest() == want, \
                (name, seed)


def test_json_nesting_is_bounded_on_every_python():
    # 1,100 deep is past the recursion limit; 2,001 brackets 2 deep are not
    assert len(parse_json("[" + ",".join(["[]"] * 2000) + "]", "w")) == 2000
    with pytest.raises(InputError, match="w: JSON nested too deeply"):
        parse_json("[" * 1100 + "]" * 1100, "w")


def assert_round_lines_encode_once(run, name):
    """Each round line of `run`'s trace is the text `_dumps` writes of
    the record's `hapset_to_json` forms."""
    lines = trace_lines(run, name, 0)
    assert len(lines) == 1 + run.horizon
    for t, (line, rnd) in enumerate(zip(lines[1:], run.state(run.horizon).env)):
        assert line == _dumps({"haps": hapset_to_json(rnd), "kind": "round",
                               "t": t}), (name, t)


def test_round_lines_match_the_json_encoder_on_the_corpus(suite):
    for name, (_, runs, _) in suite.items():
        for run in runs:
            assert_round_lines_encode_once(run, name)


# message ids with non-ASCII text, quotes, backslashes and control characters
odd_msgs = st.text(alphabet=st.sampled_from(
    'ab"\\/\x00\x1f\x7f\t\n\u00e9\u2028\u4e2d\U0001f600'), min_size=1, max_size=5)


@given(st.lists(st.frozensets(global_hap_strategy(agents, odd_msgs, times),
                              max_size=6), max_size=3))
def test_round_lines_match_the_json_encoder_on_odd_messages(records):
    final = GlobalState(tuple(records), tuple(
        LocalHistory(lam) for lam in ("a", "\u00e9", '"', "\\", "\n")))
    assert_round_lines_encode_once(Run((final,) * (len(records) + 1)), "odd")
