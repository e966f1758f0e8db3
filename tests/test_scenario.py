"""The scenario tables: every shipped document validates, the adversary
kind table drives ``validate`` and the builders, and a run with no GST
has no post-GST slot to censor."""

import os

import pytest

from prefixsim import catalogue, scenario
from prefixsim.crypto import MacScheme
from prefixsim.scenario import (ADVERSARIES, DEFAULTS, FIELDS, KIND_TABLE, build_adversary, build_policy,
                                load_scenario, run_scenario, validate)
from test_catalogue import _bench_workloads

SCENARIOS = os.path.join(os.path.dirname(scenario.__file__), "scenarios")


def _shipped():
    """(name, document) for every scenario the package, the acceptance
    criteria and the benchmark run."""
    for i, stratum in enumerate(catalogue.STRATA):
        yield f"stratum{i:02d}", stratum.template
    for name in sorted(os.listdir(SCENARIOS)):
        yield name, load_scenario(os.path.join(SCENARIOS, name))
    bench = _bench_workloads()
    for i, stratum in enumerate(bench.SWEEP_PC + bench.SWEEP_SPC_MSC):
        yield f"bench{i:02d}", stratum.template
    for i, scn in enumerate(bench.msc_long(bench.DEFAULT_SEED)):
        yield f"msc_long{i}", scn


def test_every_shipped_scenario_validates():
    # A benchmark document that validate rejected would fail every run of it.
    for name, scn in _shipped():
        assert validate(scn) == [], name


# The fields each kind reads besides "kind": its parties ("byzantine",
# or the keys of "reveal"), its own settings, the field that sets the
# link jitter ("stretch" for fuzz, "jitter" for the others) and the
# suspension round length.
READS = {
    "none": {"byzantine", "jitter", "round_len"},
    "silent": {"byzantine", "jitter", "round_len"},
    "censor": {"reveal", "lag_victims", "lag", "jitter", "round_len"},
    "equivocate": {"byzantine", "lag_victims", "lag", "jitter", "round_len"},
    "split_view": {"byzantine", "view", "jitter", "round_len"},
    "withhold_body": {"reveal", "jitter", "round_len"},
    "doctored": {"byzantine", "jitter", "round_len"},
    "suspender": {"byzantine", "round_len", "jitter"},
    "delayer": {"byzantine", "links", "stretch", "jitter", "round_len"},
    "fuzz": {"byzantine", "stretch", "round_len"},
}
# One valid value of every adversary field, at n=7, f=2: party 6 is the
# Byzantine party of every kind, whichever field names it.
SAMPLE = {"byzantine": [6], "reveal": {"6": [0]}, "lag": 2, "lag_victims": [1], "links": [[0, 1]],
          "round_len": 2, "stretch": 3, "jitter": 4, "view": 2}
SPC7 = {"version": 1, "protocol": "spc", "n": 7, "f": 2, "L": 7}


def test_kind_table_rows_are_the_schema():
    assert set(READS) == set(ADVERSARIES) and set(SAMPLE) == set(FIELDS)
    for kind, row in KIND_TABLE.items():
        assert set(row.fields) == READS[kind], kind


@pytest.mark.parametrize("kind", ADVERSARIES)
def test_kind_table_drives_validate(kind):
    spec = {"kind": kind, **{name: SAMPLE[name] for name in READS[kind]}}
    scn = {**SPC7, "adversary": spec}
    assert validate(scn) == []
    full = {**DEFAULTS, **scn}
    assert build_adversary(full, MacScheme(7)).byzantine == {6}
    jitter = "stretch" if kind == "fuzz" else "jitter"
    assert build_policy(full).jitter == SAMPLE[jitter]
    assert build_policy(full).suspend == SAMPLE["round_len"]
    bare = {**DEFAULTS, **SPC7, "adversary": {"kind": kind}}
    assert build_policy(bare).jitter == (6 if kind == "fuzz" else None)
    assert build_policy(bare).suspend == (1 if kind == "suspender" else None)
    for name in sorted(set(FIELDS) - READS[kind]):
        bad = {**scn, "adversary": {**spec, name: SAMPLE[name]}}
        assert validate(bad) == [(f"adversary.{name}", f"not a field of {kind}")], name


@pytest.mark.parametrize("fields, path", [
    ({"protocol": ["pc3"]}, "protocol"),
    ({"adversary": {"kind": ["silent"]}}, "adversary.kind"),
], ids=["protocol-list", "kind-list"])
def test_unhashable_names_are_schema_errors(fields, path):
    scn = {**SPC7, **fields}
    assert [p for p, _ in validate(scn)] == [path]


def test_no_gst_counts_no_censored_slot():
    # The censorship bound holds after GST; with gst null every slot used
    # to count, and this run without a Byzantine party reported censorship.
    scn = {"version": 1, "protocol": "msc", "n": 4, "f": 1, "slots": 1, "gst": None, "delta": 2,
           "adversary": {"kind": "delayer", "links": [[0, 1]]}}
    for gst in (None, 0):
        for seed in range(20):
            assert run_scenario({**scn, "gst": gst, "seed": seed}).violations == [], (gst, seed)


def test_compact_codec_covers_the_pc_variants_only():
    for protocol in scenario.PROTOCOLS:
        scn = {"version": 1, "protocol": protocol, "n": 7, "f": 1, "L": 4, "codec": "compact"}
        want = [] if protocol in scenario.VARIANTS else [("codec", "compact codec covers pc3/pc_opt/pc_5f1 only")]
        assert validate(scn) == want, protocol
    bad = {"version": 1, "protocol": ["pc3"], "n": 7, "f": 1, "L": 4, "codec": "compact"}
    assert ("codec", "compact codec covers pc3/pc_opt/pc_5f1 only") in validate(bad)


def test_explicit_msc_payloads_are_committed():
    # Per slot, per party; a party the table does not reach proposes the
    # default payload of its slot.
    scn = {"version": 1, "protocol": "msc", "n": 4, "f": 1, "slots": 2, "seed": 7,
           "inputs": {"kind": "explicit", "payloads": [["a", "b", "c", "d"], ["e"]]}}
    result = run_scenario(scn)
    assert result.violations == []
    slot2 = [b"e"] + [b"tx-%d-2-7" % p for p in (1, 2, 3)]
    for p in result.honest:
        commits = result.sim.engines[p].committed_by_slot()
        assert [payload for _, _, payload in commits[1]] == [b"a", b"b", b"c", b"d"]
        assert [payload for _, _, payload in commits[2]] == slot2


@pytest.mark.parametrize("protocol", scenario.PROTOCOLS)
def test_every_engine_is_built_from_the_run_config(protocol):
    # Every engine is row.engine(cfg, party, scheme), with the config the
    # run reports, and takes its party's input through on_input.
    result = run_scenario({"version": 1, "protocol": protocol, "n": 6, "f": 1, "L": 2, "slots": 1})
    assert result.violations == []
    assert result.cfg is not None
    assert all(type(engine) is scenario.PROTOCOL_TABLE[protocol].engine and engine.cfg is result.cfg
               for engine in result.sim.engines.values())
