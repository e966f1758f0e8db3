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
# or the keys of "reveal"), its own settings, and the field that sets the
# link jitter ("stretch" for fuzz, "jitter" for the others).
READS = {
    "none": {"byzantine", "jitter"},
    "silent": {"byzantine", "jitter"},
    "censor": {"reveal", "lag_victims", "lag", "jitter"},
    "equivocate": {"byzantine", "lag_victims", "lag", "jitter"},
    "split_view": {"byzantine", "view", "jitter"},
    "withhold_body": {"reveal", "jitter"},
    "doctored": {"byzantine", "jitter"},
    "suspender": {"byzantine", "round_len", "jitter"},
    "delayer": {"byzantine", "links", "stretch", "jitter"},
    "fuzz": {"byzantine", "stretch"},
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
    bare = {**DEFAULTS, **SPC7, "adversary": {"kind": kind}}
    assert build_policy(bare).jitter == (6 if kind == "fuzz" else None)
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
