"""What a run reports, pinned run by run: its transcript digest, its
counts (bytes under plain accounting), its drops, and the text and type of
``end_time`` and of every output time.

The runs are one seeded scenario per catalogue stratum, every bundled
scenario file, a ``Delayer`` run (a ``pick_delay`` override), a
run suspended in rounds of 7/5 on a 240-tick clock, an msc ``withhold_body`` run, three
Byzantine runs of the derived protocols and a ``PcFromGradedEngine`` run
under jitter.  The runs named in ``FETCHING`` must pull bodies over the
fetch path.  The transcript digest names no output value, so the runs in
``VALUES`` pin every honest output's value as well.  A second test pins
the jitter draws to the ``random.Random(seed).randint`` sequence they come
from.
"""

import hashlib
import os
import random
from fractions import Fraction

import pytest

from prefixsim import adversaries, catalogue, wire
from prefixsim.actions import Broadcast
from prefixsim.crypto import MacScheme
from prefixsim.derived import PcFromGradedEngine
from prefixsim.pc import PcConfig, Variant
from prefixsim.scenario import load_scenario, run_scenario
from prefixsim.simnet import DelayPolicy, Simulation
from prefixsim.spc import SpcConfig, SpcEngine

SCENARIOS = os.path.join(os.path.dirname(adversaries.__file__), "scenarios")


def _fingerprint(metrics) -> str:
    def when(t):
        return f"{type(t).__name__} {t}"

    lines = [metrics.transcript_sha, f"{metrics.message_count} {metrics.fetch_messages}",
             f"{metrics.bytes_total} {metrics.drops}", when(metrics.end_time)]
    for party in sorted(metrics.outputs):
        for kind, (_value, _proof, t) in sorted(metrics.outputs[party].items()):
            lines.append(f"{party} {kind} {when(t)}")
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


def _values(sim) -> str:
    """Digest of every honest party's output values, kind by kind."""
    outputs = sim.metrics.outputs
    lines = [f"{p} {kind} {value!r}" for p in sim.honest for kind, (value, _proof, _t) in sorted(outputs[p].items())]
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


def _plain(scn: dict) -> dict:
    return {**scn, "measure_bytes": True, "codec": "plain"}


def _runs():
    """(name, thunk returning the finished Simulation) for every pinned run."""
    for i, stratum in enumerate(catalogue.STRATA):
        scn = _plain({**stratum.template, "seed": 7000 + i})
        yield f"stratum{i:02d}", lambda scn=scn: run_scenario(scn).sim
    for name in sorted(os.listdir(SCENARIOS)):
        scn = _plain(load_scenario(os.path.join(SCENARIOS, name)))
        yield name, lambda scn=scn: run_scenario(scn).sim
    delayer = _plain({"version": 1, "protocol": "spc", "n": 4, "f": 1, "L": 4, "gst": 6, "delta_cap": 2,
                      "seed": 5, "adversary": {"kind": "delayer", "links": [[0, 1], [2, 3]],
                                               "stretch": 5, "jitter": 3}})
    yield "delayer", lambda: run_scenario(delayer).sim
    withhold = _plain({**catalogue.PSYNC, "protocol": "msc", "n": 4, "f": 1, "slots": 2, "seed": 3,
                       "adversary": {"kind": "withhold_body", "reveal": {"2": [0]}, "jitter": 4}})
    yield "msc_withhold", lambda: run_scenario(withhold).sim
    yield "suspender", _suspender_run
    derived = {
        "graded_equivocate": {"protocol": "graded", "n": 4, "f": 1, "seed": 21,
                              "adversary": {"kind": "equivocate", "byzantine": [3], "jitter": 3}},
        "binary_doctored": {"protocol": "binary", "n": 4, "f": 1, "seed": 22,
                            "adversary": {"kind": "doctored", "byzantine": [1], "jitter": 3}},
        "validated_silent_n7": {"protocol": "validated", "n": 7, "f": 2, "seed": 23, "delta_cap": 2,
                                "adversary": {"kind": "silent", "byzantine": [0, 4], "jitter": 2}},
    }
    for name, scn in derived.items():
        yield name, lambda scn=_plain({"version": 1, **scn}): run_scenario(scn).sim
    yield "pc_from_graded", _pc_from_graded_run


def _suspender_run():
    scheme = MacScheme(4)
    cfg = SpcConfig(4, 1, 4, 2, ("pin", "spc"))
    sim = Simulation(
        4, lambda p: SpcEngine(cfg, p, scheme),
        policy=DelayPolicy(gst=Fraction(1, 2), cap=Fraction(2, 3), default_delay=1, jitter=2, suspend=Fraction(7, 5)),
        seed=3, measure=wire.measure,
    )
    assert sim.tick == 240
    rng = random.Random(8)
    for p in range(4):
        sim.schedule_input(p, tuple(bytes([97 + rng.randrange(3)]) for _ in range(4)))
    sim.run()
    return sim


def _pc_from_graded_run():
    scheme = MacScheme(4)
    cfg = PcConfig(4, 1, 3, Variant.THREE_ROUND, ("pcg",))
    sim = Simulation(4, lambda p: PcFromGradedEngine(cfg, p, scheme),
                     policy=DelayPolicy(gst=None, jitter=4), seed=9, measure=wire.measure)
    rng = random.Random(9)
    for p in range(4):
        sim.schedule_input(p, tuple(bytes([97 + rng.randrange(2)]) for _ in range(3)))
    sim.run()
    return sim


#: Recorded before the simulator's send and delivery paths were merged.
PINS = {
    "stratum00": "0036854ad3053ce8",
    "stratum01": "dd5abc8f07d35d3f",
    "stratum02": "586aa0b820c8502f",
    "stratum03": "e1b7fdfb3a12dc94",
    "stratum04": "d45e0b3cbc962ad2",
    "stratum05": "4438d0f9032387f2",
    "stratum06": "13e93570c7891e26",
    "stratum07": "244b6344714a75e5",
    "stratum08": "479a3908ec3e8e73",
    "stratum09": "36438595b0ffef46",
    "stratum10": "f48d681ee2edc455",
    "stratum11": "a373d47b050cab06",
    "stratum12": "7b7c65f161f7f39b",
    "stratum13": "ba2a6d29f64048f7",
    "stratum14": "d9fb64a68816a301",
    "stratum15": "adcb3f5c9ec0d257",
    "stratum16": "cdfa5063e41415c2",
    "stratum17": "9cf1ed02071678a1",
    "stratum18": "e2db75e390a394dd",
    "stratum19": "8442a6961d9068b8",
    "stratum20": "c319593237e27290",
    "stratum21": "0bdd172e407e7db5",
    "stratum22": "ca742be863861a05",
    "stratum23": "01cef06b9528908e",
    "stratum24": "0f27362b9303ad72",
    "stratum25": "e4a771195caedb94",
    "stratum26": "89c0effaf1bded5e",
    "stratum27": "3b8ad0f3c6a40152",
    "binary_mixed_n4.json": "d2e6c3fd47aace7d",
    "binary_random_n4.json": "5f22ae1232fa4ba3",
    "graded_faultfree_n4.json": "b8716f3bc0effa1e",
    "msc_censor_f1.json": "301329dba7153e59",
    "msc_censor_f2_n7.json": "fa7e3246ace733b5",
    "msc_censor_suspended_n7.json": "bf8ff6efc2f74d28",  # recorded when the file was added
    "msc_faultfree_n4.json": "e711e3f8d780ff5f",
    "msc_fetch_payload_n4.json": "b3bf376582215b80",
    "msc_leaderless_n4.json": "b3f550c0e305cada",
    "pc3_faultfree_n4.json": "6fed10dade2b7d5e",
    "pc3_faultfree_n7.json": "cbc7242cf3cce5b5",
    "pc_5f1_faultfree_n6.json": "420d5229897cb482",
    "pc_opt_faultfree_n4.json": "cc75f434b41d3c15",
    "spc_faultfree_n4.json": "63407e86040b882a",
    "spc_silent_view2_n4.json": "481a9dfd6d808f92",
    "spc_splitview_n4.json": "ee56bf39d35de49c",
    "spc_withhold_n4.json": "ccf1af5d540f252a",
    "sweep_pc3.json": "d391f442965486c5",
    "validated_faultfree_n4.json": "042d07d02e3ab857",
    "delayer": "a18b2deeca064c27",
    "suspender": "219cf79fce07ec64",
    "msc_withhold": "44e1034a5ebf1637",
    "graded_equivocate": "fcf4e92bd00262b5",
    "binary_doctored": "6ff932cce880a527",
    "validated_silent_n7": "dff39458fd92319c",
    "pc_from_graded": "74c6cfadc65de63a",
}

#: Runs that commit a body some honest party never received: a slot
#: payload (msc) or a view-entry object (spc).
FETCHING = {"msc_fetch_payload_n4.json", "spc_withhold_n4.json", "msc_withhold"}


#: Recorded before the derived engines became subclasses of their base
#: engines: every honest output value (graded pairs, decisions, low/high).
VALUES = {
    "binary_mixed_n4.json": "2cdc20df7dd8e86c",
    "binary_random_n4.json": "d49af75dc2f143d8",
    "graded_faultfree_n4.json": "9dd3eb1f2047e321",
    "validated_faultfree_n4.json": "bc554f17e4c30679",
    "graded_equivocate": "096216a8f2c1dd20",
    "binary_doctored": "ed20c891c3d4e3c0",
    "validated_silent_n7": "5716c7f9c8c19f26",
    "pc_from_graded": "6f20837f334716dc",
}


@pytest.mark.parametrize("name,run", list(_runs()), ids=lambda v: v if isinstance(v, str) else "")
def test_run_is_pinned(name, run):
    sim = run()
    metrics = sim.metrics
    assert _fingerprint(metrics) == PINS[name]
    assert (metrics.fetch_messages > 0) == (name in FETCHING)
    if name in VALUES:
        assert _values(sim) == VALUES[name]


def test_jitter_draws_follow_randint():
    # Asynchronous honest echo: every send draws one delay from the
    # simulation's generator and nothing else draws from it.
    class Echo:
        def __init__(self, party):
            self.party = party

        def on_input(self, value):
            return [Broadcast(("hello", self.party))]

        def on_message(self, sender, msg):
            return [Broadcast(("again", self.party))] if msg[0] == "hello" else []

    for seed, jitter in ((0, 1), (5, 3), (11, 7)):
        sim = Simulation(5, Echo, policy=DelayPolicy(gst=None, jitter=jitter), seed=seed, record=True)
        for p in range(5):
            sim.schedule_input(p, None)
        sim.run()
        drawn = []
        for line in sim.records:
            at, event, rest = line.split(" ", 2)
            if event == "send":
                deliver = Fraction(rest.rsplit(" ", 2)[1][len("deliver@"):])
                drawn.append((deliver - Fraction(at[1:])) * sim.tick)
        rng = random.Random(seed)
        assert len(drawn) == 5 * 4 + 20 * 4
        assert drawn == [rng.randint(16, 16 * jitter) for _ in drawn]
