"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Criteria cover exact round counts, latency bounds, bulk safety
sweeps (seeded adversary catalogue plus fuzzed schedules), censorship
accounting, leaderless termination, oracle equivalences, complexity
trends, and the graded-consensus reductions.
"""

import itertools
import math
import random
import time

import pytest

from prefixsim import adversaries, checks, wire
from prefixsim.catalogue import criterion4, criterion6
from prefixsim.cli import _fit_exponent, sweep_rows
from prefixsim.crypto import MacScheme
from prefixsim.derived import PcFromGradedEngine
from prefixsim.pc import PcConfig, Variant
from prefixsim.prefixes import consistent, is_prefix, longest_supported_prefix, mcp
from prefixsim.scenario import msc_payload_fn, run_scenario
from prefixsim.simnet import DelayPolicy, Simulation


def ok(line):
    print(f"PASS {line}")


def run(scn):
    result = run_scenario(scn)
    assert not result.violations, f"{scn.get('protocol')} seed={scn.get('seed')}: {result.violations[0]}"
    return result


BASE = {"version": 1, "gst": 0, "delta": 1, "delta_cap": 1, "seed": 1,
        "inputs": {"kind": "random", "alphabet": 3}, "adversary": {"kind": "none"}}


def test_criterion_1_round_exactness():
    t0 = time.perf_counter()
    for n, f in ((4, 1), (7, 2)):
        r = run({**BASE, "protocol": "pc3", "n": n, "f": f, "L": n})
        for p in range(n):
            assert r.metrics.output_time(p, "low") == 3
            assert r.metrics.output_time(p, "high") == 3
        assert time.perf_counter() - t0 < 1.0
        t0 = time.perf_counter()
    for n, f in ((4, 1), (7, 2)):
        r = run({**BASE, "protocol": "pc_opt", "n": n, "f": f, "L": n})
        for p in range(n):
            assert r.metrics.output_time(p, "opt") == 2
            assert r.metrics.output_time(p, "low") <= 4
            assert r.metrics.output_time(p, "high") <= 4
        assert time.perf_counter() - t0 < 1.0
        t0 = time.perf_counter()
    r = run({**BASE, "protocol": "pc_5f1", "n": 6, "f": 1, "L": 6})
    for p in range(6):
        assert r.metrics.output_time(p, "low") == 2
        assert r.metrics.output_time(p, "high") == 2
    assert time.perf_counter() - t0 < 1.0
    ok("criterion-1 round exactness: pc3@3, pc_opt opt@2 low/high<=4, pc_5f1@2")


def test_criterion_2_strong_latency():
    r = run({**BASE, "protocol": "spc", "n": 4, "f": 1, "L": 4,
             "inputs": {"kind": "unanimous"}})
    for p in range(4):
        assert r.metrics.output_time(p, "low") == 3
        assert r.metrics.output_time(p, "high") == 7
    f, cap, delta = 1, 2, 1
    bound = 2 * (f + 1) * cap + 3 * (f + 2) * delta
    r = run({**BASE, "protocol": "spc", "n": 4, "f": 1, "L": 4, "delta_cap": 2,
             "inputs": {"kind": "unanimous"},
             "adversary": {"kind": "silent", "byzantine": [0]}})
    for p in (1, 2, 3):
        t = r.metrics.output_time(p, "high")
        assert t is not None and t <= bound, f"party {p} at {t} > {bound}"
    ok(f"criterion-2 strong-consensus latency: fault-free high@7, silent-first-ranked <= {bound}")


def test_criterion_3_multislot_latency():
    r = run({**BASE, "protocol": "msc", "n": 4, "f": 1, "slots": 2})
    for p in range(4):
        for idx in range(4):
            assert r.metrics.output_time(p, f"commit-1-{idx}") == 4
        assert r.metrics.output_time(p, "slot1-high") == 8  # slot 2 starts here
    ok("criterion-3 multi-slot latency: slot-1 commits@4, slot 2 starts@8")


def test_criterion_4_safety_sweeps():
    t0 = time.perf_counter()
    scenarios = criterion4()
    fuzzed = sum(scn["adversary"]["kind"] == "fuzz" for scn in scenarios)
    assert len(scenarios) - fuzzed >= 1000 and fuzzed >= 10_000
    for scn in scenarios:
        run(scn)
    elapsed = time.perf_counter() - t0
    assert elapsed < 300, f"safety sweeps took {elapsed:.0f}s"
    ok(
        f"criterion-4 safety: {len(scenarios) - fuzzed} adversary-catalogue runs + "
        f"{fuzzed} fuzzed schedules, zero violations in {elapsed:.0f}s"
    )


def _run_censorship(n, f, byz, reveal, lag_victims, slots=100, kind="censor"):
    if kind == "censor":
        adversary = {"kind": "censor", "reveal": reveal, "lag_victims": lag_victims, "lag": 6}
    else:
        adversary = {"kind": "equivocate", "byzantine": byz, "lag_victims": lag_victims, "lag": 6}
    scn = {**BASE, "protocol": "msc", "n": n, "f": f, "slots": slots,
           "delta_cap": 2, "adversary": adversary, "seed": 9}
    result = run(scn)
    honest = result.honest
    payload_fn = msc_payload_fn(result.scenario)
    censored = checks.censorship_audit(result.sim, honest, payload_fn, slots, 0, result.metrics)
    assert len(censored) <= f, f"censored slots {censored}"
    engine = result.sim.engines[honest[0]]
    last_demotion = 0
    for slot in range(1, slots):
        if engine.ranks.get(slot + 1) != engine.ranks.get(slot):
            last_demotion = slot
            high = engine.slot_outputs[slot]["high"][0]
            assert engine.ranks[slot][len(high)] in byz, f"slot {slot} demoted an honest party"
    for slot in range(last_demotion + 1, slots + 1):
        committed = {pl for _, _, pl in engine.committed_for_slot(slot)}
        for h in honest:
            assert payload_fn(h, slot) in committed, f"slot {slot} missing honest input"
    return censored


def test_criterion_5_censorship_resistance():
    censored = _run_censorship(4, 1, [2], {"2": [0]}, [1, 3])
    assert censored, "censor strategy never produced a censored slot (vacuous run)"
    _run_censorship(4, 1, [2], None, [1, 3], kind="equivocate")
    _run_censorship(7, 2, [5, 6], {"5": [0], "6": [1]}, [1, 2, 3, 4])
    _run_censorship(7, 2, [5, 6], None, [1, 2, 3, 4], kind="equivocate")
    ok("criterion-5 censorship: 100-slot runs, censored <= f, demotions all Byzantine")


def test_criterion_6_leaderless_termination():
    scenarios = criterion6()
    assert len(scenarios) == 200
    for scn in scenarios:
        result = run(scn)
        last = "high" if scn["protocol"] == "spc" else "slot2-high"
        for p in result.honest:
            assert result.metrics.output_time(p, last) is not None
    ok("criterion-6 leaderless termination: 200 suspension runs all decided")


def brute_force_supported(vectors, k):
    best = ()
    for subset in itertools.combinations(range(len(vectors)), k):
        cand = mcp([vectors[i] for i in subset])
        if len(cand) > len(best):
            best = cand
    return best


def test_criterion_7_oracle_equivalences():
    rng = random.Random(777)
    for _ in range(500):
        size = rng.randrange(2, 8)
        vectors = [
            tuple(bytes([97 + rng.randrange(3)]) for _ in range(rng.randrange(6)))
            for _ in range(size)
        ]
        k = rng.randrange(size // 2 + 1, size + 1)
        assert longest_supported_prefix(vectors, k) == brute_force_supported(vectors, k)

    cfg = PcConfig(4, 1, 4, Variant.THREE_ROUND, ("acc", "eq"))
    scheme = MacScheme(4)
    alphabet = [b"a", b"b", b"c"]
    for trial in range(500):
        values = []
        for party in range(4):
            if trial % 4 == 3 and party == 3:
                # Byzantine-chosen ballot: truncates the honest prefix by
                # conflicting right after a short common stem.
                stem = rng.randrange(4)
                values.append(tuple(
                    alphabet[0] if i < stem else rng.choice(alphabet[1:]) for i in range(4)
                ))
            else:
                values.append(tuple(rng.choice(alphabet) for _ in range(4)))
        wire.equivalence_harness(values, cfg, scheme, rng)
    ok("criterion-7 oracles: 500 supported-prefix + 500 plain/compact certifications identical")


def test_criterion_8_complexity_trends():
    template = {**BASE, "protocol": "pc3", "L": 4, "measure_bytes": True}
    msg_rows = sweep_rows({**template, "n": 5, "f": 1}, [5, 8, 11])
    msg_exp = _fit_exponent([5, 8, 11], [r["messages"] for r in msg_rows])
    assert abs(msg_exp - 2.0) <= 0.2, f"message exponent {msg_exp:.3f}"

    ns = [4, 7, 10]
    plain_rows = sweep_rows({**template, "codec": "plain", "n": 4, "f": 1}, ns)
    plain_exp = _fit_exponent(ns, [r["bytes"] for r in plain_rows])
    assert abs(plain_exp - 4.0) <= 0.5, f"plain byte exponent {plain_exp:.3f}"

    compact_rows = sweep_rows({**template, "codec": "compact", "n": 4, "f": 1}, ns)
    compact_exp = _fit_exponent(ns, [r["bytes"] for r in compact_rows])
    assert abs(compact_exp - 3.0) <= 0.5, f"compact byte exponent {compact_exp:.3f}"
    ok(
        f"criterion-8 trends: messages^{msg_exp:.2f}, plain bytes^{plain_exp:.2f}, "
        f"compact bytes^{compact_exp:.2f}"
    )


def test_criterion_9_graded_consensus():
    r = run({**BASE, "protocol": "graded", "n": 4, "f": 1,
             "inputs": {"kind": "unanimous", "value": "v"}})
    for p in range(4):
        assert r.metrics.output_time(p, "graded") == 3
        assert r.metrics.output_value(p, "graded") == (b"v", 2)

    for i in range(60):
        adv = [
            {"kind": "fuzz", "stretch": 5},
            {"kind": "silent", "byzantine": [3], "jitter": 5},
            {"kind": "equivocate", "byzantine": [3], "jitter": 5},
        ][i % 3]
        run({**BASE, "protocol": "graded", "n": 4, "f": 1, "gst": None,
             "seed": 600 + i, "adversary": adv, "inputs": {"kind": "random", "alphabet": 2}})

    rng = random.Random(42)
    n, f, L = 4, 1, 3
    scheme = MacScheme(n)
    alphabet = [b"a", b"b", b"c"]
    for trial in range(200):
        inputs = [tuple(rng.choice(alphabet) for _ in range(L)) for _ in range(n)]
        sim = Simulation(
            n,
            lambda p: PcFromGradedEngine(n, f, L, p, scheme),
            policy=DelayPolicy.synchronized(1),
            seed=trial,
        )
        for party, vec in enumerate(inputs):
            sim.schedule_input(party, vec)
        metrics = sim.run()
        lows = [metrics.output_value(p, "low") for p in range(n)]
        highs = [metrics.output_value(p, "high") for p in range(n)]
        common = mcp(inputs)
        for i in range(n):
            assert lows[i] is not None and highs[i] is not None
            assert is_prefix(common, lows[i])
            for j in range(n):
                assert is_prefix(lows[i], highs[j])
                assert consistent(highs[i], highs[j])
    ok("criterion-9 graded: 3-delay outputs, adversarial agreement, 200 reverse reductions")
