"""Graded consensus mappings and the binary/validated wrappers."""

import random

import pytest

from prefixsim import adversaries
from prefixsim.crypto import MacScheme
from prefixsim.derived import (
    BinaryEngine,
    GradedEngine,
    PcFromGradedEngine,
    ValidatedEngine,
    graded_from_pc,
    pc_from_graded,
)
from prefixsim.prefixes import consistent, is_prefix, mcp
from prefixsim.simnet import DelayPolicy, Simulation
from test_spc import DropCounter

x, y = b"x", b"y"


def test_graded_from_pc_mapping():
    assert graded_from_pc((), ()) == (None, 0)
    assert graded_from_pc((), (x,)) == (x, 1)
    assert graded_from_pc((x,), (x,)) == (x, 2)
    with pytest.raises(ValueError):
        graded_from_pc((x, y), (x, y))


def test_pc_from_graded_mapping():
    a, b, c = b"a", b"b", b"c"
    assert pc_from_graded([(a, 2), (b, 2), (c, 1), (None, 0)]) == ((a, b), (a, b, c))
    assert pc_from_graded([(a, 2), (b, 2)]) == ((a, b), (a, b))
    assert pc_from_graded([(None, 0), (a, 2)]) == ((), ())
    assert pc_from_graded([(a, 1), (b, 2)]) == ((), (a, b))


def run_graded(inputs, n=4, f=1, adversary=None, seed=0):
    scheme = MacScheme(n)
    sim = Simulation(
        n,
        lambda p: GradedEngine(n, f, p, scheme),
        policy=DelayPolicy.synchronized(1),
        adversary=adversary,
        seed=seed,
    )
    for party, value in enumerate(inputs):
        sim.schedule_input(party, value)
    metrics = sim.run()
    return sim, metrics


def test_graded_unanimous_three_rounds():
    sim, metrics = run_graded([x, x, x, x])
    for p in range(4):
        assert metrics.output_time(p, "graded") == 3
        assert metrics.output_value(p, "graded") == (x, 2)


def test_graded_agreement_mixed_inputs():
    sim, metrics = run_graded([x, x, y, y], seed=2)
    outs = [metrics.output_value(p, "graded") for p in range(4)]
    grades = [g for _, g in outs]
    assert max(grades) - min(grades) <= 1
    values = {v for v, g in outs if v is not None}
    assert len(values) <= 1


def test_graded_agreement_under_silence():
    adv = adversaries.Silent(byzantine={3})
    sim, metrics = run_graded([x, x, y, y], adversary=adv, seed=3)
    outs = [metrics.output_value(p, "graded") for p in range(3)]
    assert all(out is not None for out in outs)
    grades = [g for _, g in outs]
    assert max(grades) - min(grades) <= 1
    values = {v for v, g in outs if v is not None}
    assert len(values) <= 1


def test_reverse_reduction_satisfies_consistent_pc():
    rng = random.Random(99)
    alphabet = [b"a", b"b", b"c"]
    n, f, L = 4, 1, 3
    scheme = MacScheme(n)
    for trial in range(25):
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
            assert is_prefix(common, lows[i])
            for j in range(n):
                assert is_prefix(lows[i], highs[j])
            for j in range(n):
                assert consistent(highs[i], highs[j])


def run_binary(bits, n=4, f=1, adversary=None, seed=0):
    scheme = MacScheme(n)
    sim = Simulation(
        n,
        lambda p: BinaryEngine(n, f, 1, p, scheme),
        policy=DelayPolicy.synchronized(1),
        adversary=adversary,
        seed=seed,
    )
    for party, bit in enumerate(bits):
        sim.schedule_input(party, bit)
    metrics = sim.run()
    return sim, metrics


def test_binary_unanimous_one():
    sim, metrics = run_binary([1, 1, 1, 1])
    for p in range(4):
        assert metrics.output_value(p, "decision") == 1


def test_binary_mixed_agreement():
    for seed in range(4):
        sim, metrics = run_binary([1, 0, 1, 0], seed=seed)
        decisions = {metrics.output_value(p, "decision") for p in range(4)}
        assert len(decisions) == 1
        assert decisions.pop() in (0, 1)


def test_binary_with_silent_party():
    adv = adversaries.Silent(byzantine={2})
    sim, metrics = run_binary([0, 0, 1, 0], adversary=adv, seed=5)
    decisions = {metrics.output_value(p, "decision") for p in (0, 1, 3)}
    assert len(decisions) == 1


def test_validated_fault_free_decides_first_ranked():
    n = 4
    scheme = MacScheme(n)
    sim = Simulation(
        n,
        lambda p: ValidatedEngine(n, 1, 1, p, scheme),
        policy=DelayPolicy.synchronized(1),
    )
    payloads = [b"payload-%d" % p for p in range(n)]
    for party, blob in enumerate(payloads):
        sim.schedule_input(party, blob)
    metrics = sim.run()
    for p in range(n):
        assert metrics.output_value(p, "decision") == payloads[0]


def test_validated_skips_invalid_entries():
    n = 4
    scheme = MacScheme(n)
    validator = lambda blob: blob.startswith(b"ok")
    sim = Simulation(
        n,
        lambda p: ValidatedEngine(n, 1, 1, p, scheme, validator=validator),
        policy=DelayPolicy.synchronized(1),
    )
    payloads = [b"ok-%d" % p for p in range(n)]
    for party, blob in enumerate(payloads):
        sim.schedule_input(party, blob)
    metrics = sim.run()
    decisions = {metrics.output_value(p, "decision") for p in range(n)}
    assert decisions == {b"ok-0"}


def test_binary_and_validated_runs_report_inner_drops():
    n = 4
    scheme = MacScheme(n)
    for build, inputs in (
        (lambda p: BinaryEngine(n, 1, 1, p, scheme), [1, 1, 1, 1]),
        (lambda p: ValidatedEngine(n, 1, 1, p, scheme), [b"payload-%d" % p for p in range(n)]),
    ):
        adv = adversaries.DoctoredProofs(byzantine={3})
        sim = Simulation(n, lambda p: DropCounter(build(p)), policy=DelayPolicy.synchronized(1),
                         adversary=adv, seed=4)
        for party, value in enumerate(inputs):
            sim.schedule_input(party, value)
        metrics = sim.run()
        assert adv.injected > 0
        # The inner engines' drops pass up through the wrappers, and the
        # simulator counts each one.
        assert sum(sim.engines[p].drops for p in (0, 1, 2)) >= adv.injected
        assert metrics.drops == sum(e.drops for e in sim.engines.values())
