"""Certification functions, voting engines, and verification predicates."""

import itertools
import random

import pytest

from prefixsim import crypto
from prefixsim.actions import DROP, Broadcast
from prefixsim.crypto import MacScheme, Signature
from prefixsim.nest import Nested
from prefixsim.pc import (
    VOTE_KIND,
    PcConfig,
    PcEngine,
    QC,
    Variant,
    Vote,
    certify,
    predicate_high,
    predicate_low,
    verify_qc,
)
from prefixsim.prefixes import is_prefix, mce, mcp
from prefixsim.simnet import DelayPolicy, Simulation
from prefixsim.spc import SpcConfig, SpcEngine

a, b, c, d = b"a", b"b", b"c", b"d"


def cfg3(n=4, f=1, L=4):
    return PcConfig(n, f, L, Variant.THREE_ROUND, ("t", "pc3"))


def test_config_bounds():
    with pytest.raises(ValueError):
        PcConfig(3, 1, 4, Variant.THREE_ROUND)
    with pytest.raises(ValueError):
        PcConfig(5, 1, 4, Variant.FAST_5F1)
    assert PcConfig(6, 1, 4, Variant.FAST_5F1).quorum == 5


def bare_qc(r, values):
    """A round-``r`` certificate of unsigned votes: certification reads no signature."""
    return QC(r, tuple(Vote(("t",), r, p, tuple(v), Signature(p, b"")) for p, v in enumerate(values)))


def test_qc1_certify_examples():
    cfg = cfg3()
    assert certify(bare_qc(1, [(a, b), (a, b), (a, c)]), cfg) == (a, b)
    opt = PcConfig(4, 1, 4, Variant.OPTIMISTIC)
    assert certify(bare_qc(1, [(a, b), (a, b), (a, c)]), opt) == ((a, b), (a,))
    fast = PcConfig(6, 1, 4, Variant.FAST_5F1)
    votes = [(a, b)] * 4 + [(a, c)]
    assert certify(bare_qc(1, votes), fast) == (a, b)
    # Brute-force over size-4 subsets agrees.
    best = ()
    for sub in itertools.combinations(votes, 4):
        cand = mcp(sub)
        if len(cand) > len(best):
            best = cand
    assert best == (a, b)


def test_qc2_certify_examples():
    fast = PcConfig(6, 1, 4, Variant.FAST_5F1)
    assert certify(bare_qc(2, [(a,), (a, b), (a, b)]), fast) == ((a,), (a, b))
    cfg = cfg3()
    assert certify(bare_qc(2, [(a, b)] * 3), cfg) == (a, b)
    opt = PcConfig(4, 1, 1, Variant.OPTIMISTIC)
    assert certify(bare_qc(2, [(a,), (a,)]), opt) == ((a,), (a,))


def test_qc3_certify_examples():
    cfg = cfg3()
    assert certify(bare_qc(3, [(a,), (a, b), (a, b)]), cfg) == ((a,), (a, b))
    opt = PcConfig(4, 1, 4, Variant.OPTIMISTIC)
    # Optimistic round 3: the common prefix, and the common extension
    # unless the votes conflict.
    assert certify(bare_qc(3, [(a, b), (a, c), (a,)]), opt) == ((a,), None)
    assert certify(bare_qc(3, [(a, b), (a,), (a, b, c)]), opt) == ((a,), (a, b, c))


# ---------------------------------------------------------------------------
# Engine runs through the simulator


def run_pc(variant, n, f, L, inputs, seed=0, policy=None):
    cfg = PcConfig(n, f, L, variant, ("t", variant.value))
    scheme = MacScheme(n)
    sim = Simulation(
        n,
        lambda p: PcEngine(cfg, p, scheme),
        policy=policy or DelayPolicy.synchronized(1),
        seed=seed,
    )
    for party, vec in enumerate(inputs):
        sim.schedule_input(party, tuple(vec), at=0)
    metrics = sim.run()
    return sim, metrics


def test_three_round_fault_free_timing():
    inputs = [(a, b, c, d)] * 4
    sim, metrics = run_pc(Variant.THREE_ROUND, 4, 1, 4, inputs)
    for p in range(4):
        assert metrics.output_time(p, "low") == 3
        assert metrics.output_time(p, "high") == 3
        assert metrics.output_value(p, "low") == (a, b, c, d)
        assert metrics.output_value(p, "high") == (a, b, c, d)
    # Three all-to-all rounds: 3 * n * (n-1) network messages.
    assert metrics.message_count == 36


def test_three_round_divergent_inputs():
    inputs = [(a, b, c, d), (a, b, c, c), (a, b, d, d), (a, b, c, d)]
    sim, metrics = run_pc(Variant.THREE_ROUND, 4, 1, 4, inputs)
    common = mcp(inputs)
    for i in range(4):
        low = metrics.output_value(i, "low")
        assert is_prefix(common, low)
        for j in range(4):
            assert is_prefix(low, metrics.output_value(j, "high"))


def test_optimistic_fault_free_timing():
    inputs = [(a, b, c, d)] * 4
    sim, metrics = run_pc(Variant.OPTIMISTIC, 4, 1, 4, inputs)
    for p in range(4):
        assert metrics.output_time(p, "opt") == 2
        # Unanimous inputs: the optimistic value already has full length,
        # so low/high fire at the same quorum.
        assert metrics.output_time(p, "low") == 2
        assert metrics.output_time(p, "high") == 2
        assert metrics.output_value(p, "opt") == (a, b, c, d)


def test_optimistic_divergent_inputs_four_rounds():
    inputs = [(a, b, c, d), (a, b, c, c), (a, b, d, d), (a, c, c, d)]
    sim, metrics = run_pc(Variant.OPTIMISTIC, 4, 1, 4, inputs)
    for p in range(4):
        assert metrics.output_time(p, "opt") == 2
        assert metrics.output_time(p, "low") <= 4
        assert metrics.output_time(p, "high") <= 4
        assert is_prefix(metrics.output_value(p, "opt"), metrics.output_value(p, "low"))
        assert is_prefix(mcp(inputs), metrics.output_value(p, "opt"))


def test_fast_variant_two_rounds():
    inputs = [(a, b, c, d)] * 6
    sim, metrics = run_pc(Variant.FAST_5F1, 6, 1, 4, inputs)
    for p in range(6):
        assert metrics.output_time(p, "low") == 2
        assert metrics.output_time(p, "high") == 2


def test_engine_drops_malformed_and_duplicate():
    cfg = cfg3()
    scheme = MacScheme(4)
    engine = PcEngine(cfg, 0, scheme)
    engine.on_input((a, b, c, d))
    vec = (a, b, c, d)
    sig = scheme.sign_vector(1, crypto.VOTE1, cfg.instance, vec)
    vote = Vote(cfg.instance, 1, 1, vec, sig)
    assert engine.on_message(1, vote) == []
    # Duplicate sender in one round: first kept, second ignored (no drop).
    other = Vote(cfg.instance, 1, 1, (a,), scheme.sign_vector(1, crypto.VOTE1, cfg.instance, (a,)))
    assert engine.on_message(1, other) == []
    assert engine.votes[1][1].value == vec
    # Wrong transport sender, bad signature and junk are drops.
    assert engine.on_message(2, vote) == [DROP]
    bad = Vote(cfg.instance, 1, 3, vec, scheme.sign_vector(3, crypto.VOTE1, ("x",), vec))
    assert engine.on_message(3, bad) == [DROP]
    assert engine.on_message(2, "junk") == [DROP]


# ---------------------------------------------------------------------------
# Verifiability predicates


# Hostile field shapes, built for instance ``inst`` with ``sign(kind,
# value)`` signing as party 1.  Each used to raise inside verify_vote.
HOSTILE_VOTES = {
    "int qcs": lambda inst, sign: Vote(inst, 1, 1, (a,), sign(crypto.VOTE1, (a,)), 5),
    "tuple sig": lambda inst, sign: Vote(inst, 1, 1, (a,), (1, b"x")),
    "list round": lambda inst, sign: Vote(inst, [1], 1, (a,), sign(crypto.VOTE1, (a,))),
    "int element": lambda inst, sign: Vote(inst, 1, 1, (a, 7), Signature(1, bytes(16))),
    "int qc votes": lambda inst, sign: Vote(inst, 2, 1, (a,), sign(crypto.VOTE2, (a,)), (QC(1, 5),)),
    "qc of ints": lambda inst, sign: Vote(inst, 2, 1, (a,), sign(crypto.VOTE2, (a,)), (QC(1, (1, 2, 3)),)),
}


@pytest.mark.parametrize("route", ["direct", "view envelope"])
@pytest.mark.parametrize("shape", list(HOSTILE_VOTES))
def test_hostile_vote_shapes_are_counted_drops(shape, route):
    scheme = MacScheme(4)
    if route == "direct":
        engine = PcEngine(cfg3(), 0, scheme)
        inst, wrap = engine.cfg.instance, lambda vote: vote
    else:
        spc_cfg = SpcConfig(4, 1, 4, 1, ("t", "spc"))
        engine = SpcEngine(spc_cfg, 0, scheme)
        inst, wrap = spc_cfg.vpc_cfg(1).instance, lambda vote: Nested(spc_cfg.instance, 1, vote)
    vote = HOSTILE_VOTES[shape](inst, lambda kind, value: scheme.sign_vector(1, kind, inst, value))
    assert engine.on_message(1, wrap(vote)) == [DROP]


def honest_run_outputs(variant=Variant.THREE_ROUND, n=4, f=1, L=4):
    inputs = [(a, b, c, d), (a, b, c, c), (a, b, d, d), (a, b, c, d)][:n]
    sim, metrics = run_pc(variant, n, f, L, inputs)
    return sim, metrics


def test_predicates_accept_honest_outputs():
    cfg = cfg3()
    scheme = MacScheme(4)
    sim, metrics = honest_run_outputs()
    for p in range(4):
        low, proof_low, _ = metrics.outputs[p]["low"]
        high, proof_high, _ = metrics.outputs[p]["high"]
        assert predicate_low(low, proof_low, cfg, scheme)
        assert predicate_high(high, proof_high, cfg, scheme)


def test_predicates_reject_swapped_values():
    cfg = cfg3()
    scheme = MacScheme(4)
    sim, metrics = honest_run_outputs()
    for p in range(4):
        low, proof, _ = metrics.outputs[p]["low"]
        high, _, _ = metrics.outputs[p]["high"]
        if low != high:
            assert not predicate_low(high, proof, cfg, scheme)
            assert not predicate_high(low, proof, cfg, scheme)


def test_predicates_reject_corrupted_signature():
    cfg = cfg3()
    scheme = MacScheme(4)
    sim, metrics = honest_run_outputs()
    low, proof, _ = metrics.outputs[0]["low"]
    victim = proof.votes[0]
    flipped = bytes([victim.sig.blob[0] ^ 1]) + victim.sig.blob[1:]
    forged_vote = Vote(victim.inst, victim.round, victim.sender, victim.value,
                       crypto.Signature(victim.sender, flipped), victim.qcs)
    forged = QC(proof.round, (forged_vote,) + proof.votes[1:])
    assert not predicate_low(low, forged, cfg, scheme)
    assert not verify_qc(forged, cfg, scheme)


def test_optimistic_predicate_stages():
    cfg = PcConfig(4, 1, 4, Variant.OPTIMISTIC, ("t", "pc_opt"))
    scheme = MacScheme(4)
    inputs = [(a, b, c, d)] * 4
    sim, metrics = run_pc(Variant.OPTIMISTIC, 4, 1, 4, inputs)
    for p in range(4):
        low, proof_low, _ = metrics.outputs[p]["low"]
        high, proof_high, _ = metrics.outputs[p]["high"]
        assert proof_low.round == 2  # full-length optimistic stage
        assert predicate_low(low, proof_low, cfg, scheme)
        assert predicate_high(high, proof_high, cfg, scheme)


def test_conflicting_certified_prefixes_fault():
    # A vote set whose round-2 values conflict breaks the quorum
    # intersection assumption; certification faults loudly instead of
    # producing garbage.
    from prefixsim.pc import ProtocolViolation

    cfg = cfg3()
    with pytest.raises(ProtocolViolation):
        certify(bare_qc(3, [(a, b), (a, c), (a,)]), cfg)


def test_wrong_quorum_size_rejected():
    cfg = cfg3()
    scheme = MacScheme(4)
    votes = []
    for p in range(2):  # quorum is 3
        vec = (a, b, c, d)
        votes.append(Vote(cfg.instance, 1, p, vec, scheme.sign_vector(p, crypto.VOTE1, cfg.instance, vec)))
    assert not verify_qc(QC(1, tuple(votes)), cfg, scheme)
    dup = QC(1, (votes[0], votes[0], votes[1]))
    assert not verify_qc(dup, cfg, scheme)


def test_engine_runs_on_ed25519_backend():
    from prefixsim.crypto import Ed25519Scheme

    cfg = PcConfig(4, 1, 2, Variant.THREE_ROUND, ("t", "ed"))
    scheme = Ed25519Scheme(4)
    sim = Simulation(4, lambda p: PcEngine(cfg, p, scheme), policy=DelayPolicy.synchronized(1))
    for p in range(4):
        sim.schedule_input(p, (a, b))
    metrics = sim.run()
    for p in range(4):
        assert metrics.output_time(p, "low") == 3
        low, proof, _ = metrics.outputs[p]["low"]
        assert predicate_low(low, proof, cfg, scheme)


def test_fast_variant_certified_values_pairwise_consistent():
    # Under n >= 5f+1, any two round-1 certifications agree up to the
    # shorter one, across parties and schedules.
    from prefixsim.simnet import DelayPolicy as DP

    rng = random.Random(5)
    for seed in range(20):
        inputs = [
            tuple(bytes([97 + rng.randrange(2)]) for _ in range(4)) for _ in range(6)
        ]
        cfg = PcConfig(6, 1, 4, Variant.FAST_5F1, ("t", "fastlemma"))
        scheme = MacScheme(6)
        sim = Simulation(
            6,
            lambda p: PcEngine(cfg, p, scheme),
            policy=DP(gst=None, default_delay=1, jitter=4),
            seed=seed,
        )
        for party, vec in enumerate(inputs):
            sim.schedule_input(party, vec)
        sim.run()
        certified = [
            certify(sim.engines[p].own_qcs[1], cfg)
            for p in range(6)
            if 1 in sim.engines[p].own_qcs
        ]
        for i in range(len(certified)):
            for j in range(i + 1, len(certified)):
                assert is_prefix(certified[i], certified[j]) or is_prefix(certified[j], certified[i])


def test_determinism_same_seed_same_transcript():
    inputs = [(a, b, c, d), (a, b, c, c), (a, b, d, d), (a, c, c, d)]
    _, m1 = run_pc(Variant.THREE_ROUND, 4, 1, 4, inputs, seed=7)
    _, m2 = run_pc(Variant.THREE_ROUND, 4, 1, 4, inputs, seed=7)
    assert m1.transcript_sha == m2.transcript_sha
    _, m3 = run_pc(Variant.THREE_ROUND, 4, 1, 4, inputs, seed=8)
    assert m1.transcript_sha == m3.transcript_sha  # no randomness in fixed-delay policy


# ---------------------------------------------------------------------------
# What a certificate certifies is derived once and kept on it


def test_certify_results_live_on_the_qc_keyed_by_cfg():
    cfg = PcConfig(4, 1, 4, Variant.THREE_ROUND, ("t", "pc3"))
    sim, metrics = honest_run_outputs()
    qc1 = sim.engines[0].own_qcs[1]
    proof = metrics.outputs[0]["low"][1]
    # The engine certified both on the way to its outputs.
    assert ("qc", cfg) in vars(qc1)["_cached"]
    assert ("qc", cfg) in vars(proof)["_cached"]
    assert certify(qc1, cfg) == certify(QC(1, qc1.votes), cfg)
    assert certify(proof, cfg) == certify(bare_qc(3, proof.values()), cfg)
    # Another config keeps its own result next to it, never the first one.
    opt = PcConfig(4, 1, 4, Variant.OPTIMISTIC, ("t", "pc3"))
    assert certify(qc1, opt) == certify(bare_qc(1, qc1.values()), opt) != certify(qc1, cfg)
    assert vars(qc1)["_cached"][("qc", opt)] != vars(qc1)["_cached"][("qc", cfg)]
    # Nothing derived from a certificate sits on its votes.
    for vote in qc1.votes + proof.votes:
        assert not any(isinstance(key, tuple) and key[0] == "qc" for key in vars(vote).get("_cached", {}))


def test_conflicting_qc_raises_every_time_and_caches_nothing():
    from prefixsim.pc import ProtocolViolation

    cfg = cfg3()
    scheme = MacScheme(4)
    votes = tuple(
        Vote(cfg.instance, 3, p, vec, scheme.sign_vector(p, crypto.VOTE3, cfg.instance, vec))
        for p, vec in enumerate([(a, b), (a, c), (a,)])
    )
    qc = QC(3, votes)
    for _ in range(2):
        with pytest.raises(ProtocolViolation):
            certify(qc, cfg)
    assert ("qc", cfg) not in vars(qc).get("_cached", {})
    assert not predicate_high((a, b), qc, cfg, scheme)


def test_equal_configs_hash_equal():
    one = PcConfig(4, 1, 4, Variant.THREE_ROUND, ("x", "view", 2))
    two = PcConfig(4, 1, 4, Variant.THREE_ROUND, ("x",) + ("view", 2))
    assert one == two and one is not two and hash(one) == hash(two)
    assert {one: "verdict"}[two] == "verdict"
    assert one != PcConfig(4, 1, 4, Variant.OPTIMISTIC, ("x", "view", 2))
    assert one != PcConfig(4, 1, 3, Variant.THREE_ROUND, ("x", "view", 2))
    spc = SpcConfig(4, 1, 3, 1, ("x",))
    assert spc.vpc_cfg(2) is spc.vpc_cfg(2)
    assert spc.vpc_cfg(2) == one
    assert spc.vpc_cfg(1) == PcConfig(4, 1, 3, Variant.THREE_ROUND, ("x", "view", 1))


class _ShortLowEngine(PcEngine):
    """Outputs a low one element shorter than its proof certifies."""

    def _output(self, kind, value, proof):
        if kind == "low":
            value = value[:-1]
        return super()._output(kind, value, proof)


def test_mutant_low_is_a_verifiability_violation_with_warm_caches():
    from prefixsim import checks
    from prefixsim.scenario import RunResult

    cfg = cfg3()
    scheme = MacScheme(4)
    inputs = [(a, b, c, d)] * 4
    sim = Simulation(4, lambda p: _ShortLowEngine(cfg, p, scheme), policy=DelayPolicy.synchronized(1))
    for party, vec in enumerate(inputs):
        sim.schedule_input(party, vec)
    metrics = sim.run()
    for p in range(4):
        low, proof, _ = metrics.outputs[p]["low"]
        assert low == (a, b, c)
        assert vars(proof)["_cached"][("qc", cfg)] == ((a, b, c, d), (a, b, c, d))
    violations = checks.pc(RunResult({}, sim, metrics, inputs, cfg, scheme))
    assert sum(v.invariant == "verifiability" for v in violations) == 4


# ---------------------------------------------------------------------------
# One round schedule: outputs once per kind, votes once per round


# Unanimous pc_opt under fuzzed asynchrony where a round-3 quorum of other
# parties' votes outputs high before the party's own round-2 quorum, whose
# full-length early output then emitted high a second time.
_HIGH_BEFORE_EARLY = [(4, 1, s) for s in (107, 195, 220, 259, 286, 1115, 1247, 1273, 1368, 1375,
                                          1438, 2688, 2725, 2828)] + [(7, 2, 274)]


@pytest.mark.parametrize("n,f,seed", _HIGH_BEFORE_EARLY)
def test_optimistic_high_before_early_output_completes(n, f, seed):
    from prefixsim.scenario import run_scenario

    result = run_scenario({"version": 1, "protocol": "pc_opt", "n": n, "f": f, "L": n, "gst": None,
                           "seed": seed, "inputs": {"kind": "unanimous", "value": "blk"},
                           "adversary": {"kind": "fuzz", "stretch": 6}})
    assert result.violations == []
    for p in result.honest:
        assert set(result.metrics.outputs[p]) == {"opt", "low", "high"}


def _signed_vote(scheme, cfg, r, party, value, qcs=()):
    return Vote(cfg.instance, r, party, value, scheme.sign_vector(party, VOTE_KIND[r], cfg.instance, value), qcs)


@pytest.mark.parametrize("order", ["round-2 quorum first", "own round-2 vote closes round 2"])
def test_one_vote_per_round_whatever_order_quorums_close(order):
    cfg = PcConfig(4, 1, 4, Variant.OPTIMISTIC, ("t", "pc_opt"))
    scheme = MacScheme(4)
    vec = (a, b, c, d)
    ones = [_signed_vote(scheme, cfg, 1, p, vec) for p in range(4)]
    qc1 = QC(1, tuple(ones[1:]))
    twos = [_signed_vote(scheme, cfg, 2, p, certify(qc1, cfg)[1], (qc1,)) for p in range(4)]
    engine = PcEngine(cfg, 0, scheme)
    actions = engine.on_input(vec)
    # (a) all of round 2 from others closes before our round-1 quorum;
    # (b) two round-2 votes wait, and our own closes round 2 from inside
    # the handling of our round-1 quorum.
    early = twos[1:] if order == "round-2 quorum first" else twos[1:3]
    for vote in early + ones[1:3]:
        actions += engine.on_message(vote.sender, vote)
    assert [act.msg.round for act in actions if isinstance(act, Broadcast)] == [1, 2, 3]
    assert set(engine.own_qcs) == {1, 2}


def test_predicates_reject_what_a_certificate_does_not_prove():
    scheme = MacScheme(4)
    inputs = [(a, b, c, d), (a, b, c, c), (a, b, d, d), (a, c, c, d)]
    sim, _ = run_pc(Variant.THREE_ROUND, 4, 1, 4, inputs)
    cfg = PcConfig(4, 1, 4, Variant.THREE_ROUND, ("t", "pc3"))
    qcs = sim.engines[0].own_qcs
    for qc, certified in ((qcs[1], certify(qcs[1], cfg)), (qcs[2], certify(qcs[2], cfg))):
        for value in (certified, None, (), inputs[0]):
            assert not predicate_low(value, qc, cfg, scheme)
            assert not predicate_high(value, qc, cfg, scheme)
    sim, _ = run_pc(Variant.OPTIMISTIC, 4, 1, 4, inputs)
    opt = PcConfig(4, 1, 4, Variant.OPTIMISTIC, ("t", "pc_opt"))
    qcs = sim.engines[0].own_qcs
    # A round-3 certificate whose votes agree proves a high, never a low.
    agreed = mce(qcs[3].values())
    assert agreed is not None and predicate_high(agreed, qcs[3], opt, scheme)
    for value in (agreed, certify(qcs[3], opt)[0], None):
        assert not predicate_low(value, qcs[3], opt, scheme)
    # A round-2 certificate short of full length proves only the opt output.
    early, _ = certify(qcs[2], opt)
    assert len(early) < opt.L
    for value in (early, None):
        assert not predicate_low(value, qcs[2], opt, scheme)
        assert not predicate_high(value, qcs[2], opt, scheme)


def test_predicates_reject_a_round_the_variant_lacks():
    # A vote of a round outside the variant's schedule fails verify_vote,
    # so neither predicate reaches certification for its certificate.
    fast, fast_scheme = PcConfig(6, 1, 4, Variant.FAST_5F1, ("t", "pc_5f1")), MacScheme(6)
    threes = QC(3, tuple(_signed_vote(fast_scheme, fast, 3, p, (a, b)) for p in range(fast.quorum)))
    cfg, scheme = cfg3(), MacScheme(4)
    fours = QC(4, tuple(_signed_vote(scheme, cfg, 4, p, (a, b)) for p in range(cfg.quorum)))
    for qc, qc_cfg, qc_scheme in ((threes, fast, fast_scheme), (fours, cfg, scheme)):
        assert not verify_qc(qc, qc_cfg, qc_scheme)
        for value in ((a, b), None):
            assert not predicate_low(value, qc, qc_cfg, qc_scheme)
            assert not predicate_high(value, qc, qc_cfg, qc_scheme)
        assert ("qc", qc_cfg) not in vars(qc).get("_cached", {})
