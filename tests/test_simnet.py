"""Simulator semantics: determinism, delivery bounds, suspension, ticks,
and the lifetime of a finished run."""

import gc
import os
import weakref
from fractions import Fraction

import pytest

from prefixsim import adversaries, checks
from prefixsim.actions import DROP, Broadcast, Output, Send, StartTimer
from prefixsim.scenario import load_scenario, run_scenario
from prefixsim.simnet import Adversary, DelayPolicy, Simulation, SimulationError
from test_determinism import SAMPLE

SCENARIOS = os.path.join(os.path.dirname(adversaries.__file__), "scenarios")


class EchoEngine:
    """Test reactor: broadcasts its input once, records receipts."""

    def __init__(self, party):
        self.party = party
        self.seen = []

    def on_input(self, value):
        return [Broadcast(("hello", self.party, value)), Output("started", value)]

    def on_message(self, sender, msg):
        self.seen.append((sender, msg))
        return []

    def on_timer(self, key):
        self.seen.append(("timer", key))
        return []


def build(n=3, **kw):
    sim = Simulation(n, lambda p: EchoEngine(p), **kw)
    for p in range(n):
        sim.schedule_input(p, p * 10)
    return sim


def test_messages_delivered_to_all_but_self():
    sim = build()
    sim.run()
    assert sim.metrics.message_count == 6  # 3 broadcasts x 2 receivers
    for p in range(3):
        senders = {s for s, _ in sim.engines[p].seen}
        assert senders == {q for q in range(3) if q != p}


def test_drops_are_counted_and_never_traced():
    class Dropper(EchoEngine):
        def on_message(self, sender, msg):
            super().on_message(sender, msg)
            return [DROP, DROP]

    ignoring = build(record=True)
    ignoring.run()
    dropping = Simulation(3, Dropper, record=True)
    for p in range(3):
        dropping.schedule_input(p, p * 10)
    metrics = dropping.run()
    assert (ignoring.metrics.drops, metrics.drops) == (0, 12)
    assert dropping.records == ignoring.records
    assert metrics.transcript_sha == ignoring.metrics.transcript_sha


def test_same_seed_same_transcript():
    # Async policy (no cap) so the jittered delays actually vary.
    policy = DelayPolicy(gst=None, default_delay=1, jitter=5)
    a = build(seed=11, policy=policy)
    b = build(seed=11, policy=policy)
    c = build(seed=12, policy=policy)
    assert a.run().transcript_sha == b.run().transcript_sha
    assert a.metrics.transcript_sha != c.run().transcript_sha


def test_post_gst_cap_enforced_for_honest_links():
    policy = DelayPolicy(gst=0, cap=2, default_delay=1)

    class SlowAdversary(Adversary):
        def pick_delay(self, rng, sender, receiver, t):
            return 50  # must be clamped for honest traffic

    sim = build(policy=policy, adversary=SlowAdversary())
    metrics = sim.run()
    assert metrics.end_time <= 2


def test_pre_gst_delays_unbounded_but_finite():
    policy = DelayPolicy(gst=100, cap=2, default_delay=1)

    class SlowAdversary(Adversary):
        def pick_delay(self, rng, sender, receiver, t):
            return 500

    sim = build(policy=policy, adversary=SlowAdversary())
    metrics = sim.run()
    # Clamped to gst + cap, not to send + cap.
    assert metrics.end_time == 102


def _deliveries(sim):
    """The delivery time text of each recorded send, by (sender, receiver)."""
    out = {}
    for line in sim.records:
        _at, kind, link, *rest = line.split()
        if kind == "send":
            sender, receiver = map(int, link.split("->"))
            out[sender, receiver] = next(w for w in rest if w.startswith("deliver@"))[len("deliver@"):]
    return out


def test_delayer_stretches_listed_links_before_gst_and_keeps_jitter_elsewhere():
    links = [(0, 1), (2, 0)]
    # Before GST a listed link takes the stretch, every other link the default.
    sim = build(policy=DelayPolicy(gst=100, cap=2, default_delay=1),
                adversary=adversaries.Delayer(links, stretch=8), record=True)
    sim.run()
    assert _deliveries(sim) == {(0, 1): "8", (0, 2): "1", (1, 0): "1", (1, 2): "1", (2, 0): "8", (2, 1): "1"}

    # After GST honest links are capped: a pre-GST stretch ends at gst + cap,
    # and a listed link used after GST takes the default delay, not the cap.
    sim = Simulation(3, EchoEngine, policy=DelayPolicy(gst=2, cap=2, default_delay=1),
                     adversary=adversaries.Delayer(links, stretch=8), record=True)
    sim.schedule_input(0, 0)
    sim.schedule_input(2, 20, at=5)
    sim.run()
    assert _deliveries(sim) == {(0, 1): "4", (0, 2): "1", (2, 0): "6", (2, 1): "6"}

    # With jitter, listed links keep the stretch before GST and every other
    # link draws from [1, jitter] in sixteenths.
    sim = build(policy=DelayPolicy(gst=100, cap=2, default_delay=1, jitter=3),
                adversary=adversaries.Delayer(links, stretch=8), seed=4, record=True)
    sim.run()
    assert sim.tick == 16
    drawn = {link: Fraction(t) for link, t in _deliveries(sim).items()}
    assert drawn[0, 1] == drawn[2, 0] == 8
    others = [t for link, t in drawn.items() if link not in links]
    assert all(1 <= t <= 3 and (16 * t).denominator == 1 for t in others)
    assert len(set(others)) > 1


def test_scenario_jitter_is_a_policy_field():
    base = {"version": 1, "protocol": "pc3", "n": 4, "f": 1, "L": 4, "gst": None}
    cases = [
        ({"kind": "fuzz"}, 6),
        ({"kind": "fuzz", "stretch": 5}, 5),
        ({"kind": "silent", "byzantine": [3], "jitter": 4}, 4),
        ({"kind": "delayer", "links": [[0, 1]], "jitter": 2}, 2),
        ({"kind": "delayer", "links": [[0, 1]]}, None),
        ({"kind": "none"}, None),
    ]
    for adversary, jitter in cases:
        result = run_scenario({**base, "adversary": adversary})
        assert result.sim.policy.jitter == jitter, adversary
        assert result.sim.tick == (1 if jitter is None else 16), adversary
    fuzz = run_scenario({**base, "adversary": {"kind": "fuzz", "byzantine": [3]}})
    assert type(fuzz.sim.adversary) is Adversary and fuzz.sim.adversary.byzantine == {3}


def test_rational_time_supported():
    policy = DelayPolicy(gst=None, cap=1, default_delay=Fraction(6, 5))
    sim = build(policy=policy)
    metrics = sim.run()
    assert metrics.end_time == Fraction(6, 5)
    assert sim.tick == 5
    # Recorded before virtual time became integer ticks.
    assert metrics.transcript_sha == "e1a3778402af0c8c8b297d17f152b8fa5d0057791b131d542d2dcf961e2fb03b"


def test_suspension_defers_delivery_and_sending():
    # Party 0 suspended during [0, 3), the first round: its input (and
    # hence its own broadcast) waits until the round ends.
    sim = build(policy=DelayPolicy(suspend=3))
    metrics = sim.run()
    started = metrics.output_time(0, "started")
    assert started == 3
    assert metrics.output_time(1, "started") == 0


def test_suspender_rotates_one_party_per_round():
    # Round r suspends the r-th honest party in id order, cyclically; an
    # input at t reaches its party when the party's round ends.
    def resumes(party, t, adversary=None):
        sim = Simulation(4, EchoEngine, adversary=adversary,
                         policy=DelayPolicy(default_delay=Fraction(1, 2), suspend=1))
        sim.schedule_input(party, 0, at=t)
        return sim.run().output_time(party, "started")

    assert resumes(0, 0) == 1
    assert resumes(1, 0) == 0
    assert resumes(1, 1) == 2
    assert resumes(1, Fraction(3, 2)) == 2
    assert resumes(0, 4) == 5
    # Byzantine parties are never suspended: round 1 takes party 2.
    assert resumes(2, 1, adversaries.Silent(byzantine={1})) == 2


def test_byz_send_requires_byzantine_sender():
    sim = build(adversary=adversaries.Silent(byzantine={0}))
    with pytest.raises(SimulationError):
        sim.byz_send(1, 2, "nope")


def test_duplicate_output_rejected():
    class DoubleOut(EchoEngine):
        def on_input(self, value):
            return [Output("started", value), Output("started", value)]

    sim = Simulation(1, lambda p: DoubleOut(p))
    sim.schedule_input(0, 0)
    with pytest.raises(SimulationError):
        sim.run()


def test_event_budget_guards_runaway():
    class Chatter(EchoEngine):
        def on_message(self, sender, msg):
            return [Broadcast(("again", self.party))]

    sim = Simulation(2, lambda p: Chatter(p), max_events=200)
    sim.schedule_input(0, 0)
    sim.schedule_input(1, 1)
    with pytest.raises(SimulationError):
        sim.run()


# ---------------------------------------------------------------------------
# integer ticks: the transcript of exact rational time, byte for byte

#: transcript_sha of each test_determinism sample, recorded when the
#: simulator still kept its clock as Fractions.  The pc_opt and pc_5f1
#: samples came later; theirs were recorded before the pc round schedule
#: was written once, and that rewrite left them unchanged.
SAMPLE_SHAS = [
    "b43f56be5d42aa99f64eefc8bda6733fd6ff6cb6c87f4553577bd7cd17ed3aa9",
    "9807d94488674a2aac351a9aaef3fd834c458f9a8f5243b71e0d66036afbf481",
    "c998a3be86047e94d01bbea4d98ae6e5c229277c6f911ea23fdb6a7be90166a9",
    "56319ecee447ddfd296597538edc06b57359d7cddfa789d3b1522f61b4e11181",
    "2d83ea600393b2792d8ff9851b2f7a49a2493564b92391b3d86af815db62a1f6",
]

#: Partially synchronous spc under fuzz: its deliveries clamp to gst+cap.
PSYNC_SPC_FUZZ = {"version": 1, "protocol": "spc", "n": 4, "f": 1, "L": 4, "gst": 12, "delta": 1,
                  "delta_cap": 2, "seed": 7, "inputs": {"kind": "random", "alphabet": 3},
                  "adversary": {"kind": "fuzz", "stretch": 5}}


def test_transcripts_pinned_across_the_tick_rewrite():
    assert [run_scenario(scn).metrics.transcript_sha for scn in SAMPLE] == SAMPLE_SHAS
    leaderless = run_scenario(load_scenario(os.path.join(SCENARIOS, "msc_leaderless_n4.json")))
    assert leaderless.metrics.transcript_sha == (
        "0670aead8054c6be785021155039a64d64f09c7c286c3a055f5dd080b64777c0")
    assert leaderless.metrics.end_time == 23
    fuzz = run_scenario(PSYNC_SPC_FUZZ, record=True)
    assert fuzz.metrics.transcript_sha == (
        "441baa248b5d63953ae11a7846dc67cda2f4065c881247946ee9962995ac2623")
    assert "@187/16 send 0->1 Nested inst=('scn', 'spc') key=2 deliver@14 b=0" in fuzz.sim.records
    assert {str(fuzz.metrics.output_time(p, "high")) for p in range(4)} == {
        "18", "281/16", "143/8"}


def test_edge_times_are_int_on_whole_ticks_and_fraction_otherwise():
    whole = run_scenario({**PSYNC_SPC_FUZZ, "adversary": {"kind": "none"}})
    assert whole.sim.tick == 1
    times = [t for outs in whole.metrics.outputs.values() for _v, _p, t in outs.values()]
    assert times and all(type(t) is int for t in times + [whole.metrics.end_time])
    fuzz = run_scenario(PSYNC_SPC_FUZZ)
    assert fuzz.sim.tick == 16
    times = [t for outs in fuzz.metrics.outputs.values() for _v, _p, t in outs.values()]
    # Whole instants too (a delivery clamped to gst+cap lands on one).
    assert Fraction(18) in times
    assert all(type(t) is Fraction for t in times + [fuzz.metrics.end_time])


def test_tick_is_the_lcm_of_every_declared_grain():
    assert build(policy=DelayPolicy(suspend=Fraction(7, 5))).tick == 5
    policy = DelayPolicy(gst=Fraction(1, 2), cap=Fraction(2, 3), default_delay=1, jitter=2, suspend=Fraction(7, 5))
    # 2 (gst), 3 (cap), 5 (the suspension rounds), 16 (JITTER_GRAIN)
    assert build(policy=policy).tick == 240


def test_undeclared_grain_raises_instead_of_rounding():
    class Thirds(Adversary):
        def pick_delay(self, rng, sender, receiver, t):
            return Fraction(1, 3)

    with pytest.raises(SimulationError, match="not a multiple of the tick 1/1"):
        build(adversary=Thirds()).run()


def test_float_time_rejected():
    with pytest.raises(SimulationError, match="int or a Fraction"):
        build(policy=DelayPolicy(gst=0, cap=0.5, default_delay=1))


# ---------------------------------------------------------------------------
# model soundness: the recorded transcript respects partial synchrony


def _psync_fuzz_scenarios():
    out = []
    for i in range(60):
        scn = {"version": 1, "delta": 1, "delta_cap": 2, "gst": (0, 5, 12)[i % 3], "seed": 900 + i,
               "inputs": {"kind": "random", "alphabet": 2},
               "adversary": {"kind": "fuzz", "stretch": 5}}
        if i % 2:
            scn.update(protocol="msc", n=4, f=1, slots=2)
        else:
            scn.update(protocol="spc", n=4, f=1, L=4)
        out.append(scn)
    return out


def test_model_soundness_holds_on_fuzzed_partially_synchronous_runs():
    clamped = 0
    for scn in _psync_fuzz_scenarios():
        result = run_scenario(scn, record=True)
        assert checks.model_soundness(result.sim) == [], scn["seed"]
        gst_cap = f"deliver@{scn['gst'] + 2} "
        clamped += sum(" send " in line and gst_cap in line for line in result.sim.records)
    assert clamped > 0  # the cap was exercised, not just met by short delays


def test_model_soundness_reports_a_late_honest_delivery():
    sim = build(policy=DelayPolicy(gst=4, cap=2, default_delay=1), record=True)
    sim.run()
    assert checks.model_soundness(sim) == []
    sim.records.append("@5 send 0->1 tuple deliver@15/2 b=0")
    sim.records.append("@1 send 1->2 tuple deliver@6 b=0")  # max(1, 4) + 2: on time
    [bad] = checks.model_soundness(sim)
    assert bad.invariant == "model" and "0->1" in str(bad)


def test_model_soundness_needs_a_recorded_run():
    sim = build()
    sim.run()
    with pytest.raises(ValueError):
        checks.model_soundness(sim)


# ---------------------------------------------------------------------------
# A finished run is freed by reference counting alone

_BASE = {"version": 1, "delta": 1, "seed": 4}
_PSYNC = {**_BASE, "gst": 12, "delta_cap": 2}
LIFETIME = {
    "pc3": {**_BASE, "protocol": "pc3", "n": 4, "f": 1, "L": 4, "gst": None,
            "adversary": {"kind": "fuzz", "stretch": 5}},
    "pc_opt": {**_BASE, "protocol": "pc_opt", "n": 4, "f": 1, "L": 4},
    "pc_5f1": {**_BASE, "protocol": "pc_5f1", "n": 6, "f": 1, "L": 6},
    "graded": {**_BASE, "protocol": "graded", "n": 4, "f": 1},
    "spc": {**_PSYNC, "protocol": "spc", "n": 4, "f": 1, "L": 4,
            "adversary": {"kind": "doctored", "byzantine": [3], "jitter": 4}},
    "msc": {**_PSYNC, "protocol": "msc", "n": 4, "f": 1, "slots": 2,
            "adversary": {"kind": "censor", "reveal": {"2": [0]}, "lag_victims": [1, 3], "lag": 6}},
    "binary": {**_PSYNC, "protocol": "binary", "n": 4, "f": 1},
    "validated": {**_PSYNC, "protocol": "validated", "n": 4, "f": 1},
    "equivocate": {**_PSYNC, "protocol": "msc", "n": 4, "f": 1, "slots": 2,
                   "adversary": {"kind": "equivocate", "byzantine": [3], "jitter": 4}},
    "split_view": {**_PSYNC, "protocol": "spc", "n": 4, "f": 1, "L": 4,
                   "adversary": {"kind": "split_view", "byzantine": [0], "jitter": 4}},
}


@pytest.mark.parametrize("name", list(LIFETIME))
def test_finished_run_is_freed_without_the_cyclic_collector(name):
    # Engines, hosts and the adversary hold their owners weakly, so
    # dropping the result frees the whole run at once.
    run_scenario(LIFETIME[name])  # warm the process-wide tables first
    gc.disable()
    try:
        gc.collect()
        result = run_scenario(LIFETIME[name])
        assert result.violations == []
        assert isinstance(result.sim.engines[1].on_message(0, "junk"), list)  # engines stay usable
        sim = weakref.ref(result.sim)
        del result
        assert sim() is None
        assert gc.collect() == 0
    finally:
        gc.enable()
