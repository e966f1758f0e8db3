"""Multi-slot replication: latencies, agreement, ranking demotion,
censorship accounting."""

import pytest

from prefixsim import adversaries
from prefixsim.crypto import MacScheme
from prefixsim.msc import MscConfig, MscEngine, update_rank
from prefixsim.nest import Nested
from prefixsim.simnet import DelayPolicy, Simulation
from prefixsim.spc import FetchReq


def test_update_rank_examples():
    assert update_rank((1, 2, 3, 4), (b"w",) * 4) == (1, 2, 3, 4)
    assert update_rank((1, 2, 3, 4), (b"w",) * 2) == (1, 2, 4, 3)
    assert update_rank((3, 1, 4, 2), ()) == (1, 4, 2, 3)


def payload(party, slot):
    return b"tx-%d-%d" % (party, slot)


def run_msc(n=4, f=1, slots=2, delta_cap=1, policy=None, adversary=None, seed=0, validator=None):
    cfg = MscConfig(n, f, delta_cap, ("t", "msc"), slots=slots)
    scheme = MacScheme(n)
    sim = Simulation(
        n,
        lambda p: MscEngine(cfg, p, scheme, lambda s, p=p: payload(p, s), validator=validator),
        policy=policy or DelayPolicy.synchronized(1),
        adversary=adversary,
        seed=seed,
    )
    for party in range(n):
        sim.schedule_input(party, None)
    metrics = sim.run()
    return cfg, sim, metrics


def test_slot_engines_share_one_config_per_slot():
    # Verdicts are cached under the view configs of a slot's config; one
    # object for all parties lets each party find the others' verdicts.
    _, sim, _ = run_msc(slots=3)
    for slot in (1, 2, 3):
        engines = [sim.engines[p].slots.children[slot] for p in range(4)]
        assert all(e.cfg is engines[0].cfg for e in engines)
        assert all(e.cfg.vpc_cfg(2) is engines[0].cfg.vpc_cfg(2) for e in engines)


def committed_payload_sets(sim, slot, honest):
    return {
        p: [pl for _, _, pl in sim.engines[p].committed_by_slot().get(slot, [])]
        for p in honest
    }


def test_fault_free_latencies():
    cfg, sim, metrics = run_msc(slots=2)
    # All slot-1 honest inputs are committed at t=4 at every party.
    for p in range(4):
        for idx in range(4):
            t = metrics.output_time(p, f"commit-1-{idx}")
            assert t == 4, f"party {p} index {idx} at {t}"
        # Slot 2 starts at t=8 everywhere: its proposals go out then.
        assert metrics.output_time(p, "slot1-high") == 8
    logs = committed_payload_sets(sim, 1, range(4))
    reference = logs[0]
    assert len(reference) == 4
    assert all(log == reference for log in logs.values())


def test_two_slots_commit_and_agree():
    cfg, sim, metrics = run_msc(slots=2)
    for slot in (1, 2):
        logs = committed_payload_sets(sim, slot, range(4))
        reference = logs[0]
        assert all(log == reference for log in logs.values())
        assert payload(1, slot) in reference
    for p in range(4):
        assert sim.engines[p].ranks[2] == (0, 1, 2, 3)  # full-length high: no demotion


def censor_adversary(byz=2, fed=0, victims=(1, 3), lag=6):
    return adversaries.Censor({byz: {fed}}, lag_victims=victims, lag=lag)


def test_censor_demoted_and_bounded():
    policy = DelayPolicy(gst=0, cap=2, default_delay=1)
    adv = censor_adversary(byz=2)
    cfg, sim, metrics = run_msc(slots=4, delta_cap=2, policy=policy, adversary=adv, seed=1)
    honest = [0, 1, 3]
    censored = []
    for slot in range(1, 5):
        logs = committed_payload_sets(sim, slot, honest)
        reference = logs[honest[0]]
        assert all(log == reference for log in logs.values()), f"slot {slot} disagreement"
        if any(payload(h, slot) not in reference for h in honest):
            censored.append(slot)
    assert len(censored) <= 1
    # Slot 1 is censored by construction and demotes exactly the censor.
    assert censored == [1]
    for p in honest:
        assert sim.engines[p].ranks[2] == (0, 1, 3, 2)
    # After the demotion every slot includes every honest payload.
    for slot in range(2, 5):
        logs = committed_payload_sets(sim, slot, honest)
        for h in honest:
            assert payload(h, slot) in logs[honest[0]]


def test_rankings_agree_across_parties():
    policy = DelayPolicy(gst=0, cap=2, default_delay=1)
    adv = censor_adversary(byz=2)
    cfg, sim, metrics = run_msc(slots=3, delta_cap=2, policy=policy, adversary=adv, seed=2)
    honest = [0, 1, 3]
    for slot in range(1, 4):
        ranks = {sim.engines[p].ranks.get(slot) for p in honest}
        assert len(ranks) == 1


def test_equivocator_bounded_censorship():
    policy = DelayPolicy(gst=0, cap=2, default_delay=1)
    adv = adversaries.Equivocate({2}, MacScheme(4))
    cfg, sim, metrics = run_msc(slots=4, delta_cap=2, policy=policy, adversary=adv, seed=3)
    honest = [0, 1, 3]
    censored = []
    for slot in range(1, 5):
        logs = committed_payload_sets(sim, slot, honest)
        reference = logs[honest[0]]
        assert all(log == reference for log in logs.values())
        if any(payload(h, slot) not in reference for h in honest):
            censored.append(slot)
    assert len(censored) <= 1


def test_external_validity_filters_proposals():
    # Predicate rejects the equivocator's '/alt' payloads on arrival.
    policy = DelayPolicy(gst=0, cap=2, default_delay=1)
    adv = adversaries.Equivocate({2}, MacScheme(4))
    validator = lambda blob: not blob.endswith(b"/alt")
    cfg, sim, metrics = run_msc(slots=2, delta_cap=2, policy=policy, adversary=adv, seed=4, validator=validator)
    honest = [0, 1, 3]
    for slot in (1, 2):
        logs = committed_payload_sets(sim, slot, honest)
        reference = logs[honest[0]]
        assert all(log == reference for log in logs.values())
        assert not any(pl.endswith(b"/alt") for pl in reference)


def test_committed_byzantine_payload_is_fetched():
    # Without the vote lag the fed party's quorums dominate: the agreed
    # vector keeps the censor's digest, so the starved parties must pull
    # the payload body from the one party that received it.
    policy = DelayPolicy(gst=0, cap=2, default_delay=1)
    adv = adversaries.Censor({2: {0}})
    cfg, sim, metrics = run_msc(slots=2, delta_cap=2, policy=policy, adversary=adv, seed=6)
    honest = [0, 1, 3]
    logs = committed_payload_sets(sim, 1, honest)
    reference = logs[0]
    assert all(log == reference for log in logs.values())
    if payload(2, 1) in reference:
        assert metrics.fetch_messages > 0, "committed unseen payload without fetching"


def test_leaderless_suspension_still_commits():
    # One (honest) party suspended per round; slots keep committing.
    policy = DelayPolicy(gst=0, cap=2, default_delay=1)
    adv = adversaries.Suspender(4, byzantine=(), round_len=1)
    cfg, sim, metrics = run_msc(slots=2, delta_cap=2, policy=policy, adversary=adv, seed=5)
    for slot in (1, 2):
        logs = committed_payload_sets(sim, slot, range(4))
        reference = logs[0]
        assert reference, f"slot {slot} never committed"
        assert all(log == reference for log in logs.values())


def test_fetch_request_with_non_bytes_digest_is_dropped():
    cfg = MscConfig(4, 1, 1, ("t", "msc"), slots=2)
    engine = MscEngine(cfg, 0, MacScheme(4), lambda s: payload(0, s))
    engine.on_input(None)
    req = FetchReq(cfg.instance + ("slot", 1), [1])
    assert engine.on_message(1, Nested(cfg.instance, 1, req)) == []
    assert engine.dropped == 1
