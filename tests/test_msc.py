"""Multi-slot replication: latencies, agreement, ranking demotion,
censorship accounting."""

import pytest

from prefixsim import adversaries, crypto, wire
from prefixsim.actions import DROP, Broadcast, Drop, Send
from prefixsim.crypto import MacScheme
from prefixsim.msc import MscConfig, MscEngine, Proposal, payload_digest, update_rank
from prefixsim.nest import Nested
from prefixsim.pc import Vote
from prefixsim.simnet import DelayPolicy, Simulation
from prefixsim.spc import DirectCert, FetchReq, FetchResp, NewView, proposal_digest


def test_update_rank_examples():
    assert update_rank((1, 2, 3, 4), (b"w",) * 4) == (1, 2, 3, 4)
    assert update_rank((1, 2, 3, 4), (b"w",) * 2) == (1, 2, 4, 3)
    assert update_rank((3, 1, 4, 2), ()) == (1, 4, 2, 3)


def payload(party, slot):
    return b"tx-%d-%d" % (party, slot)


def payloads(party, slots):
    """A party's input: its payload of each slot, in slot order."""
    return tuple(payload(party, slot) for slot in range(1, slots + 1))


def run_msc(n=4, f=1, slots=2, delta_cap=1, policy=None, adversary=None, seed=0, engine=MscEngine):
    cfg = MscConfig(n, f, delta_cap, ("t", "msc"), slots=slots)
    scheme = MacScheme(n)
    sim = Simulation(
        n,
        lambda p: engine(cfg, p, scheme),
        policy=policy or DelayPolicy.synchronized(1),
        adversary=adversary,
        seed=seed,
    )
    for party in range(n):
        sim.schedule_input(party, payloads(party, slots))
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


class RejectsAlt(MscEngine):
    """An external-validity predicate, added by extension: proposals whose
    payload ends in '/alt' are dropped on arrival."""

    def _handle_proposal(self, sender, prop):
        if isinstance(prop.payload, bytes) and prop.payload.endswith(b"/alt"):
            return [DROP]
        return super()._handle_proposal(sender, prop)


def test_external_validity_filters_proposals():
    # The predicate rejects the equivocator's '/alt' payloads on arrival.
    policy = DelayPolicy(gst=0, cap=2, default_delay=1)
    adv = adversaries.Equivocate({2}, MacScheme(4))
    cfg, sim, metrics = run_msc(slots=2, delta_cap=2, policy=policy, adversary=adv, seed=4, engine=RejectsAlt)
    assert metrics.drops > 0  # the predicate met '/alt' payloads
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
    assert payload(2, 1) in reference
    assert metrics.fetch_messages == 20


def test_leaderless_suspension_still_commits():
    # One (honest) party suspended per round; slots keep committing.
    policy = DelayPolicy(gst=0, cap=2, default_delay=1, suspend=1)
    cfg, sim, metrics = run_msc(slots=2, delta_cap=2, policy=policy, seed=5)
    for slot in (1, 2):
        logs = committed_payload_sets(sim, slot, range(4))
        reference = logs[0]
        assert reference, f"slot {slot} never committed"
        assert all(log == reference for log in logs.values())


@pytest.mark.parametrize("slots", [0, -1])
def test_config_needs_at_least_one_slot(slots):
    with pytest.raises(ValueError, match="slots"):
        MscConfig(4, 1, 1, slots=slots)


def fetch_server():
    """Party 0 in slot 1, holding party 1's slot-2 proposal; no slot
    engine has started."""
    cfg = MscConfig(4, 1, 1, ("t", "msc"), slots=2)
    engine = MscEngine(cfg, 0, MacScheme(4))
    engine.on_input(payloads(0, 2))
    engine.on_message(1, Proposal(cfg.instance, 2, payload(1, 2)))
    assert not engine.slots.children
    return cfg, engine


def test_fetch_request_with_non_bytes_digest_is_dropped():
    cfg, engine = fetch_server()
    req = FetchReq(cfg.instance + ("slot", 1), [1])
    assert engine.on_message(1, Nested(cfg.instance, 1, req)) == [DROP]


def test_payload_request_for_an_unstarted_slot_is_answered():
    cfg, engine = fetch_server()
    inst, digest = cfg.instance + ("slot", 2), payload_digest(payload(1, 2))
    resp = FetchResp(inst, digest, payload(1, 2))
    assert engine.on_message(3, Nested(cfg.instance, 2, FetchReq(inst, digest))) == [
        Send(3, Nested(cfg.instance, 2, resp))]


def test_payload_request_naming_a_foreign_instance_is_ignored():
    cfg, engine = fetch_server()
    req = FetchReq(("t", "other", "slot", 2), payload_digest(payload(1, 2)))
    assert engine.on_message(3, Nested(cfg.instance, 2, req)) == []


def test_object_response_for_an_unstarted_slot_is_ignored():
    cfg, engine = fetch_server()
    inst = cfg.instance + ("slot", 2)
    nv = NewView(inst, 2, None)
    digest = proposal_digest(nv)
    assert engine.on_message(3, Nested(cfg.instance, 2, FetchResp(inst, digest, nv))) == []
    # Slot 1 starts on its timer and shares the party's store: the object
    # was not stored, so a request for it finds nothing.
    engine.on_timer(("slot", 1))
    assert 1 in engine.slots.children
    req = FetchReq(cfg.instance + ("slot", 1), digest)
    assert engine.on_message(3, Nested(cfg.instance, 1, req)) == []


def test_payload_response_with_wrong_digest_is_dropped():
    cfg, engine = fetch_server()
    inst = cfg.instance + ("slot", 1)
    resp = FetchResp(inst, payload_digest(b"other"), payload(1, 1))
    assert engine.on_message(3, Nested(cfg.instance, 1, resp)) == [DROP]


def slot1_object(cfg, engine):
    """Start slot 1 at a fetch server; return its engine and a view-2
    object whose encoding hashes to the object's own digest."""
    engine.on_timer(("slot", 1))
    spc = engine.slots.children[1]
    nv = NewView(spc.cfg.instance, 2, DirectCert(1, (b"v",), None))
    assert payload_digest(wire.encode(nv)) == proposal_digest(nv)
    return spc, nv, proposal_digest(nv)


def test_encoded_object_proposed_as_payload_leaves_the_object_parented():
    # A Byzantine proposer sends an object's encoding as its payload before
    # the object arrives: it stays a payload, and the slot engine still
    # finds the object's parent once the object lands.
    cfg, engine = fetch_server()
    spc, nv, digest = slot1_object(cfg, engine)
    engine.on_message(2, Proposal(cfg.instance, 1, wire.encode(nv)))
    assert engine.store.blobs[digest] == wire.encode(nv) and digest not in engine.store
    resp = FetchResp(spc.cfg.instance, digest, nv)
    assert engine.on_message(3, Nested(cfg.instance, 1, resp)) == []
    assert spc._parent_of((digest,)) == (1, (b"v",))


def test_encoded_object_bytes_do_not_answer_an_object_fetch():
    # Bytes answering a slot engine's object fetch are a payload by their
    # own hash: kept apart from the objects, they run none of the slot's
    # parked work, and the object itself still lands.
    cfg, engine = fetch_server()
    spc, nv, digest = slot1_object(cfg, engine)
    assert spc._commit(2, (digest,)) == [Broadcast(FetchReq(spc.cfg.instance, digest))]
    bytes_resp = FetchResp(spc.cfg.instance, digest, wire.encode(nv))
    assert engine.on_message(3, Nested(cfg.instance, 1, bytes_resp)) == []
    assert digest not in engine.store and "high" not in spc.outputs
    actions = engine.on_message(3, Nested(cfg.instance, 1, FetchResp(spc.cfg.instance, digest, nv)))
    assert spc.outputs["high"][0] == (b"v",) and not any(isinstance(act, Drop) for act in actions)


def test_malformed_vote_two_envelopes_deep_is_one_drop():
    # slot 1 -> view 1 -> a pc vote whose signer is not its sender: the
    # pc engine's drop passes up through both hosts unchanged.
    cfg, engine = fetch_server()
    engine.on_timer(("slot", 1))
    spc = engine.slots.children[1]
    inst = spc.cfg.vpc_cfg(1).instance
    value = (payload_digest(payload(0, 1)),) * 4
    vote = Vote(inst, 1, 2, value, engine.scheme.sign_vector(2, crypto.VOTE1, inst, value))
    msg = Nested(cfg.instance, 1, Nested(spc.cfg.instance, 1, vote))
    assert engine.on_message(3, msg) == [DROP]
    # Slot 3 is past the configured run: ignored, not buffered, not a drop.
    assert engine.on_message(3, Nested(cfg.instance, 3, vote)) == []
    assert 3 not in engine.slots.waiting


@pytest.mark.parametrize("count", [1, 3])
def test_input_needs_one_payload_per_slot(count):
    engine = MscEngine(MscConfig(4, 1, 1, ("t", "msc"), slots=2), 0, MacScheme(4))
    with pytest.raises(ValueError, match="2 slots"):
        engine.on_input(payloads(0, count))
