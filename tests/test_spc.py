"""Strong-agreement engine: rankings, certificates, view change, commits."""

import dataclasses

import pytest

from prefixsim import adversaries, crypto, wire
from prefixsim.actions import DROP, Broadcast, Drop, Output
from prefixsim.crypto import MacScheme, Signature
from prefixsim.nest import Nested
from prefixsim.pc import PcConfig, PcEngine, Variant, Vote, predicate_high, verify_vote
from prefixsim.prefixes import BOT, is_prefix, mcp
from prefixsim.simnet import DelayPolicy, Simulation
from prefixsim.spc import (
    DirectCert,
    EmptyView,
    FetchReq,
    FetchResp,
    NewView,
    SkipCert,
    SpcConfig,
    SpcEngine,
    Store,
    proposal_digest,
    rank_for_view,
    shift,
    skip_statement,
)

a, b, c, d = b"a", b"b", b"c", b"d"


def test_shift_examples():
    assert shift((1, 2, 3, 4)) == (2, 3, 4, 1)
    r = (3, 1, 2)
    assert shift(r) == (1, 2, 3)
    cur = (0, 1, 2, 3)
    for _ in range(4):
        cur = shift(cur)
    assert cur == (0, 1, 2, 3)


def test_rank_bootstraps_at_view_three():
    rank0 = (0, 1, 2, 3)
    assert rank_for_view(rank0, 1) == rank0
    assert rank_for_view(rank0, 2) == rank0
    assert rank_for_view(rank0, 3) == (1, 2, 3, 0)
    assert rank_for_view(rank0, 4) == (2, 3, 0, 1)


def run_spc(inputs, n=4, f=1, L=4, delta_cap=1, policy=None, adversary=None, seed=0, rank0=()):
    cfg = SpcConfig(n, f, L, delta_cap, ("t", "spc"), rank0)
    scheme = MacScheme(n)
    sim = Simulation(
        n,
        lambda p: SpcEngine(cfg, p, scheme),
        policy=policy or DelayPolicy.synchronized(1),
        adversary=adversary,
        seed=seed,
    )
    for party, vec in enumerate(inputs):
        sim.schedule_input(party, tuple(vec))
    metrics = sim.run()
    return cfg, sim, metrics


def test_fault_free_high_at_seven_rounds():
    inputs = [(a, b, c, d)] * 4
    cfg, sim, metrics = run_spc(inputs)
    for p in range(4):
        assert metrics.output_time(p, "low") == 3
        assert metrics.output_time(p, "high") == 7
    highs = {metrics.output_value(p, "high") for p in range(4)}
    assert len(highs) == 1
    lows = [metrics.output_value(p, "low") for p in range(4)]
    the_high = highs.pop()
    for low in lows:
        assert is_prefix(low, the_high)
        assert is_prefix(mcp(inputs), low)


def test_fault_free_divergent_inputs_agreement():
    inputs = [(a, b, c, d), (a, b, c, c), (a, b, d, d), (a, c, c, c)]
    cfg, sim, metrics = run_spc(inputs, seed=3)
    highs = {metrics.output_value(p, "high") for p in range(4)}
    assert len(highs) == 1
    for p in range(4):
        assert is_prefix(mcp(inputs), metrics.output_value(p, "low"))


def test_silent_first_ranked_within_latency_bound():
    # Party 0 is first in the view-2 ranking and fully silent; Delta=2.
    inputs = [(a, b, c, d)] * 4
    policy = DelayPolicy(gst=0, cap=2, default_delay=1)
    adv = adversaries.Silent(byzantine={0})
    cfg, sim, metrics = run_spc(inputs, delta_cap=2, policy=policy, adversary=adv)
    f, delta_cap, delta = 1, 2, 1
    bound = 2 * (f + 1) * delta_cap + 3 * (f + 2) * delta
    highs = set()
    for p in (1, 2, 3):
        t = metrics.output_time(p, "high")
        assert t is not None and t <= bound
        highs.add(metrics.output_value(p, "high"))
    assert len(highs) == 1
    # The silent first slot agrees on the placeholder digest, so view 2
    # still commits a parented value directly.
    assert any(e._parent_of(outs["low"][0]) for e in sim.engines.values() if e
               for view, outs in e.vpc_outputs.items() if view > 1 and "low" in outs)


def test_split_view_forces_empty_view_and_skip_certificates():
    # The first-ranked party relays two different view-2 certificates to
    # two victims and starves the third: view 2 agrees on the empty
    # prefix everywhere and the protocol advances by skip certificate.
    inputs = [(a, b, c, d)] * 4
    policy = DelayPolicy(gst=0, cap=2, default_delay=1)
    adv = adversaries.SplitView(byzantine={0}, view=2)
    cfg, sim, metrics = run_spc(inputs, delta_cap=2, policy=policy, adversary=adv, seed=5)
    highs = set()
    for p in (1, 2, 3):
        assert metrics.output_time(p, "high") is not None
        highs.add(metrics.output_value(p, "high"))
    assert len(highs) == 1
    engines = [sim.engines[p] for p in (1, 2, 3)]
    # Some honest party built a skip certificate out of f+1 empty views.
    skips = [cert for e in engines for cert in e.built_skips]
    assert skips, "expected the skip path to fire"
    for cert in skips:
        assert cert.prev_view == 2 and cert.ref_view == 1
    # Every verifiable view-2 low in this execution is parentless.
    for e in engines:
        out = e.vpc_outputs.get(2, {})
        if "low" in out:
            assert e._parent_of(out["low"][0]) is None


def test_skip_certificate_respects_older_parent_rule():
    # Ground-truth check: a skip certificate referencing parent view
    # w' < w-1 implies every view in (w', w-1] had parentless lows.
    inputs = [(a, b, c, d)] * 4
    policy = DelayPolicy(gst=0, cap=2, default_delay=1)
    adv = adversaries.SplitView(byzantine={0}, view=2)
    cfg, sim, metrics = run_spc(inputs, delta_cap=2, policy=policy, adversary=adv, seed=11)
    for engine in (sim.engines[p] for p in (1, 2, 3)):
        for cert in engine.built_skips:
            for view in range(cert.ref_view + 1, cert.prev_view + 1):
                for e2 in (sim.engines[p] for p in (1, 2, 3)):
                    out = e2.vpc_outputs.get(view, {})
                    if "low" in out:
                        assert e2._parent_of(out["low"][0]) is None


def test_withhold_body_exercises_fetch():
    # Party 0 reveals its view-entry object only to party 1 and ignores
    # fetch requests; others must pull the preimage from party 1.
    inputs = [(a, b, c, d)] * 4
    policy = DelayPolicy(gst=0, cap=2, default_delay=1)
    adv = adversaries.WithholdBody({0: {1}})
    cfg, sim, metrics = run_spc(inputs, delta_cap=2, policy=policy, adversary=adv, seed=2)
    highs = set()
    for p in (1, 2, 3):
        assert metrics.output_time(p, "high") is not None
        highs.add(metrics.output_value(p, "high"))
    assert len(highs) == 1
    assert metrics.fetch_messages > 0, "pull-based fetch never fired"


class DropCounter:
    """An engine that counts the drops it returns."""

    def __init__(self, engine):
        self.engine = engine
        self.drops = 0

    def _count(self, actions):
        self.drops += sum(isinstance(act, Drop) for act in actions)
        return actions

    def on_input(self, value):
        return self._count(self.engine.on_input(value))

    def on_message(self, sender, msg):
        return self._count(self.engine.on_message(sender, msg))

    def on_timer(self, key):
        return self._count(self.engine.on_timer(key))


def test_doctored_proofs_rejected():
    inputs = [(a, b, c, d)] * 4
    adv = adversaries.DoctoredProofs(byzantine={3})
    cfg = SpcConfig(4, 1, 4, 1, ("t", "spc"))
    scheme = MacScheme(4)
    sim = Simulation(4, lambda p: DropCounter(SpcEngine(cfg, p, scheme)), policy=DelayPolicy.synchronized(1),
                     adversary=adv, seed=4)
    for party, vec in enumerate(inputs):
        sim.schedule_input(party, vec)
    metrics = sim.run()
    assert adv.injected > 0
    # Every doctored message goes to an honest party, which must drop it.
    assert sum(sim.engines[p].drops for p in (0, 1, 2)) >= adv.injected
    highs = {metrics.output_value(p, "high") for p in (0, 1, 2)}
    assert len(highs) == 1
    for p in (0, 1, 2):
        assert is_prefix(mcp(inputs), metrics.output_value(p, "low"))


# ---------------------------------------------------------------------------
# certificate validation units


def make_view1_high(cfg, scheme, inputs, view=1):
    """A verifiable view-1 (or ``view``) high produced by running the
    instance alone."""
    vcfg = cfg.vpc_cfg(view)
    sim = Simulation(cfg.n, lambda p: PcEngine(vcfg, p, scheme), policy=DelayPolicy.synchronized(1))
    for p, v in enumerate(inputs):
        sim.schedule_input(p, tuple(v))
    metrics = sim.run()
    value, proof, _ = metrics.outputs[0]["high"]
    return value, proof


def test_valid_cert_direct_and_skip():
    cfg = SpcConfig(4, 1, 4, 1, ("t", "spc"))
    scheme = MacScheme(4)
    engine = SpcEngine(cfg, 0, scheme)
    value, proof = make_view1_high(cfg, scheme, [(a, b, c, d)] * 4)
    direct = DirectCert(1, value, proof)
    assert engine._valid_cert(2, direct)
    assert not engine._valid_cert(3, direct)  # wrong target view
    assert not engine._valid_cert(2, DirectCert(1, value + (b"x",), proof))

    # Skip certificate built from f+1 = 2 signed statements for view 2.
    entries = []
    for party in (1, 2):
        stmt = skip_statement(2, 1)
        sig = scheme.sign_vector(party, crypto.EMPTY_VIEW, cfg.instance, stmt)
        entries.append((party, stmt, sig))
    agg = scheme.aggregate(crypto.EMPTY_VIEW, cfg.instance, entries)
    skip = SkipCert(2, 1, value, proof, agg)
    assert engine._valid_cert(3, skip)

    # A statement naming a different view invalidates the aggregate.
    mixed = [
        (1, skip_statement(2, 1), scheme.sign_vector(1, crypto.EMPTY_VIEW, cfg.instance, skip_statement(2, 1))),
        (2, skip_statement(3, 1), scheme.sign_vector(2, crypto.EMPTY_VIEW, cfg.instance, skip_statement(3, 1))),
    ]
    bad_agg = scheme.aggregate(crypto.EMPTY_VIEW, cfg.instance, mixed)
    assert not engine._valid_cert(3, SkipCert(2, 1, value, proof, bad_agg))

    # Reported reference below the statements' maximum: rejected.
    entries5 = []
    for party, ref in ((1, 3), (2, 1)):
        stmt = skip_statement(5, ref)
        sig = scheme.sign_vector(party, crypto.EMPTY_VIEW, cfg.instance, stmt)
        entries5.append((party, stmt, sig))
    agg5 = scheme.aggregate(crypto.EMPTY_VIEW, cfg.instance, entries5)
    assert not engine._valid_cert(6, SkipCert(5, 1, value, proof, agg5))


def test_parent_resolution():
    cfg = SpcConfig(4, 1, 4, 1, ("t", "spc"))
    scheme = MacScheme(4)
    engine = SpcEngine(cfg, 0, scheme)
    value, proof = make_view1_high(cfg, scheme, [(a, b, c, d)] * 4)

    from prefixsim.spc import proposal_digest
    from prefixsim.crypto import HBOT

    nv = NewView(cfg.instance, 2, DirectCert(1, value, proof))
    digest = proposal_digest(nv)
    engine.store[digest] = nv
    assert engine._parent_of((HBOT, digest)) == (1, value)
    assert engine._parent_of((HBOT, HBOT)) is None
    assert engine._parent_of(()) is None

    entries = []
    for party in (1, 2):
        stmt = skip_statement(3, 1)
        sig = scheme.sign_vector(party, crypto.EMPTY_VIEW, cfg.instance, stmt)
        entries.append((party, stmt, sig))
    agg = scheme.aggregate(crypto.EMPTY_VIEW, cfg.instance, entries)
    skip_nv = NewView(cfg.instance, 4, SkipCert(3, 1, value, proof, agg))
    engine.store[proposal_digest(skip_nv)] = skip_nv
    assert engine._parent_of((proposal_digest(skip_nv),)) == (1, value)


def test_view_jump_and_stale_new_view():
    cfg = SpcConfig(4, 1, 4, 1, ("t", "spc"))
    scheme = MacScheme(4)
    engine = SpcEngine(cfg, 0, scheme)
    engine.on_input((a, b, c, d))
    value, proof = make_view1_high(cfg, scheme, [(a, b, c, d)] * 4)

    # A valid skip certificate can pull a straggler straight into view 3.
    entries = []
    for party in (1, 2):
        stmt = skip_statement(2, 1)
        entries.append((party, stmt, scheme.sign_vector(party, crypto.EMPTY_VIEW, cfg.instance, stmt)))
    agg = scheme.aggregate(crypto.EMPTY_VIEW, cfg.instance, entries)
    jump = NewView(cfg.instance, 3, SkipCert(2, 1, value, proof, agg))
    actions = engine.on_message(1, jump)
    assert engine.view == 3
    kinds = {type(act).__name__ for act in actions}
    assert "StartTimer" in kinds and "Broadcast" in kinds  # timer + relay
    assert set(engine.proposals[3]) == {0, 1}  # sender entry plus own relayed copy

    # A stale (lower-view) certificate only refreshes the newest known
    # parented high; no re-entry, no buffer write.
    stale = NewView(cfg.instance, 2, DirectCert(1, value, proof))
    assert engine.on_message(2, stale) == []
    assert engine.view == 3
    assert 2 not in engine.proposals
    assert engine.best_high[0] == 1 and engine.best_high[1] == value


def test_empty_view_with_unknown_reference_dropped():
    cfg = SpcConfig(4, 1, 4, 1, ("t", "spc"))
    scheme = MacScheme(4)
    engine = SpcEngine(cfg, 0, scheme)
    sig = scheme.sign_vector(1, crypto.EMPTY_VIEW, cfg.instance, skip_statement(2, 0))
    ev = EmptyView(cfg.instance, 2, 0, (), None, sig)
    assert engine.on_message(1, ev) == [DROP]


def test_skip_cert_with_malformed_statement_is_dropped():
    # A Byzantine party can aggregate one honest (broadcast) empty-view
    # signature with its own signature on any vector.  Statements that are
    # not (view, ref) uvarint pairs must be counted drops, never raise.
    cfg = SpcConfig(4, 1, 4, 1, ("t", "spc"))
    scheme = MacScheme(4)
    value, proof = make_view1_high(cfg, scheme, [(a, b, c, d)] * 4)
    honest = skip_statement(2, 1)
    view = honest[0]
    for bad in ((), (view,), (BOT, BOT), (view, BOT), (view, b"\x80"), (view, b"\x01\x00"),
                honest + (b"x",)):
        entries = [
            (1, honest, scheme.sign_vector(1, crypto.EMPTY_VIEW, cfg.instance, honest)),
            (3, bad, scheme.sign_vector(3, crypto.EMPTY_VIEW, cfg.instance, bad)),
        ]
        agg = scheme.aggregate(crypto.EMPTY_VIEW, cfg.instance, entries)
        engine = SpcEngine(cfg, 0, scheme)
        nv = NewView(cfg.instance, 3, SkipCert(2, 1, value, proof, agg))
        assert engine.on_message(3, nv) == [DROP], bad
        assert engine.view == 1, bad


def test_skip_cert_with_list_instance_is_dropped():
    cfg = SpcConfig(4, 1, 4, 1, ("t", "spc"))
    scheme = MacScheme(4)
    value, proof = make_view1_high(cfg, scheme, [(a, b, c, d)] * 4)
    stmt = skip_statement(2, 1)
    entries = [(p, stmt, scheme.sign_vector(p, crypto.EMPTY_VIEW, cfg.instance, stmt)) for p in (1, 3)]
    agg = scheme.aggregate(crypto.EMPTY_VIEW, cfg.instance, entries)
    listed = crypto.AggregateSignature(agg.kind, list(agg.instance), agg.signers, agg.messages, agg.blob)
    engine = SpcEngine(cfg, 0, scheme)
    assert engine.on_message(3, NewView(cfg.instance, 3, SkipCert(2, 1, value, proof, listed))) == [DROP]
    assert engine.view == 1


@pytest.mark.parametrize("field, bad", [
    ("signers", ((1,), (3,))), ("signers", ("x", "y")), ("signers", 5),
    ("messages", 5), ("messages", ((1,), (2,))), ("blob", 5),
], ids=["tuple-signers", "str-signers", "int-signers", "int-messages", "int-elements", "int-blob"])
def test_skip_cert_with_malformed_aggregate_is_dropped(field, bad):
    cfg = SpcConfig(4, 1, 4, 1, ("t", "spc"))
    scheme = MacScheme(4)
    value, proof = make_view1_high(cfg, scheme, [(a, b, c, d)] * 4)
    stmt = skip_statement(2, 1)
    entries = [(p, stmt, scheme.sign_vector(p, crypto.EMPTY_VIEW, cfg.instance, stmt)) for p in (1, 3)]
    agg = dataclasses.replace(scheme.aggregate(crypto.EMPTY_VIEW, cfg.instance, entries), **{field: bad})
    engine = SpcEngine(cfg, 0, scheme)
    assert engine.on_message(3, NewView(cfg.instance, 3, SkipCert(2, 1, value, proof, agg))) == [DROP]
    assert engine.view == 1


# ---------------------------------------------------------------------------
# a certificate is evidence only for the instance it was built in


def test_view_vote_replayed_into_next_view_is_dropped():
    cfg = SpcConfig(4, 1, 4, 1, ("t", "spc"))
    scheme = MacScheme(4)
    engine = SpcEngine(cfg, 0, scheme)
    inst2 = cfg.vpc_cfg(2).instance
    value = (a, b, c, d)
    vote = Vote(inst2, 1, 1, value, scheme.sign_vector(1, crypto.VOTE1, inst2, value))
    assert engine.on_message(1, Nested(cfg.instance, 2, vote)) == []
    assert engine.views.children[2].votes[1] == {1: vote}
    assert engine.on_message(1, Nested(cfg.instance, 3, vote)) == [DROP]
    assert engine.views.children[3].votes[1] == {}


def test_view_high_proof_does_not_certify_the_next_view():
    cfg = SpcConfig(4, 1, 4, 1, ("t", "spc"))
    scheme = MacScheme(4)
    engine = SpcEngine(cfg, 0, scheme)
    value, proof = make_view1_high(cfg, scheme, [(a, b, c, d)] * 4, view=2)
    assert engine._predicate(predicate_high, 2, value, proof)
    assert not engine._predicate(predicate_high, 3, value, proof)


def test_vote_verdict_is_not_reused_across_schemes():
    cfg = SpcConfig(4, 1, 4, 1, ("t", "spc")).vpc_cfg(1)
    signer, other = MacScheme(4), crypto.Ed25519Scheme(4)
    value = (a, b, c, d)
    vote = Vote(cfg.instance, 1, 1, value, signer.sign_vector(1, crypto.VOTE1, cfg.instance, value))
    assert verify_vote(vote, cfg, signer)
    assert not verify_vote(vote, cfg, other)
    assert verify_vote(vote, cfg, signer)


@pytest.mark.parametrize("obj", [object(), NewView(("t", "spc"), -1, None)], ids=["unregistered", "negative"])
def test_unencodable_fetch_response_is_dropped(obj):
    cfg = SpcConfig(4, 1, 4, 1, ("t", "spc"))
    engine = SpcEngine(cfg, 0, MacScheme(4))
    assert engine.on_message(1, FetchResp(cfg.instance, b"d", obj)) == [DROP]
    assert engine.store == {}


def test_parked_work_runs_only_at_the_engine_that_parked_it():
    # Slot engines share one store: a response routed to another
    # instance's engine keeps the body but must not run this one's work.
    scheme, store = MacScheme(4), Store()
    cfg, other = SpcConfig(4, 1, 4, 1, ("t", "spc")), SpcConfig(4, 1, 4, 1, ("t", "other"))
    engine, bystander = SpcEngine(cfg, 0, scheme, store), SpcEngine(other, 0, scheme, store)
    value, proof = make_view1_high(cfg, scheme, [(a, b, c, d)] * 4)
    nv = NewView(cfg.instance, 2, DirectCert(1, value, proof))
    digest = proposal_digest(nv)
    assert engine._commit(2, (digest,)) == [Broadcast(FetchReq(cfg.instance, digest))]
    resp = FetchResp(cfg.instance, digest, nv)
    assert bystander.on_message(1, resp) == [] and store[digest] is nv
    assert engine.on_message(1, resp) == [Output("high", value)]


def test_encoded_object_bytes_do_not_answer_an_object_fetch():
    # An object's encoding hashes to the object's digest, but bytes are no
    # view-entry object: the response is a drop and the object still lands.
    cfg = SpcConfig(4, 1, 4, 1, ("t", "spc"))
    scheme = MacScheme(4)
    engine = SpcEngine(cfg, 0, scheme)
    value, proof = make_view1_high(cfg, scheme, [(a, b, c, d)] * 4)
    nv = NewView(cfg.instance, 2, DirectCert(1, value, proof))
    digest = proposal_digest(nv)
    assert crypto.hash_bytes(wire.encode(nv)) == digest
    assert engine._commit(2, (digest,)) == [Broadcast(FetchReq(cfg.instance, digest))]
    assert engine.on_message(1, FetchResp(cfg.instance, digest, wire.encode(nv))) == [DROP]
    assert engine.store == {}
    assert engine.on_message(1, FetchResp(cfg.instance, digest, nv)) == [Output("high", value)]


def test_fetch_request_with_non_bytes_digest_is_dropped():
    cfg = SpcConfig(4, 1, 4, 1, ("t", "spc"))
    engine = SpcEngine(cfg, 0, MacScheme(4))
    assert engine.on_message(1, FetchReq(cfg.instance, [1])) == [DROP]


_EV_SIG = MacScheme(4).sign_vector(1, crypto.EMPTY_VIEW, ("t", "spc"), skip_statement(2, 1))


@pytest.mark.parametrize(
    "ref_view, ref_value, sig",
    [("x", (), _EV_SIG), (None, (), _EV_SIG), (1, [a], _EV_SIG), (1, (), (1, 2)), (1, (), None),
     (1, (), Signature(1, [1]))],
    ids=["str-ref-view", "none-ref-view", "list-ref-value", "tuple-sig", "none-sig", "list-blob"],
)
def test_empty_view_with_bad_shape_is_dropped(ref_view, ref_value, sig):
    cfg = SpcConfig(4, 1, 4, 1, ("t", "spc"))
    engine = SpcEngine(cfg, 0, MacScheme(4))
    assert engine.on_message(1, EmptyView(cfg.instance, 2, ref_view, ref_value, None, sig)) == [DROP]
    assert engine.empty_votes == {}
