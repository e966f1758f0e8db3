"""Codec round trips, compact-certificate verification rules, and
plain/compact behavioural equivalence."""

import hashlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from prefixsim import crypto, encoding, wire
from prefixsim.crypto import MacScheme, Signature
from prefixsim.encoding import DecodeError
from prefixsim.pc import PcConfig, PcEngine, QC, Variant, Vote, qc1_certify, qc2_certify
from prefixsim.nest import Nested
from prefixsim.prefixes import BOT, mcp
from prefixsim.simnet import DelayPolicy, Simulation
from prefixsim.spc import DirectCert, NewView, SpcConfig
from test_spc import make_view1_high

a, b, c, d = b"a", b"b", b"c", b"d"

CFG = PcConfig(4, 1, 4, Variant.THREE_ROUND, ("w", "pc3"))
SCHEME = MacScheme(4)


def make_vote1(party, value, cfg=CFG, scheme=SCHEME):
    sig = scheme.sign_vector(party, crypto.VOTE1, cfg.instance, tuple(value))
    return Vote(cfg.instance, 1, party, tuple(value), sig)


def pipeline(values, cfg=CFG, scheme=SCHEME, seed=1):
    """Plain QCs for one party's three-round pipeline over given inputs."""
    rng = random.Random(seed)
    vote1s = [make_vote1(p, v, cfg, scheme) for p, v in enumerate(values)]
    qc1 = QC(1, tuple(rng.sample(vote1s, cfg.quorum)))
    x = qc1_certify(qc1, cfg)
    vote2s = []
    for p in range(cfg.n):
        q = QC(1, tuple(rng.sample(vote1s, cfg.quorum)))
        val = qc1_certify(q, cfg)
        sig = scheme.sign_vector(p, crypto.VOTE2, cfg.instance, val)
        vote2s.append(Vote(cfg.instance, 2, p, val, sig, (q,)))
    qc2 = QC(2, tuple(rng.sample(vote2s, cfg.quorum)))
    vote3s = []
    for p in range(cfg.n):
        q = QC(2, tuple(rng.sample(vote2s, cfg.quorum)))
        val = qc2_certify(q, cfg)
        sig = scheme.sign_vector(p, crypto.VOTE3, cfg.instance, val)
        vote3s.append(Vote(cfg.instance, 3, p, val, sig, (q,)))
    qc3 = QC(3, tuple(rng.sample(vote3s, cfg.quorum)))
    return qc1, qc2, qc3


DIVERGENT = [(a, b, c, d), (a, b, c, c), (a, b, d, d), (a, c, d, d)]


def test_plain_roundtrip():
    qc1, qc2, qc3 = pipeline(DIVERGENT)
    for obj in (qc1.votes[0], qc2.votes[0], qc3, qc2):
        blob = wire.encode(obj)
        assert wire.decode(blob) == obj


def test_decode_errors_name_fields():
    vote = make_vote1(0, (a, b, c, d))
    blob = wire.encode(vote)
    with pytest.raises(DecodeError):
        wire.decode(blob[:-3])
    with pytest.raises(DecodeError):
        wire.decode(blob + b"\x00")
    with pytest.raises(DecodeError, match="unknown"):
        wire.decode(b"\x06\xee\x01\x00")


def test_hash_obj_deterministic():
    vote = make_vote1(0, (a, b, c, d))
    assert wire.hash_obj(vote) == wire.hash_obj(vote)
    assert wire.hash_obj(vote) != crypto.HBOT


def test_pad_strip():
    assert wire.pad((a, b), 4) == (a, b, BOT, BOT)
    assert wire.strip((a, b, BOT, BOT)) == (a, b)
    with pytest.raises(ValueError):
        wire.pad((a, BOT), 4)
    with pytest.raises(ValueError):
        wire.pad((a,) * 5, 4)


def test_compact_qc1_completeness_and_recompute_rule():
    qc1, _, _ = pipeline(DIVERGENT)
    compact = wire.build_cqc1(qc1, CFG, SCHEME)
    ok, why = wire.verify_cqc1(compact, CFG, SCHEME)
    assert ok, why
    assert wire.cqc1_value(compact) == qc1_certify(qc1, CFG)
    # Claimed prefix shortened: recompute check must fire.
    shorter = wire.CQC1(
        compact.inst, wire.pad(wire.strip(compact.value)[:-1], CFG.L),
        compact.signers, compact.descs, compact.blob,
    )
    ok, why = wire.verify_cqc1(shorter, CFG, SCHEME)
    assert not ok
    # Descriptor cut beyond capacity: malformed.
    bad_desc = (compact.descs[0], (CFG.L + 1, BOT)) + compact.descs[2:]
    bad = wire.CQC1(compact.inst, compact.value, compact.signers, bad_desc, compact.blob)
    ok, why = wire.verify_cqc1(bad, CFG, SCHEME)
    assert not ok and "cut" in why


def test_compact_qc1_blob_tamper():
    qc1, _, _ = pipeline(DIVERGENT)
    compact = wire.build_cqc1(qc1, CFG, SCHEME)
    flipped = bytes([compact.blob[0] ^ 1]) + compact.blob[1:]
    bad = wire.CQC1(compact.inst, compact.value, compact.signers, compact.descs, flipped)
    ok, _ = wire.verify_cqc1(bad, CFG, SCHEME)
    assert not ok
    blob = wire.encode(compact)
    corrupted = wire.decode(blob[: len(blob) - 2] + bytes([blob[-2] ^ 0xFF]) + blob[-1:])
    ok, _ = wire.verify_cqc1(corrupted, CFG, SCHEME)
    assert not ok


def test_compact_qc2_full_length_anchor():
    unanimous = [(a, b, c, d)] * 4
    _, qc2, _ = pipeline(unanimous)
    compact = wire.build_cqc2(qc2, CFG, SCHEME)
    assert compact.anchor is not None and compact.witnesses is None
    ok, why = wire.verify_cqc2(compact, CFG, SCHEME)
    assert ok, why
    assert wire.cqc2_value(compact) == (a, b, c, d)


def test_compact_qc2_divergence_witnesses():
    _, qc2, _ = pipeline(DIVERGENT, seed=3)
    plain = qc2_certify(qc2, CFG)
    compact = wire.build_cqc2(qc2, CFG, SCHEME)
    ok, why = wire.verify_cqc2(compact, CFG, SCHEME)
    assert ok, why
    assert wire.cqc2_value(compact) == plain
    if compact.witnesses is not None:
        w1, w2 = compact.witnesses
        equal = (wire.Witness2(w2.party, w1.elem, w1.sig, w1.qc1), w1)
        bad = wire.CQC2(compact.inst, compact.value, compact.signers, compact.blob, None, equal)
        ok, why = wire.verify_cqc2(bad, CFG, SCHEME)
        assert not ok and "equal" in why


def test_compact_qc3_extremes():
    _, _, qc3 = pipeline(DIVERGENT, seed=5)
    from prefixsim.pc import qc3_certify

    low, high = qc3_certify(qc3, CFG)
    compact = wire.build_cqc3(qc3, CFG, SCHEME)
    ok, why = wire.verify_cqc3(compact, CFG, SCHEME)
    assert ok, why
    assert wire.chain_values(compact) == (low, high)
    if len(low) < len(high):
        # Claimed shortest not minimal among the encoded lengths.
        forged = wire.ChainQC(
            compact.inst, compact.round, compact.kind,
            compact.long, compact.long_ev, compact.long, compact.long_ev,
            compact.signers, compact.lengths, compact.blob,
        )
        ok, why = wire.verify_cqc3(forged, CFG, SCHEME)
        assert not ok


def test_vote_sizes_follow_backend_constants():
    ks = SCHEME.sig_size
    L, c = 8, 1
    cfg = PcConfig(4, 1, L, Variant.THREE_ROUND, ("w", "sz"))
    value = tuple(bytes([i]) for i in range(L))
    vote = Vote(cfg.instance, 1, 0, value, SCHEME.sign_vector(0, crypto.VOTE1, cfg.instance, value))
    compact = wire.build_cvote1(vote, cfg, SCHEME)
    ok, why = wire.verify_cvote1(compact, cfg, SCHEME)
    assert ok, why
    size = wire.measure(compact)
    payload = c * L + ks * (L + 1)
    headers = size - payload
    # Framing overhead is a few bytes per element and per signature.
    assert 0 < headers <= 10 * (L + 1) + 48


def test_equivalence_random_and_adversarial():
    rng = random.Random(424242)
    alphabet = [a, b, c]
    for trial in range(60):
        values = []
        for party in range(4):
            if trial % 3 == 2 and party == 3:
                # Byzantine-chosen vote: shares a short prefix then conflicts.
                values.append((a,) + tuple(rng.choice(alphabet) for _ in range(3)))
            else:
                values.append(tuple(rng.choice(alphabet) for _ in range(4)))
        wire.equivalence_harness(values, CFG, SCHEME, rng)


def test_equivalence_unanimous():
    rng = random.Random(7)
    low, high = wire.equivalence_harness([(a, b, c, d)] * 4, CFG, SCHEME, rng)
    assert low == high == (a, b, c, d)


def run_opt(inputs, L=4):
    cfg = PcConfig(4, 1, L, Variant.OPTIMISTIC, ("w", "opt"))
    scheme = MacScheme(4)
    sim = Simulation(4, lambda p: PcEngine(cfg, p, scheme), policy=DelayPolicy.synchronized(1))
    for p, v in enumerate(inputs):
        sim.schedule_input(p, tuple(v))
    sim.run()
    return cfg, scheme, sim


def test_optimistic_compact_roundtrip_and_verify():
    cfg, scheme, sim = run_opt(DIVERGENT)
    engine = sim.engines[0]
    oqc1 = wire.build_oqc1(engine.own_qcs[1], cfg, scheme)
    ok, why = wire.verify_oqc1(oqc1, cfg, scheme)
    assert ok, why
    from prefixsim.pc import qc1_certify as q1

    supported, common = q1(engine.own_qcs[1], cfg)
    assert wire.strip(oqc1.xpart.value) == supported
    assert wire.strip(oqc1.common) == common

    oqc2 = wire.build_oqc2(engine.own_qcs[2], cfg, scheme)
    ok, why = wire.verify_oqc2(oqc2, cfg, scheme)
    assert ok, why
    early, ext = qc2_certify(engine.own_qcs[2], cfg)
    assert wire.chain_values(oqc2) == (early, ext)

    oqc3 = wire.build_oqc3(engine.own_qcs[3], cfg, scheme)
    ok, why = wire.verify_oqc3(oqc3, cfg, scheme)
    assert ok, why
    assert wire.stemqc_common(oqc3) == mcp(engine.own_qcs[3].values())

    oqc4 = wire.build_oqc4(engine.own_qcs[4], cfg, scheme)
    ok, why = wire.verify_oqc4(oqc4, cfg, scheme)
    assert ok, why
    blob = wire.encode(oqc4)
    assert wire.decode(blob) == oqc4


def test_compact_codec_measures_votes():
    cfg = PcConfig(4, 1, 4, Variant.THREE_ROUND, ("w", "cc"))
    scheme = MacScheme(4)
    codec = wire.CompactCodec(cfg, scheme)
    plain = wire.PlainCodec()
    vote1 = Vote(cfg.instance, 1, 0, (a, b, c, d), scheme.sign_vector(0, crypto.VOTE1, cfg.instance, (a, b, c, d)))
    assert codec.measure(vote1) == wire.measure(wire.build_cvote1(vote1, cfg, scheme))
    assert plain.measure(vote1) == wire.measure(vote1)
    with pytest.raises(ValueError):
        wire.CompactCodec(PcConfig(6, 1, 4, Variant.FAST_5F1, ("w", "f")), scheme)


def test_hexdump_and_describe():
    vote = make_vote1(0, (a, b, c, d))
    dump = wire.hexdump(wire.encode(vote))
    assert "00000000" in dump
    text = wire.describe(vote)
    assert "Vote" in text and "sender" in text


# ---------------------------------------------------------------------------
# sizes without encoding, and the encoding itself


_UINTS = st.integers(0, 2**70 - 1)  # the longest uvarint decode accepts
_LEAVES = st.one_of(
    st.none(), st.just(BOT), st.booleans(), _UINTS, st.binary(max_size=8), st.text(max_size=8),
    st.builds(Signature, _UINTS, st.binary(max_size=8)),
    # cheap to draw, long enough for multi-byte lengths and counts
    st.integers(120, 300).map(bytes), st.integers(120, 300).map(lambda n: tuple(range(n))),
    # strings are sized without encoding: non-ASCII ones, and ones whose
    # UTF-8 form reaches a two-byte length
    st.text(st.characters(min_codepoint=0x80), max_size=8),
    st.integers(60, 200).map(lambda n: "é" * n), st.integers(120, 300).map(lambda n: "a" * n),
)
_VALUES = st.recursive(
    _LEAVES,
    lambda kids: st.one_of(
        st.lists(kids, max_size=4).map(tuple),
        st.builds(Vote, kids, kids, kids, kids, kids, kids),
        st.builds(QC, kids, kids),
        st.builds(Nested, kids, kids, kids),
        st.builds(NewView, kids, kids, kids),
    ),
    max_leaves=12,
)


@settings(max_examples=200, deadline=None)
@given(_VALUES)
def test_measure_is_encoded_length_and_roundtrips(value):
    blob = wire.encode(value)
    assert wire.measure(value) == len(blob)
    assert wire.measure(value) == len(blob)  # again, from cached lengths
    assert wire.decode(blob) == value


_SIG = SCHEME.sign_vector(0, crypto.VOTE1, CFG.instance, (a,))


@pytest.mark.parametrize(
    "bad, exc",
    [([1], TypeError), (object(), TypeError), (-1, ValueError), ((a, -5, [1]), ValueError)],
    ids=["list", "object", "negative", "negative-before-list"],
)
@pytest.mark.parametrize("inside_vote", [False, True], ids=["bare", "in-vote"])
def test_unencodable_values_raise_alike(bad, exc, inside_vote):
    vote = Vote(CFG.instance, 1, 0, (a,), _SIG, (QC(1, ()), bad))
    envelope = Nested(("t",), 1, vote)
    value = envelope if inside_vote else bad
    for fn in (wire.encode, wire.measure, wire.hash_obj, wire.PlainCodec().measure):
        with pytest.raises(exc):
            fn(value)
    for obj in (vote, envelope):
        assert "plain" not in vars(obj).get("_cached", {})
    if inside_vote:  # the valid part keeps its length
        assert "plain" in vars(vote.qcs[0])["_cached"]


def test_lengths_cached_on_composites_not_signatures():
    vote = make_vote1(0, (a, b, c, d))
    assert wire.measure(vote) == len(wire.encode(vote))
    assert vars(vote)["_cached"]["plain"] == len(wire.encode(vote))
    assert "_cached" not in vars(vote.sig)


# Literal encodings recorded before the one-pass encoder replaced the
# list-of-chunks one: the layout and every digest must not move.
_VOTE_HEX = (
    "0603060302050177050370633301010102030302016102016202016306010201020210"
    "076275656b7e7a371779e66648323b090300"
)


def test_signed_vector_payload_pins():
    # Recorded with the list-of-chunks writer: signatures must not move.
    assert encoding.encode_vector(()).hex() == "00"
    assert encoding.encode_vector((BOT,)).hex() == "0100"
    assert encoding.encode_vector((b"x" * 300,)).hex() == "0101ac02" + "78" * 300
    assert encoding.encode_vector((b"ab",) * 130).hex() == "8201" + "01026162" * 130
    mixed = (b"", BOT, b"q" * 127, b"r" * 128, b"s") * 26
    assert hashlib.sha256(encoding.encode_vector(mixed)).hexdigest() == (
        "24d0cba99a498d7568c2cb6cac9b5db1b4ecb2d726f5eb2457a8fdc4e2a83373"
    )
    with pytest.raises(TypeError):
        encoding.encode_vector((b"a", 5))


def test_encoding_and_digest_pins():
    inst = ("w", "pc3")
    vote = Vote(inst, 1, 2, (a, b, c), SCHEME.sign_vector(2, crypto.VOTE1, inst, (a, b, c)))
    assert wire.encode(vote).hex() == _VOTE_HEX
    assert wire.hash_obj(vote).hex() == "302aefd70e6a10aa610dc9d2d51222fb"

    cfg = SpcConfig(4, 1, 4, 1, ("t", "spc"))
    value, proof = make_view1_high(cfg, SCHEME, [(a, b, c, d)] * 4)
    nv = NewView(cfg.instance, 2, DirectCert(1, value, proof))
    blob = wire.encode(nv)
    assert len(blob) == wire.measure(nv) == 2621
    assert hashlib.sha256(blob).hexdigest() == "eb5050979ddcad9930e2225867665ce371adc3de5bc621897d713e4376461e40"
    assert wire.hash_obj(nv).hex() == "eb5050979ddcad9930e2225867665ce3"


# ---------------------------------------------------------------------------
# each vote encoded once: digests splice cached vote bytes


def _objects(value, seen=None):
    """Every distinct registered object reachable from ``value``."""
    seen = {} if seen is None else seen
    if isinstance(value, tuple):
        for item in value:
            _objects(item, seen)
    elif type(value) in wire._LAYOUT and id(value) not in seen:
        seen[id(value)] = value
        for name in wire._LAYOUT[type(value)][1]:
            _objects(getattr(value, name), seen)
    return list(seen.values())


_N7 = SpcConfig(7, 2, 7, 1, ("t", "spc"))
_N7_INPUTS = [(a, b, c, d, a, b, c), (a, b, c, d, a, b, d), (a, b, c, c, a, b, c), (a, b, d, d, a, b, c),
              (a, c, d, a, b, c, d), (a, b, c, d, a, b, c), (b, a, c, d, a, b, c)]


def _n7_new_view():
    value, proof = make_view1_high(_N7, MacScheme(7), _N7_INPUTS)
    return NewView(_N7.instance, 2, DirectCert(1, value, proof))


def test_shared_vote_digest_pin():
    # Recorded before votes were spliced: 125 round-1 leaves of the
    # certificate are 5 shared vote objects, and the bytes must not move.
    nv = _n7_new_view()
    round1 = [o for o in _objects(nv) if isinstance(o, Vote) and o.round == 1]
    assert len(round1) == 5
    for _ in range(2):  # cold, then from cached vote bytes
        blob = wire.encode(nv)
        assert len(blob) == wire.measure(nv) == 11203
        assert hashlib.sha256(blob).hexdigest() == "a49e3a2b0520d7c0c0dbd23f471752276f435ad7b7effba8001ec02eaca524a5"
        assert wire.hash_obj(nv).hex() == "a49e3a2b0520d7c0c0dbd23f47175227"


def test_encoding_survives_decoding_with_warm_and_fresh_caches():
    # Two pipelines with the same senders and rounds but other values: a
    # vote's bytes must come from that vote, not from a look-alike.
    for values in (DIVERGENT, [(a, a, a, a)] * 4):
        qc1, qc2, qc3 = pipeline(values)
        nv = NewView(("t", "spc"), 2, DirectCert(1, qc3.votes[0].value, qc3))
        for obj in (qc3.votes[0], qc2.votes[1], qc3, nv, Nested(("t",), 2, nv)):
            blob = wire.encode(obj)
            fresh = wire.decode(blob)
            assert fresh == obj
            assert all("_cached" not in vars(o) for o in _objects(fresh))
            assert wire.encode(fresh) == blob  # fresh, undecorated objects
            assert wire.encode(obj) == wire.encode(fresh) == blob  # both warm
            assert wire.hash_obj(fresh) == wire.hash_obj(obj)


def test_encoded_bytes_cached_on_votes_with_certificates_only():
    nv = Nested(("t",), 2, _n7_new_view())
    blob = wire.encode(nv)
    objects = _objects(nv)
    assert {type(o).__name__ for o in objects} == {"Nested", "NewView", "DirectCert", "QC", "Vote", "Signature"}
    assert {o.round for o in objects if isinstance(o, Vote)} == {1, 2, 3}
    for obj in objects:
        kept = vars(obj).get("_cached", {})
        if isinstance(obj, Vote) and obj.qcs:
            assert kept["bytes"] == wire.encode(obj)
            assert kept["bytes"] in blob
        else:  # round-1 votes, certificates, envelopes, signatures
            assert not any(isinstance(v, (bytes, bytearray)) for v in kept.values()), obj
    assert all("_cached" not in vars(o) for o in objects if isinstance(o, Signature))


@pytest.mark.parametrize("bad, exc", [([1], TypeError), (-1, ValueError)], ids=["list", "negative"])
def test_unencodable_vote_raises_alike_and_caches_no_bytes(bad, exc):
    good = pipeline(DIVERGENT)[1].votes[0]  # a round-2 vote, with its qc1
    inner = Vote(CFG.instance, 1, 0, (a,), _SIG, (bad,))
    outer = Vote(CFG.instance, 3, 0, (a,), _SIG, (QC(2, (good, inner)),))
    for value in (inner, outer, Nested(("t",), 1, outer)):
        for fn in (wire.encode, wire.measure, wire.hash_obj):
            for _ in range(2):
                with pytest.raises(exc):
                    fn(value)
    for vote in (inner, outer):
        assert "bytes" not in vars(vote).get("_cached", {})
    assert vars(good)["_cached"]["bytes"] == wire.encode(good)  # encoded before the bad sibling


@settings(max_examples=200, deadline=None)
@given(_VALUES)
def test_encoding_is_the_same_from_warm_and_fresh_objects(value):
    blob = wire.encode(value)
    assert wire.encode(value) == blob
    assert wire.encode(wire.decode(blob)) == blob
