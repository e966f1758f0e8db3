"""Codec round trips, compact-certificate verification rules, and
plain/compact behavioural equivalence."""

import dataclasses
import hashlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from prefixsim import crypto, encoding, wire
from prefixsim.crypto import MacScheme, Signature
from prefixsim.encoding import DecodeError
from prefixsim.pc import VARIANT_TABLE, PcConfig, PcEngine, QC, Variant, Vote, certify
from prefixsim.nest import Nested
from prefixsim.prefixes import BOT, is_prefix, mcp
from prefixsim.scenario import VARIANTS
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
    vote2s = []
    for p in range(cfg.n):
        q = QC(1, tuple(rng.sample(vote1s, cfg.quorum)))
        val = certify(q, cfg)
        sig = scheme.sign_vector(p, crypto.VOTE2, cfg.instance, val)
        vote2s.append(Vote(cfg.instance, 2, p, val, sig, (q,)))
    qc2 = QC(2, tuple(rng.sample(vote2s, cfg.quorum)))
    vote3s = []
    for p in range(cfg.n):
        q = QC(2, tuple(rng.sample(vote2s, cfg.quorum)))
        val = certify(q, cfg)
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
    compact = wire.compact_qc(qc1, CFG, SCHEME)
    assert isinstance(compact, wire.CQC1)
    ok, why = wire.verify_compact(compact, 1, CFG, SCHEME)
    assert ok, why
    assert wire.compact_value(compact, 1, CFG) == certify(qc1, CFG)
    # Claimed prefix shortened: recompute check must fire.
    shorter = wire.CQC1(
        compact.inst, wire.pad(wire.strip(compact.value)[:-1], CFG.L),
        compact.signers, compact.descs, compact.blob,
    )
    ok, why = wire.verify_compact(shorter, 1, CFG, SCHEME)
    assert not ok
    # Descriptor cut beyond capacity: malformed.
    bad_desc = (compact.descs[0], (CFG.L + 1, BOT)) + compact.descs[2:]
    bad = wire.CQC1(compact.inst, compact.value, compact.signers, bad_desc, compact.blob)
    ok, why = wire.verify_compact(bad, 1, CFG, SCHEME)
    assert not ok and "cut" in why


def test_compact_qc1_blob_tamper():
    qc1, _, _ = pipeline(DIVERGENT)
    compact = wire.compact_qc(qc1, CFG, SCHEME)
    flipped = bytes([compact.blob[0] ^ 1]) + compact.blob[1:]
    bad = wire.CQC1(compact.inst, compact.value, compact.signers, compact.descs, flipped)
    ok, _ = wire.verify_compact(bad, 1, CFG, SCHEME)
    assert not ok
    blob = wire.encode(compact)
    corrupted = wire.decode(blob[: len(blob) - 2] + bytes([blob[-2] ^ 0xFF]) + blob[-1:])
    ok, _ = wire.verify_compact(corrupted, 1, CFG, SCHEME)
    assert not ok


def test_compact_qc2_full_length_anchor():
    unanimous = [(a, b, c, d)] * 4
    _, qc2, _ = pipeline(unanimous)
    compact = wire.compact_qc(qc2, CFG, SCHEME)
    assert compact.anchor is not None and compact.witnesses is None
    ok, why = wire.verify_compact(compact, 2, CFG, SCHEME)
    assert ok, why
    assert wire.compact_value(compact, 2, CFG) == (a, b, c, d)


def test_compact_qc2_divergence_witnesses():
    _, qc2, _ = pipeline(DIVERGENT, seed=3)
    plain = certify(qc2, CFG)
    compact = wire.compact_qc(qc2, CFG, SCHEME)
    ok, why = wire.verify_compact(compact, 2, CFG, SCHEME)
    assert ok, why
    assert wire.compact_value(compact, 2, CFG) == plain
    if compact.witnesses is not None:
        w1, w2 = compact.witnesses
        equal = (wire.Witness2(w2.party, w1.elem, w1.sig, w1.qc1), w1)
        bad = wire.CQC2(compact.inst, compact.value, compact.signers, compact.blob, None, equal)
        ok, why = wire.verify_compact(bad, 2, CFG, SCHEME)
        assert not ok and "equal" in why


def test_compact_qc3_extremes():
    _, _, qc3 = pipeline(DIVERGENT, seed=5)
    low, high = certify(qc3, CFG)
    compact = wire.compact_qc(qc3, CFG, SCHEME)
    ok, why = wire.verify_compact(compact, 3, CFG, SCHEME)
    assert ok, why
    assert wire.compact_value(compact, 3, CFG) == (low, high)
    if len(low) < len(high):
        # Claimed shortest not minimal among the encoded lengths.
        forged = wire.ChainQC(
            compact.inst, compact.round, compact.kind,
            compact.long, compact.long_ev, compact.long, compact.long_ev,
            compact.signers, compact.lengths, compact.blob,
        )
        ok, why = wire.verify_compact(forged, 3, CFG, SCHEME)
        assert not ok


def test_vote_sizes_follow_backend_constants():
    ks = SCHEME.sig_size
    L, c = 8, 1
    cfg = PcConfig(4, 1, L, Variant.THREE_ROUND, ("w", "sz"))
    value = tuple(bytes([i]) for i in range(L))
    vote = Vote(cfg.instance, 1, 0, value, SCHEME.sign_vector(0, crypto.VOTE1, cfg.instance, value))
    compact = wire.compact_vote(vote, cfg, SCHEME)
    ok, why = wire.verify_cvote1(compact, cfg, SCHEME)
    assert ok, why
    size = wire.measure(compact)
    payload = c * L + ks * (L + 1)
    headers = size - payload
    # Framing overhead is a few bytes per element and per signature.
    assert 0 < headers <= 10 * (L + 1) + 48


_HARNESS_SIZES = pytest.mark.parametrize("protocol, n", [
    ("pc3", 4), ("pc_opt", 4), ("pc_opt", 7), ("pc_5f1", 6), ("pc_5f1", 11)])


def _harness_cfg(protocol, n):
    """A config of ``protocol`` at ``n`` with the largest f its bound allows, and L = 4."""
    variant = VARIANTS[protocol]
    return PcConfig(n, (n - 1) // VARIANT_TABLE[variant].resilience, 4, variant, ("w", protocol)), MacScheme(n)


@_HARNESS_SIZES
def test_equivalence_random_and_adversarial(protocol, n):
    cfg, scheme = _harness_cfg(protocol, n)
    rng = random.Random(424242)
    alphabet = [a, b, c]
    for trial in range(60):
        values = []
        for party in range(n):
            if trial % 3 == 2 and party >= n - cfg.f:
                # Byzantine-chosen vote: shares a short prefix then conflicts.
                values.append((a,) + tuple(rng.choice(alphabet) for _ in range(3)))
            else:
                values.append(tuple(rng.choice(alphabet) for _ in range(4)))
        low, high = wire.equivalence_harness(values, cfg, scheme, rng)
        assert is_prefix(low, high)


@_HARNESS_SIZES
def test_equivalence_unanimous(protocol, n):
    cfg, scheme = _harness_cfg(protocol, n)
    low, high = wire.equivalence_harness([(a, b, c, d)] * n, cfg, scheme, random.Random(7))
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
    qcs = sim.engines[0].own_qcs
    forms = {r: wire.compact_qc(qcs[r], cfg, scheme) for r in (1, 2, 3, 4)}
    assert [type(q).__name__ for q in forms.values()] == ["OQC1", "ChainQC", "StemQC", "ChainQC"]
    for r, compact in forms.items():
        ok, why = wire.verify_compact(compact, r, cfg, scheme)
        assert ok, why
        assert wire.compact_value(compact, r, cfg) == certify(qcs[r], cfg)
    supported, common = certify(qcs[1], cfg)
    assert wire.strip(forms[1].xpart.value) == supported
    assert wire.strip(forms[1].common) == common
    assert wire.compact_value(forms[3], 3, cfg)[0] == mcp(qcs[3].values())
    blob = wire.encode(forms[4])
    assert wire.decode(blob) == forms[4]


OPT_CFG = PcConfig(4, 1, 4, Variant.OPTIMISTIC, ("scn", "pc_opt"))


def _opt_qcs(seed):
    """The honest parties' certificates, by round, of a jittered pc_opt
    run with an equivocating party."""
    from prefixsim.scenario import run_scenario

    result = run_scenario({"version": 1, "protocol": "pc_opt", "n": 4, "f": 1, "L": 4, "gst": None, "seed": seed,
                           "adversary": {"kind": "equivocate", "byzantine": [3], "jitter": 5}})
    return [result.sim.engines[p].own_qcs for p in result.honest]


def test_optimistic_qc1_witness_forgeries():
    oqc1 = next(q for q in (wire.compact_qc(qcs[1], OPT_CFG, SCHEME) for qcs in _opt_qcs(5)) if q.c_witnesses)
    ok, why = wire.verify_compact(oqc1, 1, OPT_CFG, SCHEME)
    assert ok, why
    w1, w2 = oqc1.c_witnesses
    # One signer cannot witness a divergence with itself.
    ok, why = wire.verify_compact(dataclasses.replace(oqc1, c_witnesses=(w1, w1)), 1, OPT_CFG, SCHEME)
    assert not ok and "equal" in why
    bad_sig = Signature(w2.sig.signer, bytes([w2.sig.blob[0] ^ 1]) + w2.sig.blob[1:])
    flipped = dataclasses.replace(oqc1, c_witnesses=(w1, dataclasses.replace(w2, sig=bad_sig)))
    ok, why = wire.verify_compact(flipped, 1, OPT_CFG, SCHEME)
    assert not ok and "witness signature" in why


@pytest.mark.parametrize("r, seed", [(2, 8), (4, 5)], ids=["oqc2", "oqc4"])
def test_optimistic_chain_shortest_must_be_minimal(r, seed):
    chain = next(c for c in (wire.compact_qc(qcs[r], OPT_CFG, SCHEME) for qcs in _opt_qcs(seed)) if c.short != c.long)
    ok, why = wire.verify_compact(chain, r, OPT_CFG, SCHEME)
    assert ok, why
    # The longest vote and its evidence, claimed as the shortest too.
    forged = dataclasses.replace(chain, short=chain.long, short_ev=chain.long_ev)
    ok, why = wire.verify_compact(forged, r, OPT_CFG, SCHEME)
    assert not ok and "shortest not minimal" in why


def _nested_forgeries():
    """Per nested certificate field: a round, its config and scheme, a
    valid compact certificate of that round, and copies of it whose field
    holds a value of the wrong type."""
    rep = dataclasses.replace
    anchored = wire.compact_qc(pipeline([(a, b, c, d)] * 4)[1], CFG, SCHEME)
    witnessed = next(q for q in (wire.compact_qc(pipeline(DIVERGENT, seed=s)[1], CFG, SCHEME) for s in range(20))
                     if q.witnesses)
    w1, w2 = witnessed.witnesses
    chain = wire.compact_qc(pipeline(DIVERGENT, seed=5)[2], CFG, SCHEME)
    opt, opt_scheme, sim = run_opt(DIVERGENT)
    oqc1 = wire.compact_qc(sim.engines[0].own_qcs[1], opt, opt_scheme)
    stem = wire.compact_qc(sim.engines[0].own_qcs[3], opt, opt_scheme)
    return {
        "anchor": (2, CFG, SCHEME, anchored, [rep(anchored, anchor=5)]),
        "witness-qc1": (2, CFG, SCHEME, witnessed, [rep(witnessed, witnesses=(rep(w1, qc1=5), w2))]),
        "xpart": (1, opt, opt_scheme, oqc1, [rep(oqc1, xpart=5)]),
        "chain-evidence": (3, CFG, SCHEME, chain, [rep(chain, short_ev=5), rep(chain, long_ev=(chain.long_ev,))]),
        "stem-evidence": (3, opt, opt_scheme, stem, [
            rep(stem, short_ev=(5, 6)), rep(stem, short_ev=(stem.short_ev[0], 6)), rep(stem, long_ev=5)]),
    }


@pytest.mark.parametrize("field", ["anchor", "witness-qc1", "xpart", "chain-evidence", "stem-evidence"])
def test_nested_certificate_of_the_wrong_type_is_rejected(field):
    r, cfg, scheme, valid, forged = _nested_forgeries()[field]
    ok, why = wire.verify_compact(valid, r, cfg, scheme)
    assert ok, why
    for q in forged:
        ok, why = wire.verify_compact(q, r, cfg, scheme)
        assert not ok and why


#: Values of the wrong shape for a certificate or witness field.
MISSHAPEN = (5, None, b"x", ("x",), ([1],), (5, 5, 5), "s")


def test_compact_verifiers_reject_every_misshapen_field():
    """Each field of each round certificate of party 0, and of a witness,
    and the first entry of each tuple field, replaced by each value of
    ``MISSHAPEN``: the verifier says no with a reason and never raises."""
    from prefixsim.scenario import run_scenario

    rep = dataclasses.replace
    cases = witnesses = 0
    for protocol, n in (("pc3", 4), ("pc_opt", 4), ("pc_5f1", 6)):
        for inputs in ("unanimous", "random"):
            result = run_scenario({"version": 1, "protocol": protocol, "n": n, "f": 1, "L": 4, "seed": 3,
                                   "inputs": {"kind": inputs}})
            cfg, scheme = result.cfg, result.scheme
            for r, qc in sorted(result.sim.engines[0].own_qcs.items()):
                q = wire.compact_qc(qc, cfg, scheme)
                assert wire.verify_compact(q, r, cfg, scheme) == (True, "")
                targets = [(q, lambda obj: obj)]
                for name in ("witnesses", "c_witnesses"):
                    pair = getattr(q, name, None)
                    if pair:
                        targets.append((pair[0], lambda w, name=name, pair=pair: rep(q, **{name: (w, pair[1])})))
                for obj, wrap in targets:
                    witnesses += isinstance(obj, wire.Witness2)
                    for field in dataclasses.fields(obj):
                        value = getattr(obj, field.name)
                        for bad in MISSHAPEN:
                            changed = [bad] + ([(bad,) + value[1:]] if isinstance(value, tuple) and value else [])
                            for new in changed:
                                if new == value:
                                    continue
                                ok, why = wire.verify_compact(wrap(rep(obj, **{field.name: new})), r, cfg, scheme)
                                assert not ok and why, (protocol, r, type(obj).__name__, field.name, new)
                                cases += 1
    assert cases > 1500 and witnesses


def _swapped_evidence(protocol, r):
    """A valid compact round-``r`` certificate of ``protocol`` whose two
    pieces of evidence make different votes, the same with them swapped,
    its config and scheme."""
    from prefixsim.scenario import run_scenario

    n = 6 if protocol == "pc_5f1" else 4
    cfg = PcConfig(n, 1, 4, VARIANTS[protocol], ("scn", protocol))
    scheme = MacScheme(n)
    rep = dataclasses.replace
    for seed in range(40):
        result = run_scenario({"version": 1, "protocol": protocol, "n": n, "f": 1, "L": 4, "gst": None, "seed": seed,
                               "adversary": {"kind": "fuzz"}})
        for party in result.honest:
            q = wire.compact_qc(result.sim.engines[party].own_qcs[r], cfg, scheme)
            if isinstance(q, wire.CQC2) and q.witnesses:
                w1, w2 = q.witnesses
                return q, rep(q, witnesses=(rep(w1, qc1=w2.qc1), rep(w2, qc1=w1.qc1))), cfg, scheme
            if isinstance(q, (wire.ChainQC, wire.StemQC)) and q.short_ev != q.long_ev:
                return q, rep(q, short_ev=q.long_ev, long_ev=q.short_ev), cfg, scheme
    raise AssertionError("no certificate with two different votes")


@pytest.mark.parametrize("protocol, r", [("pc3", 2), ("pc3", 3), ("pc_opt", 2), ("pc_opt", 3), ("pc_opt", 4),
                                         ("pc_5f1", 2)])
def test_evidence_must_make_the_vote_it_backs(protocol, r):
    valid, swapped, cfg, scheme = _swapped_evidence(protocol, r)
    ok, why = wire.verify_compact(valid, r, cfg, scheme)
    assert ok, why
    ok, why = wire.verify_compact(swapped, r, cfg, scheme)
    assert not ok and ("different value" in why or "extension" in why), why


def test_compact_codec_measures_votes():
    cfg = PcConfig(4, 1, 4, Variant.THREE_ROUND, ("w", "cc"))
    scheme = MacScheme(4)
    codec = wire.CompactCodec(cfg, scheme)
    plain = wire.PlainCodec()
    vote1 = Vote(cfg.instance, 1, 0, (a, b, c, d), scheme.sign_vector(0, crypto.VOTE1, cfg.instance, (a, b, c, d)))
    assert codec.measure(vote1) == wire.measure(wire.compact_vote(vote1, cfg, scheme))
    assert plain.measure(vote1) == wire.measure(vote1)
    # A two-round vote carries its round-1 certificate as a CQC1.
    fast, fast_scheme = PcConfig(6, 1, 4, Variant.FAST_5F1, ("w", "f")), MacScheme(6)
    qc1 = QC(1, tuple(make_vote1(p, (a, b, c, p.to_bytes(1, "big")), fast, fast_scheme) for p in range(5)))
    value = certify(qc1, fast)
    vote2 = Vote(fast.instance, 2, 0, value, fast_scheme.sign_vector(0, crypto.VOTE2, fast.instance, value), (qc1,))
    compact = wire.compact_vote(vote2, fast, fast_scheme)
    assert type(compact) is wire.CVote3 and type(compact.qc2) is wire.CQC1
    assert wire.CompactCodec(fast, fast_scheme).measure(vote2) == wire.measure(compact) < plain.measure(vote2)


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
    # strings are sized without encoding: non-ASCII ones (lone surrogates,
    # which UTF-8 cannot encode, are among the unencodable values below),
    # and ones whose UTF-8 form reaches a two-byte length
    st.text(st.characters(min_codepoint=0x80, codec="utf-8"), max_size=8),
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
    [([1], TypeError), (object(), TypeError), (-1, ValueError), ((a, -5, [1]), ValueError),
     ("\ud800", UnicodeEncodeError)],
    ids=["list", "object", "negative", "negative-before-list", "lone-surrogate"],
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


# ---------------------------------------------------------------------------
# compact encodings: every form's bytes are pinned


# SHA-256 over the encodings of the compact forms of each round's
# certificates and votes, recorded before the chain, common-prefix and
# prefix-signature builders were merged, and again before the per-round
# builders became one table of forms: the bytes did not move.
_COMPACT_PINS = {
    ("pc3", 4): {
        "qc1": "5fc2bf8826359d107678970bdcff2b075e12ee1c3b1455fe9a7948bfe2e82f36",
        "qc2": "a0eb2e60262dbda45ff8110bd098cd96292b241194f335f74049e6a7ef9baf3f",
        "qc3": "b6e764216d1cc3f8acbf8b5dcdc6c7e77c8449a0bc5ef5233eeb67ea6645dd84",
        "vote1": "8013b45a3adc05e52b6a3c27afaf34b0ef65d80ee3b6c1f5f4a97d4874e7cc26",
        "vote2": "bf9dae74c3fd0098ae96910d2880c3c269eccc4062b53ca6cb7ecc2909dd3e03",
        "vote3": "2af0896ad99315154ec092f4da4bf151ae353efd815a7d7f8ab7a02a5c9e0f95",
    },
    ("pc3", 7): {
        "qc1": "f840f1a022f31da56f3f8210ca03de6d26cdee3db0fbae4668cce2dc508ba731",
        "qc2": "b263d49b479069ae00d87e8845e253d856af112af5615be0d5a5c23dd72af500",
        "qc3": "83dca0112c49e8fa61485ee8c1faec581f70777bc3976bfd92c215cbd8bd01db",
        "vote1": "746b5f390f6ab07ff79d551124ac24837e2503d57f507b94c047692b0d2a0e6d",
        "vote2": "ac6aee65dd1a9a546e2199696df70a08945ea4b22208bb40e515cf36f2b07625",
        "vote3": "bb433251f7e637fdeff240f7dca17c47948694af5e25307c744ac64dbcb05905",
    },
    ("pc_opt", 4): {
        "qc1": "5cc3dac2c6077151b9c44c46e871ca686bd14313d67db92b42514c0fcd4d823c",
        "qc2": "f4be482c4d4263d4b0744122a120aebc6c73a6a43691a8777e3ecd2a7a172c19",
        "qc3": "ba4bf66ccf84e364dd308339079a1511e8b025dc8e6f1ebfe4153cf1f2514721",
        "qc4": "420e09d0918d5ab03b7366cd2b0ed204c2580b34df18443f8bc58f215a45dbd9",
        "vote1": "a0b3db6b2213cdb7fee63492e86b1fec343e7526fc6c54fa6aa974db06c0f4f9",
        "vote2": "6645f8275b3c347b2640eec12d20847ef886f8fead7b0473d84e008fa044a08e",
        "vote3": "1a5c76a3c5358c95f1fdf17b39e80973a76c978e49158c7343666d764329c0cc",
        "vote4": "1f75ec578a8c7683a4d6eeea91e7bdc8da6c297f2a11f1c04fd8966cfb78d2fd",
    },
    ("pc_opt", 7): {
        "qc1": "bfe7ab8e6c97f2c3a8a9851445852ab16969cfed9341694b5e0a4a5e46ba1966",
        "qc2": "a5de7dac93d2bfce8b7288f1a91e47bc9e8c34059bd91ac1aa4f2fe8d211ca92",
        "qc3": "6ce8885a47939066eeae8f3456c3ceb80edd389950faf25ab2e8cd2aa426bfb6",
        "qc4": "83d593d703cdc39a10758fabb087dc7fa1f9100eac64e373a6f7223f003a4752",
        "vote1": "4141b99c3e3c84d38c30989de9519b9a05508ef5919e7567a672a2ad10e56101",
        "vote2": "c24346f2c9122ad2607ffe459616b08f52ad26f2b461336d537bc006cda445e4",
        "vote3": "47324af2cdd12692296d8396fd20a4344c71375bda6953740d078073fc143f6f",
        "vote4": "d6dad7dad89f84fa85722d758726b9874f0dd41ad6fbfe4e5adf1d279369cf00",
    },
}


def _compact_digests(protocol, n):
    """Per round, SHA-256 over ``wire.encode`` of the compact form of every
    certificate the honest parties formed (key ``qc<r>``) and of every
    vote in it (``vote<r>``).  Two jittered runs with an equivocating
    party reach divergence witnesses and chains whose shortest and
    longest votes differ; a unanimous run reaches full-length anchors and
    common prefixes."""
    from prefixsim.scenario import VARIANTS, run_scenario

    f = (n - 1) // 3
    cfg = PcConfig(n, f, n, VARIANTS[protocol], ("scn", protocol))
    scheme = MacScheme(n)
    hashes = {}
    for seed, inputs in ((5, "random"), (8, "random"), (1, "unanimous")):
        result = run_scenario({
            "version": 1, "protocol": protocol, "n": n, "f": f, "L": n, "gst": None, "seed": seed,
            "inputs": {"kind": inputs}, "adversary": {"kind": "equivocate", "byzantine": [n - 1], "jitter": 5},
        })
        for party in result.honest:
            for r, qc in sorted(result.sim.engines[party].own_qcs.items()):
                hashes.setdefault(f"qc{r}", hashlib.sha256()).update(wire.encode(wire.compact_qc(qc, cfg, scheme)))
                h = hashes.setdefault(f"vote{r}", hashlib.sha256())
                for vote in qc.votes:
                    h.update(wire.encode(wire.compact_vote(vote, cfg, scheme)))
    return {name: h.hexdigest() for name, h in hashes.items()}


@pytest.mark.parametrize("protocol, n", sorted(_COMPACT_PINS))
def test_compact_encoding_pins(protocol, n):
    assert _compact_digests(protocol, n) == _COMPACT_PINS[(protocol, n)]
