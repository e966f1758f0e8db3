"""Cross-backend conformance for the signing/aggregation/hashing layer."""

import dataclasses
import hashlib
import hmac
import random

import pytest

from prefixsim import crypto
from prefixsim.crypto import (
    AggregationError,
    Ed25519Scheme,
    HBOT,
    KeyError_,
    MacScheme,
    Signature,
    hash_bytes,
)
from prefixsim.prefixes import BOT

INST = ("pc", "instA")
OTHER = ("pc", "instB")


@pytest.fixture(params=["mac", "ed25519"])
def scheme(request):
    return crypto.make_scheme(request.param, 4)


def test_sign_verify_roundtrip(scheme):
    sig = scheme.sign(0, crypto.VOTE1, INST, b"m")
    assert scheme.verify(0, crypto.VOTE1, INST, b"m", sig)


def test_mac_signatures_are_truncated_hmac_sha256():
    scheme = MacScheme(7)
    rng = random.Random(5)
    for party in range(7):
        key = hashlib.sha256(b"prefixsim-mac|" + str(party).encode()).digest()
        for size in [0, 1, 55, 56, 64, 300] + [rng.randrange(301) for _ in range(30)]:
            message = rng.randbytes(size)
            sig = scheme.sign(party, crypto.VOTE2, INST, message)
            want = hmac.digest(key, crypto.tag_bytes(crypto.VOTE2, INST) + message, "sha256")[:16]
            assert sig.blob == want
            assert scheme.verify(party, crypto.VOTE2, INST, message, sig)


def test_domain_separation(scheme):
    sig = scheme.sign(0, crypto.VOTE1, INST, b"m")
    assert not scheme.verify(0, crypto.VOTE2, INST, b"m", sig)
    assert not scheme.verify(0, crypto.VOTE1, OTHER, b"m", sig)


def test_altered_message_rejected(scheme):
    sig = scheme.sign(0, crypto.VOTE1, INST, b"m")
    assert not scheme.verify(0, crypto.VOTE1, INST, b"m2", sig)
    assert not scheme.verify(1, crypto.VOTE1, INST, b"m", sig)


def test_unknown_party(scheme):
    with pytest.raises(KeyError_):
        scheme.sign(9, crypto.VOTE1, INST, b"m")


def test_signature_is_deterministic(scheme):
    assert scheme.sign(2, crypto.VOTE2, INST, b"zzz") == scheme.sign(2, crypto.VOTE2, INST, b"zzz")


def _entries(scheme, vectors):
    out = []
    for party, vec in enumerate(vectors):
        sig = scheme.sign_vector(party, crypto.VOTE2, INST, vec)
        out.append((party, vec, sig))
    return out


def test_aggregate_identical_messages(scheme):
    vec = (b"x", b"y")
    agg = scheme.aggregate(crypto.VOTE2, INST, _entries(scheme, [vec, vec, vec]))
    assert set(agg.messages) == {vec}
    assert scheme.verify_aggregate(agg)


def test_aggregate_shared_prefix_suffixes(scheme):
    vectors = [(b"x", b"a"), (b"x", b"b"), (b"x", b"c")]
    agg = scheme.aggregate(crypto.VOTE2, INST, _entries(scheme, vectors))
    assert scheme.verify_aggregate(agg)
    assert agg.messages == tuple(vectors)


def test_aggregate_tamper_detected(scheme):
    vectors = [(b"x", b"a"), (b"x", b"b"), (b"x", b"c")]
    agg = scheme.aggregate(crypto.VOTE2, INST, _entries(scheme, vectors))
    forged_msgs = agg.messages[:1] + ((b"x", b"z"),) + agg.messages[2:]
    tampered = crypto.AggregateSignature(agg.kind, agg.instance, agg.signers, forged_msgs, agg.blob)
    assert not scheme.verify_aggregate(tampered)
    wrong_signers = (agg.signers[0], agg.signers[2], agg.signers[1])
    assert not scheme.verify_aggregate(
        crypto.AggregateSignature(agg.kind, agg.instance, wrong_signers, agg.messages, agg.blob)
    )
    assert not scheme.verify_aggregate(
        crypto.AggregateSignature(agg.kind, OTHER, agg.signers, agg.messages, agg.blob)
    )


def test_aggregate_rejects_bad_input(scheme):
    vec = (b"x",)
    bad = Signature(0, b"\x00" * scheme.sig_size)
    with pytest.raises(AggregationError):
        scheme.aggregate(crypto.VOTE2, INST, [(0, vec, bad)])


def test_hash_sentinel():
    assert hash_bytes(b"") != HBOT
    assert hash_bytes(b"proposal") != HBOT
    assert hash_bytes(b"p") == hash_bytes(b"p")
    assert hash_bytes(b"p1") != hash_bytes(b"p2")


def test_sizes_reported():
    assert MacScheme(4).sig_size == 16
    assert Ed25519Scheme(4).sig_size == 64
    assert len(HBOT) == crypto.DIGEST_SIZE


def test_restricted_signer_blocks_honest_keys():
    scheme = MacScheme(4)
    ring = scheme.restricted({3})
    ring.sign_vector(3, crypto.VOTE1, INST, (b"m",))
    with pytest.raises(KeyError_):
        ring.sign_vector(0, crypto.VOTE1, INST, (b"m",))


def test_domain_tag_is_remembered_per_kind_and_instance(scheme):
    tag = scheme._tag(crypto.VOTE1, INST)
    assert tag == crypto.tag_bytes(crypto.VOTE1, INST)
    assert scheme._tag(crypto.VOTE1, ("pc", "instA")) is tag
    assert scheme._tag(crypto.VOTE2, INST) == crypto.tag_bytes(crypto.VOTE2, INST) != tag
    assert scheme._tag(crypto.VOTE1, OTHER) == crypto.tag_bytes(crypto.VOTE1, OTHER) != tag
    assert scheme._tag(crypto.VOTE1, INST) == tag


def test_aggregate_with_unhashable_instance_verifies_false(scheme):
    # The instance of a received aggregate comes off the wire; a list (or a
    # tuple holding one) is not a valid instance and must not raise.
    agg = scheme.aggregate(crypto.VOTE2, INST, _entries(scheme, [(b"x",), (b"y",)]))
    assert scheme.verify_aggregate(agg)
    for instance in (list(INST), (INST[0], [INST[1]])):
        bad = crypto.AggregateSignature(agg.kind, instance, agg.signers, agg.messages, agg.blob)
        assert not scheme.verify_aggregate(bad), instance
    assert scheme._tag(crypto.VOTE2, ("pc", ["instA"])) != scheme._tag(crypto.VOTE2, INST)


_MALFORMED_AGGREGATE_FIELDS = [
    ("signers", ((1,), (3,))), ("signers", ("x", "y")), ("signers", 5),
    ("messages", 5), ("messages", ((1,), (2,))), ("blob", 5), ("kind", 5),
]


@pytest.mark.parametrize("field, bad", _MALFORMED_AGGREGATE_FIELDS,
                         ids=[f"{name}={bad!r}" for name, bad in _MALFORMED_AGGREGATE_FIELDS])
def test_aggregate_with_malformed_fields_verifies_false(scheme, field, bad):
    # Every field of a received aggregate comes off the wire.
    agg = scheme.aggregate(crypto.VOTE2, INST, _entries(scheme, [(b"x",), (b"y",)]))
    assert agg.well_formed() and scheme.verify_aggregate(agg)
    bad_agg = dataclasses.replace(agg, **{field: bad})
    assert not bad_agg.well_formed()
    assert not scheme.verify_aggregate(bad_agg)
