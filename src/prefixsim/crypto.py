"""Signing, multi-signature aggregation, and hashing backends.

Two interchangeable schemes sit behind one interface:

* :class:`MacScheme` -- deterministic keyed-MAC signatures with a
  verifier-side key registry.  Fast and fully reproducible; the default
  for simulations and property suites.
* :class:`Ed25519Scheme` -- real asymmetric signatures for integration
  realism (backed by the ``cryptography`` package).

Every signed byte string is prefixed by a domain tag: a message kind plus
the protocol instance identifier, so votes can never be replayed across
rounds, views, or slots.  Aggregation is structured concatenation: the
aggregate keeps the signer set and each signer's exact message (vectors,
so the wire layer can store them in shared-prefix compressed form) and
verification re-checks every constituent.
"""

from __future__ import annotations

import hashlib
import hmac as hmac_mod
from dataclasses import dataclass
from typing import Iterable, Tuple

from . import encoding
from .prefixes import Vector, _Bot

# Message kinds (domain-separation tags).
VOTE1 = "vote-1"
VOTE2 = "vote-2"
VOTE3 = "vote-3"
VOTE4 = "vote-4"
EMPTY_VIEW = "empty-view"

DIGEST_SIZE = 16

#: Distinguished digest of the absent value; never equals the digest of
#: real content (truncated SHA-256 of actual bytes is never all zero in
#: any corpus we care about).
HBOT = b"\x00" * DIGEST_SIZE


def hash_bytes(data: bytes) -> bytes:
    return hashlib.sha256(data).digest()[:DIGEST_SIZE]


def tag_bytes(kind: str, instance: tuple) -> bytes:
    out: list = []
    encoding.write_bytes(out, kind.encode())
    encoding.write_uint(out, len(instance))
    for part in instance:
        if isinstance(part, int):
            out.append(b"i")
            encoding.write_uint(out, part)
        else:
            out.append(b"s")
            encoding.write_bytes(out, str(part).encode())
    return b"".join(out)


class KeyError_(Exception):
    """Unknown party or key not held by this signer."""


@dataclass(frozen=True)
class Signature:
    signer: int
    blob: bytes


@dataclass(frozen=True)
class AggregateSignature:
    """A set of signatures over per-signer messages under one domain tag.

    ``messages[i]`` is the exact vector signed by ``signers[i]``.  The
    blob is the concatenation of the constituent signature blobs in
    signer order; verification recomputes each signer's tagged message.
    """

    kind: str
    instance: tuple
    signers: Tuple[int, ...]
    messages: Tuple[Vector, ...]
    blob: bytes

    def well_formed(self) -> bool:
        """Whether every field has the shape verification reads.  An
        aggregate comes off the wire, so any field may be any value."""
        return (
            isinstance(self.kind, str)
            and isinstance(self.instance, tuple)
            and isinstance(self.signers, tuple)
            and all(isinstance(party, int) for party in self.signers)
            and isinstance(self.messages, tuple)
            and all(
                isinstance(vec, tuple) and all(isinstance(e, (bytes, _Bot)) for e in vec)
                for vec in self.messages
            )
            and isinstance(self.blob, bytes)
        )


class AggregationError(Exception):
    pass


class Scheme:
    """Common signing interface; subclasses provide the primitives."""

    sig_size = 0

    def __init__(self, n: int):
        self.n = n
        self._last_tag: Tuple[tuple, bytes] = ((), b"")

    def _raw_sign(self, party: int, payload: bytes) -> bytes:
        raise NotImplementedError

    def _raw_verify(self, party: int, payload: bytes, blob: bytes) -> bool:
        raise NotImplementedError

    def _tag(self, kind: str, instance: tuple) -> bytes:
        """``tag_bytes``, remembered for the last ``(kind, instance)``.

        Certificates are checked vote after vote under one tag, so this
        hits about two calls in three.  A table of every tag would hit
        more often, but its run-long entries pin allocator arenas: it
        raised the peak RSS of long multi-slot runs by about 4 %."""
        key = (kind, instance)
        last_key, tag = self._last_tag
        if key != last_key:
            tag = tag_bytes(kind, instance)
            self._last_tag = (key, tag)
        return tag

    def _check_party(self, party: int) -> None:
        if not 0 <= party < self.n:
            raise KeyError_(f"unknown party {party}")

    def sign(self, party: int, kind: str, instance: tuple, message: bytes) -> Signature:
        self._check_party(party)
        payload = self._tag(kind, instance) + message
        return Signature(party, self._raw_sign(party, payload))

    def verify(self, party: int, kind: str, instance: tuple, message: bytes, sig: Signature) -> bool:
        if sig.signer != party or not 0 <= party < self.n:
            return False
        if len(sig.blob) != self.sig_size:
            return False
        payload = self._tag(kind, instance) + message
        return self._raw_verify(party, payload, sig.blob)

    def sign_vector(self, party: int, kind: str, instance: tuple, vec: Vector) -> Signature:
        return self.sign(party, kind, instance, encoding.encode_vector(vec))

    def constituent(self, blob: bytes, idx: int, party: int) -> Signature:
        """``party``'s signature, the ``idx``-th in a multi-signature blob:
        constituent blobs are concatenated in signer order."""
        return Signature(party, blob[idx * self.sig_size : (idx + 1) * self.sig_size])

    def verify_vector(self, party: int, kind: str, instance: tuple, vec: Vector, sig: Signature) -> bool:
        return self.verify(party, kind, instance, encoding.encode_vector(vec), sig)

    def aggregate(
        self,
        kind: str,
        instance: tuple,
        entries: Iterable[Tuple[int, Vector, Signature]],
    ) -> AggregateSignature:
        """Combine verified (party, vector, signature) entries.

        Entries are sorted by party id; duplicate signers and invalid
        constituent signatures are aggregation errors.
        """
        ordered = sorted(entries, key=lambda e: e[0])
        signers = tuple(party for party, _, _ in ordered)
        if len(set(signers)) != len(signers):
            raise AggregationError("duplicate signer")
        for party, vec, sig in ordered:
            if not self.verify_vector(party, kind, instance, vec, sig):
                raise AggregationError(f"invalid input signature from {party}")
        blob = b"".join(sig.blob for _, _, sig in ordered)
        messages = tuple(vec for _, vec, _ in ordered)
        return AggregateSignature(kind, instance, signers, messages, blob)

    def verify_aggregate(self, agg: AggregateSignature) -> bool:
        if not agg.well_formed():
            return False
        if len(set(agg.signers)) != len(agg.signers):
            return False
        if len(agg.messages) != len(agg.signers):
            return False
        if len(agg.blob) != self.sig_size * len(agg.signers):
            return False
        for idx, (party, vec) in enumerate(zip(agg.signers, agg.messages)):
            sig = self.constituent(agg.blob, idx, party)
            if not self.verify_vector(party, agg.kind, agg.instance, vec, sig):
                return False
        return True

    def restricted(self, parties) -> "RestrictedSigner":
        return RestrictedSigner(self, frozenset(parties))


class RestrictedSigner:
    """Signing handle limited to a fixed party set.

    Handed to adversaries so Byzantine strategies can never emit messages
    signed with honest keys.
    """

    def __init__(self, scheme: Scheme, parties: frozenset):
        self._scheme = scheme
        self.parties = parties

    def sign_vector(self, party: int, kind: str, instance: tuple, vec: Vector) -> Signature:
        if party not in self.parties:
            raise KeyError_(f"party {party} key not held")
        return self._scheme.sign_vector(party, kind, instance, vec)


class MacScheme(Scheme):
    """HMAC-SHA256 test scheme with a shared verifier-side key registry.

    HMAC runs as RFC 2104 defines it, from each party's inner and outer
    SHA-256 states, hashed once: a key is a 32-byte digest, so padding it
    with zeros to the 64-byte block is exact."""

    sig_size = 16
    _IPAD = bytes(b ^ 0x36 for b in range(256))  # byte translation tables
    _OPAD = bytes(b ^ 0x5C for b in range(256))

    def __init__(self, n: int, seed: bytes = b"prefixsim-mac"):
        super().__init__(n)
        keys = [hashlib.sha256(seed + b"|" + str(i).encode()).digest().ljust(64, b"\0") for i in range(n)]
        self._pads = [(hashlib.sha256(key.translate(self._IPAD)), hashlib.sha256(key.translate(self._OPAD)))
                      for key in keys]

    def _raw_sign(self, party: int, payload: bytes) -> bytes:
        inner, outer = self._pads[party]
        inner = inner.copy()
        inner.update(payload)
        outer = outer.copy()
        outer.update(inner.digest())
        return outer.digest()[: self.sig_size]

    def _raw_verify(self, party: int, payload: bytes, blob: bytes) -> bool:
        return hmac_mod.compare_digest(self._raw_sign(party, payload), blob)


class Ed25519Scheme(Scheme):
    """Ed25519 signatures with deterministic per-party keys."""

    sig_size = 64

    def __init__(self, n: int):
        super().__init__(n)
        from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey

        self._private = []
        self._public = []
        for i in range(n):
            material = hashlib.sha256(b"prefixsim-ed25519|" + str(i).encode()).digest()
            key = Ed25519PrivateKey.from_private_bytes(material)
            self._private.append(key)
            self._public.append(key.public_key())

    def _raw_sign(self, party: int, payload: bytes) -> bytes:
        return self._private[party].sign(payload)

    def _raw_verify(self, party: int, payload: bytes, blob: bytes) -> bool:
        from cryptography.exceptions import InvalidSignature

        try:
            self._public[party].verify(blob, payload)
            return True
        except InvalidSignature:
            return False


SCHEMES = {"mac": MacScheme, "ed25519": Ed25519Scheme}


def make_scheme(name: str, n: int) -> Scheme:
    try:
        return SCHEMES[name](n)
    except KeyError:
        raise ValueError(f"unknown crypto backend {name!r}") from None
