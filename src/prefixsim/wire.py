"""Binary wire formats: the plain codec and the compact certificate forms.

Framing
-------
One self-describing layout covers every message: a value is a type byte
followed by its body, with all lengths as uvarints.

====  =============================================================
byte  body
====  =============================================================
0x00  None
0x01  unsigned integer (uvarint)
0x02  byte string (length-prefixed)
0x03  tuple (count, then each value)
0x04  the BOT placeholder (no body)
0x05  UTF-8 string (length-prefixed)
0x06  registered object (class tag, field count, then field values)
====  =============================================================

Registered objects are the protocol dataclasses; their class tags are
listed in ``_REGISTRY``.  Decoding rejects unknown tags, truncations,
and arity mismatches, naming the offending field.

A sub-instance's message travels inside ``nest.Nested`` (tag 5), whose
fields are the host instance, the child's integer key (view, slot or
lane) and the inner message, so a vote of view ``v`` in slot ``s`` is
``Nested(msc, s, Nested(msc+slot s, v, Vote))``.

Sizes and digests
-----------------
:func:`measure` returns ``len(encode(msg))`` without encoding: it sums
per-value lengths by the rules above, and each registered object's
length (except a ``Signature``'s, which is cheaper to recount) is kept
on the object with :func:`encoding.cached`, so a vote or certificate
embedded in many messages is sized once.  :func:`hash_obj` is the
truncated SHA-256 of the exact plain encoding, so digests, the payload
digests in ``commits.log`` and ``transcript_sha`` follow the layout
byte for byte.  Unencodable values (an unregistered type or a list, a
negative integer) raise the same ``TypeError``/``ValueError`` from
:func:`encode`, :func:`measure` and :func:`hash_obj`, and leave no
cached length or bytes behind.

A ``Vote`` that carries certificates is encoded once: its bytes are
kept on it (key ``"bytes"``) and spliced into every encoding that
embeds it.  A view-entry certificate holds n-f round-3 votes, each with
a QC of n-f round-2 votes, each with a QC of n-f round-1 votes, so a
proposal digest would otherwise walk up to (n-f)^3 leaves that are a
few shared vote objects.  Only such votes keep bytes:

* a vote without certificates (round 1) is a few small fields, as cheap
  to write as to splice; keeping its ~75-byte encoding too raised the
  peak RSS of long msc runs by 5 % and of short spc/msc runs by 2.4 %
  (likely by pinning allocator arenas), with no gain in speed;
* keeping a QC's bytes too made short spc/msc runs up to 7 % faster
  but raised the peak RSS of long msc runs by 12 %;
* deriving sizes from the kept bytes (one entry per vote) raised the
  peak RSS of long msc runs by 3.7 % and gained no speed.

Compact certificates
--------------------
The communication-optimized representations replace embedded vote sets
with aggregated signatures plus compressed per-signer descriptors:

* round-1 votes carry signatures on *all prefixes* of the input, so
  later quorums can aggregate at any cut;
* a compact first-round certificate stores, per signer, only the
  divergence point from the certified prefix ``(length, next element)``;
* a compact second-round certificate is a multi-signature plus either a
  full-length anchor certificate or two divergence witnesses;
* chain-shaped certificates (mutually consistent prefixes) store the
  shortest and longest values with their evidence plus per-signer
  logical lengths.

Three constructions are shared: prefix-signature votes (``CVote1``,
``CVote2``, ``OVote2``), a quorum's common prefix with its
multi-signature and divergence witnesses (``CQC2``, the common part of
``OQC1``), and the ``ChainQC`` of pc3 round 3 and optimistic rounds 2
and 4.

Vectors inside compact structures are padded with BOT to the instance
capacity ``L``; logical values ignore the padding.  Every certificate
verifier returns ``(ok, reason)`` and re-derives the certified values
from the signed material, so a compact certificate certifies exactly
what the plain vote-set certification computes (checked end-to-end by
:func:`equivalence_harness`).  Compact forms are only measured
(``CompactCodec``); engines receive plain votes, so compact votes have
no receive path and no verifier, except ``verify_cvote1`` for the
round-1 prefix signatures.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence, Tuple

from . import crypto, encoding, pc
from .crypto import AggregateSignature, Scheme, Signature
from .encoding import DecodeError, cached
from .pc import PcConfig, QC, Variant, Vote
from .prefixes import BOT, Vector, _Bot, is_prefix, longest_supported_prefix, mcp

# ---------------------------------------------------------------------------
# Generic self-describing codec

_T_NONE, _T_INT, _T_BYTES, _T_TUPLE, _T_BOT, _T_STR, _T_OBJ = range(7)

_REGISTRY: Dict[int, type] = {}
#: Per registered class: header bytes (type byte, tag, field count), field
#: names, and whether an object's length is cached on it.
_LAYOUT: Dict[type, Tuple[bytes, Tuple[str, ...], bool]] = {}


def register(tag: int):
    def wrap(cls):
        if tag in _REGISTRY:
            raise ValueError(f"duplicate wire tag {tag}")
        fields = dataclasses.fields(cls)
        header = bytes([_T_OBJ]) + encoding.encode_uint(tag) + encoding.encode_uint(len(fields))
        # An object of ints and bytes only (Signature) is sized faster than
        # a cache lookup, and a cache on each one would cost memory.
        leaf = all(f.type in ("int", "bytes") for f in fields)
        _REGISTRY[tag] = cls
        _LAYOUT[cls] = (header, tuple(f.name for f in fields), not leaf)
        return cls

    return wrap


def _head(kind: int, value: int) -> bytes:
    """A type byte and its uvarint (length, count or integer)."""
    return bytes((kind,)) + encoding.encode_uint(value)


_INT_HEADS, _BYTES_HEADS, _TUPLE_HEADS = ([_head(k, v) for v in range(0x80)] for k in (_T_INT, _T_BYTES, _T_TUPLE))


def _write_value(out: bytearray, value) -> None:
    kind = type(value)
    if kind is bytes:
        n = len(value)
        out += _BYTES_HEADS[n] if n < 0x80 else _head(_T_BYTES, n)
        out += value
    elif kind is tuple:
        n = len(value)
        out += _TUPLE_HEADS[n] if n < 0x80 else _head(_T_TUPLE, n)
        for item in value:
            _write_value(out, item)
    elif kind is int:
        out += _INT_HEADS[value] if 0 <= value < 0x80 else _head(_T_INT, value)
    elif kind is Vote and type(value.qcs) is tuple and value.qcs:
        out += cached(value, "bytes", _vote_bytes, value)
    elif kind in _LAYOUT:
        header, names, _ = _LAYOUT[kind]
        out += header
        for name in names:
            _write_value(out, getattr(value, name))
    elif value is None or isinstance(value, _Bot):
        out.append(_T_NONE if value is None else _T_BOT)
    elif isinstance(value, str):
        raw = value.encode()
        out += _head(_T_STR, len(raw)) + raw
    else:
        for base in (int, bytes, tuple):  # bool and subclasses
            if isinstance(value, base):
                return _write_value(out, base(value))
        raise TypeError(f"unencodable value of type {kind.__name__}")


def _vote_bytes(vote: Vote) -> bytes:
    """The encoding of a vote that carries certificates, built once and
    spliced by every encoding that embeds the vote (see "Sizes and
    digests")."""
    header, names, _ = _LAYOUT[Vote]
    out = bytearray(header)
    for name in names:
        _write_value(out, getattr(vote, name))
    return bytes(out)


def _size(value) -> int:
    """``len`` of ``value``'s encoding, by the rules of ``_write_value``."""
    kind = type(value)
    if kind is bytes:
        n = len(value)
        return (2 if n < 0x80 else len(_head(_T_BYTES, n))) + n
    if kind is tuple:
        n = len(value)
        return (2 if n < 0x80 else len(_head(_T_TUPLE, n))) + sum(map(_size, value))
    if kind is int:
        return 2 if 0 <= value < 0x80 else len(_head(_T_INT, value))
    if kind is str:  # instance names inside every envelope
        n = len(value) if value.isascii() else len(value.encode())
        return (2 if n < 0x80 else len(_head(_T_STR, n))) + n
    layout = _LAYOUT.get(kind)
    if layout is None:  # None, BOT, bool and subclasses: small and rare
        out = bytearray()
        _write_value(out, value)
        return len(out)
    return cached(value, "plain", _fields_size, value, layout) if layout[2] else _fields_size(value, layout)


def _fields_size(value, layout) -> int:
    header, names, _ = layout
    return len(header) + sum(_size(getattr(value, name)) for name in names)


def _read_value(data: bytes, pos: int, depth: int = 0):
    if depth > 24:
        raise DecodeError("nesting too deep")
    if pos >= len(data):
        raise DecodeError("truncated value")
    kind = data[pos]
    pos += 1
    if kind == _T_NONE:
        return None, pos
    if kind == _T_BOT:
        return BOT, pos
    if kind == _T_INT:
        return encoding.read_uint(data, pos)
    if kind == _T_BYTES:
        return encoding.read_bytes(data, pos)
    if kind == _T_STR:
        raw, pos = encoding.read_bytes(data, pos)
        return raw.decode(), pos
    if kind == _T_TUPLE:
        count, pos = encoding.read_uint(data, pos)
        items = []
        for _ in range(count):
            item, pos = _read_value(data, pos, depth + 1)
            items.append(item)
        return tuple(items), pos
    if kind == _T_OBJ:
        tag, pos = encoding.read_uint(data, pos)
        cls = _REGISTRY.get(tag)
        if cls is None:
            raise DecodeError(f"unknown message tag {tag}")
        arity, pos = encoding.read_uint(data, pos)
        names = _LAYOUT[cls][1]
        if arity != len(names):
            raise DecodeError(f"{cls.__name__}: field count {arity} != {len(names)}")
        values = []
        for name in names:
            try:
                val, pos = _read_value(data, pos, depth + 1)
            except DecodeError as exc:
                raise DecodeError(f"{cls.__name__}.{name}: {exc}") from None
            values.append(val)
        try:
            return cls(*values), pos
        except (TypeError, ValueError) as exc:
            raise DecodeError(f"{cls.__name__}: {exc}") from None
    raise DecodeError(f"unknown value kind {kind}")


def encode(msg) -> bytes:
    out = bytearray()
    _write_value(out, msg)
    return bytes(out)


def decode(data: bytes):
    msg, pos = _read_value(data, 0)
    if pos != len(data):
        raise DecodeError(f"{len(data) - pos} trailing bytes")
    return msg


def measure(msg) -> int:
    """``len(encode(msg))`` without encoding: see "Sizes and digests"."""
    return _size(msg)


def hash_obj(obj) -> bytes:
    return crypto.hash_bytes(encode(obj))


# Core protocol dataclasses.
register(1)(Signature)
register(2)(AggregateSignature)
register(3)(Vote)
register(4)(QC)


# ---------------------------------------------------------------------------
# Padding helpers (compact layer only)


def pad(vec: Vector, L: int) -> Vector:
    if len(vec) > L:
        raise ValueError("vector longer than capacity")
    if any(isinstance(e, _Bot) for e in vec):
        raise ValueError("BOT inside a logical vector")
    return tuple(vec) + (BOT,) * (L - len(vec))


def strip(padded: Vector) -> Vector:
    end = len(padded)
    while end > 0 and isinstance(padded[end - 1], _Bot):
        end -= 1
    return tuple(padded[:end])


def _padded_ok(vec, L: int) -> bool:
    if not isinstance(vec, tuple) or len(vec) != L:
        return False
    seen_pad = False
    for e in vec:
        if isinstance(e, _Bot):
            seen_pad = True
        elif seen_pad or not isinstance(e, bytes):
            return False
    return True


def _pmcp_len(a: Vector, b: Vector) -> int:
    i = 0
    while i < len(a) and i < len(b) and a[i] == b[i]:
        i += 1
    return i


def _prefix_msg(vec_padded: Vector, k: int) -> Vector:
    """Canonical signed message for the length-k padded prefix."""
    return strip(vec_padded[:k])


def prefix_signatures(scheme: Scheme, party: int, kind: str, instance: tuple, vec_padded: Vector) -> tuple:
    """Signatures on every prefix (lengths 0..L) of a padded vector."""
    return tuple(
        scheme.sign_vector(party, kind, instance, _prefix_msg(vec_padded, k))
        for k in range(len(vec_padded) + 1)
    )


# ---------------------------------------------------------------------------
# Compact structures


@register(10)
@dataclass(frozen=True)
class CVote1:
    """Round-1 vote with signatures on all prefixes of the input."""

    inst: tuple
    sender: int
    value: Vector  # padded to L
    prefix_sigs: tuple


@register(11)
@dataclass(frozen=True)
class CQC1:
    """Compact round-1 certificate: certified prefix plus per-signer
    divergence descriptors ``(cut, next-element)`` and the aggregated
    signature blob over the truncated votes."""

    inst: tuple
    value: Vector  # certified prefix, padded
    signers: tuple
    descs: tuple  # per signer: (cut, element) with element possibly BOT
    blob: bytes


@register(12)
@dataclass(frozen=True)
class Witness2:
    """One half of a divergence proof: a signer whose certified prefix
    continues with ``elem`` right after the claimed common prefix."""

    party: int
    elem: object
    sig: Signature
    qc1: object  # CQC1 (three-round) or OQC1 (optimistic y-part witnesses carry no qc)


@register(13)
@dataclass(frozen=True)
class CQC2:
    """Compact round-2 certificate: multi-signature on the common prefix
    plus either a full-length anchor QC1 or two divergence witnesses."""

    inst: tuple
    value: Vector  # padded common prefix
    signers: tuple
    blob: bytes
    anchor: Optional[CQC1]
    witnesses: Optional[tuple]  # (Witness2, Witness2)


@register(14)
@dataclass(frozen=True)
class CVote2:
    inst: tuple
    sender: int
    value: Vector  # padded
    prefix_sigs: tuple
    qc1: CQC1


@register(15)
@dataclass(frozen=True)
class CVote3:
    inst: tuple
    sender: int
    value: Vector  # padded
    sig: Signature
    qc2: CQC2


@register(16)
@dataclass(frozen=True)
class ChainQC:
    """Shortest/longest packaging of mutually consistent certified
    prefixes: per-signer logical lengths relative to the longest, plus
    evidence certificates for both extremes.

    Parameterizes the round-3 certificate of the three-round protocol
    and the round-2/round-4 certificates of the optimistic variant.
    """

    inst: tuple
    round: int
    kind: str  # signing tag of the aggregated votes
    short: Vector  # padded
    short_ev: object
    long: Vector  # padded
    long_ev: object
    signers: tuple
    lengths: tuple
    blob: bytes


@register(17)
@dataclass(frozen=True)
class OQC1:
    """Optimistic round-1 certificate: the supported-prefix part (same
    shape as CQC1) plus the whole-quorum common prefix with its own
    multi-signature and, when votes diverge, two witnesses."""

    inst: tuple
    xpart: CQC1
    common: Vector  # padded mcp of the whole quorum
    c_signers: tuple
    c_blob: bytes
    c_witnesses: Optional[tuple]  # (Witness2, Witness2) with qc1=None


@register(18)
@dataclass(frozen=True)
class OVote2:
    inst: tuple
    sender: int
    value: Vector
    prefix_sigs: tuple
    qc1: OQC1


@register(19)
@dataclass(frozen=True)
class OVote3:
    inst: tuple
    sender: int
    value: Vector
    sig: Signature
    qc1: OQC1
    qc2: ChainQC


@register(20)
@dataclass(frozen=True)
class StemQC:
    """Round-3 certificate of the optimistic variant: possibly
    conflicting votes stored as a shared stem plus per-signer suffixes,
    with derivation evidence for the shortest and longest votes."""

    inst: tuple
    stem: Vector  # padded mcp of all votes
    suffixes: tuple  # per signer: tuple of elements beyond the stem
    signers: tuple
    blob: bytes
    short_ev: tuple  # (OQC1, ChainQC)
    long_ev: tuple


@register(21)
@dataclass(frozen=True)
class OVote4:
    inst: tuple
    sender: int
    value: Vector
    sig: Signature
    qc3: StemQC


# ---------------------------------------------------------------------------
# Builders (plain -> compact)


def _prefix_sig_vote(cls, kind: str, vote: Vote, cfg: PcConfig, scheme: Scheme, *rest):
    """A ``cls`` vote carrying the sender's ``kind`` signatures on every
    prefix of its padded value, followed by ``rest``."""
    padded = pad(vote.value, cfg.L)
    sigs = prefix_signatures(scheme, vote.sender, kind, cfg.instance, padded)
    return cls(cfg.instance, vote.sender, padded, sigs, *rest)


def build_cvote1(vote: Vote, cfg: PcConfig, scheme: Scheme) -> CVote1:
    return _prefix_sig_vote(CVote1, crypto.VOTE1, vote, cfg, scheme)


def _desc_for(vote_padded: Vector, certified_padded: Vector, L: int):
    if vote_padded == certified_padded:
        return (L, BOT)
    cut = _pmcp_len(vote_padded, certified_padded)
    return (cut, vote_padded[cut])


def build_cqc1(qc: QC, cfg: PcConfig, scheme: Scheme) -> CQC1:
    values = qc.values()
    certified = longest_supported_prefix(values, cfg.support)
    cpad = pad(certified, cfg.L)
    entries = []
    for vote in sorted(qc.votes, key=lambda v: v.sender):
        vpad = pad(vote.value, cfg.L)
        cut, elem = _desc_for(vpad, cpad, cfg.L)
        trunc = _prefix_msg(vpad, min(cut + 1, cfg.L))
        sig = scheme.sign_vector(vote.sender, crypto.VOTE1, cfg.instance, trunc)
        entries.append((vote.sender, (cut, elem), sig))
    return CQC1(
        cfg.instance,
        cpad,
        tuple(e[0] for e in entries),
        tuple(e[1] for e in entries),
        b"".join(e[2].blob for e in entries),
    )


def _multi_blob(scheme: Scheme, kind: str, instance: tuple, signers, message: Vector) -> bytes:
    return b"".join(scheme.sign_vector(party, kind, instance, message).blob for party in signers)


def _common_prefix(qc: QC, cfg: PcConfig, scheme: Scheme, kind: str, witness_qc: Callable):
    """A quorum's padded common prefix, its signers, their ``kind``
    multi-signature over it and, unless the prefix fills the capacity,
    two ``Witness2`` whose certificate is ``witness_qc(vote)``."""
    padded = [pad(v.value, cfg.L) for v in qc.votes]
    cut = min(_pmcp_len(padded[0], p) for p in padded)
    common = padded[0][:cut] + (BOT,) * (cfg.L - cut)
    signers = tuple(sorted(v.sender for v in qc.votes))
    blob = _multi_blob(scheme, kind, cfg.instance, signers, strip(common))
    if cut == cfg.L:
        return common, signers, blob, None
    by_elem: Dict[object, Vote] = {}
    for vote, vpad in zip(qc.votes, padded):
        by_elem.setdefault(vpad[cut], vote)
    wits = []
    for elem, vote in list(by_elem.items())[:2]:
        sig = scheme.sign_vector(vote.sender, kind, cfg.instance, _prefix_msg(pad(vote.value, cfg.L), cut + 1))
        wits.append(Witness2(vote.sender, elem, sig, witness_qc(vote)))
    return common, signers, blob, tuple(wits)


def build_cqc2(qc: QC, cfg: PcConfig, scheme: Scheme) -> CQC2:
    common, signers, blob, wits = _common_prefix(
        qc, cfg, scheme, crypto.VOTE2, lambda vote: build_cqc1(vote.qcs[0], cfg, scheme)
    )
    anchor = build_cqc1(qc.votes[0].qcs[0], cfg, scheme) if wits is None else None
    return CQC2(cfg.instance, common, signers, blob, anchor, wits)


def build_cvote2(vote: Vote, cfg: PcConfig, scheme: Scheme) -> CVote2:
    return _prefix_sig_vote(CVote2, crypto.VOTE2, vote, cfg, scheme, build_cqc1(vote.qcs[0], cfg, scheme))


def _extremes(qc: QC):
    """A quorum's shortest and longest votes, and its votes by sender."""
    shortest = min(qc.votes, key=lambda v: len(v.value))
    longest = max(qc.votes, key=lambda v: len(v.value))
    return shortest, longest, sorted(qc.votes, key=lambda v: v.sender)


def _build_chain(qc: QC, cfg: PcConfig, scheme: Scheme, kind: str, build_ev: Callable) -> ChainQC:
    """The ``ChainQC`` of a quorum of ``kind`` votes whose values are
    mutually consistent; ``build_ev`` builds each extreme's evidence from
    its vote's certificate."""
    shortest, longest, entries = _extremes(qc)
    return ChainQC(
        cfg.instance,
        qc.round,
        kind,
        pad(shortest.value, cfg.L),
        build_ev(shortest.qcs[0], cfg, scheme),
        pad(longest.value, cfg.L),
        build_ev(longest.qcs[0], cfg, scheme),
        tuple(v.sender for v in entries),
        tuple(len(v.value) for v in entries),
        b"".join(v.sig.blob for v in entries),
    )


def build_cqc3(qc: QC, cfg: PcConfig, scheme: Scheme) -> ChainQC:
    return _build_chain(qc, cfg, scheme, crypto.VOTE3, build_cqc2)


def build_cvote3(vote: Vote, cfg: PcConfig, scheme: Scheme) -> CVote3:
    return CVote3(cfg.instance, vote.sender, pad(vote.value, cfg.L), vote.sig, build_cqc2(vote.qcs[0], cfg, scheme))


# -- optimistic builders


def build_oqc1(qc: QC, cfg: PcConfig, scheme: Scheme) -> OQC1:
    xpart = build_cqc1(qc, cfg, scheme)
    common, signers, blob, wits = _common_prefix(qc, cfg, scheme, crypto.VOTE1, lambda vote: None)
    return OQC1(cfg.instance, xpart, common, signers, blob, wits)


def build_ovote2(vote: Vote, cfg: PcConfig, scheme: Scheme) -> OVote2:
    return _prefix_sig_vote(OVote2, crypto.VOTE2, vote, cfg, scheme, build_oqc1(vote.qcs[0], cfg, scheme))


def build_oqc2(qc: QC, cfg: PcConfig, scheme: Scheme) -> ChainQC:
    return _build_chain(qc, cfg, scheme, crypto.VOTE2, build_oqc1)


def build_ovote3(vote: Vote, cfg: PcConfig, scheme: Scheme) -> OVote3:
    qc1, qc2 = vote.qcs
    return OVote3(
        cfg.instance,
        vote.sender,
        pad(vote.value, cfg.L),
        vote.sig,
        build_oqc1(qc1, cfg, scheme),
        build_oqc2(qc2, cfg, scheme),
    )


def build_oqc3(qc: QC, cfg: PcConfig, scheme: Scheme) -> StemQC:
    stem = mcp(qc.values())
    shortest, longest, entries = _extremes(qc)

    def evidence(vote: Vote):
        qc1, qc2 = vote.qcs
        return (build_oqc1(qc1, cfg, scheme), build_oqc2(qc2, cfg, scheme))

    return StemQC(
        cfg.instance,
        pad(stem, cfg.L),
        tuple(tuple(v.value[len(stem) :]) for v in entries),
        tuple(v.sender for v in entries),
        b"".join(v.sig.blob for v in entries),
        evidence(shortest),
        evidence(longest),
    )


def build_ovote4(vote: Vote, cfg: PcConfig, scheme: Scheme) -> OVote4:
    return OVote4(cfg.instance, vote.sender, pad(vote.value, cfg.L), vote.sig, build_oqc3(vote.qcs[0], cfg, scheme))


def build_oqc4(qc: QC, cfg: PcConfig, scheme: Scheme) -> ChainQC:
    return _build_chain(qc, cfg, scheme, crypto.VOTE4, build_oqc3)


# ---------------------------------------------------------------------------
# Verification


def _check_multi(scheme: Scheme, kind: str, inst: tuple, signers, message: Vector, blob: bytes):
    if len(set(signers)) != len(signers):
        return False, "duplicate signer"
    if len(blob) != scheme.sig_size * len(signers):
        return False, "blob length"
    for idx, party in enumerate(signers):
        sig = scheme.constituent(blob, idx, party)
        if not scheme.verify_vector(party, kind, inst, message, sig):
            return False, f"signature of {party}"
    return True, ""


def verify_cvote1(v: CVote1, cfg: PcConfig, scheme: Scheme):
    if v.inst != cfg.instance:
        return False, "instance"
    if not _padded_ok(v.value, cfg.L) or len(strip(v.value)) != cfg.L:
        return False, "value: not a full-length vector"
    if len(v.prefix_sigs) != cfg.L + 1:
        return False, "prefix signature count"
    for k, sig in enumerate(v.prefix_sigs):
        if not scheme.verify_vector(v.sender, crypto.VOTE1, cfg.instance, _prefix_msg(v.value, k), sig):
            return False, f"prefix signature {k}"
    return True, ""


def verify_cqc1(q: CQC1, cfg: PcConfig, scheme: Scheme):
    if q.inst != cfg.instance:
        return False, "instance"
    if not _padded_ok(q.value, cfg.L):
        return False, "certified value malformed"
    if len(q.signers) != cfg.quorum or len(set(q.signers)) != cfg.quorum:
        return False, "signer set"
    if len(q.descs) != cfg.quorum or len(q.blob) != scheme.sig_size * cfg.quorum:
        return False, "descriptor/blob arity"
    reconstructed = []
    for idx, (party, desc) in enumerate(zip(q.signers, q.descs)):
        if not isinstance(desc, tuple) or len(desc) != 2:
            return False, f"descriptor {idx} malformed"
        cut, elem = desc
        if not isinstance(cut, int) or cut < 0 or cut > cfg.L:
            return False, f"descriptor {idx}: cut out of range"
        if cut == cfg.L:
            if not isinstance(elem, _Bot):
                return False, f"descriptor {idx}: full-match marker"
            truncated = strip(q.value)
        else:
            base = q.value[:cut]
            if any(isinstance(e, _Bot) for e in base):
                return False, f"descriptor {idx}: cut beyond certified prefix"
            truncated = strip(base + (elem,))
        sig = scheme.constituent(q.blob, idx, party)
        if not scheme.verify_vector(party, crypto.VOTE1, cfg.instance, truncated, sig):
            return False, f"truncated-vote signature of {party}"
        reconstructed.append(truncated)
    if longest_supported_prefix(reconstructed, cfg.support) != strip(q.value):
        return False, "certified prefix not the supported maximum"
    return True, ""


def _verify_witnesses(q_value: Vector, witnesses, cfg: PcConfig, scheme: Scheme, kind: str,
                      verify_qc: Optional[Callable], qc_value: Optional[Callable]):
    """Common divergence-proof checks; witnesses must extend the claimed
    common prefix with two different next elements.  ``verify_qc`` checks
    each witness's certificate and ``qc_value`` reads the padded value it
    certifies; without them the witness signatures alone suffice."""
    if len(witnesses) != 2:
        return False, "witness arity"
    w1, w2 = witnesses
    if not isinstance(w1, Witness2) or not isinstance(w2, Witness2):
        return False, "witness type"
    if w1.elem == w2.elem:
        return False, "witness elements equal"
    cut = len(strip(q_value))
    if cut >= cfg.L:
        return False, "witnesses for full-length prefix"
    for w in (w1, w2):
        claimed = strip(q_value[:cut] + (w.elem,))
        if not scheme.verify_vector(w.party, kind, cfg.instance, claimed, w.sig):
            return False, f"witness signature of {w.party}"
        if verify_qc is None:
            continue
        ok, why = verify_qc(w.qc1)
        if not ok:
            return False, f"witness qc1: {why}"
        if qc_value(w.qc1)[: cut + 1] != q_value[:cut] + (w.elem,):
            return False, "witness qc1 does not certify the extension"
    return True, ""


def verify_cqc2(q: CQC2, cfg: PcConfig, scheme: Scheme):
    if q.inst != cfg.instance:
        return False, "instance"
    if not _padded_ok(q.value, cfg.L):
        return False, "common prefix malformed"
    if len(q.signers) != cfg.quorum:
        return False, "signer set"
    ok, why = _check_multi(scheme, crypto.VOTE2, cfg.instance, q.signers, strip(q.value), q.blob)
    if not ok:
        return False, f"multi-signature: {why}"
    if (q.anchor is None) == (q.witnesses is None):
        return False, "proof must be an anchor or witnesses"
    if q.anchor is not None:
        # Anchor branch: the claimed prefix is one certified vote in full
        # (all quorum votes identical, padded representation included);
        # the guard that the prefix fills the whole padded vector is what
        # the anchor-identity check enforces.
        ok, why = verify_cqc1(q.anchor, cfg, scheme)
        if not ok:
            return False, f"anchor qc1: {why}"
        if q.anchor.value != q.value:
            return False, "anchor does not certify the prefix"
        return True, ""
    return _verify_witnesses(
        q.value, q.witnesses, cfg, scheme, crypto.VOTE2,
        lambda qc1: verify_cqc1(qc1, cfg, scheme) if isinstance(qc1, CQC1) else (False, "type"),
        lambda qc1: qc1.value,
    )


def _verify_chain(q: ChainQC, cfg: PcConfig, scheme: Scheme, r: int, ev_type: type,
                  verify_ev: Callable, ev_value: Callable):
    """Check a round-``r`` ``ChainQC`` whose extremes' evidence is an
    ``ev_type`` certificate, checked by ``verify_ev`` and read by
    ``ev_value``."""
    if q.round != r or q.kind != pc.VOTE_KIND[r]:
        return False, "wrong round"
    if q.inst != cfg.instance:
        return False, "instance"
    if not _padded_ok(q.short, cfg.L) or not _padded_ok(q.long, cfg.L):
        return False, "extreme values malformed"
    if len(q.signers) != cfg.quorum or len(set(q.signers)) != cfg.quorum:
        return False, "signer set"
    if len(q.lengths) != cfg.quorum:
        return False, "length set"
    long_logical = strip(q.long)
    short_logical = strip(q.short)
    if len(q.blob) != scheme.sig_size * cfg.quorum:
        return False, "blob length"
    for idx, (party, ln) in enumerate(zip(q.signers, q.lengths)):
        if not isinstance(ln, int) or ln < 0 or ln > len(long_logical):
            return False, f"length {idx} out of range"
        message = long_logical[:ln]
        sig = scheme.constituent(q.blob, idx, party)
        if not scheme.verify_vector(party, q.kind, cfg.instance, message, sig):
            return False, f"signature of {party}"
    if min(q.lengths) != len(short_logical) or short_logical != long_logical[: len(short_logical)]:
        return False, "claimed shortest not minimal"
    if max(q.lengths) != len(long_logical):
        return False, "claimed longest not maximal"
    for label, ev, expect in (("short", q.short_ev, short_logical), ("long", q.long_ev, long_logical)):
        ok, why = verify_ev(ev, cfg, scheme) if isinstance(ev, ev_type) else (False, "type")
        if not ok:
            return False, f"{label} evidence: {why}"
        if ev_value(ev) != expect:
            return False, f"{label} evidence certifies a different value"
    return True, ""


def verify_cqc3(q: ChainQC, cfg: PcConfig, scheme: Scheme):
    return _verify_chain(q, cfg, scheme, 3, CQC2, verify_cqc2, cqc_value)


def verify_oqc1(q: OQC1, cfg: PcConfig, scheme: Scheme):
    if q.inst != cfg.instance:
        return False, "instance"
    ok, why = verify_cqc1(q.xpart, cfg, scheme)
    if not ok:
        return False, f"supported part: {why}"
    if not _padded_ok(q.common, cfg.L):
        return False, "common prefix malformed"
    if len(q.c_signers) != cfg.quorum:
        return False, "signer set"
    ok, why = _check_multi(scheme, crypto.VOTE1, cfg.instance, q.c_signers, strip(q.common), q.c_blob)
    if not ok:
        return False, f"common multi-signature: {why}"
    if len(strip(q.common)) == cfg.L:
        if q.c_witnesses is not None:
            return False, "witnesses with full-length common prefix"
        return True, ""
    if q.c_witnesses is None:
        return False, "missing witnesses"
    return _verify_witnesses(q.common, q.c_witnesses, cfg, scheme, crypto.VOTE1, None, None)


def verify_oqc2(q: ChainQC, cfg: PcConfig, scheme: Scheme):
    return _verify_chain(q, cfg, scheme, 2, OQC1, verify_oqc1, lambda ev: strip(ev.common))


def verify_oqc3(q: StemQC, cfg: PcConfig, scheme: Scheme):
    if q.inst != cfg.instance:
        return False, "instance"
    if not _padded_ok(q.stem, cfg.L):
        return False, "stem malformed"
    if len(q.signers) != cfg.quorum or len(set(q.signers)) != cfg.quorum:
        return False, "signer set"
    if len(q.suffixes) != cfg.quorum or len(q.blob) != scheme.sig_size * cfg.quorum:
        return False, "suffix/blob arity"
    stem = strip(q.stem)
    votes = []
    for idx, (party, suffix) in enumerate(zip(q.signers, q.suffixes)):
        if not isinstance(suffix, tuple) or any(not isinstance(e, bytes) for e in suffix):
            return False, f"suffix {idx} malformed"
        value = stem + suffix
        if len(value) > cfg.L:
            return False, f"suffix {idx} overlong"
        sig = scheme.constituent(q.blob, idx, party)
        if not scheme.verify_vector(party, crypto.VOTE3, cfg.instance, value, sig):
            return False, f"signature of {party}"
        votes.append(value)
    if mcp(votes) != stem:
        return False, "stem not the common prefix"
    shortest = min(votes, key=len)
    longest = max(votes, key=len)
    for label, ev, expect in (("short", q.short_ev, shortest), ("long", q.long_ev, longest)):
        if not isinstance(ev, tuple) or len(ev) != 2:
            return False, f"{label} evidence malformed"
        qc1, qc2 = ev
        ok, why = verify_oqc1(qc1, cfg, scheme)
        if not ok:
            return False, f"{label} evidence qc1: {why}"
        ok, why = verify_oqc2(qc2, cfg, scheme)
        if not ok:
            return False, f"{label} evidence qc2: {why}"
        supported = strip(qc1.xpart.value)
        extension = strip(qc2.long)
        merged = supported if is_prefix(extension, supported) else extension
        if merged != expect:
            return False, f"{label} evidence derives a different vote"
    return True, ""


def verify_oqc4(q: ChainQC, cfg: PcConfig, scheme: Scheme):
    return _verify_chain(q, cfg, scheme, 4, StemQC, verify_oqc3, stemqc_common)


# -- certified-value accessors


def cqc_value(q) -> Vector:
    """The value a ``CQC1`` or ``CQC2`` certifies."""
    return strip(q.value)


def chain_values(q: ChainQC) -> Tuple[Vector, Vector]:
    return strip(q.short), strip(q.long)


def stemqc_common(q: StemQC) -> Vector:
    stem = strip(q.stem)
    return mcp([stem + suffix for suffix in q.suffixes])


# ---------------------------------------------------------------------------
# Behavioural equivalence harness


def equivalence_harness(vote1_values: Sequence[Vector], cfg: PcConfig, scheme: Scheme, rng) -> tuple:
    """Drive one three-round pipeline over a round-1 vote multiset both
    ways and compare every certified value.

    ``vote1_values[p]`` is party ``p``'s (possibly Byzantine-chosen)
    round-1 value.  Each party certifies a random quorum at every round,
    exactly as an asynchronous schedule would.  Returns the plain
    (low, high) pair; raises AssertionError on any plain/compact
    disagreement.
    """
    if cfg.variant is not Variant.THREE_ROUND:
        raise ValueError("harness covers the three-round protocol")
    n = cfg.n
    votes = []
    for party, value in enumerate(vote1_values):
        sig = scheme.sign_vector(party, crypto.VOTE1, cfg.instance, tuple(value))
        votes.append(Vote(cfg.instance, 1, party, tuple(value), sig))

    def quorum(pool):
        return tuple(sorted(rng.sample(pool, cfg.quorum), key=lambda v: v.sender))

    for r, build, verify, kind in ((1, build_cqc1, verify_cqc1, crypto.VOTE2),
                                   (2, build_cqc2, verify_cqc2, crypto.VOTE3)):
        next_votes = []
        for party in range(n):
            qc = QC(r, quorum(votes))
            certified = pc.certify(qc, cfg)
            compact = build(qc, cfg, scheme)
            ok, why = verify(compact, cfg, scheme)
            assert ok, f"compact qc{r} rejected: {why}"
            assert cqc_value(compact) == certified, f"qc{r} certification mismatch"
            sig = scheme.sign_vector(party, kind, cfg.instance, certified)
            next_votes.append(Vote(cfg.instance, r + 1, party, certified, sig, (qc,)))
        votes = next_votes

    results = set()
    for party in range(n):
        qc3 = QC(3, quorum(votes))
        low, high = pc.certify(qc3, cfg)
        compact = build_cqc3(qc3, cfg, scheme)
        ok, why = verify_cqc3(compact, cfg, scheme)
        assert ok, f"compact qc3 rejected: {why}"
        assert chain_values(compact) == (low, high), "qc3 certification mismatch"
        results.add((low, high))
    return results.pop() if len(results) == 1 else sorted(results, key=lambda lh: (len(lh[0]), len(lh[1])))[0]


# ---------------------------------------------------------------------------
# Codecs for the simulator's byte accounting


class PlainCodec:
    def measure(self, msg) -> int:
        return measure(msg)


_COMPACTORS = {
    Variant.THREE_ROUND: {1: build_cvote1, 2: build_cvote2, 3: build_cvote3},
    Variant.OPTIMISTIC: {1: build_cvote1, 2: build_ovote2, 3: build_ovote3, 4: build_ovote4},
}


class CompactCodec:
    """Measures protocol votes at their communication-optimized size.

    Compact forms are synthesized on the sender's side of the boundary
    (prefix signatures need the sender's key); non-vote messages use the
    plain layout.
    """

    def __init__(self, cfg: PcConfig, scheme: Scheme):
        if cfg.variant not in _COMPACTORS:
            raise ValueError(f"no compact codec for {cfg.variant.value}")
        self.cfg = cfg
        self.scheme = scheme

    def to_compact(self, msg):
        if isinstance(msg, Vote) and msg.inst == self.cfg.instance:
            builder = _COMPACTORS[self.cfg.variant].get(msg.round)
            if builder is not None:
                return builder(msg, self.cfg, self.scheme)
        return msg

    def measure(self, msg) -> int:
        return cached(msg, self, _compact_size, self, msg)


def _compact_size(codec: CompactCodec, msg) -> int:
    return measure(codec.to_compact(msg))


def hexdump(data: bytes) -> str:
    width = 16
    lines = []
    for off in range(0, len(data), width):
        chunk = data[off : off + width]
        hexpart = " ".join(f"{b:02x}" for b in chunk)
        text = "".join(chr(b) if 32 <= b < 127 else "." for b in chunk)
        lines.append(f"{off:08x}  {hexpart:<{width * 3}} {text}")
    return "\n".join(lines)


def describe(obj, indent: int = 0) -> str:
    """Readable tree rendering of a decoded message (decode CLI)."""
    pad_ = "  " * indent
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        lines = [f"{pad_}{type(obj).__name__}"]
        for f in dataclasses.fields(obj):
            val = getattr(obj, f.name)
            if dataclasses.is_dataclass(val) or (
                isinstance(val, tuple) and any(dataclasses.is_dataclass(x) for x in val)
            ):
                lines.append(f"{pad_}  {f.name}:")
                lines.append(describe(val, indent + 2))
            else:
                rep = repr(val)
                if len(rep) > 70:
                    rep = rep[:67] + "..."
                lines.append(f"{pad_}  {f.name}: {rep}")
        return "\n".join(lines)
    if isinstance(obj, tuple):
        return "\n".join(describe(x, indent) for x in obj)
    return f"{pad_}{obj!r}"
