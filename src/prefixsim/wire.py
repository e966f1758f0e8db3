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
with aggregated signatures plus compressed per-signer descriptors.  Each
quorum function of ``pc`` (a ``pc.Round.certify``) has one compact
form, a row of :data:`FORMS`: its class, builder, verifier and a reader
of what it certifies, which is what ``pc.certify`` returns for the plain
quorum.  So the round schedule picks the form of every certificate:

* supported prefix (``CQC1``): the certified prefix and, per signer,
  only the divergence point from it ``(length, next element)``;
* common prefix (``CQC2``): a multi-signature on it plus either a
  full-length anchor or two divergence witnesses;
* supported and common prefix (``OQC1``): a ``CQC1`` plus the common
  part of a ``CQC2``, whose witnesses are round-1 votes;
* extremes (``ChainQC``, mutually consistent prefixes): the shortest and
  longest values and per-signer logical lengths;
* common prefix and extension (``StemQC``, possibly conflicting
  prefixes): a shared stem plus per-signer suffixes.

A certificate that proves what some vote holds carries that vote's
*evidence*: the compact form of each certificate the vote carries,
stored bare when there is one (None for a round-1 vote).  That is the
``CQC2`` anchor and witnesses and the extremes of ``ChainQC`` and
``StemQC``; the check runs :func:`verify_compact` on each piece and
``pc.vote_value`` on what they certify.  The entry points are
:func:`compact_qc`, :func:`compact_vote`, :func:`verify_compact` and
:func:`compact_value`.  :data:`VOTE_FORMS`, the one per-variant column,
names each round's compact vote class; round-1 votes, and the round-2
votes of ``pc3`` and ``pc_opt``, carry signatures on *all prefixes* of
their value, so later quorums can aggregate at any cut.

Vectors inside compact structures are padded with BOT to the instance
capacity ``L``; logical values ignore the padding.  Every certificate
verifier returns ``(ok, reason)`` and re-derives the certified values
from the signed material, so a compact certificate certifies exactly
what the plain vote-set certification computes (checked end-to-end for
every variant by :func:`equivalence_harness`).  Compact forms are only
measured (``CompactCodec``); engines receive plain votes, so compact
votes have no receive path and no verifier, except ``verify_cvote1`` for
the round-1 prefix signatures.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable, Dict, NamedTuple, Optional, Sequence, Tuple

from . import crypto, encoding, pc
from .crypto import AggregateSignature, Scheme, Signature
from .encoding import DecodeError, cached
from .pc import PcConfig, QC, Variant, Vote
from .prefixes import BOT, Element, Vector, _Bot, longest_supported_prefix, mce, mcp

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
    elem: Element
    sig: Signature
    qc1: object  # the witness vote's evidence: a CQC1, or None for a round-1 vote


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
    qc2: object  # CQC2 (three-round) or CQC1 (two-round)


@register(16)
@dataclass(frozen=True)
class ChainQC:
    """Shortest/longest packaging of mutually consistent certified
    prefixes: per-signer logical lengths relative to the longest, plus
    the evidence of both extremes.  The compact form of ``pc.extremes``:
    pc3 round 3, pc_opt rounds 2 and 4, pc_5f1 round 2.
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
    with the evidence of the shortest and longest votes."""

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


def compact_qc(qc: QC, cfg: PcConfig, scheme: Scheme):
    """``qc`` in the compact form of its round's quorum function."""
    return FORMS[cfg.rounds[qc.round].certify].build(qc, cfg, scheme)


def compact_vote(vote: Vote, cfg: PcConfig, scheme: Scheme):
    """``vote`` as its variant's compact class for its round
    (``VOTE_FORMS``): prefix signatures when the class has them, else the
    vote's signature, then the compact form of each certificate it carries."""
    cls = VOTE_FORMS[cfg.variant][vote.round]
    padded = pad(vote.value, cfg.L)
    sig = vote.sig
    if "prefix_sigs" in _LAYOUT[cls][1]:  # on every prefix, of lengths 0..L
        sig = tuple(scheme.sign_vector(vote.sender, pc.VOTE_KIND[vote.round], cfg.instance, _prefix_msg(padded, k))
                    for k in range(cfg.L + 1))
    return cls(cfg.instance, vote.sender, padded, sig, *(compact_qc(qc, cfg, scheme) for qc in vote.qcs))


def _evidence(vote: Vote, cfg: PcConfig, scheme: Scheme):
    """The evidence of ``vote``: the compact form of each certificate it
    carries, bare when there is one, None when there is none."""
    forms = tuple(compact_qc(qc, cfg, scheme) for qc in vote.qcs)
    return forms[0] if len(forms) == 1 else forms or None


def build_cqc1(qc: QC, cfg: PcConfig, scheme: Scheme) -> CQC1:
    values = qc.values()
    certified = longest_supported_prefix(values, cfg.support)
    cpad = pad(certified, cfg.L)
    entries = []
    for vote in sorted(qc.votes, key=lambda v: v.sender):
        vpad = pad(vote.value, cfg.L)
        cut = cfg.L if vpad == cpad else _pmcp_len(vpad, cpad)  # where it leaves the certified prefix
        elem = vpad[cut] if cut < cfg.L else BOT
        trunc = _prefix_msg(vpad, min(cut + 1, cfg.L))
        sig = scheme.sign_vector(vote.sender, pc.VOTE_KIND[qc.round], cfg.instance, trunc)
        entries.append((vote.sender, (cut, elem), sig))
    signers, descs, sigs = zip(*entries)
    return CQC1(cfg.instance, cpad, signers, descs, b"".join(sig.blob for sig in sigs))


def _common_prefix(qc: QC, cfg: PcConfig, scheme: Scheme):
    """A quorum's padded common prefix, its signers, their multi-signature
    over it and, unless the prefix fills the capacity, two ``Witness2``
    with their votes' evidence: the fields of ``CQC2`` and of the common
    part of ``OQC1``, in order."""
    kind = pc.VOTE_KIND[qc.round]
    padded = [pad(v.value, cfg.L) for v in qc.votes]
    cut = min(_pmcp_len(padded[0], p) for p in padded)
    common = padded[0][:cut] + (BOT,) * (cfg.L - cut)
    signers = tuple(sorted(v.sender for v in qc.votes))
    blob = b"".join(scheme.sign_vector(party, kind, cfg.instance, strip(common)).blob for party in signers)
    if cut == cfg.L:
        return common, signers, blob, None
    by_elem: Dict[object, Vote] = {}
    for vote, vpad in zip(qc.votes, padded):
        by_elem.setdefault(vpad[cut], vote)
    wits = []
    for elem, vote in list(by_elem.items())[:2]:
        sig = scheme.sign_vector(vote.sender, kind, cfg.instance, _prefix_msg(pad(vote.value, cfg.L), cut + 1))
        wits.append(Witness2(vote.sender, elem, sig, _evidence(vote, cfg, scheme)))
    return common, signers, blob, tuple(wits)


def build_cqc2(qc: QC, cfg: PcConfig, scheme: Scheme) -> CQC2:
    common, signers, blob, wits = _common_prefix(qc, cfg, scheme)
    anchor = _evidence(qc.votes[0], cfg, scheme) if wits is None else None
    return CQC2(cfg.instance, common, signers, blob, anchor, wits)


def build_oqc1(qc: QC, cfg: PcConfig, scheme: Scheme) -> OQC1:
    return OQC1(cfg.instance, build_cqc1(qc, cfg, scheme), *_common_prefix(qc, cfg, scheme))


def _shortest_longest(qc: QC):
    """A quorum's shortest and longest votes, and its votes by sender."""
    shortest = min(qc.votes, key=lambda v: len(v.value))
    longest = max(qc.votes, key=lambda v: len(v.value))
    return shortest, longest, sorted(qc.votes, key=lambda v: v.sender)


def build_chain(qc: QC, cfg: PcConfig, scheme: Scheme) -> ChainQC:
    shortest, longest, entries = _shortest_longest(qc)
    return ChainQC(
        cfg.instance,
        qc.round,
        pc.VOTE_KIND[qc.round],
        pad(shortest.value, cfg.L),
        _evidence(shortest, cfg, scheme),
        pad(longest.value, cfg.L),
        _evidence(longest, cfg, scheme),
        tuple(v.sender for v in entries),
        tuple(len(v.value) for v in entries),
        b"".join(v.sig.blob for v in entries),
    )


def build_stem(qc: QC, cfg: PcConfig, scheme: Scheme) -> StemQC:
    stem = mcp(qc.values())
    shortest, longest, entries = _shortest_longest(qc)
    return StemQC(
        cfg.instance,
        pad(stem, cfg.L),
        tuple(tuple(v.value[len(stem) :]) for v in entries),
        tuple(v.sender for v in entries),
        b"".join(v.sig.blob for v in entries),
        _evidence(shortest, cfg, scheme),
        _evidence(longest, cfg, scheme),
    )


# ---------------------------------------------------------------------------
# Verification


def verify_compact(q, r: int, cfg: PcConfig, scheme: Scheme):
    """``(ok, reason)``: whether ``q`` is a valid compact certificate of a
    round-``r`` quorum of ``cfg``'s schedule."""
    return _verify_form(FORMS[cfg.rounds[r].certify], q, r, cfg, scheme)


def compact_value(q, r: int, cfg: PcConfig):
    """What the compact round-``r`` certificate ``q`` certifies, as
    ``pc.certify`` returns it for the plain one."""
    return FORMS[cfg.rounds[r].certify].value(q)


#: The type each field annotation asks of a compact certificate or witness
#: (a nested certificate is checked by its own form's verifier).
_FIELD_TYPES = {"int": int, "str": str, "bytes": bytes, "tuple": tuple, "Vector": tuple, "Signature": Signature,
                "Element": (bytes, _Bot), "Optional[tuple]": (tuple, type(None))}


def _shape_error(obj) -> str:
    """The first field of ``obj`` that does not hold its annotated type, or ''."""
    bad = (f for f in dataclasses.fields(obj) if not isinstance(getattr(obj, f.name), _FIELD_TYPES.get(f.type, object)))
    return next((f"{f.name}: not {f.type}" for f in bad), "")


def _signers_ok(signers: tuple, cfg: PcConfig) -> bool:
    """Whether ``signers`` names a quorum of distinct parties of ``cfg``."""
    return all(type(p) is int and 0 <= p < cfg.n for p in signers) and len(signers) == len(set(signers)) == cfg.quorum


def _verify_form(form, q, r: int, cfg: PcConfig, scheme: Scheme):
    if not isinstance(q, form.cls):
        return False, f"not a {form.cls.__name__}"
    why = _shape_error(q)
    return (False, why) if why else form.verify(q, r, cfg, scheme)


def _evidence_value(ev, r: int, cfg: PcConfig, scheme: Scheme):
    """``(reason, value)`` of ``ev``, the evidence of a round-``r`` vote:
    ``reason`` is empty when each piece verifies, and ``value`` is what a
    vote carrying such certificates holds (None for round 1, whose votes
    carry none, so that nothing but their signature shows their value)."""
    carries = cfg.rounds[r].carries
    if not carries:
        return ("", None) if ev is None else ("evidence of a vote that carries none", None)
    pieces = (ev,) if len(carries) == 1 else ev
    if not isinstance(pieces, tuple) or len(pieces) != len(carries):
        return "malformed", None
    for piece, c in zip(pieces, carries):
        ok, why = verify_compact(piece, c, cfg, scheme)
        if not ok:
            return f"qc{c}: {why}", None
    return "", pc.vote_value(r, tuple(compact_value(p, c, cfg) for p, c in zip(pieces, carries)), cfg)


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


def verify_cqc1(q: CQC1, r: int, cfg: PcConfig, scheme: Scheme):
    if q.inst != cfg.instance:
        return False, "instance"
    if not _padded_ok(q.value, cfg.L):
        return False, "certified value malformed"
    if not _signers_ok(q.signers, cfg):
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
        if not scheme.verify_vector(party, pc.VOTE_KIND[r], cfg.instance, truncated, sig):
            return False, f"truncated-vote signature of {party}"
        reconstructed.append(truncated)
    if longest_supported_prefix(reconstructed, cfg.support) != strip(q.value):
        return False, "certified prefix not the supported maximum"
    return True, ""


def _verify_common(value: Vector, signers, blob: bytes, r: int, cfg: PcConfig, scheme: Scheme):
    """The common-prefix part of a ``CQC2`` or ``OQC1``: a padded prefix
    that the whole quorum signed."""
    if not _padded_ok(value, cfg.L):
        return False, "common prefix malformed"
    if not _signers_ok(signers, cfg):
        return False, "signer set"
    if len(blob) != scheme.sig_size * cfg.quorum:
        return False, "multi-signature: blob length"
    for idx, party in enumerate(signers):
        sig = scheme.constituent(blob, idx, party)
        if not scheme.verify_vector(party, pc.VOTE_KIND[r], cfg.instance, strip(value), sig):
            return False, f"multi-signature: signature of {party}"
    return True, ""


def _verify_witnesses(q_value: Vector, witnesses, r: int, cfg: PcConfig, scheme: Scheme):
    """Divergence-proof checks: two round-``r`` votes extend the claimed
    common prefix with different next elements, and each one's evidence
    makes it vote that extension."""
    if len(witnesses) != 2:
        return False, "witness arity"
    w1, w2 = witnesses
    if not isinstance(w1, Witness2) or not isinstance(w2, Witness2) or _shape_error(w1) or _shape_error(w2):
        return False, "witness type or field shape"
    if w1.elem == w2.elem:
        return False, "witness elements equal"
    cut = len(strip(q_value))
    if cut >= cfg.L:
        return False, "witnesses for full-length prefix"
    for w in (w1, w2):
        claimed = strip(q_value[:cut] + (w.elem,))
        if not scheme.verify_vector(w.party, pc.VOTE_KIND[r], cfg.instance, claimed, w.sig):
            return False, f"witness signature of {w.party}"
        why, value = _evidence_value(w.qc1, r, cfg, scheme)
        if why:
            return False, f"witness evidence: {why}"
        if value is not None and pad(value, cfg.L)[: cut + 1] != q_value[:cut] + (w.elem,):
            return False, "witness evidence does not certify the extension"
    return True, ""


def verify_cqc2(q: CQC2, r: int, cfg: PcConfig, scheme: Scheme):
    if q.inst != cfg.instance:
        return False, "instance"
    ok, why = _verify_common(q.value, q.signers, q.blob, r, cfg, scheme)
    if not ok:
        return False, why
    if (q.anchor is None) == (q.witnesses is None):
        return False, "proof must be an anchor or witnesses"
    if q.witnesses is not None:
        return _verify_witnesses(q.value, q.witnesses, r, cfg, scheme)
    # Anchor branch: every signer signed the prefix as its whole vote, and
    # the anchor is the evidence of one such vote.
    why, value = _evidence_value(q.anchor, r, cfg, scheme)
    if why:
        return False, f"anchor: {why}"
    if value != strip(q.value):
        return False, "anchor does not certify the prefix"
    return True, ""


def verify_oqc1(q: OQC1, r: int, cfg: PcConfig, scheme: Scheme):
    if q.inst != cfg.instance:
        return False, "instance"
    ok, why = _verify_form(FORMS[pc.supported_prefix], q.xpart, r, cfg, scheme)
    if not ok:
        return False, f"supported part: {why}"
    ok, why = _verify_common(q.common, q.c_signers, q.c_blob, r, cfg, scheme)
    if not ok:
        return False, why
    if len(strip(q.common)) == cfg.L:
        if q.c_witnesses is not None:
            return False, "witnesses with full-length common prefix"
        return True, ""
    if q.c_witnesses is None:
        return False, "missing witnesses"
    return _verify_witnesses(q.common, q.c_witnesses, r, cfg, scheme)


def _verify_extremes(short_ev, shortest: Vector, long_ev, longest: Vector, r: int, cfg: PcConfig,
                     scheme: Scheme):
    """The evidence of a quorum's shortest and longest round-``r`` votes
    must verify and make each vote its claimed value."""
    for label, ev, expect in (("short", short_ev, shortest), ("long", long_ev, longest)):
        why, value = _evidence_value(ev, r, cfg, scheme)
        if why:
            return False, f"{label} evidence: {why}"
        if value != expect:
            return False, f"{label} evidence certifies a different value"
    return True, ""


def verify_chain(q: ChainQC, r: int, cfg: PcConfig, scheme: Scheme):
    if q.round != r or q.kind != pc.VOTE_KIND[r]:
        return False, "wrong round"
    if q.inst != cfg.instance:
        return False, "instance"
    if not _padded_ok(q.short, cfg.L) or not _padded_ok(q.long, cfg.L):
        return False, "extreme values malformed"
    if not _signers_ok(q.signers, cfg):
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
    return _verify_extremes(q.short_ev, short_logical, q.long_ev, long_logical, r, cfg, scheme)


def verify_stem(q: StemQC, r: int, cfg: PcConfig, scheme: Scheme):
    if q.inst != cfg.instance:
        return False, "instance"
    if not _padded_ok(q.stem, cfg.L):
        return False, "stem malformed"
    if not _signers_ok(q.signers, cfg):
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
        if not scheme.verify_vector(party, pc.VOTE_KIND[r], cfg.instance, value, sig):
            return False, f"signature of {party}"
        votes.append(value)
    if mcp(votes) != stem:
        return False, "stem not the common prefix"
    return _verify_extremes(q.short_ev, min(votes, key=len), q.long_ev, max(votes, key=len), r, cfg, scheme)


# ---------------------------------------------------------------------------
# The compact form of each quorum function, and of each variant's votes


class Form(NamedTuple):
    """The compact certificate of one quorum function (a ``pc.Round.certify``)."""

    cls: type
    build: Callable  # (plain qc, cfg, scheme) -> compact certificate
    verify: Callable  # (compact, round, cfg, scheme) -> (ok, reason), for a ``cls`` object
    value: Callable  # compact -> what the quorum function returns


def _stem_value(q: StemQC):
    votes = [strip(q.stem) + suffix for suffix in q.suffixes]
    return mcp(votes), mce(votes)


_prefix_value = lambda q: strip(q.value)

FORMS: Dict[Callable, Form] = {
    pc.supported_prefix: Form(CQC1, build_cqc1, verify_cqc1, _prefix_value),
    pc.common_prefix: Form(CQC2, build_cqc2, verify_cqc2, _prefix_value),
    pc.supported_and_common: Form(OQC1, build_oqc1, verify_oqc1, lambda q: (strip(q.xpart.value), strip(q.common))),
    pc.extremes: Form(ChainQC, build_chain, verify_chain, lambda q: (strip(q.short), strip(q.long))),
    pc.common_and_extension: Form(StemQC, build_stem, verify_stem, _stem_value),
}

#: Each variant's compact vote class per round.  A class with
#: ``prefix_sigs`` signs every prefix of its value; the rest keep the
#: vote's signature.  The classes do not follow from the quorum functions:
#: ``OVote2`` carries prefix signatures that the ``ChainQC`` of its round
#: never reads, and its bytes are pinned.
VOTE_FORMS: Dict[Variant, Dict[int, type]] = {
    Variant.THREE_ROUND: {1: CVote1, 2: CVote2, 3: CVote3},
    Variant.OPTIMISTIC: {1: CVote1, 2: OVote2, 3: OVote3, 4: OVote4},
    Variant.FAST_5F1: {1: CVote1, 2: CVote3},
}


# ---------------------------------------------------------------------------
# Behavioural equivalence harness


def equivalence_harness(vote1_values: Sequence[Vector], cfg: PcConfig, scheme: Scheme, rng) -> tuple:
    """Drive one pipeline of ``cfg``'s schedule over a round-1 vote
    multiset both ways and compare every certified value.

    ``vote1_values[p]`` is party ``p``'s (possibly Byzantine-chosen)
    round-1 value.  Each party certifies a random quorum at every round,
    exactly as an asynchronous schedule would, and votes from its own
    certificates.  Returns the plain (low, high) pair of the last round;
    raises AssertionError on any plain/compact disagreement.
    """
    votes = []
    for party, value in enumerate(vote1_values):
        sig = scheme.sign_vector(party, crypto.VOTE1, cfg.instance, tuple(value))
        votes.append(Vote(cfg.instance, 1, party, tuple(value), sig))
    own = [{} for _ in range(cfg.n)]  # each party's certificate of each round
    results = set()
    for r in cfg.rounds:
        following = cfg.rounds.get(r + 1)
        next_votes = []
        for party in range(cfg.n):
            qc = own[party][r] = QC(r, tuple(sorted(rng.sample(votes, cfg.quorum), key=lambda v: v.sender)))
            certified = pc.certify(qc, cfg)
            compact = compact_qc(qc, cfg, scheme)
            ok, why = verify_compact(compact, r, cfg, scheme)
            assert ok, f"compact qc{r} rejected: {why}"
            assert compact_value(compact, r, cfg) == certified, f"qc{r} certification mismatch"
            if following is None:
                results.add(certified)
                continue
            qcs = tuple(own[party][c] for c in following.carries)
            value = pc.vote_value(r + 1, tuple(pc.certify(q, cfg) for q in qcs), cfg)
            sig = scheme.sign_vector(party, pc.VOTE_KIND[r + 1], cfg.instance, value)
            next_votes.append(Vote(cfg.instance, r + 1, party, value, sig, qcs))
        votes = next_votes
    return min(results, key=lambda lh: (len(lh[0]), len(lh[1])))


# ---------------------------------------------------------------------------
# Codecs for the simulator's byte accounting


class PlainCodec:
    def measure(self, msg) -> int:
        return measure(msg)


class CompactCodec:
    """Measures protocol votes at their communication-optimized size.

    Compact forms are synthesized on the sender's side of the boundary
    (prefix signatures need the sender's key); non-vote messages, and
    votes of a round the schedule lacks, use the plain layout.
    """

    def __init__(self, cfg: PcConfig, scheme: Scheme):
        self.cfg = cfg
        self.scheme = scheme

    def to_compact(self, msg):
        if isinstance(msg, Vote) and msg.inst == self.cfg.instance and msg.round in self.cfg.rounds:
            return compact_vote(msg, self.cfg, self.scheme)
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
