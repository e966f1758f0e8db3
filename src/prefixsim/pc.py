"""Prefix-consensus voting engines.

Three deterministic message-driven variants share one chassis:

* ``THREE_ROUND`` -- the asynchronous baseline: three all-to-all voting
  rounds; the third quorum certifies a (low, high) output pair.
* ``OPTIMISTIC`` -- four rounds with an optimistic output after the
  second quorum and an early high output when round-3 votes agree.
* ``FAST_5F1`` -- two rounds under the stronger ``n >= 5f+1`` resilience.

Every round-``r`` quorum is the first ``n-f`` verified votes to arrive;
the quorum certificate (the plain vote set) both drives the later rounds
and serves as the publicly checkable proof for the verification
predicates.

The variants differ only in their round schedule, written once:
:data:`CARRIES` lists the rounds whose certificates each round's vote
carries, :func:`vote_value` is the value such a vote holds and
:func:`certified_outputs` is what a certificate proves.  The engine votes
and outputs from them, :func:`verify_vote` recomputes every vote's value
with :func:`vote_value`, and both predicates read
:func:`certified_outputs`.

Verification accepts any field shape (a malformed vote is just invalid)
and caches its verdict on the vote or certificate under the key
``(cfg, scheme)`` (:func:`encoding.cached`): all parties share it, and
no other view or slot reuses it.  A certificate likewise keeps what it
certifies (``qc1_certify`` ... ``qc4_certify``) under ``("qc<r>",
cfg)``, so its creator, every verifier, both predicates and the
invariant checks derive it once.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from . import crypto
from .actions import DROP, Broadcast, Output
from .crypto import Scheme, Signature
from .encoding import cached
from .prefixes import Vector, is_prefix, longest_supported_prefix, mce, mcp


class Variant(enum.Enum):
    THREE_ROUND = "pc3"
    OPTIMISTIC = "pc_opt"
    FAST_5F1 = "pc_5f1"


VOTE_KIND = {1: crypto.VOTE1, 2: crypto.VOTE2, 3: crypto.VOTE3, 4: crypto.VOTE4}

# Per variant, each round and the rounds whose quorum certificates its
# vote carries, in order.
CARRIES = {
    Variant.THREE_ROUND: {1: (), 2: (1,), 3: (2,)},
    Variant.OPTIMISTIC: {1: (), 2: (1,), 3: (1, 2), 4: (3,)},
    Variant.FAST_5F1: {1: (), 2: (1,)},
}


class ProtocolViolation(Exception):
    """A certified vote set broke quorum intersection; the instance is unsound."""


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class PcConfig:
    n: int
    f: int
    L: int
    variant: Variant
    instance: tuple = ("pc",)

    def __post_init__(self):
        if self.f < 0 or self.n <= 0 or self.L <= 0:
            raise ConfigError("n, L must be positive and f non-negative")
        if self.variant is Variant.FAST_5F1:
            if self.n < 5 * self.f + 1:
                raise ConfigError(f"{self.variant.value} requires n >= 5f+1, got n={self.n} f={self.f}")
        elif self.n < 3 * self.f + 1:
            raise ConfigError(f"{self.variant.value} requires n >= 3f+1, got n={self.n} f={self.f}")
        # Every verdict and certification lookup hashes its config; the
        # generated hash would rehash each field, the variant in Python.
        object.__setattr__(self, "_hash", hash((self.n, self.f, self.L, self.variant, self.instance)))
        object.__setattr__(self, "quorum", self.n - self.f)
        # The vote count that pins a round-1 certified prefix.
        object.__setattr__(self, "support", self.n - 2 * self.f if self.variant is Variant.FAST_5F1 else self.f + 1)
        # The round schedule, read at every quorum: kept here, as a lookup
        # by variant would hash the variant in Python each time.
        object.__setattr__(self, "carries", CARRIES[self.variant])

    def __hash__(self) -> int:
        return self._hash


@dataclass(frozen=True)
class Vote:
    inst: tuple
    round: int
    sender: int
    value: Vector
    sig: Signature
    qcs: tuple = ()


@dataclass(frozen=True)
class QC:
    round: int
    votes: Tuple[Vote, ...]

    def values(self) -> Tuple[Vector, ...]:
        return tuple(v.value for v in self.votes)


def _values(votes) -> List[Vector]:
    return [item.value if isinstance(item, Vote) else tuple(item) for item in votes]


def _mce_or_fault(values, where: str) -> Vector:
    ext = mce(values)
    if ext is None:
        raise ProtocolViolation(f"conflicting certified prefixes in {where}; quorum intersection broken")
    return ext


# Each ``qc<r>_certify`` takes a ``QC`` or a list of votes or vectors.  A
# ``QC`` is immutable, so its result is kept on it under ``("qc<r>",
# cfg)``; a list is certified afresh.  A ``ProtocolViolation`` (or
# ``ConfigError``) raises on every call and keeps nothing.


def qc1_certify(votes, cfg: PcConfig):
    """Round-1 certification.

    THREE_ROUND / FAST_5F1 return the deepest prefix with the variant's
    support threshold; OPTIMISTIC additionally returns the common prefix
    of the whole quorum.
    """
    if isinstance(votes, QC):
        return cached(votes, ("qc1", cfg), qc1_certify, votes.votes, cfg)
    values = _values(votes)
    supported = longest_supported_prefix(values, cfg.support)
    if cfg.variant is Variant.OPTIMISTIC:
        return supported, mcp(values)
    return supported


def qc2_certify(votes, cfg: PcConfig):
    """Round-2 certification: mcp for THREE_ROUND, (mcp, mce) pairs for
    the variants whose round-2 values are guaranteed mutually consistent."""
    if isinstance(votes, QC):
        return cached(votes, ("qc2", cfg), qc2_certify, votes.votes, cfg)
    values = _values(votes)
    if cfg.variant is Variant.THREE_ROUND:
        return mcp(values)
    return mcp(values), _mce_or_fault(values, "qc2")


def qc3_certify(votes, cfg: PcConfig):
    if isinstance(votes, QC):
        return cached(votes, ("qc3", cfg), qc3_certify, votes.votes, cfg)
    values = _values(votes)
    if cfg.variant is Variant.THREE_ROUND:
        return mcp(values), _mce_or_fault(values, "qc3")
    if cfg.variant is Variant.OPTIMISTIC:
        return mcp(values)
    raise ConfigError("no round 3 in this variant")


def qc4_certify(votes, cfg: PcConfig):
    if cfg.variant is not Variant.OPTIMISTIC:
        raise ConfigError("no round 4 in this variant")
    if isinstance(votes, QC):
        return cached(votes, ("qc4", cfg), qc4_certify, votes.votes, cfg)
    values = _values(votes)
    return mcp(values), _mce_or_fault(values, "qc4")


_CERTIFY = {1: qc1_certify, 2: qc2_certify, 3: qc3_certify, 4: qc4_certify}


def vote_value(r: int, qcs: tuple, cfg: PcConfig) -> Vector:
    """The value a round-``r`` vote carrying ``qcs`` (certificates of the
    rounds ``cfg.carries[r]``) holds.

    OPTIMISTIC votes its round-1 common prefix in round 2 and, in round 3,
    its round-1 supported prefix when the round-2 extension is a prefix of
    that, else the extension; every other vote holds what its one
    certificate certifies.
    """
    if cfg.variant is Variant.OPTIMISTIC and r < 4:
        supported, common = qc1_certify(qcs[0], cfg)
        if r == 2:
            return common
        _, extension = qc2_certify(qcs[1], cfg)
        return supported if is_prefix(extension, supported) else extension
    return _CERTIFY[r - 1](qcs[0], cfg)


def certified_outputs(qc: QC, cfg: PcConfig) -> Dict[str, Vector]:
    """What ``qc`` proves, kind -> value, in the order the engine emits them.

    The last round's certificate proves ``low`` and ``high``.  OPTIMISTIC's
    round-2 certificate proves ``opt``, and ``low`` and ``high`` too when
    that is full length; its round-3 certificate proves ``high`` when the
    votes agree.
    """
    r = qc.round
    if r == len(cfg.carries):
        low, high = _CERTIFY[r](qc, cfg)
        return {"low": low, "high": high}
    if cfg.variant is Variant.OPTIMISTIC:
        if r == 2:
            early, _ = qc2_certify(qc, cfg)
            return {"opt": early, "low": early, "high": early} if len(early) == cfg.L else {"opt": early}
        if r == 3:
            ext = mce(qc.values())
            return {} if ext is None else {"high": ext}
    return {}


# ---------------------------------------------------------------------------
# Verification


def verify_vote(vote: Vote, cfg: PcConfig, scheme: Scheme) -> bool:
    if not isinstance(vote, Vote):
        return False
    try:  # the cached verdict, looked up without a call
        return vote._cached[cfg, scheme]
    except (AttributeError, KeyError):
        return cached(vote, (cfg, scheme), _verify_vote_inner, vote, cfg, scheme)


def _verify_vote_inner(vote: Vote, cfg: PcConfig, scheme: Scheme) -> bool:
    value, qcs = vote.value, vote.qcs
    if not (isinstance(vote.round, int) and isinstance(vote.sender, int)
            and isinstance(vote.sig, Signature) and isinstance(vote.sig.blob, bytes)
            and isinstance(value, tuple) and all(isinstance(elem, bytes) for elem in value)
            and isinstance(qcs, tuple) and all(isinstance(qc, QC) for qc in qcs)):
        return False
    carried = cfg.carries.get(vote.round)
    if carried is None or vote.inst != cfg.instance or len(qcs) != len(carried) or len(value) > cfg.L:
        return False
    if not scheme.verify_vector(vote.sender, VOTE_KIND[vote.round], cfg.instance, value, vote.sig):
        return False
    for qc, want in zip(qcs, carried):
        if qc.round != want or not verify_qc(qc, cfg, scheme):
            return False
    try:
        return not carried or vote_value(vote.round, qcs, cfg) == value
    except ProtocolViolation:
        return False


def verify_qc(qc: QC, cfg: PcConfig, scheme: Scheme) -> bool:
    if not isinstance(qc, QC):
        return False
    try:
        return qc._cached[cfg, scheme]
    except (AttributeError, KeyError):
        return cached(qc, (cfg, scheme), _verify_qc_inner, qc, cfg, scheme)


def _verify_qc_inner(qc: QC, cfg: PcConfig, scheme: Scheme) -> bool:
    if not isinstance(qc.votes, tuple) or len(qc.votes) != cfg.quorum:
        return False
    if not all(verify_vote(vote, cfg, scheme) and vote.round == qc.round for vote in qc.votes):
        return False
    return len({vote.sender for vote in qc.votes}) == len(qc.votes)


def predicate_low(value: Vector, proof, cfg: PcConfig, scheme: Scheme) -> bool:
    """Public predicate: ``proof`` certifies ``value`` as a safe-to-commit low."""
    return _proves("low", value, proof, cfg, scheme)


def predicate_high(value: Vector, proof, cfg: PcConfig, scheme: Scheme) -> bool:
    """Public predicate: ``proof`` certifies ``value`` as a safe-to-extend high."""
    return _proves("high", value, proof, cfg, scheme)


def _proves(kind: str, value, proof, cfg: PcConfig, scheme: Scheme) -> bool:
    # A kind the certificate does not prove rejects every value, None too.
    if not verify_qc(proof, cfg, scheme):
        return False
    try:
        proven = certified_outputs(proof, cfg)
    except ProtocolViolation:
        return False
    return kind in proven and proven[kind] == value


# ---------------------------------------------------------------------------
# Engine


class PcEngine:
    """One party's deterministic reactor for a single PC instance.

    Events arrive one at a time (an input, or a peer's vote); the engine
    returns broadcast/output actions.  A party's own broadcast is applied
    locally at send time and never traverses the network.
    """

    def __init__(self, cfg: PcConfig, party: int, scheme: Scheme):
        self.cfg = cfg
        self.party = party
        self.scheme = scheme
        self.votes: Dict[int, Dict[int, Vote]] = {r: {} for r in cfg.carries}
        self.own_qcs: Dict[int, QC] = {}
        self.voted: Set[int] = set()  # the rounds past the first voted in
        self.outputs: Dict[str, Tuple[Vector, Optional[QC]]] = {}
        self.input_value: Optional[Vector] = None

    # -- event entry points

    def on_input(self, value: Vector) -> list:
        assert self.input_value is None, "duplicate input"
        value = tuple(value)
        if len(value) != self.cfg.L:
            raise ConfigError(f"input length {len(value)} != L={self.cfg.L}")
        self.input_value = value
        sig = self.scheme.sign_vector(self.party, crypto.VOTE1, self.cfg.instance, value)
        vote = Vote(self.cfg.instance, 1, self.party, value, sig)
        return self._broadcast_and_record(vote)

    def on_message(self, sender: int, msg) -> list:
        if not isinstance(msg, Vote) or msg.sender != sender or not verify_vote(msg, self.cfg, self.scheme):
            return [DROP]
        return self._record(msg)

    # -- internals

    def _broadcast_and_record(self, vote: Vote) -> list:
        actions = [Broadcast(vote)]
        actions.extend(self._record(vote))
        return actions

    def _record(self, vote: Vote) -> list:
        r = vote.round
        bucket = self.votes[r]
        if r in self.own_qcs or vote.sender in bucket:
            return []
        bucket[vote.sender] = vote
        if len(bucket) < self.cfg.quorum:
            return []
        own_qcs = self.own_qcs
        qc = own_qcs[r] = QC(r, tuple(bucket.values()))
        actions = []
        for kind, value in certified_outputs(qc, self.cfg).items():
            if kind not in self.outputs:
                actions += self._output(kind, value, qc)
        # Vote in every round whose carried certificates are now all held.
        # Quorums close in any order under asynchrony, and a vote of our
        # own can close one while this loop runs: the check on ``voted``
        # keeps it to one vote per round.
        for vr, carried in self.cfg.carries.items():
            if r in carried and vr not in self.voted and all(c in own_qcs for c in carried):
                self.voted.add(vr)
                actions += self._vote(vr, tuple(own_qcs[c] for c in carried))
        return actions

    def _vote(self, r: int, qcs: tuple) -> list:
        value = vote_value(r, qcs, self.cfg)
        sig = self.scheme.sign_vector(self.party, VOTE_KIND[r], self.cfg.instance, value)
        return self._broadcast_and_record(Vote(self.cfg.instance, r, self.party, value, sig, qcs))

    def _output(self, kind: str, value: Vector, proof: QC) -> list:
        self.outputs[kind] = (value, proof)
        return [Output(kind, value, proof)]

    @property
    def done(self) -> bool:
        return "low" in self.outputs and "high" in self.outputs
