"""Prefix-consensus voting engines.

Three deterministic message-driven variants share one chassis:

* ``THREE_ROUND`` -- the asynchronous baseline: three all-to-all voting
  rounds; the third quorum certifies a (low, high) output pair.
* ``OPTIMISTIC`` -- four rounds with an optimistic output after the
  second quorum and an early high output when round-3 votes agree.
* ``FAST_5F1`` -- two rounds under the stronger ``n >= 5f+1`` resilience.

Every round-``r`` quorum is the first ``n-f`` verified votes to arrive;
the quorum certificate (the plain vote set) both drives the next round
and serves as the publicly checkable proof for the verification
predicates at the bottom of this module.

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
from typing import Dict, List, Optional, Tuple

from . import crypto
from .actions import Broadcast, Output
from .crypto import Scheme, Signature
from .encoding import cached
from .prefixes import Vector, is_prefix, longest_supported_prefix, mce, mcp


class Variant(enum.Enum):
    THREE_ROUND = "pc3"
    OPTIMISTIC = "pc_opt"
    FAST_5F1 = "pc_5f1"


ROUNDS = {Variant.THREE_ROUND: 3, Variant.OPTIMISTIC: 4, Variant.FAST_5F1: 2}

VOTE_KIND = {1: crypto.VOTE1, 2: crypto.VOTE2, 3: crypto.VOTE3, 4: crypto.VOTE4}

# Embedded-certificate arity per (variant, round).
_QC_ARITY = {
    Variant.THREE_ROUND: {1: 0, 2: 1, 3: 1},
    Variant.OPTIMISTIC: {1: 0, 2: 1, 3: 2, 4: 1},
    Variant.FAST_5F1: {1: 0, 2: 1},
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

    def __hash__(self) -> int:
        return self._hash

    def rounds(self) -> int:
        return ROUNDS[self.variant]


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
    out = []
    for item in votes:
        out.append(item.value if isinstance(item, Vote) else tuple(item))
    return out


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


def combined_certify(qc1_votes, qc2_votes, cfg: PcConfig) -> Vector:
    """OPTIMISTIC round-3 vote value from a party's own first two quorums."""
    supported, _ = qc1_certify(qc1_votes, cfg)
    _, extension = qc2_certify(qc2_votes, cfg)
    if is_prefix(extension, supported):
        return supported
    return extension


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


# ---------------------------------------------------------------------------
# Verification


def _expected_vote_value(vote: Vote, cfg: PcConfig) -> Optional[Vector]:
    """Recertify the carried quorum certificates; None means structurally wrong."""
    var, r = cfg.variant, vote.round
    if r == 2:
        (qc1,) = vote.qcs
        certified = qc1_certify(qc1, cfg)
        return certified[1] if var is Variant.OPTIMISTIC else certified
    if r == 3 and var is Variant.THREE_ROUND:
        (qc2,) = vote.qcs
        return qc2_certify(qc2, cfg)
    if r == 3 and var is Variant.OPTIMISTIC:
        qc1, qc2 = vote.qcs
        return combined_certify(qc1, qc2, cfg)
    if r == 4:
        (qc3,) = vote.qcs
        return qc3_certify(qc3, cfg)
    return None


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
    arity = _QC_ARITY[cfg.variant].get(vote.round)
    if arity is None or vote.inst != cfg.instance:
        return False
    if len(qcs) != arity or len(value) > cfg.L:
        return False
    if not scheme.verify_vector(vote.sender, VOTE_KIND[vote.round], cfg.instance, vote.value, vote.sig):
        return False
    expected_rounds = (1, 2) if (cfg.variant is Variant.OPTIMISTIC and vote.round == 3) else (vote.round - 1,) * arity
    for qc, want in zip(vote.qcs, expected_rounds):
        if qc.round != want or not verify_qc(qc, cfg, scheme):
            return False
    if vote.round > 1:
        try:
            if _expected_vote_value(vote, cfg) != vote.value:
                return False
        except ProtocolViolation:
            return False
    return True


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
    if not verify_qc(proof, cfg, scheme):
        return False
    try:
        if cfg.variant is Variant.THREE_ROUND:
            return proof.round == 3 and qc3_certify(proof, cfg)[0] == value
        if cfg.variant is Variant.FAST_5F1:
            return proof.round == 2 and qc2_certify(proof, cfg)[0] == value
        if proof.round == 2:
            early, _ = qc2_certify(proof, cfg)
            return len(early) == cfg.L and early == value
        if proof.round == 4:
            return qc4_certify(proof, cfg)[0] == value
    except ProtocolViolation:
        return False
    return False


def predicate_high(value: Vector, proof, cfg: PcConfig, scheme: Scheme) -> bool:
    """Public predicate: ``proof`` certifies ``value`` as a safe-to-extend high."""
    if not verify_qc(proof, cfg, scheme):
        return False
    try:
        if cfg.variant is Variant.THREE_ROUND:
            return proof.round == 3 and qc3_certify(proof, cfg)[1] == value
        if cfg.variant is Variant.FAST_5F1:
            return proof.round == 2 and qc2_certify(proof, cfg)[1] == value
        if proof.round == 2:
            early, _ = qc2_certify(proof, cfg)
            return len(early) == cfg.L and early == value
        if proof.round == 3:
            ext = mce(proof.values())
            return ext is not None and ext == value
        if proof.round == 4:
            return qc4_certify(proof, cfg)[1] == value
    except ProtocolViolation:
        return False
    return False


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
        self.votes: Dict[int, Dict[int, Vote]] = {r: {} for r in range(1, cfg.rounds() + 1)}
        self.closed: Dict[int, bool] = {r: False for r in range(1, cfg.rounds() + 1)}
        self.own_qcs: Dict[int, QC] = {}
        self.outputs: Dict[str, Tuple[Vector, Optional[QC]]] = {}
        self.input_value: Optional[Vector] = None
        self.dropped = 0
        self._stalled_qc2: Optional[QC] = None

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
            self.dropped += 1
            return []
        return self._record(msg)

    # -- internals

    def _broadcast_and_record(self, vote: Vote) -> list:
        actions = [Broadcast(vote)]
        actions.extend(self._record(vote))
        return actions

    def _record(self, vote: Vote) -> list:
        r = vote.round
        bucket = self.votes[r]
        if self.closed[r] or vote.sender in bucket:
            return []
        bucket[vote.sender] = vote
        if len(bucket) < self.cfg.quorum:
            return []
        self.closed[r] = True
        qc = QC(r, tuple(bucket.values()))
        self.own_qcs[r] = qc
        return self._on_quorum(r, qc)

    def _on_quorum(self, r: int, qc: QC) -> list:
        var = self.cfg.variant
        if var is Variant.THREE_ROUND:
            if r == 1:
                return self._vote(2, qc1_certify(qc, self.cfg), (qc,))
            if r == 2:
                return self._vote(3, qc2_certify(qc, self.cfg), (qc,))
            low, high = qc3_certify(qc, self.cfg)
            return self._output("low", low, qc) + self._output("high", high, qc)
        if var is Variant.FAST_5F1:
            if r == 1:
                return self._vote(2, qc1_certify(qc, self.cfg), (qc,))
            low, high = qc2_certify(qc, self.cfg)
            return self._output("low", low, qc) + self._output("high", high, qc)
        # OPTIMISTIC
        if r == 1:
            _, common = qc1_certify(qc, self.cfg)
            actions = self._vote(2, common, (qc,))
            if self._stalled_qc2 is not None:
                stash, self._stalled_qc2 = self._stalled_qc2, None
                actions += self._merged_vote3(stash)
            return actions
        if r == 2:
            early, _ = qc2_certify(qc, self.cfg)
            actions = self._output("opt", early, qc)
            if len(early) == self.cfg.L:
                actions += self._output("low", early, qc)
                actions += self._output("high", early, qc)
            if 1 in self.own_qcs:
                return actions + self._merged_vote3(qc)
            # Round-2 quorum outran our own round-1 quorum (possible under
            # asynchrony); the round-3 vote needs our first certificate,
            # so it waits for it.
            self._stalled_qc2 = qc
            return actions
        if r == 3:
            actions = []
            if "high" not in self.outputs:
                ext = mce(qc.values())
                if ext is not None:
                    actions += self._output("high", ext, qc)
            return actions + self._vote(4, qc3_certify(qc, self.cfg), (qc,))
        low, high = qc4_certify(qc, self.cfg)
        actions = []
        if "low" not in self.outputs:
            actions += self._output("low", low, qc)
        if "high" not in self.outputs:
            actions += self._output("high", high, qc)
        return actions

    def _merged_vote3(self, qc2: QC) -> list:
        merged = combined_certify(self.own_qcs[1], qc2, self.cfg)
        return self._vote(3, merged, (self.own_qcs[1], qc2))

    def _vote(self, r: int, value: Vector, qcs: tuple) -> list:
        sig = self.scheme.sign_vector(self.party, VOTE_KIND[r], self.cfg.instance, value)
        return self._broadcast_and_record(Vote(self.cfg.instance, r, self.party, value, sig, qcs))

    def _output(self, kind: str, value: Vector, proof: QC) -> list:
        assert kind not in self.outputs, f"duplicate {kind} output"
        self.outputs[kind] = (value, proof)
        return [Output(kind, value, proof)]

    @property
    def done(self) -> bool:
        return "low" in self.outputs and "high" in self.outputs
