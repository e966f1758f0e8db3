"""Prefix-consensus voting engines.

Three deterministic message-driven variants share one chassis:

* ``THREE_ROUND`` -- the asynchronous baseline: three all-to-all voting
  rounds; the third quorum certifies a (low, high) output pair.
* ``OPTIMISTIC`` -- four rounds with an optimistic output after the
  second quorum and an early high output when round-3 votes agree: its
  round-3 quorum certifies ``(mcp, mce)``: the common prefix and, unless
  the votes conflict (then None), their minimum common extension.
* ``FAST_5F1`` -- two rounds under the stronger ``n >= 5f+1`` resilience.

Every round-``r`` quorum is the first ``n-f`` verified votes to arrive;
the quorum certificate (the plain vote set) both drives the later rounds
and serves as the publicly checkable proof for the verification
predicates.

Each variant is one row of :data:`VARIANT_TABLE`: its resilience bound,
its round-1 support threshold and, per round, the rounds whose
certificates its vote carries and what its quorum certifies.
:func:`certify` reads the row.  :func:`vote_value` is the value a vote
holds, from what its carried certificates certify, and
:func:`certified_outputs` is what a certificate proves; they
add the optimistic votes and outputs, and are the only code that tests
the variant.  The engine votes and outputs from them, :func:`verify_vote`
recomputes every vote's value with :func:`vote_value`, and both
predicates read :func:`certified_outputs`.

Verification accepts any field shape (a malformed vote is just invalid)
and caches its verdict on the vote or certificate under the key
``(cfg, scheme)`` (:func:`encoding.cached`): all parties share it, and
no other view or slot reuses it.  A certificate likewise keeps what it
certifies under ``("qc", cfg)``, so its creator, every verifier, both
predicates and the invariant checks derive it once.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Dict, NamedTuple, Optional, Set, Tuple

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


class ProtocolViolation(Exception):
    """A certified vote set broke quorum intersection; the instance is unsound."""


class ConfigError(ValueError):
    pass


# What a round's quorum certifies, from its votes' values, its round and
# the config.  ``wire.FORMS`` keys each one's compact certificate by it.
supported_prefix = lambda values, r, cfg: longest_supported_prefix(values, cfg.support)
common_prefix = lambda values, r, cfg: mcp(values)
supported_and_common = lambda values, r, cfg: (supported_prefix(values, r, cfg), mcp(values))
common_and_extension = lambda values, r, cfg: (mcp(values), mce(values))  # mce is None on conflict


def extremes(values, r, cfg):
    ext = mce(values)
    if ext is None:
        raise ProtocolViolation(f"conflicting certified prefixes in qc{r}; quorum intersection broken")
    return mcp(values), ext


class Round(NamedTuple):
    carries: Tuple[int, ...]  # the rounds whose certificates its vote carries, in order
    certify: Callable  # (quorum values, round, cfg) -> what its quorum certifies


class Schedule(NamedTuple):
    """One variant's row of :data:`VARIANT_TABLE`."""

    resilience: int  # n >= resilience * f + 1
    support: Callable[[int, int], int]  # (n, f) -> the vote count that pins a round-1 certified prefix
    rounds: Dict[int, Round]


_f_plus_1 = lambda n, f: f + 1

VARIANT_TABLE: Dict[Variant, Schedule] = {
    Variant.THREE_ROUND: Schedule(3, _f_plus_1, {
        1: Round((), supported_prefix), 2: Round((1,), common_prefix), 3: Round((2,), extremes)}),
    Variant.OPTIMISTIC: Schedule(3, _f_plus_1, {
        1: Round((), supported_and_common), 2: Round((1,), extremes),
        3: Round((1, 2), common_and_extension), 4: Round((3,), extremes)}),
    Variant.FAST_5F1: Schedule(5, lambda n, f: n - 2 * f, {
        1: Round((), supported_prefix), 2: Round((1,), extremes)}),
}


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
        schedule = VARIANT_TABLE[self.variant]
        if self.n < schedule.resilience * self.f + 1:
            raise ConfigError(f"{self.variant.value} requires n >= {schedule.resilience}f+1, "
                              f"got n={self.n} f={self.f}")
        # Every verdict and certification lookup hashes its config; the
        # generated hash would rehash each field, the variant in Python.
        object.__setattr__(self, "_hash", hash((self.n, self.f, self.L, self.variant, self.instance)))
        object.__setattr__(self, "quorum", self.n - self.f)
        object.__setattr__(self, "support", schedule.support(self.n, self.f))
        # The row's rounds, read at every quorum: kept here, as a lookup by
        # variant would hash the variant in Python each time.
        object.__setattr__(self, "rounds", schedule.rounds)

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


def certify(qc: QC, cfg: PcConfig):
    """What ``qc`` certifies: its round's quorum function of its values.

    The result is kept on ``qc`` under ``("qc", cfg)``; a
    ``ProtocolViolation`` raises on every call and keeps nothing.
    """
    return cached(qc, ("qc", cfg), _certify, qc, cfg)


def _certify(qc: QC, cfg: PcConfig):
    return cfg.rounds[qc.round].certify(qc.values(), qc.round, cfg)


def vote_value(r: int, certified: tuple, cfg: PcConfig) -> Vector:
    """The value a round-``r`` vote holds, from what the certificates it
    carries (of the rounds ``cfg.rounds[r].carries``) certify.

    OPTIMISTIC votes its round-1 common prefix in round 2, in round 3 its
    round-1 supported prefix when the round-2 extension is a prefix of
    that, else the extension, and its round-3 common prefix in round 4;
    every other vote holds what its one certificate certifies.
    """
    if cfg.variant is Variant.OPTIMISTIC:
        if r == 3:
            (supported, _), (_, extension) = certified
            return supported if is_prefix(extension, supported) else extension
        if r == 2:
            return certified[0][1]  # the round-1 common prefix
        return certified[0][0]  # round 4: the round-3 common prefix
    return certified[0]


def certified_outputs(qc: QC, cfg: PcConfig) -> Dict[str, Vector]:
    """What ``qc`` proves, kind -> value, in the order the engine emits them.

    The last round's certificate proves ``low`` and ``high``.  OPTIMISTIC's
    round-2 certificate proves ``opt``, and ``low`` and ``high`` too when
    that is full length; its round-3 certificate proves ``high`` when the
    votes agree.
    """
    r = qc.round
    if r == len(cfg.rounds):
        low, high = certify(qc, cfg)
        return {"low": low, "high": high}
    if cfg.variant is Variant.OPTIMISTIC:
        if r == 2:
            early, _ = certify(qc, cfg)
            return {"opt": early, "low": early, "high": early} if len(early) == cfg.L else {"opt": early}
        if r == 3:
            _, ext = certify(qc, cfg)
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
    round_ = cfg.rounds.get(vote.round)
    if round_ is None or vote.inst != cfg.instance or len(qcs) != len(round_.carries) or len(value) > cfg.L:
        return False
    if not scheme.verify_vector(vote.sender, VOTE_KIND[vote.round], cfg.instance, value, vote.sig):
        return False
    for qc, want in zip(qcs, round_.carries):
        if qc.round != want or not verify_qc(qc, cfg, scheme):
            return False
    try:
        return not round_.carries or vote_value(vote.round, tuple(certify(qc, cfg) for qc in qcs), cfg) == value
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
        self.votes: Dict[int, Dict[int, Vote]] = {r: {} for r in cfg.rounds}
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
        for vr, (carried, _) in self.cfg.rounds.items():
            if r in carried and vr not in self.voted and all(c in own_qcs for c in carried):
                self.voted.add(vr)
                actions += self._vote(vr, tuple(own_qcs[c] for c in carried))
        return actions

    def _vote(self, r: int, qcs: tuple) -> list:
        value = vote_value(r, tuple(certify(qc, self.cfg) for qc in qcs), self.cfg)
        sig = self.scheme.sign_vector(self.party, VOTE_KIND[r], self.cfg.instance, value)
        return self._broadcast_and_record(Vote(self.cfg.instance, r, self.party, value, sig, qcs))

    def _output(self, kind: str, value: Vector, proof: QC) -> list:
        self.outputs[kind] = (value, proof)
        return [Output(kind, value, proof)]

    @property
    def done(self) -> bool:
        return "low" in self.outputs and "high" in self.outputs
