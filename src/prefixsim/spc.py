"""Leaderless strong agreement over verifiable prefix-consensus views.

View 1 runs a verifiable prefix-consensus instance on the real input and
its low output commits immediately.  Every later view runs an instance
over a ranked vector of proposal-object digests, where a proposal object
is a view-entry certificate:

* a direct certificate carries the previous view's verifiable high
  output (which must itself have a parent);
* a skip certificate carries ``f+1`` signed statements that their
  senders know no parented high past some older view, plus that older
  view's high as the parent.

Committing any parented low walks the parent chain back to view 1 and
emits the view-1 high as the agreed output.  Ranks shift cyclically from
view 3 on, so after GST some view puts an honest party first and the
chain terminates even under one suspension per round.

Proposal objects are gossiped inside new-view messages; a pull-based
fetch pair covers preimages a party never saw (Byzantine senders may
reveal objects to a subset only).  Computations that hit a missing
preimage park until the fetch resolves.  Bodies and parked work live in
one content-addressed :class:`Store` per party, which a multi-slot party
shares between its slot payloads and its slot engines, in separate maps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from . import crypto, encoding, wire
from .actions import DROP, Broadcast, Output, Send, StartTimer
from .crypto import AggregateSignature, Scheme, Signature
from .encoding import DecodeError, cached
from .nest import Host, Nested
from .pc import PcConfig, PcEngine, QC, Variant, predicate_high, predicate_low
from .prefixes import Vector

HBOT = crypto.HBOT


def shift(rank: tuple) -> tuple:
    """One cyclic left rotation of a ranking."""
    return rank[1:] + rank[:1]


def rank_for_view(rank0: tuple, view: int) -> tuple:
    """View 2 reuses the input ranking; later views shift once per view."""
    if view <= 2:
        return tuple(rank0)
    r = tuple(rank0)
    for _ in range(view - 2):
        r = shift(r)
    return r


@dataclass(frozen=True)
class SpcConfig:
    n: int
    f: int
    L: int  # view-1 input length
    delta_cap: int  # the known post-GST bound; view timers run 2x this
    instance: tuple = ("spc",)
    rank0: tuple = ()

    def __post_init__(self):
        if self.n < 3 * self.f + 1:
            raise ValueError("requires n >= 3f+1")
        if self.rank0 == ():
            object.__setattr__(self, "rank0", tuple(range(self.n)))
        if sorted(self.rank0) != list(range(self.n)):
            raise ValueError("rank0 must be a permutation of the parties")

    def vpc_cfg(self, view: int) -> PcConfig:
        """The prefix-consensus config of ``view``: built and validated
        once per view, so every predicate call keys its verdicts by the
        same object."""
        return cached(self, ("vpc", view), PcConfig, self.n, self.f, self.L if view == 1 else self.n,
                      Variant.THREE_ROUND, self.instance + ("view", view))


@dataclass(frozen=True)
class DirectCert:
    prev_view: int
    value: Vector
    proof: QC


@dataclass(frozen=True)
class SkipCert:
    prev_view: int  # the view whose emptiness the statements attest
    ref_view: int  # newest parented high known to the signers
    ref_value: Vector
    ref_proof: object
    agg: AggregateSignature


@dataclass(frozen=True)
class NewView:
    inst: tuple
    view: int
    cert: object


@dataclass(frozen=True)
class EmptyView:
    inst: tuple
    view: int
    ref_view: int
    ref_value: Vector
    ref_proof: object
    sig: Signature


@dataclass(frozen=True)
class NewCommit:
    inst: tuple
    view: int
    value: Vector
    proof: QC


@dataclass(frozen=True)
class FetchReq:
    inst: tuple
    digest: bytes


@dataclass(frozen=True)
class FetchResp:
    inst: tuple
    digest: bytes
    obj: object


for _tag, _cls in ((30, DirectCert), (31, SkipCert), (32, NewView), (33, EmptyView),
                   (34, NewCommit), (36, FetchReq), (37, FetchResp)):
    wire.register(_tag)(_cls)


def skip_statement(view: int, ref_view: int) -> Vector:
    """Signed payload of one empty-view report."""
    return (encoding.encode_uint(view), encoding.encode_uint(ref_view))


def _statement_ref(view: int, stmt) -> Optional[int]:
    """The reference view an empty-view statement about ``view`` reports,
    or None when ``stmt`` is not such a statement."""
    if not isinstance(stmt, tuple) or len(stmt) != 2 or not isinstance(stmt[1], bytes):
        return None
    try:
        ref, _pos = encoding.read_uint(stmt[1], 0)
    except DecodeError:
        return None
    return ref if stmt == skip_statement(view, ref) else None


def cert_parent(cert) -> Optional[tuple]:
    """The ``(view, value, proof)`` high a view-entry certificate builds
    on: a DirectCert's previous view, a SkipCert's reference; None for
    anything else."""
    if isinstance(cert, DirectCert):
        return (cert.prev_view, cert.value, cert.proof)
    if isinstance(cert, SkipCert):
        return (cert.ref_view, cert.ref_value, cert.ref_proof)
    return None


def proposal_digest(nv: NewView) -> bytes:
    """Content digest of a view-entry object, cached on the object."""
    return cached(nv, "digest", wire.hash_obj, nv)


class _Missing(Exception):
    def __init__(self, digest: bytes):
        self.digest = digest


class Store(dict):
    """One party's bodies by digest, one map per digest domain so that no
    body answers for a digest of the other kind: view-entry objects under
    ``proposal_digest`` in the store itself, slot payloads under their
    hash in ``blobs``.  Work that needs a missing body parks as
    ``(function, *args)`` under a key its engine names, and runs as
    ``function(engine, *args)`` once that engine takes the body."""

    def __init__(self):
        super().__init__()
        self.blobs: Dict[bytes, bytes] = {}
        self.parked: Dict[tuple, list] = {}

    def park(self, key: tuple, req: FetchReq, task: tuple) -> list:
        """Park ``task`` under ``key``; the first park broadcasts ``req``."""
        tasks = self.parked.setdefault(key, [])
        tasks.append(task)
        return [Broadcast(req)] if len(tasks) == 1 else []

    def run(self, engine, key: tuple) -> list:
        """Run the work ``engine`` parked under ``key``."""
        actions: list = []
        for function, *args in self.parked.pop(key, ()):
            actions.extend(function(engine, *args))
        return actions

    def serve(self, inst: tuple, sender: int, req: FetchReq) -> list:
        """Answer a request naming ``inst`` with each body held under its
        digest; a malformed digest is a drop."""
        if not isinstance(req.digest, bytes):
            return [DROP]
        held = [m[req.digest] for m in (self.blobs, self) if req.inst == inst and req.digest in m]
        return [Send(sender, FetchResp(inst, req.digest, body)) for body in held]

    @staticmethod
    def take(bodies: dict, digest_of, resp: FetchResp) -> bool:
        """Keep a response's body in ``bodies`` if ``digest_of`` maps it
        to the response's digest."""
        try:
            matches = digest_of(resp.obj) == resp.digest
        except (TypeError, ValueError):  # not encodable: no digest can match
            matches = False
        if matches:
            bodies.setdefault(resp.digest, resp.obj)
        return matches


class SpcEngine:
    """One party's reactor for a strong-prefix-consensus instance."""

    def __init__(
        self,
        cfg: SpcConfig,
        party: int,
        scheme: Scheme,
        store: Optional[Store] = None,
    ):
        self.cfg = cfg
        self.party = party
        self.scheme = scheme
        self.view = 1
        self.vpc_outputs: Dict[int, Dict[str, tuple]] = {}
        self.proposals: Dict[int, Dict[int, NewView]] = {}
        self.empty_votes: Dict[int, Dict[int, EmptyView]] = {}
        self.best_high: Tuple[int, Vector, object] = (0, (), None)
        self.store = store if store is not None else Store()
        self.ran_vpc: set = set()
        self.emitted_empty: set = set()
        self.commit_broadcast: set = set()
        self.built_skips: List[SkipCert] = []
        self.outputs: Dict[str, tuple] = {}
        # One verifiable prefix-consensus instance per view, built on contact.
        self.views = Host(
            cfg.instance,
            lambda view: PcEngine(cfg.vpc_cfg(view), party, scheme),
            self._vpc_output,
            first=1,
        )

    # ------------------------------------------------------------------
    # event entry points

    def on_input(self, value: Vector) -> list:
        return self._run_vpc_input(1, tuple(value))

    def on_timer(self, key: tuple) -> list:
        if key[0] != "view" or self._done_high():
            return []
        view = key[1]
        if view not in self.ran_vpc:
            return self._run_vpc(view)
        return []

    def on_message(self, sender: int, msg) -> list:
        if isinstance(msg, FetchReq):
            return self.store.serve(self.cfg.instance, sender, msg)
        if isinstance(msg, FetchResp):
            if not Store.take(self.store, proposal_digest, msg):
                return [DROP]
            return self.store.run(self, (self.cfg.instance, msg.digest))
        if self._done_high():
            # Late low: view-1 traffic still matters until the low lands.
            if "low" in self.outputs:
                return []
            if isinstance(msg, Nested) and msg.key == 1:
                return self.views.route(sender, msg)
            if isinstance(msg, NewCommit) and msg.view == 1:
                return self._handle_new_commit(msg)
            return []
        if isinstance(msg, Nested):
            return self.views.route(sender, msg)
        if isinstance(msg, NewView):
            return self._handle_new_view(sender, msg)
        if isinstance(msg, EmptyView):
            return self._handle_empty_view(sender, msg)
        if isinstance(msg, NewCommit):
            return self._handle_new_commit(msg)
        return [DROP]

    # ------------------------------------------------------------------
    # verifiable-PC plumbing

    def _run_vpc_input(self, view: int, value: Vector) -> list:
        self.ran_vpc.add(view)
        return self.views.start(view, value)

    def _vpc_output(self, view: int, out: Output) -> list:
        kind, value, proof = out.kind, out.value, out.proof
        self.vpc_outputs.setdefault(view, {})[kind] = (value, proof)
        if kind == "low":
            if self._done_high() and not (view == 1 and "low" not in self.outputs):
                return []
            nc = NewCommit(self.cfg.instance, view, value, proof)
            self.commit_broadcast.add((view, value))
            return [Broadcast(nc)] + self._handle_new_commit(nc)
        return self._handle_vpc_high(view, value, proof)

    def _handle_vpc_high(self, view: int, value: Vector, proof) -> list:
        """Direct advance when the high has a parent, otherwise an
        empty-view report carrying the newest parented high we know."""
        if self._done_high():
            return []
        try:
            parented = self._has_parent(view, value)
        except _Missing as miss:
            return self._park(miss.digest, SpcEngine._handle_vpc_high, view, value, proof)
        if parented:
            cert = DirectCert(view, value, proof)
            nv = NewView(self.cfg.instance, view + 1, cert)
            return [Broadcast(nv)] + self._accept_new_view(self.party, nv, relay=False)
        if view in self.emitted_empty:
            return []
        self.emitted_empty.add(view)
        ref_view, ref_value, ref_proof = self.best_high
        sig = self.scheme.sign_vector(
            self.party, crypto.EMPTY_VIEW, self.cfg.instance, skip_statement(view, ref_view)
        )
        ev = EmptyView(self.cfg.instance, view, ref_view, ref_value, ref_proof, sig)
        return [Broadcast(ev)] + self._handle_empty_view(self.party, ev)

    def _run_vpc(self, view: int) -> list:
        rank = rank_for_view(self.cfg.rank0, view)
        buffer = self.proposals.get(view, {})
        vec = tuple(proposal_digest(buffer[p]) if p in buffer else HBOT for p in rank)
        return self._run_vpc_input(view, vec)

    # ------------------------------------------------------------------
    # certificates and parents

    def _predicate(self, predicate, view: int, value, proof) -> bool:
        """``predicate_high`` or ``predicate_low`` of the view's instance."""
        if not isinstance(view, int) or view < 1:
            return False
        return predicate(value, proof, self.cfg.vpc_cfg(view), self.scheme)

    def _parent_of(self, vector: Vector):
        """Parent (view, value) named by the first non-placeholder entry,
        or None for an empty vector.  Raises _Missing when the preimage
        of that entry is not locally available."""
        for digest in vector:
            if digest == HBOT:
                continue
            obj = self.store.get(digest)
            if obj is None:
                raise _Missing(digest)
            parent = cert_parent(obj.cert) if isinstance(obj, NewView) else None
            # An unrecognized preimage counts as parentless.
            return None if parent is None else parent[:2]
        return None

    def _has_parent(self, view: int, value: Vector) -> bool:
        if view == 1:
            return True
        return self._parent_of(value) is not None

    def _parented_high(self, view: int, value, proof) -> bool:
        """A valid high of ``view`` whose parent is known; raises
        _Missing when the parent's preimage is not."""
        return self._predicate(predicate_high, view, value, proof) and self._has_parent(view, value)

    def _valid_cert(self, view: int, cert) -> bool:
        """Exactly the view-entry checks; raises _Missing on fetch needs."""
        parent = cert_parent(cert)
        if parent is None or cert.prev_view != view - 1 or cert.prev_view < 1:
            return False
        if isinstance(cert, SkipCert):
            agg = cert.agg
            if not isinstance(agg, AggregateSignature) or not agg.well_formed():
                return False
            if agg.kind != crypto.EMPTY_VIEW or agg.instance != self.cfg.instance:
                return False
            if len(agg.signers) != self.cfg.f + 1:
                return False
            if not self.scheme.verify_aggregate(agg):
                return False
            reported = [_statement_ref(cert.prev_view, stmt) for stmt in agg.messages]
            if None in reported:
                return False  # a statement is malformed or names a different view
            if cert.ref_view != max(reported):
                return False
        return self._parented_high(*parent)

    # ------------------------------------------------------------------
    # message handlers

    def _handle_new_view(self, sender: int, nv: NewView) -> list:
        if nv.inst != self.cfg.instance or not isinstance(nv.view, int) or nv.view < 2:
            return [DROP]
        try:
            ok = self._valid_cert(nv.view, nv.cert)
        except _Missing as miss:
            return self._park(miss.digest, SpcEngine.on_message, sender, nv)
        if not ok:
            return [DROP]
        if nv.view < self.view:
            # Stale view: only the newest-parented-high bookkeeping applies.
            self._update_best(nv.cert)
            return []
        return self._accept_new_view(sender, nv, relay=True)

    def _accept_new_view(self, origin: int, nv: NewView, relay: bool) -> list:
        actions: list = []
        if nv.view > self.view:
            self.view = nv.view
            if relay:
                actions.append(Broadcast(nv))
            actions.append(StartTimer(("view", nv.view), 2 * self.cfg.delta_cap))
            # Entering by relay (or origination) makes this certificate my
            # own proposal object for the view as well.
            self._store_proposal(nv.view, self.party, nv)
        self._update_best(nv.cert)
        self._store_proposal(nv.view, origin, nv)
        if len(self.proposals.get(nv.view, {})) == self.cfg.n and nv.view not in self.ran_vpc:
            actions.extend(self._run_vpc(nv.view))
        return actions

    def _store_proposal(self, view: int, party: int, nv: NewView) -> None:
        bucket = self.proposals.setdefault(view, {})
        if party not in bucket:
            bucket[party] = nv
        self.store.setdefault(proposal_digest(nv), nv)

    def _update_best(self, cert) -> None:
        candidate = cert_parent(cert)
        if candidate is not None and candidate[0] > self.best_high[0]:
            self.best_high = candidate

    def _handle_empty_view(self, sender: int, ev: EmptyView) -> list:
        if not (ev.inst == self.cfg.instance and isinstance(ev.view, int) and isinstance(ev.ref_view, int)
                and isinstance(ev.sig, Signature) and isinstance(ev.sig.blob, bytes)
                and isinstance(ev.ref_value, tuple)):
            return [DROP]
        if ev.view < self.view or ev.view <= ev.ref_view:
            return [DROP]
        if not self.scheme.verify_vector(
            sender, crypto.EMPTY_VIEW, self.cfg.instance, skip_statement(ev.view, ev.ref_view), ev.sig
        ) or ev.sig.signer != sender:
            return [DROP]
        try:
            if not self._parented_high(ev.ref_view, ev.ref_value, ev.ref_proof):
                return [DROP]
        except _Missing as miss:
            return self._park(miss.digest, SpcEngine.on_message, sender, ev)
        bucket = self.empty_votes.setdefault(ev.view, {})
        if sender in bucket or any(cert.prev_view == ev.view for cert in self.built_skips):
            return []
        bucket[sender] = ev
        if len(bucket) < self.cfg.f + 1:
            return []
        entries = [
            (party, skip_statement(ev.view, vote.ref_view), vote.sig)
            for party, vote in bucket.items()
        ]
        agg = self.scheme.aggregate(crypto.EMPTY_VIEW, self.cfg.instance, entries)
        best = max(bucket.values(), key=lambda vote: vote.ref_view)
        cert = SkipCert(ev.view, best.ref_view, best.ref_value, best.ref_proof, agg)
        self.built_skips.append(cert)
        nv = NewView(self.cfg.instance, ev.view + 1, cert)
        return [Broadcast(nv)] + self._accept_new_view(self.party, nv, relay=False)

    def _handle_new_commit(self, nc: NewCommit) -> list:
        if nc.inst != self.cfg.instance or not isinstance(nc.view, int):
            return [DROP]
        if not self._predicate(predicate_low, nc.view, nc.value, nc.proof):
            return [DROP]
        actions: list = []
        key = (nc.view, nc.value)
        if key not in self.commit_broadcast:
            self.commit_broadcast.add(key)
            actions.append(Broadcast(nc))
        actions.extend(self._commit(nc.view, nc.value))
        return actions

    # ------------------------------------------------------------------
    # committing

    def _commit(self, view: int, value: Vector) -> list:
        while True:
            if view == 1:
                return self._emit_output("low", value)
            try:
                parent = self._parent_of(value)
            except _Missing as miss:
                return self._park(miss.digest, SpcEngine._commit, view, value)
            if parent is None:
                return []
            pview, pvalue = parent
            if pview == 1:
                return self._emit_output("high", pvalue)
            view, value = pview, pvalue

    def _emit_output(self, kind: str, value: Vector) -> list:
        if kind in self.outputs:
            return []
        self.outputs[kind] = (value, self.view)
        return [Output(kind, value)]

    def _done_high(self) -> bool:
        return "high" in self.outputs

    def _park(self, digest: bytes, *task) -> list:
        return self.store.park((self.cfg.instance, digest), FetchReq(self.cfg.instance, digest), task)
