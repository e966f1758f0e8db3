"""Multi-slot replication: one strong-prefix-consensus instance per slot.

Each slot broadcasts proposals, orders the received ones by the slot
ranking, and agrees on a prefix of the ranked digest vector.  The next
slot's ranking demotes the first party whose position fell outside the
agreed prefix, so a censoring proposer loses its ability to censor after
at most one slot per Byzantine party.

Slots are strictly sequential: a party starts slot ``s+1`` only after
the slot-``s`` agreement lands.  The low output of a slot commits early;
it is always a prefix of the final slot output, so early commits never
roll back.  A party keeps its payloads and its slot engines' view-entry
objects in one shared :class:`~prefixsim.spc.Store`, which answers every
fetch request and parks commits that wait for a missing payload.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from . import crypto, wire
from .actions import DROP, Broadcast, Output, StartTimer
from .crypto import Scheme
from .encoding import cached
from .nest import Host
from .prefixes import Vector
from .spc import FetchReq, FetchResp, SpcConfig, SpcEngine, Store

HBOT = crypto.HBOT


def update_rank(rank: tuple, high: Vector) -> tuple:
    """Demote the first excluded position: identity when the agreed
    vector has full length, otherwise position ``len(high)+1`` moves to
    the end with all other positions preserved."""
    cut = len(high)
    if cut >= len(rank):
        return tuple(rank)
    return tuple(rank[:cut]) + tuple(rank[cut + 1 :]) + (rank[cut],)


@wire.register(40)
@dataclass(frozen=True)
class Proposal:
    inst: tuple
    slot: int
    payload: bytes


@dataclass(frozen=True)
class MscConfig:
    n: int
    f: int
    delta_cap: int
    instance: tuple = ("msc",)
    rank0: tuple = ()
    slots: int = 1  # how many slots this run plays out

    def __post_init__(self):
        if self.slots < 1:
            raise ValueError("slots must be at least 1")
        if self.rank0 == ():
            object.__setattr__(self, "rank0", tuple(range(self.n)))

    def slot_instance(self, slot: int) -> tuple:
        return self.instance + ("slot", slot)

    def spc_cfg(self, slot: int, rank: tuple) -> SpcConfig:
        """One config per slot and ranking, shared by every party's slot
        engine, so the verdicts cached under its view configs are found
        by identity, not by comparing fields."""
        return cached(self, ("spc", slot, rank), SpcConfig,
                      self.n, self.f, self.n, self.delta_cap, self.slot_instance(slot), rank)


def payload_digest(payload: bytes) -> bytes:
    return crypto.hash_bytes(payload)


class MscEngine:
    """One party's reactor across slots.

    ``input_for(slot)`` supplies the per-slot proposal payload;
    ``validator`` is the external-validity predicate applied to received
    proposals (invalid ones are discarded on arrival).
    """

    def __init__(
        self,
        cfg: MscConfig,
        party: int,
        scheme: Scheme,
        input_for: Callable[[int], bytes],
        validator: Optional[Callable[[bytes], bool]] = None,
    ):
        self.cfg = cfg
        self.party = party
        self.scheme = scheme
        self.input_for = input_for
        self.validator = validator
        self.slot = 0
        self.buffers: Dict[int, Dict[int, bytes]] = {}
        self.store = Store()  # payloads in blobs, and the slot engines' objects
        self.ranks: Dict[int, tuple] = {}  # filled as each slot's instance starts
        self.committed: set = set()
        self.commit_log: List[Tuple[int, int, int, bytes]] = []  # slot, index, origin, digest
        self.slot_outputs: Dict[int, Dict[str, tuple]] = {}
        # One strong-agreement instance per slot, started by RunSPC; slot
        # traffic that races ahead of our own slot start waits for it.
        self.slots = Host(cfg.instance, self._build_slot, self._slot_output, first=1, buffer=self._buffers_slot)

    def _build_slot(self, slot: int) -> SpcEngine:
        return SpcEngine(self.cfg.spc_cfg(slot, self.ranks[slot]), self.party, self.scheme, store=self.store)

    def _buffers_slot(self, slot: int) -> bool:
        """Whether traffic for a slot not started yet waits for it."""
        return self.slot <= slot <= self.cfg.slots

    # ------------------------------------------------------------------

    def on_input(self, _value) -> list:
        return self._new_slot(1)

    def _new_slot(self, slot: int) -> list:
        if slot > self.cfg.slots:
            return []
        self.slot = slot
        payload = self.input_for(slot)
        prop = Proposal(self.cfg.instance, slot, payload)
        actions = [Broadcast(prop), StartTimer(("slot", slot), 2 * self.cfg.delta_cap)]
        actions.extend(self._handle_proposal(self.party, prop))
        return actions

    def on_timer(self, key: tuple) -> list:
        if key[0] == "slot":
            slot = key[1]
            if slot == self.slot and slot not in self.ranks:
                return self._run_spc(slot)
            return []
        return self.slots.on_timer(key)

    def on_message(self, sender: int, msg) -> list:
        if isinstance(msg, Proposal):
            return self._handle_proposal(sender, msg)
        slot = self.slots.key_of(msg)
        if slot is None:
            return [DROP]
        inner = msg.inner
        # The shared store answers every request and takes payloads; an
        # object response goes to a running slot engine, never buffered.
        if isinstance(inner, FetchReq):
            return self.slots.wrap(slot, self.store.serve(self.cfg.slot_instance(slot), sender, inner))
        if isinstance(inner, FetchResp) and isinstance(inner.obj, bytes):
            if not Store.take(self.store.blobs, payload_digest, inner):
                return [DROP]
            return self.store.run(self, (self.cfg.instance, inner.digest))
        if isinstance(inner, FetchResp) and slot not in self.slots.children:
            return []
        return self.slots.deliver(slot, sender, inner)

    # ------------------------------------------------------------------

    def _handle_proposal(self, sender: int, prop: Proposal) -> list:
        if prop.inst != self.cfg.instance or not isinstance(prop.slot, int):
            return [DROP]
        if not isinstance(prop.payload, bytes):
            return [DROP]
        if self.validator is not None and not self.validator(prop.payload):
            return [DROP]
        digest = payload_digest(prop.payload)
        self.store.blobs.setdefault(digest, prop.payload)
        actions = self.store.run(self, (self.cfg.instance, digest))
        if prop.slot < self.slot:
            return actions  # past slot: the input vector is long fixed
        bucket = self.buffers.setdefault(prop.slot, {})
        if sender not in bucket:
            bucket[sender] = prop.payload
        if prop.slot == self.slot and prop.slot not in self.ranks and len(bucket) == self.cfg.n:
            actions.extend(self._run_spc(prop.slot))
        return actions

    def _rank_for(self, slot: int) -> tuple:
        if slot == 1:
            return tuple(self.cfg.rank0)
        prev = self.ranks.get(slot - 1)
        if prev is None:
            raise AssertionError("slot ranking computed out of order")
        prev_high = self.slot_outputs[slot - 1]["high"][0]
        return update_rank(prev, prev_high)

    def _run_spc(self, slot: int) -> list:
        rank = self._rank_for(slot)
        self.ranks[slot] = rank
        bucket = self.buffers.get(slot, {})
        vec = tuple(payload_digest(bucket[p]) if p in bucket else HBOT for p in rank)
        return self.slots.start(slot, vec)

    def _slot_output(self, slot: int, out: Output) -> list:
        kind, value = out.kind, out.value
        self.slot_outputs.setdefault(slot, {})[kind] = (value, None)
        actions = self._commit_vector(slot, value, 0)
        if kind == "high":
            actions.append(Output(f"slot{slot}-high", value))
            if slot == self.slot:
                actions.extend(self._new_slot(slot + 1))
        return actions

    # ------------------------------------------------------------------
    # committing payloads

    def _commit_vector(self, slot: int, vector: Vector, start: int) -> list:
        rank = self.ranks[slot]
        actions: list = []
        for idx in range(start, len(vector)):
            digest = vector[idx]
            if digest == HBOT:
                continue
            if digest not in self.store.blobs:
                # Fetch within the slot's namespace and resume in order.
                fetch = self.store.park((self.cfg.instance, digest), FetchReq(self.cfg.slot_instance(slot), digest),
                                        (MscEngine._commit_vector, slot, vector, idx))
                return actions + self.slots.wrap(slot, fetch)
            if digest not in self.committed:
                self.committed.add(digest)
                self.commit_log.append((slot, idx, rank[idx], digest))
                actions.append(Output(f"commit-{slot}-{idx}", (rank[idx], digest)))
        return actions

    # ------------------------------------------------------------------

    def committed_by_slot(self) -> Dict[int, List[Tuple[int, int, bytes]]]:
        """Ordered (index, origin, payload) entries committed, by slot."""
        out: Dict[int, List[Tuple[int, int, bytes]]] = {}
        for slot, idx, origin, digest in self.commit_log:
            out.setdefault(slot, []).append((idx, origin, self.store.blobs[digest]))
        return out

    def export_commit_log(self) -> str:
        """Line-delimited commit records: slot, index, party-of-origin,
        payload digest (hex)."""
        return "\n".join(
            f"{slot}\t{idx}\t{origin}\t{digest.hex()}"
            for slot, idx, origin, digest in self.commit_log
        )
