"""Seeded deterministic discrete-event network simulator.

Virtual time is exact (ints or Fractions, never floats).  The event queue
is ordered by ``(time, sender, receiver, sequence)``; identical
(scenario, seed) pairs replay bit-identically.  Partial synchrony is a
:class:`DelayPolicy`: honest-to-honest messages sent at or after GST are
delivered within the cap, pre-GST delays are adversary-controlled but
finite.  Byzantine behaviour enters only through an
:class:`Adversary`'s hooks; strategies can replace, omit, duplicate or
delay the messages of Byzantine parties and may suspend one party per
round, but they never hold honest keys.
"""

from __future__ import annotations

import hashlib
import heapq
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from .actions import Broadcast, Output, Send, StartTimer
from .nest import innermost

Time = Union[int, Fraction]


class SimulationError(Exception):
    pass


@dataclass
class DelayPolicy:
    """Per-link delivery policy under partial synchrony.

    ``gst=None`` models a fully asynchronous run: no delivery bound, only
    finiteness.  ``base`` gives the default link delay; the adversary may
    override any link, subject to the post-GST cap on honest traffic.
    """

    gst: Optional[Time] = 0
    cap: Time = 1
    base: Optional[Callable[[int, int, Time], Time]] = None
    default_delay: Time = 1

    @classmethod
    def synchronized(cls, delta: Time = 1) -> "DelayPolicy":
        """Every message takes exactly ``delta``; GST has already passed."""
        return cls(gst=0, cap=delta, default_delay=delta)

    @classmethod
    def partially_synchronous(cls, gst: Time, cap: Time, delta: Time = 1) -> "DelayPolicy":
        return cls(gst=gst, cap=cap, default_delay=delta)

    def link_delay(self, sender: int, receiver: int, t: Time) -> Time:
        if self.base is not None:
            return self.base(sender, receiver, t)
        return self.default_delay

    def deliver_bound(self, t: Time) -> Optional[Time]:
        """Latest permissible honest-to-honest delivery for a send at ``t``."""
        if self.gst is None:
            return None
        start = t if t >= self.gst else self.gst
        return start + self.cap


class Adversary:
    """Honest baseline strategy: no Byzantine parties, no interference."""

    name = "none"

    def __init__(self, byzantine=()):
        self.byzantine = frozenset(byzantine)
        self.sim: "Simulation" = None  # set at attach

    def attach(self, sim: "Simulation") -> None:
        self.sim = sim

    def engine_for(self, party: int, build: Callable[[int], Any]):
        """Engine run for a Byzantine party; None means fully scripted."""
        return build(party)

    def on_input(self, party: int, value) -> bool:
        """Whether a Byzantine party's engine receives its scenario input."""
        return True

    def on_send(self, party: int, msg, receivers) -> List[Tuple[int, Any, Optional[Time]]]:
        """Rewrite a Byzantine party's outgoing broadcast.

        Returns (receiver, message, delay-override) triples; the default
        is faithful delivery.
        """
        return [(dest, msg, None) for dest in receivers]

    def on_deliver(self, party: int, sender: int, msg) -> bool:
        """Peek at a Byzantine party's incoming message; False drops it
        before the engine (scripted strategies react here)."""
        return True

    def pick_delay(self, rng: random.Random, sender: int, receiver: int, t: Time) -> Optional[Time]:
        """Schedule override for any link; None defers to the policy."""
        return None

    def suspended_until(self, party: int, t: Time) -> Optional[Time]:
        """If ``party`` is suspended at ``t``, the time it resumes."""
        return None


@dataclass
class Envelope:
    send_time: Time
    deliver_time: Time
    sender: int
    receiver: int
    msg: Any
    nbytes: int = 0


@dataclass
class Metrics:
    n: int
    outputs: Dict[int, Dict[str, Tuple[Any, Any, Time]]] = field(default_factory=dict)
    message_count: int = 0
    fetch_messages: int = 0
    bytes_total: int = 0
    drops: int = 0
    end_time: Time = 0
    transcript_sha: str = ""

    def output_time(self, party: int, kind: str) -> Optional[Time]:
        entry = self.outputs.get(party, {}).get(kind)
        return entry[2] if entry else None

    def output_value(self, party: int, kind: str):
        entry = self.outputs.get(party, {}).get(kind)
        return entry[0] if entry else None


def _summize(msg) -> str:
    name = type(msg).__name__
    bits = [name]
    for attr in ("inst", "key", "round", "view", "slot", "kind"):
        val = getattr(msg, attr, None)
        if val is not None:
            bits.append(f"{attr}={val}")
    return " ".join(bits)


class Simulation:
    """Drives a set of per-party engines over the simulated network.

    ``build_engine(party)`` constructs each reactor; the adversary may
    substitute or script the Byzantine ones.  ``measure`` maps a message
    to its encoded byte length (None skips byte accounting).
    """

    def __init__(
        self,
        n: int,
        build_engine: Callable[[int], Any],
        *,
        adversary: Optional[Adversary] = None,
        policy: Optional[DelayPolicy] = None,
        seed: int = 0,
        measure: Optional[Callable[[Any], int]] = None,
        record: bool = False,
        max_events: int = 2_000_000,
    ):
        self.n = n
        self.policy = policy or DelayPolicy.synchronized()
        self.adversary = adversary or Adversary()
        self.rng = random.Random(seed)
        self.measure = measure
        self.record = record
        self.max_events = max_events
        self.now: Time = 0
        self.metrics = Metrics(n=n, outputs={i: {} for i in range(n)})
        self.records: List[str] = []
        self._sha = hashlib.sha256()
        self._queue: list = []
        self._seq = 0
        self.engines: Dict[int, Any] = {}
        self.inputs: Dict[int, Any] = {}
        self.adversary.attach(self)
        for party in range(n):
            if party in self.adversary.byzantine:
                self.engines[party] = self.adversary.engine_for(party, build_engine)
            else:
                self.engines[party] = build_engine(party)

    # -- scheduling primitives

    def _push(self, time: Time, sender: int, receiver: int, item) -> None:
        self._seq += 1
        heapq.heappush(self._queue, (time, sender, receiver, self._seq, item))

    def schedule_input(self, party: int, value, at: Time = 0) -> None:
        self.inputs[party] = value
        self._push(at, party, party, ("input", value))

    def byz_send(self, sender: int, receiver: int, msg, delay: Optional[Time] = None) -> None:
        """Adversary-initiated message from a Byzantine party."""
        if sender not in self.adversary.byzantine:
            raise SimulationError("byz_send from an honest party")
        self._post(sender, receiver, msg, delay_override=delay)

    # -- message posting

    def _delivery_time(self, sender: int, receiver: int, override: Optional[Time]) -> Time:
        t = self.now
        d = override
        if d is None:
            d = self.adversary.pick_delay(self.rng, sender, receiver, t)
        if d is None:
            d = self.policy.link_delay(sender, receiver, t)
        if d <= 0:
            raise SimulationError("delays must be positive")
        deliver = t + d
        byz = self.adversary.byzantine
        if sender not in byz and receiver not in byz:
            bound = self.policy.deliver_bound(t)
            if bound is not None and deliver > bound:
                deliver = bound
        return deliver

    def _post(self, sender: int, receiver: int, msg, delay_override: Optional[Time] = None) -> None:
        deliver = self._delivery_time(sender, receiver, delay_override)
        nbytes = self.measure(msg) if self.measure else 0
        env = Envelope(self.now, deliver, sender, receiver, msg, nbytes)
        self.metrics.message_count += 1
        self.metrics.bytes_total += nbytes
        if type(innermost(msg)).__name__ in ("FetchReq", "FetchResp"):
            self.metrics.fetch_messages += 1
        self._trace(f"@{self.now} send {sender}->{receiver} {_summize(msg)} deliver@{deliver} b={nbytes}")
        self._push(deliver, sender, receiver, ("msg", env))

    def _dispatch_actions(self, party: int, actions) -> None:
        for act in actions:
            if isinstance(act, Broadcast):
                self._handle_send(party, act.msg, [p for p in range(self.n) if p != party])
            elif isinstance(act, Send):
                self._handle_send(party, act.msg, [act.dest])
            elif isinstance(act, Output):
                self._note_output(party, act)
            elif isinstance(act, StartTimer):
                self._trace(f"@{self.now} timer-set {party} {act.key} +{act.delay}")
                self._push(self.now + act.delay, party, party, ("timer", act.key))
            else:
                raise SimulationError(f"unknown action {act!r}")

    def _handle_send(self, party: int, msg, receivers) -> None:
        if party in self.adversary.byzantine:
            for dest, out, delay in self.adversary.on_send(party, msg, receivers):
                self._post(party, dest, out, delay_override=delay)
        else:
            for dest in receivers:
                self._post(party, dest, msg)

    def _note_output(self, party: int, act: Output) -> None:
        slot = self.metrics.outputs[party]
        if act.kind in slot:
            raise SimulationError(f"duplicate output {act.kind} from {party}")
        slot[act.kind] = (act.value, act.proof, self.now)
        self._trace(f"@{self.now} output {party} {act.kind}")

    def _trace(self, line: str) -> None:
        self._sha.update(line.encode())
        self._sha.update(b"\n")
        if self.record:
            self.records.append(line)

    # -- main loop

    def run(self, max_time: Optional[Time] = None) -> Metrics:
        steps = 0
        while self._queue:
            time, sender, receiver, _seq, item = self._queue[0]
            if max_time is not None and time > max_time:
                break
            heapq.heappop(self._queue)
            self.now = time
            resume = self.adversary.suspended_until(receiver, time)
            if resume is not None and resume > time:
                # Suspended parties neither send nor receive; buffered
                # deliveries resume at the window end.
                self._push(resume, sender, receiver, item)
                continue
            steps += 1
            if steps > self.max_events:
                raise SimulationError("event budget exceeded (runaway protocol?)")
            self._deliver(receiver, sender, item)
        self.metrics.end_time = self.now
        self.metrics.drops = sum(e.dropped for e in self.engines.values() if e is not None)
        self.metrics.transcript_sha = self._sha.hexdigest()
        return self.metrics

    def _deliver(self, party: int, sender: int, item) -> None:
        kind = item[0]
        engine = self.engines.get(party)
        if kind == "input":
            self._trace(f"@{self.now} input {party}")
            if party in self.adversary.byzantine:
                if not self.adversary.on_input(party, item[1]):
                    return
            if engine is not None:
                self._dispatch_actions(party, engine.on_input(item[1]))
            return
        if kind == "timer":
            self._trace(f"@{self.now} timer-fire {party} {item[1]}")
            if engine is not None:
                self._dispatch_actions(party, engine.on_timer(item[1]))
            return
        env: Envelope = item[1]
        self._trace(f"@{self.now} recv {env.receiver}<-{env.sender} {_summize(env.msg)}")
        if party in self.adversary.byzantine:
            if not self.adversary.on_deliver(party, env.sender, env.msg):
                return
        if engine is not None:
            self._dispatch_actions(party, engine.on_message(env.sender, env.msg))

    # -- convenience

    @property
    def honest(self) -> List[int]:
        return [p for p in range(self.n) if p not in self.adversary.byzantine]
