"""Seeded deterministic discrete-event network simulator.

Virtual time is exact, never floats.  Each :class:`Simulation` counts it
in integer *ticks* of ``1/D`` time units, where ``D`` is the least common
multiple of the denominators of the policy's ``gst``, ``cap`` and
``default_delay``, of the adversary's :attr:`Adversary.grain` and, when
the policy has ``jitter``, of :data:`JITTER_GRAIN`.  The
clock, the event queue, delivery bounds and suspension windows are plain
ints; a delay, timer or resume time that is not a whole number of ticks
raises :class:`SimulationError` (it is never rounded).

Times leave the simulator as exact :data:`Time` only at its edges: the
``t`` handed to :meth:`Adversary.pick_delay` and
:meth:`Adversary.suspended_until`, the output times in
:attr:`Metrics.outputs` and :attr:`Metrics.end_time`.  An edge time is an
``int`` when ``D == 1`` and a ``Fraction`` otherwise; either compares
equal to the same instant and renders as the same text (``7/2``, or ``3``
when whole), which is also how the trace writes times.

The event queue is ordered by ``(time, sender, receiver, sequence)``;
identical (scenario, seed) pairs replay bit-identically.  Partial
synchrony is a :class:`DelayPolicy`: honest-to-honest messages are
delivered by ``max(send, gst) + cap``, pre-GST delays are
adversary-controlled but finite, and the policy's ``jitter`` draws a
random delay for every link the adversary leaves alone (the schedule
fuzzer).  Byzantine behaviour enters only through an
:class:`Adversary`'s hooks; strategies can replace, omit, duplicate or
delay the messages of Byzantine parties and may suspend one party per
round, but they never hold honest keys.
"""

from __future__ import annotations

import hashlib
import heapq
import math
import random
import weakref
from dataclasses import dataclass, field, fields, is_dataclass
from fractions import Fraction
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from .actions import Broadcast, Output, Send, StartTimer
from .nest import innermost

Time = Union[int, Fraction]

#: Jitter delays are whole multiples of ``1/JITTER_GRAIN``.
JITTER_GRAIN = 16


class SimulationError(Exception):
    pass


def denominator(t: Time) -> int:
    """The denominator of an exact time (1 for an int)."""
    if isinstance(t, int):
        return 1
    if isinstance(t, Fraction):
        return t.denominator
    raise SimulationError(f"virtual time must be an int or a Fraction, not {type(t).__name__}")


@dataclass
class DelayPolicy:
    """Per-link delivery policy under partial synchrony.

    ``gst=None`` models a fully asynchronous run: no delivery bound, only
    finiteness.  ``default_delay`` is the link delay when the adversary
    picks none; the adversary may override any link, subject to the
    post-GST cap on honest traffic.  With ``jitter`` set, a link the
    adversary leaves alone takes a delay drawn from ``[1, jitter]`` in
    steps of ``1/JITTER_GRAIN`` instead, before and after GST, which
    randomizes delivery order; the cap still cuts a long draw short on
    an honest link after GST.
    """

    gst: Optional[Time] = 0
    cap: Time = 1
    default_delay: Time = 1
    jitter: Optional[int] = None

    @classmethod
    def synchronized(cls, delta: Time = 1) -> "DelayPolicy":
        """Every message takes exactly ``delta``; GST has already passed."""
        return cls(gst=0, cap=delta, default_delay=delta)


class Adversary:
    """Honest baseline strategy: no Byzantine parties, no interference."""

    #: Denominator of every time this adversary hands the simulator
    #: (delays, overrides, resume times); it sets the tick size.
    grain = 1

    def __init__(self, byzantine=()):
        self.byzantine = frozenset(byzantine)
        self.sim: "Simulation" = None  # set at attach

    def attach(self, sim: "Simulation") -> None:
        """Bind to the simulation that runs this adversary.  The
        simulation holds its adversary, so ``sim`` is kept as a weak
        proxy: the two form no reference cycle, and a finished run is
        freed by reference counting, not by the cyclic collector."""
        self.sim = weakref.proxy(sim)

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


_SUMMARY_FIELDS = ("inst", "key", "round", "view", "slot", "kind")
_summary_attrs: Dict[type, Tuple[str, ...]] = {}


def _summize(msg) -> str:
    """``Name attr=value ...`` for the summary fields a message has that
    are not None."""
    cls = type(msg)
    attrs = _summary_attrs.get(cls)
    if attrs is None:
        if is_dataclass(cls):
            names = {f.name for f in fields(cls)}
            attrs = tuple(a for a in _SUMMARY_FIELDS if a in names or hasattr(cls, a))
        else:
            attrs = _SUMMARY_FIELDS
        _summary_attrs[cls] = attrs
    bits = [cls.__name__]
    for attr in attrs:
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
        gst = self.policy.gst
        #: Ticks per time unit.
        self.tick = math.lcm(
            1 if gst is None else denominator(gst),
            denominator(self.policy.cap),
            denominator(self.policy.default_delay),
            self.adversary.grain,
            JITTER_GRAIN if self.policy.jitter else 1,
        )
        self._gst = None if gst is None else self._ticks(gst)
        self._cap = self._ticks(self.policy.cap)
        self._default_delay = self._ticks(self.policy.default_delay)
        # A jitter draw counts 1/JITTER_GRAIN units up to this bound (0:
        # no jitter); each unit is _jitter_tick ticks.
        self._jitter = JITTER_GRAIN * (self.policy.jitter or 0)
        self._jitter_tick = self.tick // JITTER_GRAIN
        self._times: Dict[int, Tuple[Time, str]] = {}
        self._now = 0
        self._t, self._text = self._at(0)
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

    # -- virtual time

    def _ticks(self, t: Time) -> int:
        """An exact time as a tick count."""
        if type(t) is int:
            return t * self.tick
        whole, rest = divmod(self.tick, denominator(t))
        if rest:
            raise SimulationError(
                f"time {t} is not a multiple of the tick 1/{self.tick}; "
                "declare its denominator in Adversary.grain"
            )
        return t.numerator * whole

    def _at(self, ticks: int) -> Tuple[Time, str]:
        """The exact time of a tick count and its trace text."""
        entry = self._times.get(ticks)
        if entry is None:
            t = ticks if self.tick == 1 else Fraction(ticks, self.tick)
            entry = self._times[ticks] = (t, str(t))
        return entry

    # -- scheduling primitives

    def _push(self, ticks: int, sender: int, receiver: int, item) -> None:
        self._seq += 1
        heapq.heappush(self._queue, (ticks, sender, receiver, self._seq, item))

    def schedule_input(self, party: int, value, at: Time = 0) -> None:
        self.inputs[party] = value
        self._push(self._ticks(at), party, party, ("input", value))

    def byz_send(self, sender: int, receiver: int, msg, delay: Optional[Time] = None) -> None:
        """Adversary-initiated message from a Byzantine party."""
        if sender not in self.adversary.byzantine:
            raise SimulationError("byz_send from an honest party")
        self._post(sender, receiver, msg, self._describe(msg), delay)

    # -- message posting

    def _delivery_time(self, sender: int, receiver: int, override: Optional[Time]) -> int:
        d = override
        if d is None:
            d = self.adversary.pick_delay(self.rng, sender, receiver, self._t)
        if d is not None:
            d = self._ticks(d)
        elif self._jitter:
            d = self.rng.randint(JITTER_GRAIN, self._jitter) * self._jitter_tick
        else:
            d = self._default_delay
        if d <= 0:
            raise SimulationError("delays must be positive")
        now = self._now
        deliver = now + d
        byz = self.adversary.byzantine
        if self._gst is not None and sender not in byz and receiver not in byz:
            bound = (now if now >= self._gst else self._gst) + self._cap
            if deliver > bound:
                deliver = bound
        return deliver

    def _describe(self, msg) -> Tuple[str, int, bool]:
        """What the trace and the counters need of a message: its
        summary, its byte size and whether it is fetch traffic."""
        nbytes = self.measure(msg) if self.measure else 0
        fetch = type(innermost(msg)).__name__ in ("FetchReq", "FetchResp")
        return _summize(msg), nbytes, fetch

    def _post(self, sender: int, receiver: int, msg, described, delay_override: Optional[Time] = None) -> None:
        summary, nbytes, fetch = described
        deliver = self._delivery_time(sender, receiver, delay_override)
        metrics = self.metrics
        metrics.message_count += 1
        metrics.bytes_total += nbytes
        if fetch:
            metrics.fetch_messages += 1
        self._trace(
            f"@{self._text} send {sender}->{receiver} {summary} deliver@{self._at(deliver)[1]} b={nbytes}"
        )
        self._push(deliver, sender, receiver, ("msg", msg, summary))

    def _dispatch_actions(self, party: int, actions) -> None:
        for act in actions:
            if isinstance(act, Broadcast):
                self._handle_send(party, act.msg, [p for p in range(self.n) if p != party])
            elif isinstance(act, Send):
                self._handle_send(party, act.msg, [act.dest])
            elif isinstance(act, Output):
                self._note_output(party, act)
            elif isinstance(act, StartTimer):
                self._trace(f"@{self._text} timer-set {party} {act.key} +{act.delay}")
                self._push(self._now + self._ticks(act.delay), party, party, ("timer", act.key))
            else:
                raise SimulationError(f"unknown action {act!r}")

    def _handle_send(self, party: int, msg, receivers) -> None:
        if party in self.adversary.byzantine:
            last = described = None
            for dest, out, delay in self.adversary.on_send(party, msg, receivers):
                if out is not last:
                    last, described = out, self._describe(out)
                self._post(party, dest, out, described, delay)
        else:
            described = self._describe(msg)
            for dest in receivers:
                self._post(party, dest, msg, described)

    def _note_output(self, party: int, act: Output) -> None:
        slot = self.metrics.outputs[party]
        if act.kind in slot:
            raise SimulationError(f"duplicate output {act.kind} from {party}")
        slot[act.kind] = (act.value, act.proof, self._t)
        self._trace(f"@{self._text} output {party} {act.kind}")

    def _trace(self, line: str) -> None:
        self._sha.update((line + "\n").encode())
        if self.record:
            self.records.append(line)

    # -- main loop

    def run(self) -> Metrics:
        queue = self._queue
        suspended_until = self.adversary.suspended_until
        steps = 0
        while queue:
            ticks, sender, receiver, _seq, item = heapq.heappop(queue)
            if ticks != self._now:
                self._now = ticks
                self._t, self._text = self._at(ticks)
            resume = suspended_until(receiver, self._t)
            if resume is not None:
                resume = self._ticks(resume)
                if resume > ticks:
                    # Suspended parties neither send nor receive; buffered
                    # deliveries resume at the window end.
                    self._push(resume, sender, receiver, item)
                    continue
            steps += 1
            if steps > self.max_events:
                raise SimulationError("event budget exceeded (runaway protocol?)")
            self._deliver(receiver, sender, item)
        self.metrics.end_time = self._t
        self.metrics.drops = sum(e.dropped for e in self.engines.values() if e is not None)
        self.metrics.transcript_sha = self._sha.hexdigest()
        return self.metrics

    def _deliver(self, party: int, sender: int, item) -> None:
        kind = item[0]
        engine = self.engines.get(party)
        if kind == "msg":
            _, msg, summary = item
            self._trace(f"@{self._text} recv {party}<-{sender} {summary}")
            if party in self.adversary.byzantine:
                if not self.adversary.on_deliver(party, sender, msg):
                    return
            if engine is not None:
                self._dispatch_actions(party, engine.on_message(sender, msg))
            return
        if kind == "input":
            self._trace(f"@{self._text} input {party}")
            if party in self.adversary.byzantine:
                if not self.adversary.on_input(party, item[1]):
                    return
            if engine is not None:
                self._dispatch_actions(party, engine.on_input(item[1]))
            return
        self._trace(f"@{self._text} timer-fire {party} {item[1]}")
        if engine is not None:
            self._dispatch_actions(party, engine.on_timer(item[1]))

    # -- convenience

    @property
    def honest(self) -> List[int]:
        return [p for p in range(self.n) if p not in self.adversary.byzantine]
