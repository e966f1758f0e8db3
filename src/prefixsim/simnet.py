"""Seeded deterministic discrete-event network simulator.

Virtual time is exact, never floats.  Each :class:`Simulation` counts it
in integer *ticks* of ``1/D`` time units, where ``D`` is the least common
multiple of the denominators of the policy's ``gst``, ``cap`` and
``default_delay``, of the adversary's :attr:`Adversary.grain` and, when
the policy has ``jitter``, of :data:`JITTER_GRAIN`.  The
clock, the event queue, delivery bounds and suspension windows are plain
ints; a delay, timer or resume time that is not a whole number of ticks
raises :class:`SimulationError` (it is never rounded).

An exact :data:`Time` is built only where a time leaves the simulator:
the ``t`` handed to :meth:`Adversary.pick_delay` and
:meth:`Adversary.suspended_until`, the output times in
:attr:`Metrics.outputs` and :attr:`Metrics.end_time`.  An edge time is an
``int`` when ``D == 1`` and a ``Fraction`` otherwise; either compares
equal to the same instant and renders as the same text (``7/2``, or ``3``
when whole).  The trace writes that text from the tick count, reduced by
their gcd and kept per run.  Those two hooks are called only when the
adversary's class overrides them, as each simulation decides once.

Each send, honest or Byzantine, is one fan-out loop over its receivers:
a message is summarized and sized once, then every receiver gets its
delay, trace line and queue entry.  The run loop delivers inline.

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
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import repeat
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from .actions import Broadcast, Drop, Output, Send, StartTimer
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


def _summize(msg) -> str:
    """``Name attr=value ...`` for the summary fields a message has that
    are not None (once per sent object, so no table of fields)."""
    bits = [type(msg).__name__]
    for attr in _SUMMARY_FIELDS:
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
        # A jitter draw is randint(JITTER_GRAIN, JITTER_GRAIN * jitter) units of
        # _jitter_tick ticks: JITTER_GRAIN plus randrange's draw below _jitter_width.
        self._jitter_width = JITTER_GRAIN * (self.policy.jitter - 1) + 1 if self.policy.jitter else 0
        self._jitter_tick = self.tick // JITTER_GRAIN
        # Each hook is called only if the adversary's class overrides it.
        cls = type(self.adversary)
        self._pick_delay = self.adversary.pick_delay if cls.pick_delay is not Adversary.pick_delay else None
        self._suspended_until = (
            self.adversary.suspended_until if cls.suspended_until is not Adversary.suspended_until else None)
        self._peers = [tuple(p for p in range(n) if p != party) for party in range(n)]
        self._labels: Dict[int, str] = {}
        self._now = 0
        self._now_label = self._label(0)
        self.metrics = Metrics(n=n, outputs={i: {} for i in range(n)})
        self.records: List[str] = []
        self._lines: List[str] = []  # trace lines not yet hashed; hashed 256 at a time
        self._sha = hashlib.sha256()
        self._queue: list = []
        self._seq = 0
        self.adversary.attach(self)
        self.engines: Dict[int, Any] = {p: self.adversary.engine_for(p, build_engine) if p in self.adversary.byzantine
                                        else build_engine(p) for p in range(n)}

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

    def _time(self, ticks: int) -> Time:
        """The exact time of a tick count, for the simulator's edges."""
        return ticks if self.tick == 1 else Fraction(ticks, self.tick)

    def _label(self, ticks: int) -> str:
        """The trace text of a tick count (``str`` of its exact time), kept
        in ``_labels``, where callers look first."""
        g = math.gcd(ticks, self.tick)
        label = self._labels[ticks] = str(ticks // g) if g == self.tick else f"{ticks // g}/{self.tick // g}"
        return label

    # -- scheduling

    def _push(self, ticks: int, sender: int, receiver: int, item) -> None:
        self._seq += 1
        heapq.heappush(self._queue, (ticks, sender, receiver, self._seq, item))

    def schedule_input(self, party: int, value, at: Time = 0) -> None:
        self._push(self._ticks(at), party, party, ("input", value, ""))

    def byz_send(self, sender: int, receiver: int, msg) -> None:
        """Adversary-initiated message from a Byzantine party."""
        if sender not in self.adversary.byzantine:
            raise SimulationError("byz_send from an honest party")
        self._send(sender, ((receiver, msg, None),))

    def _send(self, sender: int, sends) -> None:
        """Post every ``(receiver, message, delay override)`` of one send.

        A message is summarized, sized and classed as fetch traffic once
        per distinct object, not once per receiver.  A delay is the
        override, else the adversary's pick, else a jitter draw, else the
        policy default; after GST the cap bounds honest links."""
        now, byz, queue, metrics = self._now, self.adversary.byzantine, self._queue, self.metrics
        pick, measure, labels, write = self._pick_delay, self.measure, self._labels, self._lines.append
        width, getrandbits, bits = self._jitter_width, self.rng.getrandbits, self._jitter_width.bit_length()
        bound = None
        if self._gst is not None and sender not in byz:
            bound = (now if now >= self._gst else self._gst) + self._cap
        head = f"@{self._now_label} send {sender}->"
        last = None
        for dest, msg, delay in sends:
            if msg is not last:
                last = msg
                summary = _summize(msg)
                nbytes = measure(msg) if measure else 0
                fetch = type(innermost(msg)).__name__ in ("FetchReq", "FetchResp")
                middle, tail = f" {summary} deliver@", f" b={nbytes}"
                item = ("recv", msg, f"<-{sender} {summary}")
            if delay is None and pick is not None:
                delay = pick(self.rng, sender, dest, self._time(now))
            if delay is not None:
                d = self._ticks(delay)
            elif width:
                r = getrandbits(bits)
                while r >= width:
                    r = getrandbits(bits)
                d = (JITTER_GRAIN + r) * self._jitter_tick
            else:
                d = self._default_delay
            if d <= 0:
                raise SimulationError("delays must be positive")
            deliver = now + d
            if bound is not None and deliver > bound and dest not in byz:
                deliver = bound
            metrics.message_count += 1
            metrics.bytes_total += nbytes
            metrics.fetch_messages += fetch
            write(f"{head}{dest}{middle}{labels.get(deliver) or self._label(deliver)}{tail}")
            self._seq += 1
            heapq.heappush(queue, (deliver, sender, dest, self._seq, item))

    def _flush(self) -> None:
        """Hash (and, when recording, keep) the trace lines written so far."""
        lines = self._lines
        if lines:
            self._sha.update(("\n".join(lines) + "\n").encode())
            if self.record:
                self.records += lines
            lines.clear()

    # -- main loop

    def run(self) -> Metrics:
        queue, engines, labels, lines = self._queue, self.engines, self._labels, self._lines
        adversary, outputs = self.adversary, self.metrics.outputs
        byz, suspended_until = adversary.byzantine, self._suspended_until
        now, label = self._now, self._now_label
        steps = 0
        while queue:
            ticks, sender, party, _seq, (kind, arg, tail) = heapq.heappop(queue)
            if ticks != now:
                now = self._now = ticks
                label = self._now_label = labels.get(ticks) or self._label(ticks)
            if suspended_until is not None:
                resume = suspended_until(party, self._time(ticks))
                if resume is not None and (resume := self._ticks(resume)) > ticks:
                    # Suspended parties neither send nor receive; buffered
                    # deliveries resume at the window end.
                    self._push(resume, sender, party, (kind, arg, tail))
                    continue
            steps += 1
            if steps > self.max_events:
                raise SimulationError("event budget exceeded (runaway protocol?)")
            lines.append(f"@{label} {kind} {party}{tail}")
            engine = engines.get(party)
            if kind == "recv":
                if party in byz and not adversary.on_deliver(party, sender, arg):
                    continue
                actions = () if engine is None else engine.on_message(sender, arg)
            elif kind == "input":
                actions = () if engine is None else engine.on_input(arg)
            else:
                actions = () if engine is None else engine.on_timer(arg)
            for act in actions:
                if isinstance(act, (Broadcast, Send)):
                    receivers = self._peers[party] if isinstance(act, Broadcast) else (act.dest,)
                    if party in byz:
                        self._send(party, adversary.on_send(party, act.msg, receivers))
                    else:
                        self._send(party, zip(receivers, repeat(act.msg), repeat(None)))
                elif isinstance(act, Output):
                    if act.kind in outputs[party]:
                        raise SimulationError(f"duplicate output {act.kind} from {party}")
                    outputs[party][act.kind] = (act.value, act.proof, self._time(now))
                    lines.append(f"@{label} output {party} {act.kind}")
                elif isinstance(act, StartTimer):
                    lines.append(f"@{label} timer-set {party} {act.key} +{act.delay}")
                    self._push(now + self._ticks(act.delay), party, party, ("timer-fire", act.key, f" {act.key}"))
                elif isinstance(act, Drop):
                    self.metrics.drops += 1  # counted, never traced
                else:
                    raise SimulationError(f"unknown action {act!r}")
            if len(lines) >= 256:
                self._flush()
        self._flush()
        self.metrics.end_time = self._time(now)
        self.metrics.transcript_sha = self._sha.hexdigest()
        return self.metrics

    # -- convenience

    @property
    def honest(self) -> List[int]:
        return [p for p in range(self.n) if p not in self.adversary.byzantine]
