"""Primitives derived from the consensus family.

* Graded consensus maps one length-one consistent-prefix instance onto
  the classic (value, grade) interface, and back: running one graded
  instance per coordinate reconstructs a consistent-prefix instance.
* Binary consensus runs the strong layer on a single-bit vector and
  decides from the agreed output.
* Validated consensus disseminates inputs, runs the strong layer on the
  collected vector, and decides the first entry passing the validity
  predicate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from . import wire
from .actions import Broadcast, Output, StartTimer
from .crypto import Scheme
from .nest import Host
from .pc import PcConfig, PcEngine, Variant
from .prefixes import Vector
from .spc import SpcConfig, SpcEngine


def graded_from_pc(low: Vector, high: Vector) -> Tuple[Optional[bytes], int]:
    """Map a length-<=1 consistent-prefix output pair to (value, grade)."""
    if len(low) > 1 or len(high) > 1:
        raise ValueError("graded mapping requires length-<=1 outputs")
    if len(high) == 0:
        return None, 0
    if len(low) == 0:
        return high[0], 1
    return low[0], 2


def pc_from_graded(pairs: List[Tuple[Optional[bytes], int]]) -> Tuple[Vector, Vector]:
    """Rebuild (low, high) from per-coordinate graded outputs: low is the
    longest all-grade-2 prefix, high the longest all-grade->=1 prefix."""
    low: list = []
    high: list = []
    for value, grade in pairs:
        if grade < 1:
            break
        high.append(value)
        if grade == 2 and len(low) == len(high) - 1:
            low.append(value)
    return tuple(low[: len(high)]), tuple(high)


@wire.register(51)
@dataclass(frozen=True)
class ValInput:
    inst: tuple
    payload: bytes


class GradedEngine:
    """Graded consensus backed by one length-one prefix instance."""

    def __init__(self, n: int, f: int, party: int, scheme: Scheme, instance: tuple = ("graded",)):
        self.cfg = PcConfig(n, f, 1, Variant.THREE_ROUND, instance)
        self.inner = PcEngine(self.cfg, party, scheme)
        self.decided = False

    def on_input(self, value: bytes) -> list:
        return self._relay(self.inner.on_input((value,)))

    def on_message(self, sender: int, msg) -> list:
        return self._relay(self.inner.on_message(sender, msg))

    def _relay(self, actions: list) -> list:
        out: list = []
        for act in actions:
            if isinstance(act, Output):
                if self.inner.done and not self.decided:
                    self.decided = True
                    low, _ = self.inner.outputs["low"]
                    high, _ = self.inner.outputs["high"]
                    out.append(Output("graded", graded_from_pc(low, high)))
            else:
                out.append(act)
        return out


class PcFromGradedEngine:
    """Consistent prefix consensus rebuilt from L parallel graded lanes."""

    def __init__(self, n: int, f: int, L: int, party: int, scheme: Scheme):
        self.L = L
        self.lanes = Host(
            ("pcg",),
            lambda k: GradedEngine(n, f, party, scheme, ("pcg", "lane", k)),
            self._lane_output,
            stop=L,
        )
        self.results: Dict[int, Tuple[Optional[bytes], int]] = {}
        self.emitted = False

    def on_input(self, value: Vector) -> list:
        if len(value) != self.L:
            raise ValueError("input length mismatch")
        actions: list = []
        for lane, elem in enumerate(value):
            actions.extend(self.lanes.start(lane, elem))
        return actions

    def on_message(self, sender: int, msg) -> list:
        return self.lanes.route(sender, msg)

    def _lane_output(self, lane: int, out: Output) -> list:
        self.results[lane] = out.value
        if len(self.results) < self.L or self.emitted:
            return []
        self.emitted = True
        low, high = pc_from_graded([self.results[k] for k in range(self.L)])
        return [Output("low", low), Output("high", high)]


class _Decider:
    """Relays a strong-layer engine's actions and adds one decision,
    mapped from its first high output by :meth:`_decision`."""

    decided = False

    def _decision(self, high: Vector) -> Output:
        raise NotImplementedError

    def _relay(self, actions: list) -> list:
        out: list = []
        for act in actions:
            out.append(act)
            if isinstance(act, Output) and act.kind == "high" and not self.decided:
                self.decided = True
                out.append(self._decision(act.value))
        return out


class BinaryEngine(_Decider):
    """Binary consensus: the strong layer on a one-bit vector."""

    def __init__(self, n: int, f: int, delta_cap, party: int, scheme: Scheme):
        self.inner = SpcEngine(SpcConfig(n, f, 1, delta_cap, ("binary",)), party, scheme)

    def on_input(self, bit: int) -> list:
        return self._relay(self.inner.on_input((bytes([bit]),)))

    def on_message(self, sender: int, msg) -> list:
        return self._relay(self.inner.on_message(sender, msg))

    def on_timer(self, key: tuple) -> list:
        return self._relay(self.inner.on_timer(key))

    def _decision(self, high: Vector) -> Output:
        return Output("decision", high[0][0] if len(high) == 1 else 0)


#: Placeholder for an input that never arrived; validated payloads are
#: required to be non-empty, so the empty string cannot collide.
ABSENT = b""


class ValidatedEngine(_Decider):
    """Validated consensus: disseminate inputs, agree on the collected
    vector, decide the first entry the predicate accepts."""

    instance = ("validated",)

    def __init__(
        self,
        n: int,
        f: int,
        delta_cap,
        party: int,
        scheme: Scheme,
        validator: Optional[Callable[[bytes], bool]] = None,
    ):
        self.n = n
        self.party = party
        self.validator = validator or (lambda payload: len(payload) > 0)
        self.inner = SpcEngine(SpcConfig(n, f, n, delta_cap, self.instance + ("spc",)), party, scheme)
        self.delta_cap = delta_cap
        self.buffer: Dict[int, bytes] = {}
        self.started = False

    def on_input(self, payload: bytes) -> list:
        if not self.validator(payload):
            raise ValueError("own input fails the validity predicate")
        msg = ValInput(self.instance, payload)
        actions = [Broadcast(msg), StartTimer(("collect",), 2 * self.delta_cap)]
        actions.extend(self._handle_input_msg(self.party, msg))
        return actions

    def on_timer(self, key: tuple) -> list:
        if key == ("collect",):
            return self._start_spc()
        return self._relay(self.inner.on_timer(key))

    def on_message(self, sender: int, msg) -> list:
        if isinstance(msg, ValInput):
            return self._handle_input_msg(sender, msg)
        return self._relay(self.inner.on_message(sender, msg))

    def _handle_input_msg(self, sender: int, msg: ValInput) -> list:
        if msg.inst != self.instance or not isinstance(msg.payload, bytes):
            return []
        if not self.validator(msg.payload):
            return []
        self.buffer.setdefault(sender, msg.payload)
        if len(self.buffer) == self.n and not self.started:
            return self._start_spc()
        return []

    def _start_spc(self) -> list:
        if self.started:
            return []
        self.started = True
        vec = tuple(self.buffer.get(p, ABSENT) for p in range(self.n))
        return self._relay(self.inner.on_input(vec))

    def _decision(self, high: Vector) -> Output:
        chosen = next((entry for entry in high if entry != ABSENT and self.validator(entry)), None)
        return Output("undecided", True) if chosen is None else Output("decision", chosen)
