"""Sub-instances: one envelope and one host helper for every nesting.

Strong agreement runs one prefix-consensus instance per view, multi-slot
replication one strong-agreement instance per slot, and the reverse
graded reduction one graded instance per coordinate.  Each host wraps a
child's outgoing messages in a :class:`Nested` envelope naming the
host's instance and the child's integer key, and a :class:`Host` routes
incoming envelopes back to the child for that key.
"""

from __future__ import annotations

import types
import weakref
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional

from . import wire
from .actions import DROP, Broadcast, Drop, Output, Send, StartTimer


@wire.register(5)
@dataclass(frozen=True)
class Nested:
    """A child instance's message inside its host's instance."""

    inst: tuple
    key: int
    inner: object


def innermost(msg):
    """The protocol message inside any number of envelopes."""
    while isinstance(msg, Nested):
        msg = msg.inner
    return msg


def rewrap(msg, new_inner):
    """``msg`` with its innermost message replaced by ``new_inner``."""
    if isinstance(msg, Nested):
        return Nested(msg.inst, msg.key, rewrap(msg.inner, new_inner))
    return new_inner


def _weak(callback: Callable) -> Callable[[], Callable]:
    """A getter for ``callback`` that keeps a bound method's owner alive
    only through its other references."""
    if isinstance(callback, types.MethodType):
        return weakref.WeakMethod(callback)
    return lambda: callback


class Host:
    """Child engines keyed by ints ``first <= key < stop`` (no upper
    bound when ``stop`` is None).

    Without ``buffer`` a child is built by ``build(key)`` on first
    contact.  With it the host starts each key itself (:meth:`start`);
    traffic for a key not started yet waits when ``buffer(key)`` holds
    and is ignored otherwise.  Child outputs go to ``on_output(key,
    output)``, which returns the host's actions; a child's drops pass up
    unchanged, and a malformed envelope is a drop of the host's own.

    The callbacks are usually methods of the engine that owns this host.
    A host holds them weakly (``weakref.WeakMethod``), so owner and host
    form no reference cycle and a finished run is freed by reference
    counting, not by the cyclic collector.  A callback must therefore
    not be a closure over its owner: make it a method.
    """

    def __init__(
        self,
        inst: tuple,
        build: Callable[[int], Any],
        on_output: Callable[[int, Output], list],
        first: int = 0,
        stop: Optional[int] = None,
        buffer: Optional[Callable[[int], bool]] = None,
    ):
        self.inst = inst
        self.build = _weak(build)
        self.on_output = _weak(on_output)
        self.first = first
        self.stop = stop
        self.buffer = None if buffer is None else _weak(buffer)
        self.children: Dict[int, Any] = {}
        self.waiting: Dict[int, list] = {}

    def key_of(self, msg) -> Optional[int]:
        """The key a well-formed envelope addresses; None for anything else."""
        if isinstance(msg, Nested) and msg.inst == self.inst and isinstance(msg.key, int):
            if msg.key >= self.first and (self.stop is None or msg.key < self.stop):
                return msg.key
        return None

    def route(self, sender: int, msg) -> list:
        key = self.key_of(msg)
        return [DROP] if key is None else self.deliver(key, sender, msg.inner)

    def deliver(self, key: int, sender: int, inner) -> list:
        child = self.children.get(key)
        if child is None:
            if self.buffer is not None:
                if self.buffer()(key):
                    self.waiting.setdefault(key, []).append((sender, inner))
                return []
            child = self.children[key] = self.build()(key)
        return self.wrap(key, child.on_message(sender, inner))

    def start(self, key: int, value) -> list:
        """Give the child for ``key`` its input, then any traffic that
        raced ahead of it."""
        child = self.children.get(key)
        if child is None:
            child = self.children[key] = self.build()(key)
        actions = self.wrap(key, child.on_input(value))
        for sender, inner in self.waiting.pop(key, []):
            actions.extend(self.deliver(key, sender, inner))
        return actions

    def on_timer(self, key: tuple) -> list:
        """Fire a timer set by :meth:`wrap` (keys ``("sub", key, ...)``)."""
        child = self.children.get(key[1]) if key[0] == "sub" else None
        return [] if child is None else self.wrap(key[1], child.on_timer(key[2:]))

    def wrap(self, key: int, actions: list) -> list:
        out: list = []
        for act in actions:
            if isinstance(act, Broadcast):
                out.append(Broadcast(Nested(self.inst, key, act.msg)))
            elif isinstance(act, Send):
                out.append(Send(act.dest, Nested(self.inst, key, act.msg)))
            elif isinstance(act, StartTimer):
                out.append(StartTimer(("sub", key) + act.key, act.delay))
            elif isinstance(act, Drop):
                out.append(act)
            else:
                out.extend(self.on_output()(key, act))
        return out
