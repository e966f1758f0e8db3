"""Action records emitted by protocol engines.

Engines are deterministic reactors: one input event in, a list of actions
out.  The simulator (or a test driver) interprets the actions; engines
never touch clocks or sockets themselves.  There are five kinds:
:class:`Broadcast` and :class:`Send` post a message, :class:`Output`
reports a result, :class:`StartTimer` asks for a later timer event, and
:class:`Drop` says that the event was rejected.  The simulator counts
each ``Drop`` in ``Metrics.drops`` and writes no trace line for it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any


@dataclass
class Broadcast:
    msg: Any


@dataclass
class Send:
    dest: int
    msg: Any


@dataclass
class Output:
    kind: str  # "low" | "high" | "opt" | protocol-specific
    value: Any
    proof: Any = None


@dataclass
class StartTimer:
    key: tuple
    delay: Any


@dataclass(frozen=True)
class Drop:
    """A rejected event: a malformed, invalid or misaddressed message."""


DROP = Drop()
