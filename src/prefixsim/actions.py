"""Action records emitted by protocol engines.

Engines are deterministic reactors: one input event in, a list of actions
out.  The simulator (or a test driver) interprets the actions; engines
never touch clocks or sockets themselves.
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
