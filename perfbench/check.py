"""Output check for benchmark runs.

A run's behaviour fingerprint covers what a user of the simulator sees:
every honest output (party, kind, virtual time, digest of the value),
``message_count``, ``fetch_messages``, ``bytes_total`` and ``end_time``.
Proofs are left out, because they are certificates whose shape a refactor
may change while the outputs stay the same.  ``transcript_sha`` and
``drops`` are left out too: renaming envelopes or counting drops by reason
changes them without changing behaviour.  They are reported for
information only.

Values are rendered with ``repr``, which is stable across processes and
hash seeds for the tuples, bytes, ints and Fractions the engines output.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Dict, List, Optional

EXPECTED_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected.json")


def fingerprint(result) -> str:
    m = result.metrics
    h = hashlib.sha256()
    for party in result.honest:
        for kind, (value, _proof, t) in sorted(m.outputs[party].items()):
            value_digest = hashlib.sha256(repr(value).encode()).hexdigest()[:16]
            h.update(f"{party}|{kind}|{t}|{value_digest}\n".encode())
    h.update(f"msgs={m.message_count}|fetch={m.fetch_messages}|"
             f"bytes={m.bytes_total}|end={m.end_time}".encode())
    return h.hexdigest()[:16]


def combined(fingerprints: List[str]) -> str:
    return hashlib.sha256("\n".join(fingerprints).encode()).hexdigest()[:16]


def failure(result, got: str, expected: Optional[str] = None) -> Optional[str]:
    """Why a finished run with fingerprint ``got`` counts as failed, or
    None.  ``expected`` is the recorded fingerprint of the same scenario,
    when one is known."""
    if result.violations:
        return f"violation: {result.violations[0]}"
    if expected is not None and got != expected:
        return f"fingerprint {got} != expected {expected}"
    return None


def load_expected() -> Dict[str, dict]:
    """Recorded default-seed fingerprints, by workload."""
    with open(EXPECTED_PATH, "r", encoding="utf-8") as fh:
        return json.load(fh)["workloads"]


def save_expected(doc: dict) -> None:
    with open(EXPECTED_PATH, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
