"""Seeded workload generators for the prefixsim benchmark.

A workload is a deterministic function of ``(name, seed)``; the program
receives only the generated scenario dicts, through
``prefixsim.scenario.run_scenario``.

The sweep strata and their weights mirror the criterion-4 safety sweep of
the acceptance suite (the catalogue plus the fuzzed schedules).  They are
copied here on purpose: the benchmark imports nothing from the tests, so
the figures stay comparable when the tests move.  Strata that criterion 4
does not run (``graded``, ``binary``, ``validated``) carry small weights
of their own and ``crit4=False``.

Strata are interleaved by smooth weighted round robin, so every prefix of
a sweep holds each stratum in close to its weighted share whatever the
seed; the seed picks the scenario seeds, hence the inputs and the fuzzed
schedules.  This keeps the mix, and with it the per-run cost
distribution, the same from one seed to the next.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator, List, Tuple

DEFAULT_SEED = 1

BASE = {"version": 1, "gst": 0, "delta": 1, "delta_cap": 1,
        "inputs": {"kind": "random", "alphabet": 3}, "adversary": {"kind": "none"}}
ASYNC = {**BASE, "gst": None}
PSYNC = {**BASE, "gst": 12, "delta_cap": 2}
FUZZ = {"kind": "fuzz", "stretch": 5}


@dataclass(frozen=True)
class Stratum:
    weight: int  # criterion-4 run count, or the stratum's own weight
    template: dict
    crit4: bool = True

    @property
    def case(self) -> str:
        return case_name(self.template)


def case_name(scn: dict) -> str:
    return f"{scn['protocol']}.n{scn['n']}"


def _pc(protocol: str, n: int, f: int, adversary: dict) -> dict:
    return {**ASYNC, "protocol": protocol, "n": n, "f": f, "L": n, "adversary": adversary}


def _psync(protocol: str, n: int, f: int, adversary: dict, **extra) -> dict:
    return {**PSYNC, "protocol": protocol, "n": n, "f": f, "adversary": adversary, **extra}


def _jit(kind: str, jitter: int, **spec) -> dict:
    return {"kind": kind, "jitter": jitter, **spec}


SWEEP_PC: Tuple[Stratum, ...] = (
    Stratum(110, _pc("pc3", 4, 1, _jit("silent", 5, byzantine=[3]))),
    Stratum(110, _pc("pc3", 4, 1, _jit("equivocate", 5, byzantine=[3]))),
    Stratum(4500, _pc("pc3", 4, 1, FUZZ)),
    Stratum(40, _pc("pc3", 7, 2, _jit("silent", 5, byzantine=[5, 6]))),
    Stratum(40, _pc("pc3", 7, 2, _jit("equivocate", 5, byzantine=[6]))),
    Stratum(1200, _pc("pc3", 7, 2, FUZZ)),
    Stratum(110, _pc("pc_opt", 4, 1, _jit("silent", 5, byzantine=[3]))),
    Stratum(110, _pc("pc_opt", 4, 1, _jit("equivocate", 5, byzantine=[3]))),
    Stratum(1500, _pc("pc_opt", 4, 1, FUZZ)),
    Stratum(80, _pc("pc_5f1", 6, 1, _jit("silent", 5, byzantine=[5]))),
    Stratum(800, _pc("pc_5f1", 6, 1, FUZZ)),
    # Criterion 9's adversarial graded runs, 60 split over three adversaries.
    Stratum(20, {**ASYNC, "protocol": "graded", "n": 4, "f": 1, "adversary": FUZZ,
                 "inputs": {"kind": "random", "alphabet": 2}}, crit4=False),
    Stratum(20, {**ASYNC, "protocol": "graded", "n": 4, "f": 1,
                 "adversary": _jit("silent", 5, byzantine=[3]),
                 "inputs": {"kind": "random", "alphabet": 2}}, crit4=False),
    Stratum(20, {**ASYNC, "protocol": "graded", "n": 4, "f": 1,
                 "adversary": _jit("equivocate", 5, byzantine=[3]),
                 "inputs": {"kind": "random", "alphabet": 2}}, crit4=False),
)

_LAG4 = {"lag_victims": [1, 3], "lag": 6}
_LAG7 = {"lag_victims": [1, 2, 3, 4], "lag": 6}

SWEEP_SPC_MSC: Tuple[Stratum, ...] = (
    Stratum(60, _psync("spc", 4, 1, _jit("silent", 4, byzantine=[0]), L=4)),
    Stratum(60, _psync("spc", 4, 1, _jit("split_view", 4, byzantine=[0]), L=4)),
    Stratum(60, _psync("spc", 4, 1, _jit("withhold_body", 4, reveal={"0": [1]}), L=4)),
    Stratum(60, _psync("spc", 4, 1, _jit("doctored", 4, byzantine=[3]), L=4)),
    Stratum(1200, _psync("spc", 4, 1, FUZZ, L=4)),
    Stratum(25, _psync("spc", 7, 2, _jit("silent", 4, byzantine=[5, 6]), L=7)),
    Stratum(25, _psync("spc", 7, 2, _jit("doctored", 4, byzantine=[6]), L=7)),
    Stratum(300, _psync("spc", 7, 2, FUZZ, L=7)),
    Stratum(50, _psync("msc", 4, 1, {"kind": "censor", "reveal": {"2": [0]}, **_LAG4}, slots=2)),
    Stratum(50, _psync("msc", 4, 1, {"kind": "equivocate", "byzantine": [2], **_LAG4}, slots=2)),
    Stratum(400, _psync("msc", 4, 1, FUZZ, slots=2)),
    Stratum(30, _psync("msc", 7, 2, {"kind": "censor", "reveal": {"5": [0], "6": [1]}, **_LAG7},
                       slots=2)),
    Stratum(100, _psync("msc", 7, 2, FUZZ, slots=2)),
    Stratum(30, _psync("binary", 4, 1, FUZZ), crit4=False),
    Stratum(30, _psync("binary", 4, 1, _jit("silent", 4, byzantine=[3])), crit4=False),
    Stratum(30, _psync("validated", 4, 1, FUZZ), crit4=False),
    Stratum(30, _psync("validated", 4, 1, _jit("silent", 4, byzantine=[3])), crit4=False),
)

#: msc_long: criterion-5 shaped runs, (n, f, slots, adversary).  Byte
#: accounting makes an n=7 slot about six times dearer than an n=4 slot,
#: so n=7 runs fewer slots.  The four runs cost about the same, 0.5-0.7 s,
#: so the median run time falls inside one cluster, not between two.
MSC_LONG: Tuple[Tuple[int, int, int, dict], ...] = (
    (4, 1, 25, {"kind": "censor", "reveal": {"2": [0]}, **_LAG4}),
    (7, 2, 4, {"kind": "censor", "reveal": {"5": [0], "6": [1]}, **_LAG7}),
    (4, 1, 25, {"kind": "equivocate", "byzantine": [2], **_LAG4}),
    (7, 2, 4, {"kind": "equivocate", "byzantine": [5, 6], **_LAG7}),
)
MSC_LONG_TINY_SLOTS = 3

#: Workload names, in BENCHMARK.json order; README.md says why each exists.
NAMES = ("sweep_pc", "sweep_spc_msc", "msc_long")


def _rng(name: str, seed: int) -> random.Random:
    return random.Random(f"prefixsim-bench/{name}/{seed}")


def _interleave(strata: Tuple[Stratum, ...]) -> Iterator[Stratum]:
    """Smooth weighted round robin: yields strata forever in proportion
    to their weights, evenly spread."""
    total = sum(s.weight for s in strata)
    current = [0] * len(strata)
    while True:
        for i, s in enumerate(strata):
            current[i] += s.weight
        best = max(range(len(strata)), key=current.__getitem__)
        current[best] -= total
        yield strata[best]


def sweep(name: str, seed: int) -> Iterator[dict]:
    """Endless seeded scenario stream of a sweep workload."""
    strata = SWEEP_PC if name == "sweep_pc" else SWEEP_SPC_MSC
    rng = _rng(name, seed)
    for stratum in _interleave(strata):
        yield {**stratum.template, "seed": rng.randrange(1, 2**31)}


def msc_long(seed: int, tiny: bool = False) -> List[dict]:
    """One cycle of msc_long: the benchmark repeats the same runs."""
    rng = _rng("msc_long", seed)
    out = []
    for n, f, slots, adversary in MSC_LONG:
        out.append({**BASE, "protocol": "msc", "n": n, "f": f, "delta_cap": 2,
                    "slots": MSC_LONG_TINY_SLOTS if tiny else slots,
                    "adversary": adversary, "measure_bytes": True, "codec": "plain",
                    "seed": rng.randrange(1, 2**31)})
    return out


def scenarios(name: str, seed: int, count: int, tiny: bool = False) -> List[dict]:
    """The first ``count`` scenarios of a workload (msc_long repeats its cycle)."""
    if name == "msc_long":
        cycle = msc_long(seed, tiny)
        return [cycle[i % len(cycle)] for i in range(count)]
    stream = sweep(name, seed)
    return [next(stream) for _ in range(count)]


def crit4_strata() -> List[Stratum]:
    return [s for s in SWEEP_PC + SWEEP_SPC_MSC if s.crit4]
