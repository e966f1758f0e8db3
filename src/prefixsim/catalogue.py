"""The scenarios of acceptance criteria 4 and 6 and of ``prefixsim check``.

A stratum is a run count, a seedless scenario template and a suite tag:
``pc``, ``spc``, ``msc`` (criterion 4's adversaries), ``fuzz`` (its fuzzed
schedules) or ``leaderless`` (criterion 6).  Scenarios share nested values
with the templates: do not mutate them.  ``perfbench/workloads.py`` keeps a
copy of the criterion-4 strata, which a test compares with this one.
"""

from __future__ import annotations

import itertools
from typing import List, NamedTuple

BASE = {"version": 1, "gst": 0, "delta": 1, "delta_cap": 1, "inputs": {"kind": "random", "alphabet": 3}}
ASYNC = {**BASE, "gst": None}
PSYNC = {**BASE, "gst": 12, "delta_cap": 2}
FUZZ = {"kind": "fuzz", "stretch": 5}
LAG4 = {"lag_victims": [1, 3], "lag": 6}
SUSPEND = {"kind": "suspender", "byzantine": [], "round_len": 1}  # with f - 1 silent parties


class Stratum(NamedTuple):
    count: int  # runs in criterion 4 or 6
    template: dict
    tag: str


def _scn(base: dict, protocol: str, n: int, f: int, adversary: dict) -> dict:
    size = {"slots": 2} if protocol == "msc" else {"L": n}
    return {**base, "protocol": protocol, "n": n, "f": f, **size, "adversary": adversary}


STRATA = (
    Stratum(110, _scn(ASYNC, "pc3", 4, 1, {"kind": "silent", "byzantine": [3], "jitter": 5}), "pc"),
    Stratum(110, _scn(ASYNC, "pc3", 4, 1, {"kind": "equivocate", "byzantine": [3], "jitter": 5}), "pc"),
    Stratum(40, _scn(ASYNC, "pc3", 7, 2, {"kind": "silent", "byzantine": [5, 6], "jitter": 5}), "pc"),
    Stratum(40, _scn(ASYNC, "pc3", 7, 2, {"kind": "equivocate", "byzantine": [6], "jitter": 5}), "pc"),
    Stratum(110, _scn(ASYNC, "pc_opt", 4, 1, {"kind": "silent", "byzantine": [3], "jitter": 5}), "pc"),
    Stratum(110, _scn(ASYNC, "pc_opt", 4, 1, {"kind": "equivocate", "byzantine": [3], "jitter": 5}), "pc"),
    Stratum(80, _scn(ASYNC, "pc_5f1", 6, 1, {"kind": "silent", "byzantine": [5], "jitter": 5}), "pc"),
    Stratum(60, _scn(PSYNC, "spc", 4, 1, {"kind": "silent", "byzantine": [0], "jitter": 4}), "spc"),
    Stratum(60, _scn(PSYNC, "spc", 4, 1, {"kind": "split_view", "byzantine": [0], "jitter": 4}), "spc"),
    Stratum(60, _scn(PSYNC, "spc", 4, 1, {"kind": "withhold_body", "reveal": {"0": [1]}, "jitter": 4}), "spc"),
    Stratum(60, _scn(PSYNC, "spc", 4, 1, {"kind": "doctored", "byzantine": [3], "jitter": 4}), "spc"),
    Stratum(25, _scn(PSYNC, "spc", 7, 2, {"kind": "silent", "byzantine": [5, 6], "jitter": 4}), "spc"),
    Stratum(25, _scn(PSYNC, "spc", 7, 2, {"kind": "doctored", "byzantine": [6], "jitter": 4}), "spc"),
    Stratum(50, _scn(PSYNC, "msc", 4, 1, {"kind": "censor", "reveal": {"2": [0]}, **LAG4}), "msc"),
    Stratum(50, _scn(PSYNC, "msc", 4, 1, {"kind": "equivocate", "byzantine": [2], **LAG4}), "msc"),
    Stratum(30, _scn(PSYNC, "msc", 7, 2, {"kind": "censor", "reveal": {"5": [0], "6": [1]},
                                          "lag_victims": [1, 2, 3, 4], "lag": 6}), "msc"),
    Stratum(4500, _scn(ASYNC, "pc3", 4, 1, FUZZ), "fuzz"),
    Stratum(1200, _scn(ASYNC, "pc3", 7, 2, FUZZ), "fuzz"),
    Stratum(1500, _scn(ASYNC, "pc_opt", 4, 1, FUZZ), "fuzz"),
    Stratum(800, _scn(ASYNC, "pc_5f1", 6, 1, FUZZ), "fuzz"),
    Stratum(1200, _scn(PSYNC, "spc", 4, 1, FUZZ), "fuzz"),
    Stratum(300, _scn(PSYNC, "spc", 7, 2, FUZZ), "fuzz"),
    Stratum(400, _scn(PSYNC, "msc", 4, 1, FUZZ), "fuzz"),
    Stratum(100, _scn(PSYNC, "msc", 7, 2, FUZZ), "fuzz"),
    Stratum(50, _scn({**BASE, "delta_cap": 2}, "spc", 4, 1, SUSPEND), "leaderless"),
    Stratum(50, _scn({**BASE, "delta_cap": 2}, "msc", 4, 1, SUSPEND), "leaderless"),
    Stratum(50, _scn({**BASE, "delta_cap": 2}, "spc", 7, 2, {**SUSPEND, "byzantine": [6]}), "leaderless"),
    Stratum(50, _scn({**BASE, "delta_cap": 2}, "msc", 7, 2, {**SUSPEND, "byzantine": [6]}), "leaderless"),
)


def _expand(strata, first_seed: int) -> List[dict]:
    """Each stratum's runs in turn, with consecutive seeds."""
    seeds = itertools.count(first_seed)
    return [{**s.template, "seed": next(seeds)} for s in strata for _ in range(s.count)]


def criterion4() -> List[dict]:
    """The adversary catalogue (seeds from 1000), then the fuzzed schedules
    (seeds from 50,000): 11,020 runs."""
    return (_expand([s for s in STRATA if s.tag in ("pc", "spc", "msc")], 1000)
            + _expand([s for s in STRATA if s.tag == "fuzz"], 50_000))


def criterion6() -> List[dict]:
    """The 200 suspension runs; at each size, spc seeds count from 300 and msc from 400."""
    return [scn for s in STRATA if s.tag == "leaderless"
            for scn in _expand([s], 300 if s.template["protocol"] == "spc" else 400)]


def suite(tag: str, n: int, runs: int, seed: int) -> List[dict]:
    """``runs`` scenarios taking the strata of ``tag`` and size ``n`` in turn,
    with seeds ``seed``, ``seed + 1``, ...  Raises ValueError, naming the
    sizes there are, when none is of size ``n``."""
    strata = [s for s in STRATA if s.tag == tag and s.template["n"] == n]
    if not strata:
        sizes = sorted({s.template["n"] for s in STRATA if s.tag == tag})
        raise ValueError(f"no {tag} scenarios with n={n}; available n: {', '.join(map(str, sizes))}")
    return [{**strata[i % len(strata)].template, "seed": seed + i} for i in range(runs)]
