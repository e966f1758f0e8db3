"""Every adversary kind under suspension: the policy suspends one honest
party per round while f - 1 parties are Byzantine, the liveness model of
the abstract.

The grid runs each kind with ``round_len`` 1 and 2 on pc3, spc, msc,
graded, binary and validated at n = 4 (f = 1) and n = 7 (f = 2), with
``gst: 0``, ``delta_cap: 2``, link jitter 3 (``stretch`` 5 for ``fuzz``)
and seeds 0, 1 and 2.  The Byzantine parties are the first f - 1, so at
n = 7 party 0, ranked first, is Byzantine; a ``reveal`` kind shows it to
party 1 only.  Every run must report no violation, termination included.
A cell that breaks is a strict xfail that names its first violation and
ROADMAP item 1.
"""

import pytest

from prefixsim.scenario import ADVERSARIES, KIND_TABLE, run_scenario

PROTOCOLS = ("pc3", "spc", "msc", "graded", "binary", "validated")
SIZES = {4: 1, 7: 2}
SEEDS = (0, 1, 2)

#: (protocol, n, kind, round_len) -> the first violation of its first
#: broken seed.  msc at n = 7 demotes an honest party after GST.
BROKEN = {
    ("msc", 7, "censor", 2): "demotion: slot 1 demoted honest party 3",
    ("msc", 7, "withhold_body", 2): "demotion: slot 1 demoted honest party 3",
    ("msc", 7, "fuzz", 1): "demotion: slot 1 demoted honest party 1",
    ("msc", 7, "fuzz", 2): "censorship: 2 censored slots exceed the 1 Byzantine parties",
}


def scenario(protocol: str, n: int, kind: str, round_len: int, seed: int) -> dict:
    byzantine = list(range(SIZES[n] - 1))
    if KIND_TABLE[kind].parties == "reveal":
        parties = {"reveal": {str(p): [1] for p in byzantine}}
    else:
        parties = {"byzantine": byzantine}
    jitter = {"stretch": 5} if kind == "fuzz" else {"jitter": 3}
    size = {"slots": 2} if protocol == "msc" else {"L": n} if protocol in ("pc3", "spc") else {}
    return {"version": 1, "protocol": protocol, "n": n, "f": SIZES[n], **size, "gst": 0, "delta": 1,
            "delta_cap": 2, "seed": seed,
            "adversary": {"kind": kind, **parties, **jitter, "round_len": round_len}}


def _cells():
    for protocol in PROTOCOLS:
        for n in SIZES:
            for kind in ADVERSARIES:
                for round_len in (1, 2):
                    cell = (protocol, n, kind, round_len)
                    marks = ()
                    if cell in BROKEN:
                        marks = pytest.mark.xfail(strict=True, reason=f"ROADMAP item 1: {BROKEN[cell]}")
                    yield pytest.param(*cell, marks=marks, id="-".join(map(str, cell)))


@pytest.mark.parametrize("protocol, n, kind, round_len", _cells())
def test_every_kind_runs_under_suspension(protocol, n, kind, round_len):
    for seed in SEEDS:
        result = run_scenario(scenario(protocol, n, kind, round_len, seed))
        assert result.sim.policy.suspend == round_len
        assert [str(v) for v in result.violations] == [], seed
        for party in result.honest:
            assert result.metrics.outputs[party], (seed, party)
