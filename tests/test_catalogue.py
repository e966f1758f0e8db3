"""The scenario lists of acceptance criteria 4 and 6 are fixed: counts,
order, templates and seeds."""

import hashlib
import importlib.util
import json
import os
import sys
from collections import Counter

from prefixsim import catalogue
from test_acceptance import criterion4, criterion6


def _sha(scenarios):
    return hashlib.sha256(json.dumps(scenarios, sort_keys=True).encode()).hexdigest()


def test_criterion_lists_pinned():
    c4, c6 = criterion4(), criterion6()
    assert len(c4) == 11_020 and len(c6) == 200
    assert _sha(c4) == "d0506256ce41217ff0bcd198e16fdfbb8efeb1d1c77c11b3b3756036d269e85e"
    assert _sha(c6) == "d3f5d577bf96d692971b315d8709c230a2047371ccfb67de104af806f5343997"


def _bench_workloads():
    """``perfbench/workloads.py``, loaded from its file: the benchmark is
    not a package."""
    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "perfbench", "workloads.py")
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations through it
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_benchmark_copy_of_criterion_4_matches():
    def strata(pairs):
        return Counter((json.dumps({k: v for k, v in t.items() if k != "seed"}, sort_keys=True), count)
                       for t, count in pairs)

    bench = strata((s.template, s.weight) for s in _bench_workloads().crit4_strata())
    ours = strata((s.template, s.count) for s in catalogue.STRATA if s.tag != "leaderless")
    assert bench == ours
    assert sum(bench.values()) == 24 and sum(count for _, count in bench) == len(criterion4())
