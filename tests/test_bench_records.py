"""The recorded performance trajectory (``BENCH_*.json``) against the
benchmark it was measured with (``BENCHMARK.json``)."""

import glob
import json
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RECORDS = sorted(glob.glob(os.path.join(ROOT, "BENCH_*.json")))


def _load(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def test_a_trajectory_is_recorded():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=os.path.basename)
def test_record_covers_every_workload_and_end_to_end_metric(path):
    bench = _load(os.path.join(ROOT, "BENCHMARK.json"))
    record = _load(path)
    workloads = record["workloads"]
    assert set(workloads) == {w["name"] for w in bench["workloads"]}
    for name, entry in workloads.items():
        assert entry["correct"] is True, name
        assert entry["failed"] == 0, name
        for metric in bench["end_to_end"]:
            numbers = entry[metric["name"]]
            for side in ("parent", "change"):
                value = numbers[side]
                assert isinstance(value, (int, float)) and not isinstance(value, bool), (name, metric["name"], side)
                assert value >= 0, (name, metric["name"], side)
