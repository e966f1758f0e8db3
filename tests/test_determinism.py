"""Replay is bit-identical across processes and hash seeds."""

import json
import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

BASE = {"version": 1, "delta": 1, "inputs": {"kind": "random", "alphabet": 3}}
SAMPLE = [
    {**BASE, "protocol": "pc3", "n": 4, "f": 1, "L": 4, "gst": None, "seed": 50_000,
     "adversary": {"kind": "fuzz", "stretch": 5}},
    {**BASE, "protocol": "spc", "n": 4, "f": 1, "L": 4, "gst": 12, "delta_cap": 2, "seed": 1060,
     "adversary": {"kind": "split_view", "byzantine": [0], "jitter": 4}},
    {**BASE, "protocol": "msc", "n": 4, "f": 1, "slots": 2, "gst": 12, "delta_cap": 2, "seed": 1560,
     "adversary": {"kind": "censor", "reveal": {"2": [0]}, "lag_victims": [1, 3], "lag": 6}},
]

SCRIPT = """
import json, sys
from prefixsim.scenario import run_scenario
print(json.dumps([run_scenario(scn).metrics.transcript_sha for scn in json.loads(sys.argv[1])]))
"""


def _transcripts(hash_seed: str) -> list:
    env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": SRC}
    proc = subprocess.run([sys.executable, "-c", SCRIPT, json.dumps(SAMPLE)], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    return json.loads(proc.stdout)


def test_transcripts_identical_across_hash_seeds():
    runs = [_transcripts(seed) for seed in ("0", "1", "2")]
    assert len(runs[0]) == len(SAMPLE) and all(runs[0])
    assert runs[1] == runs[0] and runs[2] == runs[0]
