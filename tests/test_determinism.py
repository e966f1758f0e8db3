"""Replay is bit-identical across processes and hash seeds."""

import json
import os
import subprocess
import sys

from prefixsim.catalogue import criterion4

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# Criterion-4 scenarios: pc3, pc_opt and pc_5f1 under fuzzed schedules, and
# spc under split_view and msc under censor at the seeds whose transcripts
# test_simnet pins.
_BY_SEED = {scn["seed"]: scn for scn in criterion4()}
SAMPLE = [_BY_SEED[50_000], _BY_SEED[55_700], _BY_SEED[57_200],
          {**_BY_SEED[1660], "seed": 1060}, {**_BY_SEED[1890], "seed": 1560}]
assert [scn["protocol"] for scn in SAMPLE] == ["pc3", "pc_opt", "pc_5f1", "spc", "msc"]

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
