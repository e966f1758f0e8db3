#!/usr/bin/env python3
"""Fast self-test of the benchmark.  Run from the repository root:

    python3 perfbench/selftest.py

It checks that:

1. every workload runs at a tiny size, untraced and traced, and prints as
   its last line a result with no failed run and every metric named in
   BENCHMARK.json, each with the unit given there;
2. the deterministic counts of the traced pass repeat exactly;
3. the output check catches a perturbed result (an output time, a message
   count) and counts raising runs and reported violations as failures;
4. the sweep strata and the round robin keep the criterion-4 weights.

Exits 0 when all pass.  Takes about half a minute.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from collections import Counter

import check
import run
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: Per-layer metrics that must read the same in two traced passes.
DETERMINISTIC = ("wire.encode.bytes",) + run.COUNTS


def cli(workload: str, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", "5",
           "--seconds", "1", "--trace", str(trace), "--tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170, check=False)
    assert proc.returncode == 0, f"{cmd} exited {proc.returncode}:\n{proc.stderr}"
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, lines[-12:]
    for name, entry in result["metrics"].items():
        assert f"{name} = {entry['value']} {entry['unit']}" in lines, f"{name} not printed with its unit"
    return result


def counts(result: dict) -> dict:
    return {k: v["value"] for k, v in result["metrics"].items()
            if k.endswith(".calls") or k in DETERMINISTIC}


def check_cli() -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(workloads.NAMES)
    for key, trace in (("end_to_end", 0), ("per_layer", 1)):
        want = {m["name"]: m["unit"] for m in bench[key]}
        for name in workloads.NAMES:
            result = cli(name, trace)
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == want, f"{name} --trace {trace}: {set(got) ^ set(want)}"
            if trace:
                assert counts(result) == counts(cli(name, trace)), f"{name}: counts differ"
            print(f"ok  {name} --trace {trace}")


def check_fingerprint() -> None:
    run_scenario = run.load_program()
    scn = workloads.scenarios("sweep_spc_msc", 5, 1)[0]
    result = run_scenario(scn)
    good = check.fingerprint(result)
    assert check.failure(result, good, good) is None
    assert check.fingerprint(run_scenario(scn)) == good, "replay changed the fingerprint"

    party = result.honest[0]
    kind, (value, proof, t) = sorted(result.metrics.outputs[party].items())[0]
    result.metrics.outputs[party][kind] = (value, proof, t + 1)
    assert check.failure(result, check.fingerprint(result), good), "perturbed output time passed"
    result.metrics.outputs[party][kind] = (value, proof, t)
    result.metrics.message_count += 1
    assert check.failure(result, check.fingerprint(result), good), "perturbed message count passed"
    result.metrics.message_count -= 1
    result.violations = ["agreement: forged"]
    assert check.failure(result, good, good), "reported violation passed"

    def boom(_scn):
        raise RuntimeError("boom")

    assert run.execute(boom, scn).failure.startswith("raised RuntimeError")
    print("ok  fingerprint check catches perturbed, violating and raising runs")


def check_strata() -> None:
    for strata in (workloads.SWEEP_PC, workloads.SWEEP_SPC_MSC):
        stream = workloads._interleave(strata)
        total = sum(s.weight for s in strata)
        seen = Counter(id(next(stream)) for _ in range(total))
        assert all(seen[id(s)] == s.weight for s in strata), "round robin lost a weight"
    assert sum(s.weight for s in workloads.crit4_strata()) == 11_020, "criterion-4 runs changed"
    a = workloads.scenarios("sweep_pc", 7, 50)
    assert a == workloads.scenarios("sweep_pc", 7, 50) and a != workloads.scenarios("sweep_pc", 8, 50)
    print("ok  strata keep the criterion-4 weights; same seed gives the same inputs")


def main() -> int:
    check_strata()
    check_fingerprint()
    check_cli()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
