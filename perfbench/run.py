#!/usr/bin/env python3
"""prefixsim benchmark: seeded scenario workloads, closed loop, host time.

Run from the root of a prefixsim checkout:

    python3 perfbench/run.py --workload sweep_pc --seed 1 --seconds 40 --trace 0

One client in one process runs the workload's scenarios through
``prefixsim.scenario.run_scenario``, each only after the previous one has
returned.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
runs a fixed scenario list twice, untraced and then traced from outside
(see ``tracer.py``), and reports the per-layer metrics.  Virtual time is
part of each scenario and of the output check, never a metric: every
figure here is host time.  The last line of standard output is one JSON
object; README.md documents every metric.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import check
import tracer as tracing
import workloads

STARTED = time.perf_counter()
HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT_DIR = os.path.join(HERE, "out")

#: Default-seed runs whose fingerprints are recorded in expected.json and
#: replayed as the warm-up of every invocation, whatever its seed.
REFERENCE_RUNS = {"sweep_pc": 32, "sweep_spc_msc": 16, "msc_long": 4}
#: Fresh interpreters timed for setup_s; the median is reported.  They run
#: between timed passes, one after each, so that they sample the host's
#: speed across the run: three probes in a row could all land in one of
#: its slow or fast spells, and on msc_long their median then moved 30 %
#: between sets of runs.
SETUP_PROBES = 5
#: Runs in the fixed traced list per second of --seconds: the untraced
#: and traced passes over it take about half of --seconds.
TRACE_RUNS_PER_SECOND = {"sweep_pc": 15, "sweep_spc_msc": 6}
#: The timed list is one pass, run again and again until the invocation
#: would run past --seconds of wall time, and every pass is kept.  The
#: host's speed flips every few seconds and drifts over minutes, so what
#: steadies a figure is a long run averaged over many passes; keeping only
#: the fastest pass spread more between seeds.  A sweep pass holds
#: SWEEP_RUNS_PER_SECOND runs per second of SWEEP_PASS_S (or of --seconds,
#: if shorter); sweep_spc_msc runs are five times longer than sweep_pc runs
#: and heavy-tailed, so its pass is longer, to hold a few hundred runs of
#: the mix.  An msc_long pass is its cycle of four runs.  Every pass does
#: the same work; only the number of passes follows the clock.
SWEEP_RUNS_PER_SECOND = {"sweep_pc": 180, "sweep_spc_msc": 40}
SWEEP_PASS_S = {"sweep_pc": 3, "sweep_spc_msc": 8}
MIN_PASSES = 2
#: Per-run host ms from the ROADMAP Baseline (cProfile-inflated sample).
ROADMAP_BASELINE_MS = {"pc3.n4": 17, "pc3.n7": 53, "spc.n4": 56, "spc.n7": 199,
                       "msc.n4": 94, "msc.n7": 470}

END_TO_END = (
    ("setup_s", "s"),
    ("runs_per_s", "1/s"),
    ("run_ms_p50", "ms"),
    ("run_ms_p99", "ms"),
    ("sim_msgs_per_s", "1/s"),
    ("slots_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)
CASES = tuple(dict.fromkeys(s.case for s in workloads.SWEEP_PC + workloads.SWEEP_SPC_MSC))
RATIOS = (
    ("crypto.sig_checks_per_verify_vote", "crypto.Scheme.verify", "pc.verify_vote"),
    ("spc.digest_hash_ratio", "wire.hash_obj", "spc.proposal_digest"),
    ("wire.measure_encode_ratio", "wire.measure", "wire.encode"),
)
COUNTS = ("sim.messages", "sim.bytes", "sim.fetch_messages", "engine.drops")


def per_layer_metrics() -> List[tuple]:
    """(name, unit) of every --trace 1 metric, in print order."""
    out = []
    for layer in tracing.LAYER_NAMES:
        out += [(f"{layer}.calls", "count"), (f"{layer}.self_s", "s"), (f"{layer}.total_s", "s")]
    out.append(("wire.encode.bytes", "bytes"))
    out += [(name, "ratio") for name, _, _ in RATIOS]
    out += [("other.self_s", "s"), ("trace_overhead_frac", "ratio")]
    out += [(name, "bytes" if name == "sim.bytes" else "count") for name in COUNTS]
    out += [(f"case.{case}.run_ms_p50", "ms") for case in CASES]
    return out


@dataclass
class Run:
    case: str
    ms: float
    failure: Optional[str]
    fingerprint: str = ""
    messages: int = 0
    slots: int = 0
    fetch: int = 0
    nbytes: int = 0
    drops: int = 0
    transcript: str = ""


def load_program() -> Callable:
    if not os.path.isfile(os.path.join(SRC, "prefixsim", "__init__.py")):
        sys.exit(f"error: no prefixsim sources at {SRC}; run from a prefixsim checkout")
    sys.path.insert(0, SRC)
    from prefixsim.scenario import run_scenario
    return run_scenario


def execute(run_fn: Callable, scn: dict, expected: Optional[str] = None) -> Run:
    case = workloads.case_name(scn)
    start = time.perf_counter()
    try:
        result = run_fn(scn)
    except Exception as exc:  # a raising run is a failed run; the workload goes on
        ms = (time.perf_counter() - start) * 1e3
        return Run(case, ms, f"raised {type(exc).__name__}: {exc}")
    ms = (time.perf_counter() - start) * 1e3
    m = result.metrics
    if scn["protocol"] == "msc":
        first = m.outputs[result.honest[0]]
        slots = sum(1 for kind in first if kind.startswith("slot") and kind.endswith("-high"))
    else:
        slots = 1
    fp = check.fingerprint(result)
    return Run(case, ms, check.failure(result, fp, expected), fp, m.message_count, slots,
               m.fetch_messages, m.bytes_total, m.drops, m.transcript_sha)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def host_seconds(runs: List[Run]) -> float:
    return sum(r.ms for r in runs) / 1e3


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


class Session:
    """One invocation: the program, the workload and the failure tally."""

    def __init__(self, args):
        self.args = args
        self.run_scenario = load_program()
        self.expected = check.load_expected()[args.workload]["runs"]
        self.attempted = 0
        self.failures: List[str] = []

    def tally(self, run: Run, where: str) -> Run:
        self.attempted += 1
        if run.failure:
            self.failures.append(f"{where} {run.case}: {run.failure}")
        return run

    def reference_check(self) -> None:
        """Warm-up: replay the default-seed reference runs and compare their
        fingerprints with expected.json."""
        name = self.args.workload
        refs = workloads.scenarios(name, workloads.DEFAULT_SEED, REFERENCE_RUNS[name])
        runs = [self.tally(execute(self.run_scenario, scn, fp), "reference")
                for scn, fp in zip(refs, self.expected)]
        print(f"reference: {len(runs)} default-seed runs, fingerprint "
              f"{check.combined([r.fingerprint for r in runs])} "
              f"(expected {check.combined(self.expected)}); info only: drops="
              f"{sum(r.drops for r in runs)} transcripts={check.combined([r.transcript for r in runs])}")

    def expected_for(self, index: int) -> Optional[str]:
        """Recorded fingerprint of the timed run at ``index``, if any."""
        a = self.args
        if a.seed != workloads.DEFAULT_SEED or a.tiny:
            return None
        return self.expected[index] if index < len(self.expected) else None

    # -- end to end

    def timed_loop(self, between: Callable[[], None]) -> Tuple[List[Run], float]:
        """Run the timed pass until the next one would end more than
        --seconds after the invocation started, and keep every pass.  Every
        repeat must reproduce the first pass's fingerprints.  ``between``
        runs after every pass, outside the host time.  Also returns
        the peak RSS after MIN_PASSES passes: caches grow with every run, so
        the peak at the end would follow the number of passes, hence the
        host's speed."""
        a = self.args
        if a.workload == "msc_long":
            todo = workloads.msc_long(a.seed, a.tiny)
        else:
            size = SWEEP_RUNS_PER_SECOND[a.workload] * min(a.seconds, SWEEP_PASS_S[a.workload])
            todo = workloads.scenarios(a.workload, a.seed, max(1, round(size)))
        start = time.perf_counter()
        first = [self.tally(execute(self.run_scenario, scn, self.expected_for(i)), "timed")
                 for i, scn in enumerate(todo)]
        passes = [first]
        while True:
            between()
            if len(passes) == MIN_PASSES:
                rss_mb = peak_rss_mb()
            now = time.perf_counter()
            next_end = now + (now - start) / len(passes)
            if len(passes) >= MIN_PASSES and next_end - STARTED > a.seconds:
                break
            passes.append([self.tally(execute(self.run_scenario, scn, r.fingerprint or None), "timed")
                           for scn, r in zip(todo, first)])
        print(f"passes: {len(passes)} of {len(todo)} runs in {time.perf_counter() - start:.3f} s "
              f"wall, host s {', '.join(f'{host_seconds(p):.3f}' for p in passes)}")
        return [r for p in passes for r in p], rss_mb

    def setup_time(self) -> float:
        """Wall time of one fresh interpreter running setup_probe."""
        a = self.args
        cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
               "--workload", a.workload, "--seed", str(a.seed)] + (["--tiny"] if a.tiny else [])
        start = time.perf_counter()
        proc = subprocess.run(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              text=True, timeout=120, check=False)
        elapsed = time.perf_counter() - start
        if proc.returncode != 0:
            sys.exit(f"error: setup probe failed:\n{proc.stderr}")
        return elapsed

    def end_to_end(self) -> Dict[str, float]:
        a = self.args
        self.reference_check()
        setup: List[float] = []

        def probe() -> None:
            if len(setup) < SETUP_PROBES:
                setup.append(self.setup_time())

        runs, rss_mb = self.timed_loop(between=probe)
        while len(setup) < SETUP_PROBES:
            probe()
        host_s = host_seconds(runs)
        ms = [r.ms for r in runs]
        metrics = {
            "setup_s": statistics.median(setup),
            "runs_per_s": len(runs) / host_s,
            "run_ms_p50": percentile(ms, 0.5),
            "run_ms_p99": percentile(ms, 0.99),
            "sim_msgs_per_s": sum(r.messages for r in runs) / host_s,
            "slots_per_s": sum(r.slots for r in runs if not r.failure) / host_s,
            "peak_rss_mb": rss_mb,
        }
        print(f"timed: every pass, {len(runs)} runs in {host_s:.3f} host s; "
              f"run_ms p50/p99 over n={len(ms)} samples; "
              f"setup probes {', '.join(f'{t:.3f}' for t in setup)} s")
        print(f"failed_frac: {len(self.failures)}/{self.attempted} = "
              f"{len(self.failures) / self.attempted:.4f}")
        if a.workload != "msc_long":
            report_cases(runs)
        return metrics

    # -- per layer

    def traced(self) -> Dict[str, float]:
        a = self.args
        self.reference_check()
        if a.workload == "msc_long":
            fixed = workloads.msc_long(a.seed, a.tiny)
        else:
            count = max(4, math.ceil(TRACE_RUNS_PER_SECOND[a.workload] * a.seconds))
            fixed = workloads.scenarios(a.workload, a.seed, count)

        start = time.perf_counter()
        plain = [self.tally(execute(self.run_scenario, scn), "untraced") for scn in fixed]
        plain_wall = time.perf_counter() - start

        tr = tracing.Tracer()
        root = tr.wrap("scenario.setup", self.run_scenario)
        tr.install()
        try:
            start = time.perf_counter()
            spanned = []
            for i, scn in enumerate(fixed):
                tr.run_id = i
                spanned.append(execute(root, scn))
            traced_wall = time.perf_counter() - start
        finally:
            tr.uninstall()
        for before, after in zip(plain, spanned):
            if not after.failure and after.fingerprint != before.fingerprint:
                after.failure = f"traced fingerprint {after.fingerprint} != {before.fingerprint}"
            self.tally(after, "traced")

        os.makedirs(OUT_DIR, exist_ok=True)
        span_path = os.path.join(OUT_DIR, f"spans-{a.workload}-seed{a.seed}.tsv.gz")
        tr.write(span_path)
        print(f"traced: {len(fixed)} runs; untraced {plain_wall:.3f} s, traced {traced_wall:.3f} s; "
              f"{len(tr.span_id)} spans written to {os.path.relpath(span_path)}")

        metrics: Dict[str, float] = {}
        calls = dict(zip(tracing.LAYER_NAMES, tr.calls))
        for i, layer in enumerate(tracing.LAYER_NAMES):
            metrics[f"{layer}.calls"] = tr.calls[i]
            metrics[f"{layer}.self_s"] = tr.self_s[i]
            metrics[f"{layer}.total_s"] = tr.total_s[i]
        metrics["wire.encode.bytes"] = tr.encoded_bytes
        for name, num, den in RATIOS:
            metrics[name] = calls[num] / calls[den] if calls[den] else 0.0
        metrics["other.self_s"] = traced_wall - sum(tr.self_s)
        metrics["trace_overhead_frac"] = traced_wall / plain_wall - 1
        metrics["sim.messages"] = sum(r.messages for r in spanned)
        metrics["sim.bytes"] = sum(r.nbytes for r in spanned)
        metrics["sim.fetch_messages"] = sum(r.fetch for r in spanned)
        metrics["engine.drops"] = sum(r.drops for r in spanned)
        medians = case_medians(plain)
        for case in CASES:
            metrics[f"case.{case}.run_ms_p50"] = medians.get(case, 0.0)
        for layer in tracing.LAYER_NAMES:
            print(f"  {layer:38s} calls={metrics[layer + '.calls']:>9d} "
                  f"self={metrics[layer + '.self_s']:8.3f}s total={metrics[layer + '.total_s']:8.3f}s")
        return metrics


def case_medians(runs: List[Run]) -> Dict[str, float]:
    by_case: Dict[str, List[float]] = {}
    for r in runs:
        by_case.setdefault(r.case, []).append(r.ms)
    return {case: statistics.median(v) for case, v in by_case.items()}


def report_cases(runs: List[Run]) -> None:
    """Per-(protocol, n) medians of a sweep against the ROADMAP Baseline,
    and the criterion-4 wall time they project for the sweep's strata."""
    medians = case_medians(runs)
    counts: Dict[str, int] = {}
    for r in runs:
        counts[r.case] = counts.get(r.case, 0) + 1
    for case, med in medians.items():
        base = ROADMAP_BASELINE_MS.get(case)
        versus = f"; ROADMAP Baseline {base} ms (cProfile), ratio {med / base:.2f}" if base else ""
        print(f"case.{case}.run_ms_p50 = {med:.3f} ms over n={counts[case]}{versus}")
    strata = [s for s in workloads.crit4_strata() if s.case in medians]
    if strata:
        projected = sum(s.weight * medians[s.case] for s in strata) / 1e3
        print(f"criterion-4 projection for the {sum(s.weight for s in strata)} runs of its strata "
              f"in this workload: {projected:.1f} s (from medians; criterion 4 also pays the other sweep)")


def setup_probe(args) -> None:
    """Body of one fresh interpreter timed for setup_s: import the program,
    generate the workload, make one warm-up run."""
    run_scenario = load_program()
    first = workloads.scenarios(args.workload, args.seed, 1, args.tiny)[0]
    run_scenario(first)


def record_expected() -> None:
    run_scenario = load_program()
    doc = {"seed": workloads.DEFAULT_SEED, "workloads": {}}
    for name in workloads.NAMES:
        refs = workloads.scenarios(name, workloads.DEFAULT_SEED, REFERENCE_RUNS[name])
        runs = [execute(run_scenario, scn) for scn in refs]
        bad = [r.failure for r in runs if r.failure]
        if bad:
            sys.exit(f"error: {name} reference run failed: {bad[0]}")
        fps = [r.fingerprint for r in runs]
        doc["workloads"][name] = {"digest": check.combined(fps), "runs": fps}
        print(f"{name}: {len(fps)} runs, digest {check.combined(fps)}")
    check.save_expected(doc)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=workloads.NAMES)
    p.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=40)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="msc_long at a few slots (self-test size)")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--record-expected", action="store_true",
                   help="rewrite expected.json from the default-seed reference runs")
    args = p.parse_args(argv)
    if args.record_expected:
        record_expected()
        return 0
    if args.workload is None:
        p.error("--workload is required")
    if args.setup_probe:
        setup_probe(args)
        return 0

    session = Session(args)
    if args.trace:
        values, units = session.traced(), dict(per_layer_metrics())
    else:
        values, units = session.end_to_end(), dict(END_TO_END)
    for failure in session.failures[:10]:
        print(f"FAILED {failure}")
    for name, unit in units.items():
        print(f"{name} = {values[name]} {unit}")
    print(json.dumps({
        "correct": not session.failures,
        "attempted": session.attempted,
        "failed": len(session.failures),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
