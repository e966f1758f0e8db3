"""Scenario-driven command line front end.

Subcommands::

    prefixsim run    --scenario file.json [--seed N] [--out DIR] [--codec C]
    prefixsim sweep  --scenario file.json --ns 4,7,10 [--out DIR]
    prefixsim check  SUITE [--n N] [--runs K] [--seed N]
    prefixsim decode (--hex HEX | --file PATH)

Exit codes: 0 success, 2 scenario/schema error (with the offending field
path), 3 invariant violation (with the first failing invariant and a
reproducer seed).  The default output directory comes from the
``PREFIXSIM_OUT`` environment variable.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import sys
from typing import List, Optional

from . import catalogue, checks, scenario as scn_mod, wire
from .crypto import make_scheme
from .pc import PcConfig, Variant
from .scenario import ScenarioError, load_scenario, run_scenario
from .simnet import SimulationError

EXIT_OK = 0
EXIT_SCHEMA = 2
EXIT_VIOLATION = 3


def _emit(args, name: str, payload: str) -> Optional[str]:
    out = args.out or os.environ.get("PREFIXSIM_OUT")
    if out is None:
        return None
    os.makedirs(out, exist_ok=True)
    path = os.path.join(out, name)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(payload)
    return path


def _say(args, text: str) -> None:
    if not getattr(args, "quiet", False):
        print(text)


def cmd_run(args) -> int:
    try:
        scn = load_scenario(args.scenario)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"scenario: unreadable ({exc})", file=sys.stderr)
        return EXIT_SCHEMA
    if args.seed is not None:
        scn["seed"] = args.seed
    if args.codec is not None:
        scn["codec"] = args.codec
        scn["measure_bytes"] = True
    errors = scn_mod.validate(scn_mod._with_defaults(scn))
    if errors:
        for path, msg in errors:
            print(f"scenario.{path}: {msg}" if path else f"scenario: {msg}", file=sys.stderr)
        return EXIT_SCHEMA
    try:
        result = run_scenario(scn, record=True)
    except SimulationError as exc:
        # Engine assertion mid-run: dump what we have and fail loudly.
        print(f"simulation aborted: {exc}", file=sys.stderr)
        return EXIT_VIOLATION
    if result.scenario["checks"] != "none":
        result.violations += checks.model_soundness(result.sim)
    doc = result.metrics_doc()
    metrics_path = _emit(args, "metrics.json", json.dumps(doc, indent=2, sort_keys=True))
    transcript_path = _emit(args, "transcript.log", "\n".join(result.sim.records))
    if scn.get("protocol") == "msc" and result.honest:
        log = result.sim.engines[result.honest[0]].export_commit_log()
        _emit(args, "commits.log", log)
    _say(args, json.dumps(doc, indent=2, sort_keys=True))
    if result.violations:
        first = result.violations[0]
        where = transcript_path or "(transcript not written; pass --out)"
        print(f"violation: {first} [transcript: {where}]", file=sys.stderr)
        return EXIT_VIOLATION
    if metrics_path:
        _say(args, f"metrics written to {metrics_path}")
    return EXIT_OK


def _fit_exponent(ns: List[int], ys: List[float]) -> float:
    xs = [math.log(n) for n in ns]
    ls = [math.log(y) for y in ys]
    mx = sum(xs) / len(xs)
    my = sum(ls) / len(ls)
    num = sum((x - mx) * (y - my) for x, y in zip(xs, ls))
    den = sum((x - mx) ** 2 for x in xs)
    return num / den


def _n_values(text: str) -> List[int]:
    """``--ns``: comma-separated integers, two distinct ones at least so
    that the exponents can be fitted (a bad value is a usage error)."""
    ns = [int(x) for x in text.split(",")]
    if len(set(ns)) < 2:
        raise argparse.ArgumentTypeError("at least two distinct n values required")
    return ns


def _positive(text: str) -> int:
    if int(text) < 1:
        raise argparse.ArgumentTypeError("at least 1 required")
    return int(text)


def sweep_rows(template: dict, ns: List[int]) -> List[dict]:
    rows = []
    for n in ns:
        scn = dict(template)
        scn["n"] = n
        scn["f"] = (n - 1) // 3
        if "L" in scn:
            scn["L"] = n
        result = run_scenario(scn)
        if result.violations:
            raise ScenarioError([("sweep", f"n={n}: {result.violations[0]}")])
        rows.append(
            {
                "n": n,
                "messages": result.metrics.message_count,
                "bytes": result.metrics.bytes_total,
                "end_time": str(result.metrics.end_time),
            }
        )
    return rows


def cmd_sweep(args) -> int:
    try:
        template = load_scenario(args.scenario)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"scenario: unreadable ({exc})", file=sys.stderr)
        return EXIT_SCHEMA
    ns = args.ns
    if args.codec is not None:
        template["codec"] = args.codec
    template["measure_bytes"] = True
    for n in ns:
        errors = scn_mod.validate(scn_mod._with_defaults({**template, "n": n, "f": (n - 1) // 3}))
        for path, msg in errors:
            print(f"scenario.{path}: {msg} (n={n})", file=sys.stderr)
        if errors:
            return EXIT_SCHEMA
    try:
        rows = sweep_rows(template, ns)
    except ScenarioError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_VIOLATION
    msg_exp = _fit_exponent(ns, [r["messages"] for r in rows])
    byte_exp = _fit_exponent(ns, [r["bytes"] for r in rows])
    table = {
        "codec": template.get("codec", "plain"),
        "rows": rows,
        "message_exponent": round(msg_exp, 3),
        "byte_exponent": round(byte_exp, 3),
    }
    text = json.dumps(table, indent=2)
    _say(args, text)
    _emit(args, "sweep.json", text)
    return EXIT_OK


# ---------------------------------------------------------------------------
# property suites

SUITES = tuple(dict.fromkeys(s.tag for s in catalogue.STRATA)) + ("determinism", "equivalence")


def run_suite(name: str, opts) -> tuple:
    """Returns (runs, first_failure | None).  Raises ValueError, before
    any run, for an ``--n`` the suite does not have."""
    if name == "equivalence":
        n = opts.n
        cfg = PcConfig(n, (n - 1) // 3, n, Variant.THREE_ROUND, ("chk", "eq"))
        scheme = make_scheme("mac", n)
        rng = random.Random(opts.seed)
        alphabet = [b"a", b"b", b"c"]
        for i in range(opts.runs):
            values = [tuple(rng.choice(alphabet) for _ in range(cfg.L)) for _ in range(n)]
            try:
                wire.equivalence_harness(values, cfg, scheme, rng)
            except AssertionError as exc:
                return i + 1, (opts.seed, checks.Violation("equivalence", str(exc)))
        return opts.runs, None
    replay = name == "determinism"
    scenarios = catalogue.suite("fuzz" if replay else name, opts.n, opts.runs, opts.seed)
    for i, scn in enumerate(scenarios, 1):
        result = run_scenario(scn)
        violations = result.violations
        if replay and run_scenario(scn).metrics.transcript_sha != result.metrics.transcript_sha:
            violations = [checks.Violation("determinism", "transcripts differ")]
        if violations:
            return i, (scn["seed"], violations[0])
    return len(scenarios), None


def cmd_check(args) -> int:
    try:
        count, failure = run_suite(args.suite, args)
    except ValueError as exc:
        print(f"check {args.suite}: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    if failure:
        seed, violation = failure
        print(f"FAIL {args.suite}: {violation} (reproduce with seed {seed})", file=sys.stderr)
        return EXIT_VIOLATION
    _say(args, f"PASS {args.suite}: {count} runs, no violations")
    return EXIT_OK


def cmd_decode(args) -> int:
    try:
        if args.hex:
            data = bytes.fromhex(args.hex)
        else:
            with open(args.file, "rb") as fh:
                data = fh.read()
    except (OSError, ValueError) as exc:
        print(f"decode input: unreadable ({exc})", file=sys.stderr)
        return EXIT_SCHEMA
    try:
        msg = wire.decode(data)
    except wire.DecodeError as exc:
        print(f"decode error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    print(wire.describe(msg))
    print()
    print(wire.hexdump(data))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="prefixsim", description=__doc__)
    parser.add_argument("--quiet", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one scenario file")
    p_run.add_argument("--scenario", required=True)
    p_run.add_argument("--seed", type=int)
    p_run.add_argument("--codec", choices=["plain", "compact"])
    p_run.add_argument("--out")
    p_run.set_defaults(fn=cmd_run)

    p_sweep = sub.add_parser("sweep", help="run a template across n values")
    p_sweep.add_argument("--scenario", required=True)
    p_sweep.add_argument("--ns", type=_n_values, default="4,7,10")
    p_sweep.add_argument("--codec", choices=["plain", "compact"])
    p_sweep.add_argument("--out")
    p_sweep.set_defaults(fn=cmd_sweep)

    p_check = sub.add_parser("check", help="run a property suite")
    p_check.add_argument("suite", choices=SUITES)
    p_check.add_argument("--n", type=int, default=4)
    p_check.add_argument("--runs", type=_positive, default=100)
    p_check.add_argument("--seed", type=int, default=0)
    p_check.set_defaults(fn=cmd_check)

    p_dec = sub.add_parser("decode", help="decode and hex-dump a wire message")
    group = p_dec.add_mutually_exclusive_group(required=True)
    group.add_argument("--hex")
    group.add_argument("--file")
    p_dec.set_defaults(fn=cmd_decode)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
