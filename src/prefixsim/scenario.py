"""Declarative scenario files: schema validation, construction, running.

A scenario is a versioned JSON document selecting a protocol, the fault
and timing model, the adversary, the inputs, and the invariant checks to
enforce.  ``validate`` returns (json-path, message) pairs;
``run_scenario`` executes and returns a :class:`RunResult` carrying the
simulation, metrics, and any invariant violations.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from typing import Callable, List, Tuple

from . import adversaries, checks, crypto, wire
from .crypto import Scheme, make_scheme
from .derived import BinaryEngine, GradedEngine, ValidatedEngine
from .msc import MscConfig, MscEngine
from .pc import PcConfig, PcEngine, Variant
from .simnet import Adversary, DelayPolicy, Simulation
from .spc import SpcConfig, SpcEngine

SCHEMA_VERSION = 1

PROTOCOLS = ("pc3", "pc_opt", "pc_5f1", "spc", "msc", "graded", "binary", "validated")
VARIANTS = {"pc3": Variant.THREE_ROUND, "pc_opt": Variant.OPTIMISTIC, "pc_5f1": Variant.FAST_5F1}
ADVERSARIES = (
    "none", "silent", "censor", "equivocate", "split_view",
    "withhold_body", "doctored", "suspender", "delayer", "fuzz",
)

DEFAULTS = {
    "codec": "plain",
    "crypto": "mac",
    "delta": 1,
    "delta_cap": 1,
    "gst": 0,
    "seed": 0,
    "slots": 2,
    "measure_bytes": False,
    "adversary": {"kind": "none"},
    "inputs": {"kind": "random"},
    "checks": "default",
}


def validate(scn: dict) -> List[Tuple[str, str]]:
    errors: List[Tuple[str, str]] = []

    def need(path, cond, msg):
        if not cond:
            errors.append((path, msg))

    if not isinstance(scn, dict):
        return [("", "scenario must be an object")]
    need("version", scn.get("version") == SCHEMA_VERSION, f"must be {SCHEMA_VERSION}")
    protocol = scn.get("protocol")
    need("protocol", protocol in PROTOCOLS, f"one of {PROTOCOLS}")
    n, f = scn.get("n"), scn.get("f")
    need("n", isinstance(n, int) and n >= 1, "positive integer required")
    need("f", isinstance(f, int) and f >= 0, "non-negative integer required")
    if isinstance(n, int) and isinstance(f, int) and protocol in PROTOCOLS:
        bound = 5 * f + 1 if protocol == "pc_5f1" else 3 * f + 1
        need("f", n >= bound, f"protocol {protocol} needs n >= {bound}")
    if protocol in VARIANTS or protocol == "spc":
        L = scn.get("L")
        need("L", isinstance(L, int) and L >= 1, "positive integer required")
        # make_inputs tags each position of a unanimous vector with one byte.
        inputs = scn.get("inputs", DEFAULTS["inputs"])
        unanimous = isinstance(inputs, dict) and inputs.get("kind") == "unanimous"
        need("L", not (unanimous and isinstance(L, int) and L > 256), "at most 256 with unanimous inputs")
    codec = scn.get("codec", DEFAULTS["codec"])
    need("codec", codec in ("plain", "compact"), "plain or compact")
    if codec == "compact":
        need("codec", protocol in ("pc3", "pc_opt"), "compact codec covers pc3/pc_opt only")
    need("crypto", scn.get("crypto", "mac") in crypto.SCHEMES, "unknown backend")
    gst = scn.get("gst", DEFAULTS["gst"])
    need("gst", gst is None or (isinstance(gst, int) and gst >= 0), "integer time or null")
    for field_name in ("delta", "delta_cap"):
        val = scn.get(field_name, DEFAULTS[field_name])
        need(field_name, isinstance(val, int) and val >= 1, "positive integer required (virtual time is exact)")
    adv = scn.get("adversary", DEFAULTS["adversary"])
    if not isinstance(adv, dict):
        errors.append(("adversary", "object required"))
    else:
        kind = adv.get("kind", "none")
        need("adversary.kind", kind in ADVERSARIES, f"one of {ADVERSARIES}")
        byz = adv.get("byzantine", [])
        if not _party_ids(byz):
            errors.append(("adversary.byzantine", "list of party ids required"))
            byz = []
        revealers = _reveal_parties(adv.get("reveal", {}))
        if revealers is None:
            errors.append(("adversary.reveal", "object mapping party ids to lists of party ids required"))
            revealers = set()
        members = set(byz) | revealers
        if isinstance(f, int) and kind not in ("none", "fuzz", "delayer"):
            limit = f - 1 if kind == "suspender" else f
            need("adversary.byzantine", len(members) <= limit,
                 f"at most {limit} byzantine parties for {kind}")
        if isinstance(n, int):
            need("adversary.byzantine", all(isinstance(p, int) and 0 <= p < n for p in members),
                 "party ids out of range")
        for name, least in (("lag", 0), ("round_len", 1), ("stretch", 1), ("jitter", 1), ("view", 1)):
            if name in adv:
                val = adv[name]
                need(f"adversary.{name}", isinstance(val, int) and val >= least,
                     "non-negative integer required" if least == 0 else "positive integer required")
        need("adversary.lag_victims", _party_ids(adv.get("lag_victims", [])), "list of party ids required")
        links = adv.get("links", [])
        need("adversary.links",
             isinstance(links, (list, tuple)) and all(_party_ids(link) and len(link) == 2 for link in links),
             "list of [sender, receiver] pairs required")
    if protocol == "msc":
        slots = scn.get("slots", DEFAULTS["slots"])
        need("slots", isinstance(slots, int) and slots >= 1, "positive integer required")
    rank0 = scn.get("rank0")
    if rank0 is not None and isinstance(n, int):
        need("rank0", _party_ids(rank0) and sorted(rank0) == list(range(n)), "must be a permutation of the parties")
    need("seed", isinstance(scn.get("seed", DEFAULTS["seed"]), int), "integer required")
    return errors + _input_errors(scn.get("inputs", DEFAULTS["inputs"]), protocol, n, scn.get("L"))


def _input_errors(spec, protocol, n, L) -> List[Tuple[str, str]]:
    """Schema errors of an ``inputs`` spec, for each field that
    ``make_inputs`` or ``msc_payload_fn`` reads."""
    if not isinstance(spec, dict):
        return [("inputs", "object required")]
    kind = spec.get("kind", "random")
    alphabet = spec.get("alphabet", 1)
    payloads = spec.get("payloads", [])
    checks = [
        ("kind", kind in ("random", "unanimous", "explicit"), "random, unanimous or explicit"),
        ("seed", isinstance(spec.get("seed", 0), int), "integer required"),
        ("alphabet", isinstance(alphabet, int) and 1 <= alphabet <= 26, "integer from 1 to 26 required"),
        ("payloads", protocol != "msc" or (isinstance(payloads, list) and all(isinstance(r, list) for r in payloads)),
         "list of per-slot lists required"),
    ]
    # Per protocol: the explicit-input field, the check of one of its
    # entries, and the check of a unanimous value.
    text = lambda v: isinstance(v, str)
    bit = lambda v: isinstance(v, int) and v in (0, 1)
    vector = lambda v: isinstance(v, list) and len(v) == L and all(map(text, v))
    shape = {
        "graded": ("values", text, "strings", text, "string"),
        "binary": ("bits", bit, "bits (0 or 1)", bit, "0 or 1"),
        "vector": ("vectors", vector, f"lists of {L} strings", text, "string"),
    }.get("vector" if protocol in VARIANTS or protocol == "spc" else protocol)
    if shape is not None:
        field, entry_ok, entries_what, value_ok, value_what = shape
        entries = spec.get(field)
        checks += [
            ("value", kind != "unanimous" or "value" not in spec or value_ok(spec["value"]), f"{value_what} required"),
            (field, kind != "explicit" or (isinstance(entries, list) and len(entries) == n and all(map(entry_ok, entries))),
             f"list of {n} {entries_what} required, one per party"),
        ]
    return [(f"inputs.{path}", msg) for path, ok, msg in checks if not ok]


def _party_ids(value) -> bool:
    """Whether ``value`` is a list of integer party ids."""
    return isinstance(value, (list, tuple)) and all(isinstance(p, int) for p in value)


def _reveal_parties(reveal):
    """The party ids keying a ``reveal`` object (JSON keys are strings), or
    None unless it maps party ids to lists of party ids."""
    if not isinstance(reveal, dict) or not all(_party_ids(r) for r in reveal.values()):
        return None
    try:
        return {int(k) for k in reveal}
    except (TypeError, ValueError):
        return None


class ScenarioError(ValueError):
    def __init__(self, errors):
        self.errors = errors
        super().__init__("; ".join(f"{p}: {m}" for p, m in errors))


def _with_defaults(scn: dict) -> dict:
    merged = dict(DEFAULTS)
    merged.update(scn)
    return merged


def build_policy(scn: dict) -> DelayPolicy:
    """The scenario's timing model.  Link jitter is the ``fuzz``
    adversary's ``stretch`` (default 6) or any other kind's ``jitter``."""
    spec = scn["adversary"]
    jitter = spec.get("stretch", 6) if spec.get("kind") == "fuzz" else spec.get("jitter")
    return DelayPolicy(gst=scn["gst"], cap=scn["delta_cap"], default_delay=scn["delta"], jitter=jitter)


def build_adversary(scn: dict, scheme: Scheme) -> Adversary:
    spec = scn["adversary"]
    kind = spec.get("kind", "none")
    byz = spec.get("byzantine", [])
    reveal = {int(p): set(r) for p, r in spec.get("reveal", {}).items()}
    if kind in ("none", "fuzz"):  # fuzz delays are the policy's jitter
        return Adversary(byzantine=byz)
    if kind == "silent":
        return adversaries.Silent(byzantine=byz)
    if kind == "censor":
        return adversaries.Censor(
            reveal,
            lag_victims=spec.get("lag_victims", ()),
            lag=spec.get("lag", 0),
        )
    if kind == "equivocate":
        return adversaries.Equivocate(
            byz, scheme,
            lag_victims=spec.get("lag_victims", ()),
            lag=spec.get("lag", 0),
        )
    if kind == "split_view":
        return adversaries.SplitView(byzantine=byz, view=spec.get("view", 2))
    if kind == "withhold_body":
        return adversaries.WithholdBody(reveal)
    if kind == "doctored":
        return adversaries.DoctoredProofs(byzantine=byz)
    if kind == "suspender":
        return adversaries.Suspender(scn["n"], byzantine=byz, round_len=spec.get("round_len", 1))
    # delayer: validate admits no other kind
    links = [tuple(l) for l in spec.get("links", [])]
    return adversaries.Delayer(links, stretch=spec.get("stretch", 8), byzantine=byz)


def make_inputs(scn: dict) -> list:
    """Per-party protocol inputs from the scenario's input spec."""
    spec = scn["inputs"]
    kind = spec.get("kind", "random")
    n = scn["n"]
    rng = random.Random(spec.get("seed", scn["seed"]))
    protocol = scn["protocol"]
    if protocol in ("pc3", "pc_opt", "pc_5f1", "spc"):
        L = scn["L"]
        if kind == "unanimous":
            elem = spec.get("value", "a").encode()
            return [tuple(elem + bytes([k]) for k in range(L))] * n
        if kind == "explicit":
            return [tuple(e.encode() for e in vec) for vec in spec["vectors"]]
        alphabet = spec.get("alphabet", 3)
        return [
            tuple(bytes([97 + rng.randrange(alphabet)]) for _ in range(L))
            for _ in range(n)
        ]
    if protocol == "graded":
        if kind == "unanimous":
            return [spec.get("value", "v").encode()] * n
        if kind == "explicit":
            return [v.encode() for v in spec["values"]]
        alphabet = spec.get("alphabet", 2)
        return [bytes([97 + rng.randrange(alphabet)]) for _ in range(n)]
    if protocol == "binary":
        if kind == "unanimous":
            return [int(spec.get("value", 1))] * n
        if kind == "explicit":
            return [int(v) for v in spec["bits"]]
        return [rng.randrange(2) for _ in range(n)]
    if protocol == "validated":
        return [b"payload-%d-%d" % (p, scn["seed"]) for p in range(n)]
    return [None] * n  # msc: payloads come from msc_payload_fn


def msc_payload_fn(scn: dict) -> Callable[[int, int], bytes]:
    spec = scn.get("inputs", {})
    if spec.get("kind") == "explicit" and "payloads" in spec:
        table = spec["payloads"]  # per slot, per party payload strings
        seed = scn["seed"]

        def explicit(party: int, slot: int) -> bytes:
            try:
                return table[slot - 1][party].encode()
            except (IndexError, AttributeError):
                return b"tx-%d-%d-%d" % (party, slot, seed)

        return explicit
    seed = scn["seed"]
    return lambda party, slot: b"tx-%d-%d-%d" % (party, slot, seed)


@dataclass
class RunResult:
    scenario: dict
    sim: Simulation
    metrics: object
    inputs: list
    violations: list = field(default_factory=list)

    @property
    def honest(self):
        return self.sim.honest

    def metrics_doc(self) -> dict:
        m = self.metrics
        doc = {
            "protocol": self.scenario["protocol"],
            "n": self.scenario["n"],
            "f": self.scenario["f"],
            "seed": self.scenario["seed"],
            "codec": self.scenario["codec"],
            "end_time": str(m.end_time),
            "network_messages": m.message_count,
            "fetch_messages": m.fetch_messages,
            "bytes_total": m.bytes_total,
            "drops": m.drops,
            "transcript_sha": m.transcript_sha,
            "outputs": {
                str(p): {kind: {"time": str(t)} for kind, (_v, _pf, t) in kinds.items()}
                for p, kinds in m.outputs.items()
            },
            "violations": [str(v) for v in self.violations],
        }
        return doc


def run_scenario(scn: dict, record: bool = False) -> RunResult:
    scn = _with_defaults(scn)
    errors = validate(scn)
    if errors:
        raise ScenarioError(errors)
    protocol = scn["protocol"]
    n, f, seed = scn["n"], scn["f"], scn["seed"]
    scheme = make_scheme(scn["crypto"], n)
    policy = build_policy(scn)
    adversary = build_adversary(scn, scheme)
    inputs = make_inputs(scn)

    cfg = None
    if protocol in VARIANTS:
        cfg = PcConfig(n, f, scn["L"], VARIANTS[protocol], ("scn", protocol))
        build = lambda p: PcEngine(cfg, p, scheme)
    elif protocol == "spc":
        spc_cfg = SpcConfig(n, f, scn["L"], scn["delta_cap"], ("scn", "spc"),
                            tuple(scn.get("rank0", ()) or range(n)))
        build = lambda p: SpcEngine(spc_cfg, p, scheme)
    elif protocol == "msc":
        msc_cfg = MscConfig(n, f, scn["delta_cap"], ("scn", "msc"),
                            tuple(scn.get("rank0", ()) or range(n)), slots=scn["slots"])
        payload_fn = msc_payload_fn(scn)
        build = lambda p: MscEngine(msc_cfg, p, scheme, lambda s, p=p: payload_fn(p, s))
    elif protocol == "graded":
        build = lambda p: GradedEngine(n, f, p, scheme)
    elif protocol == "binary":
        build = lambda p: BinaryEngine(n, f, scn["delta_cap"], p, scheme)
    else:  # validated: validate admits no other protocol
        build = lambda p: ValidatedEngine(n, f, scn["delta_cap"], p, scheme)
    measure = None
    if scn["measure_bytes"]:  # validate admits the compact codec for pc variants only
        codec = wire.CompactCodec(cfg, scheme) if scn["codec"] == "compact" else wire.PlainCodec()
        measure = codec.measure

    sim = Simulation(
        n, build, adversary=adversary, policy=policy, seed=seed,
        measure=measure, record=record,
    )
    for party in range(n):
        sim.schedule_input(party, inputs[party])
    metrics = sim.run()

    result = RunResult(scn, sim, metrics, inputs)
    result.violations = run_checks(result, cfg, scheme)
    return result


def run_checks(result: RunResult, cfg, scheme) -> list:
    scn = result.scenario
    if scn.get("checks") == "none":
        return []
    protocol = scn["protocol"]
    honest = result.honest
    byz = result.sim.adversary.byzantine
    violations = []
    if protocol in VARIANTS:
        violations += checks.pc_violations(cfg, scheme, result.inputs, honest, result.metrics)
        if protocol == "pc_opt":
            violations += checks.pc_optimistic_validity(result.inputs, honest, result.metrics, byz)
    elif protocol == "spc":
        violations += checks.spc_violations(result.sim, result.inputs, honest, result.metrics)
    elif protocol == "msc":
        violations += checks.msc_violations(
            result.sim, honest, byz, msc_payload_fn(scn), scn["slots"], scn["gst"], result.metrics
        )
        violations += checks.msc_commit_prefix(result.sim, honest, scn["slots"])
    elif protocol == "graded":
        violations += checks.graded_violations(result.inputs, honest, result.metrics)
    elif protocol == "binary":
        violations += checks.binary_violations(result.inputs, honest, result.metrics)
    elif protocol == "validated":
        outs = {p: result.metrics.output_value(p, "decision") for p in honest}
        decided = {v for v in outs.values() if v is not None}
        if len(decided) > 1:
            violations.append(checks.Violation("agreement", f"decisions {decided}"))
        for p, v in outs.items():
            if v is None and result.metrics.output_value(p, "undecided") is None:
                violations.append(checks.Violation("termination", f"party {p} undecided"))
    return violations


def load_scenario(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)
