"""Declarative scenario files: schema validation, construction, running.

A scenario is a versioned JSON document selecting a protocol, the fault
and timing model, the adversary, the inputs, and the invariant checks to
enforce.  Every rule that differs by protocol or by adversary kind is a
row of one of two tables: ``PROTOCOL_TABLE`` (:class:`Protocol`: the
resilience bound, the inputs :class:`Shape`, the engine builder, the
invariant checks) and ``KIND_TABLE``
(:class:`Kind`: the builder, the fields read, each checked by ``FIELDS``,
the source of the Byzantine parties, the Byzantine bound, the jitter
field).  ``validate``, the builders, ``run_scenario`` and ``run_checks``
read the rows, so a new protocol or kind is one row.  ``validate``
returns (json-path, message) pairs; ``run_scenario`` returns a
:class:`RunResult` carrying the simulation, metrics and violations.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from . import adversaries, checks, crypto, wire
from .crypto import Scheme, make_scheme
from .derived import BinaryEngine, GradedEngine, ValidatedEngine
from .msc import MscConfig, MscEngine
from .pc import VARIANT_TABLE, PcConfig, PcEngine, Variant
from .simnet import Adversary, DelayPolicy, Simulation
from .spc import SpcConfig, SpcEngine

SCHEMA_VERSION = 1

VARIANTS = {"pc3": Variant.THREE_ROUND, "pc_opt": Variant.OPTIMISTIC, "pc_5f1": Variant.FAST_5F1}

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


_text = lambda v: isinstance(v, str)
_bit = lambda v: isinstance(v, int) and v in (0, 1)


class Shape(NamedTuple):
    """What a protocol reads from an ``inputs`` spec, and the inputs made from it."""

    field: str  # of explicit inputs: one entry per party
    entry_ok: Callable[[object, object], bool]  # an explicit entry, given L
    entries: str  # what the entries are, for errors; "{L}" is filled in
    value_ok: Callable[[object], bool]  # a unanimous ``value``
    value: str  # what the value is, for errors
    explicit: Callable[[object], object]  # the input of an explicit entry
    unanimous: Callable[[dict, int], object]  # every party's input, from the spec and L
    random: Callable[[random.Random, dict, int], object]  # one party's input, from the spec and L


VECTOR = Shape(  # a unanimous vector tags each of its L positions with one byte
    "vectors", lambda v, L: isinstance(v, list) and len(v) == L and all(map(_text, v)),
    "lists of {L} strings", _text, "string", lambda entry: tuple(e.encode() for e in entry),
    lambda spec, L: tuple(spec.get("value", "a").encode() + bytes([k]) for k in range(L)),
    lambda rng, spec, L: tuple(bytes([97 + rng.randrange(spec.get("alphabet", 3))]) for _ in range(L)))
VALUE = Shape(
    "values", lambda v, L: _text(v), "strings", _text, "string", str.encode,
    lambda spec, L: spec.get("value", "v").encode(),
    lambda rng, spec, L: bytes([97 + rng.randrange(spec.get("alphabet", 2))]))
BIT = Shape(
    "bits", lambda v, L: _bit(v), "bits (0 or 1)", _bit, "0 or 1", int,
    lambda spec, L: int(spec.get("value", 1)), lambda rng, spec, L: rng.randrange(2))


class Protocol(NamedTuple):
    """One protocol's rules.  It takes ``L`` exactly when its shape is
    VECTOR; with ``slots`` it is a multi-slot log, which takes ``slots``
    and per-slot ``payloads`` and exports a commit log."""

    resilience: int  # n >= resilience * f + 1
    shape: Optional[Shape]  # None: the inputs spec sets nothing it reads
    slots: bool
    inputs: Callable[[dict], list]  # per-party inputs of a defaulted scenario
    engines: Callable[[dict, Scheme], tuple]  # (pc config or None, party -> engine)
    invariants: Callable[["RunResult"], list]  # the check of the finished run


def _shaped_inputs(scn: dict) -> list:
    shape = PROTOCOL_TABLE[scn["protocol"]].shape
    spec, n, L = scn["inputs"], scn["n"], scn.get("L")
    kind = spec.get("kind", "random")
    if kind == "unanimous":
        return [shape.unanimous(spec, L)] * n
    if kind == "explicit":
        return [shape.explicit(entry) for entry in spec[shape.field]]
    rng = random.Random(spec.get("seed", scn["seed"]))
    return [shape.random(rng, spec, L) for _ in range(n)]


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


_rank0 = lambda scn: tuple(scn.get("rank0", ()) or range(scn["n"]))


def _pc_engines(scn, scheme):
    protocol = scn["protocol"]
    cfg = PcConfig(scn["n"], scn["f"], scn["L"], VARIANTS[protocol], ("scn", protocol))
    return cfg, lambda p: PcEngine(cfg, p, scheme)


def _spc_engines(scn, scheme):
    cfg = SpcConfig(scn["n"], scn["f"], scn["L"], scn["delta_cap"], ("scn", "spc"), _rank0(scn))
    return None, lambda p: SpcEngine(cfg, p, scheme)


def _msc_engines(scn, scheme):
    cfg = MscConfig(scn["n"], scn["f"], scn["delta_cap"], ("scn", "msc"), _rank0(scn), slots=scn["slots"])
    payload_fn = msc_payload_fn(scn)
    return None, lambda p: MscEngine(cfg, p, scheme, lambda s: payload_fn(p, s))


PROTOCOL_TABLE: Dict[str, Protocol] = {
    **{name: Protocol(VARIANT_TABLE[variant].resilience, VECTOR, False, _shaped_inputs, _pc_engines, checks.pc)
       for name, variant in VARIANTS.items()},  # the resilience is the variant's
    "spc": Protocol(3, VECTOR, False, _shaped_inputs, _spc_engines, checks.spc),
    "msc": Protocol(3, None, True, lambda scn: [None] * scn["n"],  # msc_payload_fn makes the payloads
                    _msc_engines, checks.msc),
    "graded": Protocol(
        3, VALUE, False, _shaped_inputs, lambda scn, scheme: (
            None, lambda p: GradedEngine(scn["n"], scn["f"], p, scheme)), checks.graded),
    "binary": Protocol(
        3, BIT, False, _shaped_inputs, lambda scn, scheme: (
            None, lambda p: BinaryEngine(scn["n"], scn["f"], scn["delta_cap"], p, scheme)), checks.binary),
    "validated": Protocol(
        3, None, False, lambda scn: [b"payload-%d-%d" % (p, scn["seed"]) for p in range(scn["n"])],
        lambda scn, scheme: (None, lambda p: ValidatedEngine(scn["n"], scn["f"], scn["delta_cap"], p, scheme)),
        checks.validated),
}
PROTOCOLS = tuple(PROTOCOL_TABLE)

_POSITIVE = (lambda v: isinstance(v, int) and v >= 1, "positive integer required")
_PARTY_IDS = (_party_ids, "list of party ids required")
#: Each adversary field's check, and the error it reports.
FIELDS: Dict[str, Tuple[Callable[[object], bool], str]] = {
    "byzantine": _PARTY_IDS,
    "reveal": (lambda v: _reveal_parties(v) is not None, "object mapping party ids to lists of party ids required"),
    "lag": (lambda v: isinstance(v, int) and v >= 0, "non-negative integer required"),
    "lag_victims": _PARTY_IDS,
    "links": (lambda v: isinstance(v, (list, tuple)) and all(_party_ids(l) and len(l) == 2 for l in v),
              "list of [sender, receiver] pairs required"),
    "round_len": _POSITIVE, "stretch": _POSITIVE, "jitter": _POSITIVE, "view": _POSITIVE,
}


class Kind(NamedTuple):
    """One adversary kind's rules.  Its Byzantine parties are those its
    ``parties`` field names: the ``byzantine`` list, or the keys of ``reveal``."""

    build: Callable[[dict, int, Scheme], Adversary]  # (spec, n, scheme)
    fields: Tuple[str, ...]  # every field it reads besides ``kind``
    parties: str  # "byzantine" or "reveal"
    suspends: int  # honest parties suspended at a time: the bound is f minus this
    jitter: Tuple[str, Optional[int]]  # the field feeding the policy jitter, and its default


_byz = lambda spec: spec.get("byzantine", [])
_reveal = lambda spec: {int(p): set(r) for p, r in spec.get("reveal", {}).items()}
_lagged = lambda spec: {"lag_victims": spec.get("lag_victims", ()), "lag": spec.get("lag", 0)}
_JITTER = ("jitter", None)
_BYZ = ("byzantine", "jitter")  # the fields of a kind with no setting of its own

KIND_TABLE: Dict[str, Kind] = {
    "none": Kind(lambda spec, n, scheme: Adversary(_byz(spec)), _BYZ, "byzantine", 0, _JITTER),
    "silent": Kind(lambda spec, n, scheme: adversaries.Silent(_byz(spec)), _BYZ, "byzantine", 0, _JITTER),
    "censor": Kind(lambda spec, n, scheme: adversaries.Censor(_reveal(spec), **_lagged(spec)),
                   ("reveal", "lag_victims", "lag", "jitter"), "reveal", 0, _JITTER),
    "equivocate": Kind(lambda spec, n, scheme: adversaries.Equivocate(_byz(spec), scheme, **_lagged(spec)),
                       ("byzantine", "lag_victims", "lag", "jitter"), "byzantine", 0, _JITTER),
    "split_view": Kind(lambda spec, n, scheme: adversaries.SplitView(_byz(spec), view=spec.get("view", 2)),
                       ("byzantine", "view", "jitter"), "byzantine", 0, _JITTER),
    "withhold_body": Kind(lambda spec, n, scheme: adversaries.WithholdBody(_reveal(spec)),
                          ("reveal", "jitter"), "reveal", 0, _JITTER),
    "doctored": Kind(lambda spec, n, scheme: adversaries.DoctoredProofs(_byz(spec)),
                     _BYZ, "byzantine", 0, _JITTER),
    "suspender": Kind(lambda spec, n, scheme: adversaries.Suspender(
                          n, _byz(spec), round_len=spec.get("round_len", 1)),
                      ("byzantine", "round_len", "jitter"), "byzantine", 1, _JITTER),
    "delayer": Kind(lambda spec, n, scheme: adversaries.Delayer(
                        [tuple(link) for link in spec.get("links", [])], stretch=spec.get("stretch", 8),
                        byzantine=_byz(spec)),
                    ("byzantine", "links", "stretch", "jitter"), "byzantine", 0, _JITTER),
    # fuzz delays are the policy's jitter
    "fuzz": Kind(lambda spec, n, scheme: Adversary(_byz(spec)),
                 ("byzantine", "stretch"), "byzantine", 0, ("stretch", 6)),
}
ADVERSARIES = tuple(KIND_TABLE)


def validate(scn: dict) -> List[Tuple[str, str]]:
    errors: List[Tuple[str, str]] = []

    def need(path, cond, msg):
        if not cond:
            errors.append((path, msg))

    if not isinstance(scn, dict):
        return [("", "scenario must be an object")]
    need("version", scn.get("version") == SCHEMA_VERSION, f"must be {SCHEMA_VERSION}")
    protocol = scn.get("protocol")
    row = PROTOCOL_TABLE.get(protocol) if isinstance(protocol, str) else None
    need("protocol", row is not None, f"one of {PROTOCOLS}")
    n, f, L = scn.get("n"), scn.get("f"), scn.get("L")
    need("n", isinstance(n, int) and n >= 1, "positive integer required")
    need("f", isinstance(f, int) and f >= 0, "non-negative integer required")
    if isinstance(n, int) and isinstance(f, int) and row is not None:
        bound = row.resilience * f + 1
        need("f", n >= bound, f"protocol {protocol} needs n >= {bound}")
    inputs = scn.get("inputs", DEFAULTS["inputs"])
    if row is not None and row.shape is VECTOR:
        need("L", isinstance(L, int) and L >= 1, "positive integer required")
        unanimous = isinstance(inputs, dict) and inputs.get("kind") == "unanimous"
        need("L", not (unanimous and isinstance(L, int) and L > 256), "at most 256 with unanimous inputs")
    codec = scn.get("codec", DEFAULTS["codec"])
    need("codec", codec in ("plain", "compact"), "plain or compact")
    if codec == "compact":  # the compact forms are those of the pc round schedules
        need("codec", row is not None and protocol in VARIANTS, f"compact codec covers {'/'.join(VARIANTS)} only")
    need("crypto", scn.get("crypto", "mac") in crypto.SCHEMES, "unknown backend")
    gst = scn.get("gst", DEFAULTS["gst"])
    need("gst", gst is None or (isinstance(gst, int) and gst >= 0), "integer time or null")
    for field_name in ("delta", "delta_cap"):
        val = scn.get(field_name, DEFAULTS[field_name])
        need(field_name, isinstance(val, int) and val >= 1, "positive integer required (virtual time is exact)")
    errors += _adversary_errors(scn.get("adversary", DEFAULTS["adversary"]), n, f)
    if row is not None and row.slots:
        slots = scn.get("slots", DEFAULTS["slots"])
        need("slots", isinstance(slots, int) and slots >= 1, "positive integer required")
    rank0 = scn.get("rank0")
    if rank0 is not None and isinstance(n, int):
        need("rank0", _party_ids(rank0) and sorted(rank0) == list(range(n)), "must be a permutation of the parties")
    need("seed", isinstance(scn.get("seed", DEFAULTS["seed"]), int), "integer required")
    return errors + _input_errors(inputs, row, n, L)


def _adversary_errors(adv, n, f) -> List[Tuple[str, str]]:
    """Schema errors of an ``adversary`` spec, read through its kind's row."""
    if not isinstance(adv, dict):
        return [("adversary", "object required")]
    kind = adv.get("kind", "none")
    row = KIND_TABLE.get(kind) if isinstance(kind, str) else None
    if row is None:
        return [("adversary.kind", f"one of {ADVERSARIES}")]
    errors = []
    for name in row.fields:
        ok, need = FIELDS[name]
        if name in adv and not ok(adv[name]):
            errors.append((f"adversary.{name}", need))
    source = adv.get(row.parties, [])
    if row.parties == "reveal":
        members = _reveal_parties(source) or set()
    else:
        members = set(source) if _party_ids(source) else set()
    if isinstance(f, int):
        limit = f - row.suspends
        if len(members) > limit:
            errors.append((f"adversary.{row.parties}", f"at most {limit} byzantine parties for {kind}"))
    if isinstance(n, int) and not all(0 <= p < n for p in members):
        errors.append((f"adversary.{row.parties}", "party ids out of range"))
    return errors + [(f"adversary.{name}", f"not a field of {kind}")
                     for name in adv if name != "kind" and name not in row.fields]


def _input_errors(spec, row: Optional[Protocol], n, L) -> List[Tuple[str, str]]:
    """Schema errors of an ``inputs`` spec, for each field that
    ``make_inputs`` or ``msc_payload_fn`` reads."""
    if not isinstance(spec, dict):
        return [("inputs", "object required")]
    kind = spec.get("kind", "random")
    alphabet = spec.get("alphabet", 1)
    payloads = spec.get("payloads", [])
    slots = row is not None and row.slots
    checks = [
        ("kind", kind in ("random", "unanimous", "explicit"), "random, unanimous or explicit"),
        ("seed", isinstance(spec.get("seed", 0), int), "integer required"),
        ("alphabet", isinstance(alphabet, int) and 1 <= alphabet <= 26, "integer from 1 to 26 required"),
        ("payloads", not slots or (isinstance(payloads, list) and all(isinstance(r, list) for r in payloads)),
         "list of per-slot lists required"),
    ]
    shape = row.shape if row is not None else None
    if shape is not None:
        entries = spec.get(shape.field)
        checks += [
            ("value", kind != "unanimous" or "value" not in spec or shape.value_ok(spec["value"]),
             f"{shape.value} required"),
            (shape.field, kind != "explicit" or (isinstance(entries, list) and len(entries) == n
                                                 and all(shape.entry_ok(e, L) for e in entries)),
             f"list of {n} {shape.entries.format(L=L)} required, one per party"),
        ]
    return [(f"inputs.{path}", msg) for path, ok, msg in checks if not ok]


class ScenarioError(ValueError):
    def __init__(self, errors):
        self.errors = errors
        super().__init__("; ".join(f"{p}: {m}" for p, m in errors))


def build_policy(scn: dict) -> DelayPolicy:
    """The scenario's timing model; the kind's row names the field that
    sets the link jitter."""
    spec = scn["adversary"]
    name, default = KIND_TABLE[spec.get("kind", "none")].jitter
    return DelayPolicy(gst=scn["gst"], cap=scn["delta_cap"], default_delay=scn["delta"],
                       jitter=spec.get(name, default))


def build_adversary(scn: dict, scheme: Scheme) -> Adversary:
    spec = scn["adversary"]
    return KIND_TABLE[spec.get("kind", "none")].build(spec, scn["n"], scheme)


def make_inputs(scn: dict) -> list:
    """Per-party protocol inputs of a defaulted scenario."""
    return PROTOCOL_TABLE[scn["protocol"]].inputs(scn)


@dataclass
class RunResult:
    scenario: dict
    sim: Simulation
    metrics: object
    inputs: list
    cfg: Optional[PcConfig]  # the pc config, for the pc variants
    scheme: Scheme
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
    errors = validate(scn)  # reads every field it checks with its default
    if errors:
        raise ScenarioError(errors)
    scn = {**DEFAULTS, **scn}
    n = scn["n"]
    scheme = make_scheme(scn["crypto"], n)
    policy = build_policy(scn)
    adversary = build_adversary(scn, scheme)
    inputs = make_inputs(scn)
    cfg, build = PROTOCOL_TABLE[scn["protocol"]].engines(scn, scheme)
    measure = None
    if scn["measure_bytes"]:  # validate admits the compact codec for the pc variants only
        codec = wire.CompactCodec(cfg, scheme) if scn["codec"] == "compact" else wire.PlainCodec()
        measure = codec.measure

    sim = Simulation(
        n, build, adversary=adversary, policy=policy, seed=scn["seed"],
        measure=measure, record=record,
    )
    for party in range(n):
        sim.schedule_input(party, inputs[party])
    metrics = sim.run()

    result = RunResult(scn, sim, metrics, inputs, cfg, scheme)
    result.violations = run_checks(result)
    return result


def run_checks(result: RunResult) -> list:
    """The protocol's check of the finished run, and for a recorded run
    the delivery bound of partial synchrony (``checks.model_soundness``)."""
    if result.scenario.get("checks") == "none":
        return []
    bad = PROTOCOL_TABLE[result.scenario["protocol"]].invariants(result)
    return bad + checks.model_soundness(result.sim) if result.sim.record else bad


def load_scenario(path: str) -> dict:
    """The JSON document at ``path``; a ``ScenarioError`` unless it is an object."""
    with open(path, "r", encoding="utf-8") as fh:
        scn = json.load(fh)
    if not isinstance(scn, dict):
        raise ScenarioError(validate(scn))
    return scn
