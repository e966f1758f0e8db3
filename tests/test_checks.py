"""Negative controls for the invariant checks: each named invariant is
seen to fire.

*Outcome controls* run each protocol once, change one recorded output of
party 0 in ``metrics.outputs`` (delete it, extend it, cut it, flip its
first element, or change its decision or grade) and run the checks
again.  *Engine-state controls* change what an engine recorded (an msc
commit log, slot output or ranking, or an spc skip certificate), or
delete an msc slot output.  Each case's violation list is pinned, so a
refactor of the checks must keep every verdict and its text.  The
coverage test reads every invariant name given to ``Violation`` or
``_agreement`` in ``src/prefixsim`` and asks that a control here or
elsewhere fires it, or that ``UNREACHED`` says why none can.
"""

import ast
import os
from functools import lru_cache

from prefixsim import checks, cli
from prefixsim.scenario import run_checks, run_scenario
from prefixsim.spc import SkipCert

SRC = os.path.dirname(checks.__file__)

BASE = {"version": 1, "n": 4, "f": 1, "seed": 3}
UNANIMOUS = {"inputs": {"kind": "unanimous"}}

#: One run per protocol, and unanimous runs where a check reads unanimity.
OUTCOME_RUNS = {
    "pc3": {"protocol": "pc3", "L": 4},
    "pc3-unanimous": {"protocol": "pc3", "L": 4, **UNANIMOUS},
    "pc_opt": {"protocol": "pc_opt", "L": 4},
    "pc_opt-unanimous": {"protocol": "pc_opt", "L": 4, **UNANIMOUS},
    "pc_5f1": {"protocol": "pc_5f1", "n": 6, "L": 4},
    "pc_5f1-unanimous": {"protocol": "pc_5f1", "n": 6, "L": 4, **UNANIMOUS},
    "spc": {"protocol": "spc", "L": 4},
    "spc-unanimous": {"protocol": "spc", "L": 4, **UNANIMOUS},
    "graded": {"protocol": "graded"},
    "graded-unanimous": {"protocol": "graded", **UNANIMOUS},
    "binary": {"protocol": "binary"},
    "binary-unanimous": {"protocol": "binary", **UNANIMOUS},
    "validated": {"protocol": "validated"},
}

MSC = {**BASE, "protocol": "msc", "slots": 3}


def _recheck(result) -> list:
    return [str(v) for v in run_checks(result)]


def _tampers(kind, value):
    """(name, new value, or None to delete) for each way to change one output."""
    yield "delete", None
    if kind == "graded":
        v, grade = value
        yield "value", (b"z", grade)
        yield "grade", (v, 0 if grade else 2)
    elif isinstance(value, int):  # a binary decision
        yield "flip", 1 - value
    elif isinstance(value, bytes):  # a validated decision
        yield "value", b"z"
    else:  # a vector
        yield "extend", value + (b"z",)
        if value:
            yield "cut", value[:-1]
            yield "flip", (b"z",) + value[1:]


@lru_cache(maxsize=None)
def outcome_lists() -> dict:
    """Case name -> violation texts, for every outcome control."""
    got = {}
    for name, spec in OUTCOME_RUNS.items():
        result = run_scenario({**BASE, **spec})
        assert result.violations == [], name
        original = result.metrics.outputs[0]
        for kind, (value, proof, t) in sorted(original.items()):
            for how, new in _tampers(kind, value):
                tampered = dict(original)
                if new is None:
                    del tampered[kind]
                else:
                    tampered[kind] = (new, proof, t)
                result.metrics.outputs[0] = tampered
                got[f"{name} {kind} {how}"] = _recheck(result)
        result.metrics.outputs[0] = original
    return got


def _drop_last_commit(run):
    run.sim.engines[0].commit_log.pop()


def _replace_low(run):
    outputs = run.sim.engines[0].slot_outputs[1]
    high, proof = outputs["high"]
    outputs["low"] = ((b"z",) + high[1:], proof)


def _censor_party_3(run):
    for p in run.honest:
        engine = run.sim.engines[p]
        engine.commit_log = [c for c in engine.commit_log if c[:3:2] != (1, 3)]


def _reverse_ranking(run):
    ranks = run.sim.engines[0].ranks
    ranks[2] = ranks[2][::-1]


def _forget_slot1_high(run):
    del run.metrics.outputs[0]["slot1-high"]


def _skip_parented_view(run):
    run.sim.engines[1].built_skips.append(SkipCert(2, 1, (), None, None))


#: name -> (scenario, change to the finished run).  The suspender run
#: makes view 2 of every party but 0 end with a parented low, so a skip
#: certificate over view 2 is not conservative.
STATE_CONTROLS = {
    "msc drop-last-commit": (MSC, _drop_last_commit),
    "msc delete-slot1-high": (MSC, _forget_slot1_high),
    "msc replace-slot1-low": (MSC, _replace_low),
    "msc censor-party-3-slot1": (MSC, _censor_party_3),
    "msc reverse-slot2-ranking": (MSC, _reverse_ranking),
    "spc skip-parented-view": ({**BASE, "protocol": "spc", "L": 4,
                                "adversary": {"kind": "suspender", "round_len": 1}}, _skip_parented_view),
}


@lru_cache(maxsize=None)
def state_lists() -> dict:
    """Case name -> violation texts, for every engine-state control."""
    got = {}
    for name, (scn, change) in STATE_CONTROLS.items():
        result = run_scenario(scn)
        assert result.violations == [], name
        change(result)
        got[name] = _recheck(result)
    return got


def _fired(lists: dict) -> set:
    return {text.split(":", 1)[0] for texts in lists.values() for text in texts}


def test_outcome_controls_keep_their_verdicts():
    got = outcome_lists()
    assert sorted(got) == sorted(OUTCOME_PINS)
    for case, want in OUTCOME_PINS.items():
        assert got[case] == want, case


def test_engine_state_controls_keep_their_verdicts():
    got = state_lists()
    assert sorted(got) == sorted(STATE_PINS)
    for case, want in STATE_PINS.items():
        assert got[case] == want, case


def test_determinism_control(monkeypatch):
    """A replay whose transcript differs is reported."""
    real, calls = cli.run_scenario, []

    def flaky(scn):
        result = real(scn)
        calls.append(scn)
        if len(calls) % 2 == 0:
            result.metrics.transcript_sha = "0" * 64
        return result

    monkeypatch.setattr(cli, "run_scenario", flaky)
    opts = cli.build_parser().parse_args(["check", "determinism", "--runs", "1"])
    count, (seed, violation) = cli.run_suite("determinism", opts)
    assert (count, violation.invariant) == (1, "determinism")


def test_equivalence_control(monkeypatch):
    """A compact form that the harness rejects is reported."""

    def reject(values, cfg, scheme, rng):
        raise AssertionError("compact value differs")

    monkeypatch.setattr(cli.wire, "equivalence_harness", reject)
    opts = cli.build_parser().parse_args(["check", "equivalence", "--runs", "1"])
    count, (seed, violation) = cli.run_suite("equivalence", opts)
    assert (count, str(violation)) == (1, "equivalence: pc3: compact value differs")


#: Names that no pinned control fires, and where each is seen to fire.
UNREACHED = {
    "model": "fired by tests/test_simnet.py::test_model_soundness_reports_a_late_honest_delivery",
    "determinism": "fired by test_determinism_control",
    "equivalence": "fired by test_equivalence_control",
}


#: The calls whose first argument, a string literal, names an invariant.
NAMING = {"Violation", "_agreement"}


def _violation_names() -> set:
    names = set()
    for fname in sorted(os.listdir(SRC)):
        if not fname.endswith(".py"):
            continue
        with open(os.path.join(SRC, fname), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call) and getattr(node.func, "id", getattr(node.func, "attr", None)) in NAMING
                    and node.args and isinstance(node.args[0], ast.Constant)):
                names.add(node.args[0].value)
    return names


def test_every_invariant_name_has_a_control():
    names = _violation_names()
    assert len(names) >= 20
    fired = _fired(outcome_lists()) | _fired(state_lists())
    assert names - fired - set(UNREACHED) == set()
    assert set(UNREACHED) <= names and not fired & set(UNREACHED)


OUTCOME_PINS = {
    "pc3 high delete": ["termination: party 0 missing outputs"],
    "pc3 high extend": [
        "availability: high of 0 index 0 matches no honest input",
        "verifiability: high proof of 0 rejected",
    ],
    "pc3 low delete": ["termination: party 0 missing outputs"],
    "pc3 low extend": [
        "upper-bound: low of 0 not a prefix of high of 0",
        "upper-bound: low of 0 not a prefix of high of 1",
        "upper-bound: low of 0 not a prefix of high of 2",
        "upper-bound: low of 0 not a prefix of high of 3",
        "availability: low of 0 index 0 matches no honest input",
        "verifiability: low proof of 0 rejected",
    ],
    "pc3-unanimous high delete": ["termination: party 0 missing outputs"],
    "pc3-unanimous high extend": [
        "availability: high of 0 index 4 matches no honest input",
        "verifiability: high proof of 0 rejected",
    ],
    "pc3-unanimous high cut": [
        "upper-bound: low of 0 not a prefix of high of 0",
        "upper-bound: low of 1 not a prefix of high of 0",
        "upper-bound: low of 2 not a prefix of high of 0",
        "upper-bound: low of 3 not a prefix of high of 0",
        "verifiability: high proof of 0 rejected",
    ],
    "pc3-unanimous high flip": [
        "upper-bound: low of 0 not a prefix of high of 0",
        "upper-bound: low of 1 not a prefix of high of 0",
        "upper-bound: low of 2 not a prefix of high of 0",
        "upper-bound: low of 3 not a prefix of high of 0",
        "availability: high of 0 index 0 matches no honest input",
        "consistency: highs of 0 and 1 conflict",
        "consistency: highs of 0 and 2 conflict",
        "consistency: highs of 0 and 3 conflict",
        "verifiability: high proof of 0 rejected",
    ],
    "pc3-unanimous low delete": ["termination: party 0 missing outputs"],
    "pc3-unanimous low extend": [
        "upper-bound: low of 0 not a prefix of high of 0",
        "upper-bound: low of 0 not a prefix of high of 1",
        "upper-bound: low of 0 not a prefix of high of 2",
        "upper-bound: low of 0 not a prefix of high of 3",
        "availability: low of 0 index 4 matches no honest input",
        "verifiability: low proof of 0 rejected",
    ],
    "pc3-unanimous low cut": [
        "validity: low of 0 does not extend the honest common prefix",
        "verifiability: low proof of 0 rejected",
    ],
    "pc3-unanimous low flip": [
        "validity: low of 0 does not extend the honest common prefix",
        "upper-bound: low of 0 not a prefix of high of 0",
        "upper-bound: low of 0 not a prefix of high of 1",
        "upper-bound: low of 0 not a prefix of high of 2",
        "upper-bound: low of 0 not a prefix of high of 3",
        "availability: low of 0 index 0 matches no honest input",
        "verifiability: low proof of 0 rejected",
    ],
    "pc_opt high delete": ["termination: party 0 missing outputs"],
    "pc_opt high extend": [
        "availability: high of 0 index 0 matches no honest input",
        "verifiability: high proof of 0 rejected",
    ],
    "pc_opt low delete": ["termination: party 0 missing outputs"],
    "pc_opt low extend": [
        "upper-bound: low of 0 not a prefix of high of 0",
        "upper-bound: low of 0 not a prefix of high of 1",
        "upper-bound: low of 0 not a prefix of high of 2",
        "upper-bound: low of 0 not a prefix of high of 3",
        "availability: low of 0 index 0 matches no honest input",
        "verifiability: low proof of 0 rejected",
    ],
    "pc_opt opt delete": [],
    "pc_opt opt extend": [
        "availability: opt of 0 index 0 matches no honest input",
        "optimistic-prefix: opt of 0 not a prefix of its low",
    ],
    "pc_opt-unanimous high delete": ["termination: party 0 missing outputs"],
    "pc_opt-unanimous high extend": [
        "availability: high of 0 index 4 matches no honest input",
        "verifiability: high proof of 0 rejected",
    ],
    "pc_opt-unanimous high cut": [
        "upper-bound: low of 0 not a prefix of high of 0",
        "upper-bound: low of 1 not a prefix of high of 0",
        "upper-bound: low of 2 not a prefix of high of 0",
        "upper-bound: low of 3 not a prefix of high of 0",
        "verifiability: high proof of 0 rejected",
    ],
    "pc_opt-unanimous high flip": [
        "upper-bound: low of 0 not a prefix of high of 0",
        "upper-bound: low of 1 not a prefix of high of 0",
        "upper-bound: low of 2 not a prefix of high of 0",
        "upper-bound: low of 3 not a prefix of high of 0",
        "availability: high of 0 index 0 matches no honest input",
        "verifiability: high proof of 0 rejected",
    ],
    "pc_opt-unanimous low delete": ["termination: party 0 missing outputs"],
    "pc_opt-unanimous low extend": [
        "upper-bound: low of 0 not a prefix of high of 0",
        "upper-bound: low of 0 not a prefix of high of 1",
        "upper-bound: low of 0 not a prefix of high of 2",
        "upper-bound: low of 0 not a prefix of high of 3",
        "availability: low of 0 index 4 matches no honest input",
        "verifiability: low proof of 0 rejected",
    ],
    "pc_opt-unanimous low cut": [
        "validity: low of 0 does not extend the honest common prefix",
        "optimistic-prefix: opt of 0 not a prefix of its low",
        "verifiability: low proof of 0 rejected",
    ],
    "pc_opt-unanimous low flip": [
        "validity: low of 0 does not extend the honest common prefix",
        "upper-bound: low of 0 not a prefix of high of 0",
        "upper-bound: low of 0 not a prefix of high of 1",
        "upper-bound: low of 0 not a prefix of high of 2",
        "upper-bound: low of 0 not a prefix of high of 3",
        "availability: low of 0 index 0 matches no honest input",
        "optimistic-prefix: opt of 0 not a prefix of its low",
        "verifiability: low proof of 0 rejected",
    ],
    "pc_opt-unanimous opt delete": [],
    "pc_opt-unanimous opt extend": [
        "availability: opt of 0 index 4 matches no honest input",
        "optimistic-prefix: opt of 0 not a prefix of its low",
    ],
    "pc_opt-unanimous opt cut": ["optimistic-validity: opt of 0 misses the common prefix"],
    "pc_opt-unanimous opt flip": [
        "availability: opt of 0 index 0 matches no honest input",
        "optimistic-prefix: opt of 0 not a prefix of its low",
        "optimistic-validity: opt of 0 misses the common prefix",
    ],
    "pc_5f1 high delete": ["termination: party 0 missing outputs"],
    "pc_5f1 high extend": [
        "availability: high of 0 index 0 matches no honest input",
        "verifiability: high proof of 0 rejected",
    ],
    "pc_5f1 low delete": ["termination: party 0 missing outputs"],
    "pc_5f1 low extend": [
        "upper-bound: low of 0 not a prefix of high of 0",
        "upper-bound: low of 0 not a prefix of high of 1",
        "upper-bound: low of 0 not a prefix of high of 2",
        "upper-bound: low of 0 not a prefix of high of 3",
        "upper-bound: low of 0 not a prefix of high of 4",
        "upper-bound: low of 0 not a prefix of high of 5",
        "availability: low of 0 index 0 matches no honest input",
        "verifiability: low proof of 0 rejected",
    ],
    "pc_5f1-unanimous high delete": ["termination: party 0 missing outputs"],
    "pc_5f1-unanimous high extend": [
        "availability: high of 0 index 4 matches no honest input",
        "verifiability: high proof of 0 rejected",
    ],
    "pc_5f1-unanimous high cut": [
        "upper-bound: low of 0 not a prefix of high of 0",
        "upper-bound: low of 1 not a prefix of high of 0",
        "upper-bound: low of 2 not a prefix of high of 0",
        "upper-bound: low of 3 not a prefix of high of 0",
        "upper-bound: low of 4 not a prefix of high of 0",
        "upper-bound: low of 5 not a prefix of high of 0",
        "verifiability: high proof of 0 rejected",
    ],
    "pc_5f1-unanimous high flip": [
        "upper-bound: low of 0 not a prefix of high of 0",
        "upper-bound: low of 1 not a prefix of high of 0",
        "upper-bound: low of 2 not a prefix of high of 0",
        "upper-bound: low of 3 not a prefix of high of 0",
        "upper-bound: low of 4 not a prefix of high of 0",
        "upper-bound: low of 5 not a prefix of high of 0",
        "availability: high of 0 index 0 matches no honest input",
        "consistency: highs of 0 and 1 conflict",
        "consistency: highs of 0 and 2 conflict",
        "consistency: highs of 0 and 3 conflict",
        "consistency: highs of 0 and 4 conflict",
        "consistency: highs of 0 and 5 conflict",
        "verifiability: high proof of 0 rejected",
    ],
    "pc_5f1-unanimous low delete": ["termination: party 0 missing outputs"],
    "pc_5f1-unanimous low extend": [
        "upper-bound: low of 0 not a prefix of high of 0",
        "upper-bound: low of 0 not a prefix of high of 1",
        "upper-bound: low of 0 not a prefix of high of 2",
        "upper-bound: low of 0 not a prefix of high of 3",
        "upper-bound: low of 0 not a prefix of high of 4",
        "upper-bound: low of 0 not a prefix of high of 5",
        "availability: low of 0 index 4 matches no honest input",
        "verifiability: low proof of 0 rejected",
    ],
    "pc_5f1-unanimous low cut": [
        "validity: low of 0 does not extend the honest common prefix",
        "verifiability: low proof of 0 rejected",
    ],
    "pc_5f1-unanimous low flip": [
        "validity: low of 0 does not extend the honest common prefix",
        "upper-bound: low of 0 not a prefix of high of 0",
        "upper-bound: low of 0 not a prefix of high of 1",
        "upper-bound: low of 0 not a prefix of high of 2",
        "upper-bound: low of 0 not a prefix of high of 3",
        "upper-bound: low of 0 not a prefix of high of 4",
        "upper-bound: low of 0 not a prefix of high of 5",
        "availability: low of 0 index 0 matches no honest input",
        "verifiability: low proof of 0 rejected",
    ],
    "spc high delete": ["termination: party 0 missing outputs"],
    "spc high extend": [
        "agreement: 2 distinct high outputs",
        "availability: high of 0 index 0 matches no honest input",
    ],
    "spc low delete": ["termination: party 0 missing outputs"],
    "spc low extend": [
        "upper-bound: low of 0 not a prefix of high of 0",
        "upper-bound: low of 0 not a prefix of high of 1",
        "upper-bound: low of 0 not a prefix of high of 2",
        "upper-bound: low of 0 not a prefix of high of 3",
        "availability: low of 0 index 0 matches no honest input",
    ],
    "spc-unanimous high delete": ["termination: party 0 missing outputs"],
    "spc-unanimous high extend": [
        "agreement: 2 distinct high outputs",
        "availability: high of 0 index 4 matches no honest input",
    ],
    "spc-unanimous high cut": [
        "agreement: 2 distinct high outputs",
        "upper-bound: low of 0 not a prefix of high of 0",
        "upper-bound: low of 1 not a prefix of high of 0",
        "upper-bound: low of 2 not a prefix of high of 0",
        "upper-bound: low of 3 not a prefix of high of 0",
    ],
    "spc-unanimous high flip": [
        "agreement: 2 distinct high outputs",
        "upper-bound: low of 0 not a prefix of high of 0",
        "upper-bound: low of 1 not a prefix of high of 0",
        "upper-bound: low of 2 not a prefix of high of 0",
        "upper-bound: low of 3 not a prefix of high of 0",
        "availability: high of 0 index 0 matches no honest input",
    ],
    "spc-unanimous low delete": ["termination: party 0 missing outputs"],
    "spc-unanimous low extend": [
        "upper-bound: low of 0 not a prefix of high of 0",
        "upper-bound: low of 0 not a prefix of high of 1",
        "upper-bound: low of 0 not a prefix of high of 2",
        "upper-bound: low of 0 not a prefix of high of 3",
        "availability: low of 0 index 4 matches no honest input",
    ],
    "spc-unanimous low cut": ["validity: low of 0 does not extend the honest common prefix"],
    "spc-unanimous low flip": [
        "validity: low of 0 does not extend the honest common prefix",
        "upper-bound: low of 0 not a prefix of high of 0",
        "upper-bound: low of 0 not a prefix of high of 1",
        "upper-bound: low of 0 not a prefix of high of 2",
        "upper-bound: low of 0 not a prefix of high of 3",
        "availability: low of 0 index 0 matches no honest input",
    ],
    "graded graded delete": ["termination: party 0 missing graded output"],
    "graded graded value": [
        "graded-agreement: distinct non-empty values",
        "graded-validity: decided value was never an honest input",
    ],
    "graded graded grade": ["graded-agreement: grades spread 0..2"],
    "graded-unanimous graded delete": ["termination: party 0 missing graded output"],
    "graded-unanimous graded value": [
        "graded-agreement: distinct non-empty values",
        "graded-validity: decided value was never an honest input",
        "graded-validity: unanimous input but party 0 output (b'z', 2)",
    ],
    "graded-unanimous graded grade": [
        "graded-agreement: grades spread 0..2",
        "graded-validity: unanimous input but party 0 output (b'v', 0)",
    ],
    "binary decision delete": ["termination: party 0 undecided"],
    "binary decision flip": ["agreement: decisions {0, 1}"],
    "binary high delete": [],
    "binary high extend": [],
    "binary high cut": [],
    "binary high flip": [],
    "binary low delete": [],
    "binary low extend": [],
    "binary low cut": [],
    "binary low flip": [],
    "binary-unanimous decision delete": ["termination: party 0 undecided"],
    "binary-unanimous decision flip": [
        "agreement: decisions {0, 1}",
        "validity: unanimous {1} but decided {0, 1}",
    ],
    "binary-unanimous high delete": [],
    "binary-unanimous high extend": [],
    "binary-unanimous high cut": [],
    "binary-unanimous high flip": [],
    "binary-unanimous low delete": [],
    "binary-unanimous low extend": [],
    "binary-unanimous low cut": [],
    "binary-unanimous low flip": [],
    "validated decision delete": ["termination: party 0 undecided"],
    "validated decision value": ["agreement: decisions {b'payload-0-3', b'z'}"],
    "validated high delete": [],
    "validated high extend": [],
    "validated high cut": [],
    "validated high flip": [],
    "validated low delete": [],
    "validated low extend": [],
    "validated low cut": [],
    "validated low flip": [],
}

STATE_PINS = {
    "msc drop-last-commit": [
        "slot-agreement: slot 3 logs differ",
        "censorship: 1 censored slots exceed the 0 Byzantine parties",
    ],
    "msc delete-slot1-high": ["termination: party 0 never finished slot 1"],
    "msc replace-slot1-low": ["commit-prefix: slot 1 low not a prefix of high"],
    "msc censor-party-3-slot1": ["censorship: 1 censored slots exceed the 0 Byzantine parties"],
    "msc reverse-slot2-ranking": [
        "ranking-agreement: slot 2 rankings differ",
        "demotion: slot 1 ranking update mismatch",
        "demotion: slot 2 ranking update mismatch",
    ],
    "spc skip-parented-view": [
        "skip-conservatism: skip over view 2 despite a parented low",
        "skip-conservatism: skip over view 2 despite a parented low",
        "skip-conservatism: skip over view 2 despite a parented low",
    ],
}
