"""Executable safety/liveness invariants over finished simulation runs.

Each protocol has one check of the finished run, ``check(run) -> List[Violation]``,
where ``run`` is the :class:`~prefixsim.scenario.RunResult`: the simulation
(white-box engine access), the injected inputs, the engines' config and scheme, and
the metrics.  No violation means every invariant holds.  ``scenario.run_checks``
runs the protocol's check, and ``model_soundness`` too for a recorded run.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import List

from .msc import update_rank
from .pc import Variant, predicate_high, predicate_low
from .prefixes import consistent, is_prefix, mcp
from .spc import _Missing


@dataclass
class Violation:
    invariant: str
    detail: str

    def __str__(self) -> str:
        return f"{self.invariant}: {self.detail}"


def _set_text(values) -> str:
    """A set's text in sorted order, so it does not vary with the hash seed."""
    return "{" + ", ".join(sorted(map(repr, values))) + "}"


def _outputs(metrics, honest, kind):
    entries = ((p, metrics.outputs.get(p, {}).get(kind)) for p in honest)
    return {p: entry for p, entry in entries if entry is not None}


def _termination(metrics, honest, kinds, need, detail) -> List[Violation]:
    """Honest parties whose outputs lack the ``kinds`` they must produce:
    ``need`` is ``all`` or ``any``; ``detail`` names the party as ``{p}``."""
    return [Violation("termination", detail.format(p=p)) for p in honest
            if not need(kind in metrics.outputs.get(p, {}) for kind in kinds)]


def _agreement(name, values, detail) -> List[Violation]:
    """``name`` when the honest values are not all one; ``detail`` may
    name their ``{count}`` and their sorted ``{values}``."""
    distinct = set(values)
    if len(distinct) < 2:
        return []
    return [Violation(name, detail.format(count=len(distinct), values=_set_text(distinct)))]


def _prefix_violations(inputs, honest, lows, highs, groups) -> List[Violation]:
    """Validity and upper bound of the honest lows, and availability of each
    ``(name, outputs)`` group: every element is an honest input's at its index."""
    bad: List[Violation] = []
    honest_inputs = [tuple(inputs[p]) for p in honest]
    common = mcp(honest_inputs)
    for i, (low, _, _) in lows.items():
        if not is_prefix(common, low):
            bad.append(Violation("validity", f"low of {i} does not extend the honest common prefix"))
        for j, (high, _, _) in highs.items():
            if not is_prefix(low, high):
                bad.append(Violation("upper-bound", f"low of {i} not a prefix of high of {j}"))
    for name, group in groups:
        for p, (value, _, _) in group.items():
            for k in range(len(value)):
                if not any(len(vec) > k and vec[k] == value[k] for vec in honest_inputs):
                    bad.append(Violation("availability", f"{name} of {p} index {k} matches no honest input"))
                    break
    return bad


def pc(run) -> List[Violation]:
    """Prefix Consensus, every variant: termination, the prefix invariants,
    verifiable proofs, and consistent highs or, if optimistic, opts that are
    prefixes of the lows and, with no Byzantine party, of the common prefix."""
    cfg, honest, metrics = run.cfg, run.honest, run.metrics
    lows, highs, opts = (_outputs(metrics, honest, kind) for kind in ("low", "high", "opt"))
    optimistic = cfg.variant is Variant.OPTIMISTIC
    bad = _termination(metrics, honest, ("low", "high"), all, "party {p} missing outputs")
    late = []  # optimistic validity is checked even when no low or high landed
    if optimistic and not run.sim.adversary.byzantine:
        common = mcp([tuple(run.inputs[p]) for p in honest])
        late = [Violation("optimistic-validity", f"opt of {p} misses the common prefix")
                for p, (opt, _, _) in opts.items() if not is_prefix(common, opt)]
    if not lows or not highs:
        return bad + late
    bad += _prefix_violations(run.inputs, honest, lows, highs, (("low", lows), ("high", highs), ("opt", opts)))
    if not optimistic:
        for (i, (high_i, _, _)), (j, (high_j, _, _)) in combinations(highs.items(), 2):
            if not consistent(high_i, high_j):
                bad.append(Violation("consistency", f"highs of {i} and {j} conflict"))
    for p, (opt, _, _) in opts.items():
        if p in lows and not is_prefix(opt, lows[p][0]):
            bad.append(Violation("optimistic-prefix", f"opt of {p} not a prefix of its low"))
    for kind, outs, predicate in (("low", lows, predicate_low), ("high", highs, predicate_high)):
        for p, (value, proof, _) in outs.items():
            if not predicate(value, proof, cfg, run.scheme):
                bad.append(Violation("verifiability", f"{kind} proof of {p} rejected"))
    return bad + late


def spc(run) -> List[Violation]:
    """Strong Prefix Consensus: termination, agreement on the high, the
    prefix invariants, and skip certificates that jump only past views
    whose honest lows are parentless."""
    honest, metrics = run.honest, run.metrics
    lows, highs = _outputs(metrics, honest, "low"), _outputs(metrics, honest, "high")
    bad = _termination(metrics, honest, ("low", "high"), all, "party {p} missing outputs")
    if not highs:
        return bad
    bad += _agreement("agreement", (v for v, _, _ in highs.values()), "{count} distinct high outputs")
    bad += _prefix_violations(run.inputs, honest, lows, highs, (("low", lows), ("high", highs)))
    engines = [run.sim.engines[p] for p in honest]
    for cert in [cert for engine in engines for cert in engine.built_skips]:
        for view in range(cert.ref_view + 1, cert.prev_view + 1):
            for other in engines:
                out = other.vpc_outputs.get(view, {})
                if "low" in out and _parented(view, out["low"][0], [other] + engines):
                    bad.append(Violation("skip-conservatism", f"skip over view {view} despite a parented low"))
    return bad


def _parented(view, value, engines) -> bool:
    """Whether a view's output has a parent, as ``SpcEngine._has_parent``
    says: a view-1 output always does.  Each engine is asked in turn until
    one holds the body that the output's first digest names; a body that
    no engine holds counts as parentless."""
    for engine in engines:
        try:
            return engine._has_parent(view, value)
        except _Missing:
            continue
    return False


def msc(run) -> List[Violation]:
    """Multi-slot consensus: per slot, agreement of the commit logs and
    rankings, and termination; no more censored slots than Byzantine
    parties; rankings updated by each high, demoting only Byzantine parties
    after GST; early (low-derived) commits that prefix the final slot log."""
    honest, metrics, byzantine = run.honest, run.metrics, run.sim.adversary.byzantine
    slots, gst = run.scenario["slots"], run.scenario["gst"]
    engines = {p: run.sim.engines[p] for p in honest}
    censored = censorship_audit(run)
    commits = [e.committed_by_slot() for e in engines.values()]
    bad: List[Violation] = []
    for slot in range(1, slots + 1):
        bad += _agreement("slot-agreement", (tuple(c.get(slot, [])) for c in commits), f"slot {slot} logs differ")
        bad += _agreement("ranking-agreement", (e.ranks[slot] for e in engines.values() if slot in e.ranks),
                          f"slot {slot} rankings differ")
        bad += _termination(metrics, honest, (f"slot{slot}-high",), all, f"party {{p}} never finished slot {slot}")
    if len(censored) > len(byzantine):
        detail = f"{len(censored)} censored slots exceed the {len(byzantine)} Byzantine parties"
        bad.append(Violation("censorship", detail))
    for engine in engines.values():
        for slot in range(1, slots):
            rank, nxt = engine.ranks.get(slot), engine.ranks.get(slot + 1)
            if rank is None or nxt is None:
                continue
            high = engine.slot_outputs[slot]["high"][0]
            if update_rank(rank, high) != nxt:
                bad.append(Violation("demotion", f"slot {slot} ranking update mismatch"))
            if nxt != rank and len(high) < len(rank) and _slot_post_gst(metrics, honest, slot, gst):
                if rank[len(high)] not in byzantine:
                    bad.append(Violation("demotion", f"slot {slot} demoted honest party {rank[len(high)]}"))
    for engine in engines.values():
        for slot in range(1, slots + 1):
            outs = engine.slot_outputs.get(slot, {})
            if "low" in outs and "high" in outs and not is_prefix(outs["low"][0], outs["high"][0]):
                bad.append(Violation("commit-prefix", f"slot {slot} low not a prefix of high"))
    return bad


def _slot_post_gst(metrics, honest, slot, gst) -> bool:
    """A slot counts as post-GST when its earliest honest start is: slot
    1 starts at input, slot s when slot s-1's agreement lands."""
    starts = [0 if slot == 1 else metrics.output_time(p, f"slot{slot - 1}-high") for p in honest]
    start = min((t for t in starts if t is not None), default=None)
    return gst is not None and start is not None and start >= gst


def censorship_audit(run) -> List[int]:
    """Post-GST slots (``_slot_post_gst``) whose committed output misses
    some honest party's proposal, read from its input.  The bound holds
    "after GST", so a run with no GST counts no slot."""
    honest, gst = run.honest, run.scenario["gst"]
    commits = [run.sim.engines[p].committed_by_slot() for p in honest]
    censored = []
    for slot in range(1, run.scenario["slots"] + 1):
        if not _slot_post_gst(run.metrics, honest, slot, gst):
            continue
        proposals = {run.inputs[p][slot - 1] for p in honest}
        logs = ({payload for _, _, payload in by_slot.get(slot, [])} for by_slot in commits)
        if any(log and not proposals <= log for log in logs):  # an empty log is a termination problem
            censored.append(slot)
    return censored


def graded(run) -> List[Violation]:
    """Graded consensus: termination, grades at most one apart, at most
    one non-empty value and only honest inputs as values, and ``(v, 2)``
    everywhere on unanimous input ``v``."""
    honest, metrics = run.honest, run.metrics
    outs = _outputs(metrics, honest, "graded")
    bad = _termination(metrics, honest, ("graded",), all, "party {p} missing graded output")
    pairs = [v for v, _, _ in outs.values()]
    grades = [g for _, g in pairs]
    if grades and max(grades) - min(grades) > 1:
        bad.append(Violation("graded-agreement", f"grades spread {min(grades)}..{max(grades)}"))
    values = {v for v, g in pairs if v is not None}
    bad += _agreement("graded-agreement", values, "distinct non-empty values")
    honest_values = {run.inputs[p] for p in honest}
    bad += [Violation("graded-validity", "decided value was never an honest input")
            for v in sorted(values, key=repr) if v not in honest_values]
    if len(honest_values) == 1:
        (want,) = honest_values
        bad += [Violation("graded-validity", f"unanimous input but party {p} output {pair}")
                for p, (pair, _, _) in outs.items() if pair != (want, 2)]
    return bad


def binary(run) -> List[Violation]:
    """Binary agreement: termination, agreement, and unanimous-input validity."""
    honest, metrics = run.honest, run.metrics
    decisions = {v for v, _, _ in _outputs(metrics, honest, "decision").values()}
    bad = _termination(metrics, honest, ("decision",), all, "party {p} undecided")
    bad += _agreement("agreement", decisions, "decisions {values}")
    honest_bits = {run.inputs[p] for p in honest}
    if len(honest_bits) == 1 and decisions and decisions != honest_bits:
        bad.append(Violation("validity", f"unanimous {_set_text(honest_bits)} but decided {_set_text(decisions)}"))
    return bad


def validated(run) -> List[Violation]:
    """Validated agreement: agreement of the decisions; termination is a decision
    or an ``undecided`` output (no entry of the agreed vector is valid)."""
    honest, metrics = run.honest, run.metrics
    decided = {v for v, _, _ in _outputs(metrics, honest, "decision").values()}
    return (_agreement("agreement", decided, "decisions {values}")
            + _termination(metrics, honest, ("decision", "undecided"), any, "party {p} undecided"))


def model_soundness(sim) -> List[Violation]:
    """Partial synchrony as it happened: in a recorded run
    (``record=True``) every honest-to-honest ``send`` line names a
    delivery time no later than ``max(send, gst) + cap``."""
    if not sim.record:
        raise ValueError("model_soundness reads the transcript of a run made with record=True")
    gst, cap, byzantine = sim.policy.gst, sim.policy.cap, sim.adversary.byzantine
    if gst is None:
        return []
    bad: List[Violation] = []
    for line in sim.records:
        at, event, rest = line.split(" ", 2)
        if event != "send":
            continue
        link, rest = rest.split(" ", 1)
        if any(int(p) in byzantine for p in link.split("->")):
            continue
        send = Fraction(at[1:])
        deliver = Fraction(rest.rsplit(" ", 2)[1][len("deliver@"):])
        bound = max(send, gst) + cap
        if deliver > bound:
            bad.append(Violation("model", f"{link} sent at {send} delivered at {deliver} > {bound}"))
    return bad
