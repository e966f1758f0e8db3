"""Executable safety/liveness invariants over finished simulation runs.

Each checker takes the simulation (white-box engine access), the ground
truth the simulator injected (inputs, Byzantine set), and the collected
metrics, and returns a list of violations.  Empty list = all invariants
hold.  The acceptance suite and ``prefixsim check`` drive these over the
seeded scenarios of ``prefixsim.catalogue``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List

from .msc import update_rank
from .pc import PcConfig, Variant, predicate_high, predicate_low
from .prefixes import consistent, is_prefix, mcp


@dataclass
class Violation:
    invariant: str
    detail: str

    def __str__(self) -> str:
        return f"{self.invariant}: {self.detail}"


def _outputs(metrics, honest, kind):
    out = {}
    for p in honest:
        entry = metrics.outputs.get(p, {}).get(kind)
        if entry is not None:
            out[p] = entry
    return out


def _prefix_violations(inputs, honest, lows, highs, groups) -> List[Violation]:
    """Validity and upper bound of the honest lows, and availability of
    each ``(name, outputs)`` group: every element of an output is some
    honest input's element at the same index."""
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


def pc_violations(cfg: PcConfig, scheme, inputs, honest, metrics) -> List[Violation]:
    """Core prefix-consensus invariants plus verifiable-proof soundness."""
    bad: List[Violation] = []
    lows = _outputs(metrics, honest, "low")
    highs = _outputs(metrics, honest, "high")
    opts = _outputs(metrics, honest, "opt")
    for p in honest:
        if p not in lows or p not in highs:
            bad.append(Violation("termination", f"party {p} missing outputs"))
    if not lows or not highs:
        return bad
    bad += _prefix_violations(inputs, honest, lows, highs, (("low", lows), ("high", highs), ("opt", opts)))
    if cfg.variant is not Variant.OPTIMISTIC:
        items = list(highs.items())
        for a in range(len(items)):
            for b in range(a + 1, len(items)):
                if not consistent(items[a][1][0], items[b][1][0]):
                    bad.append(Violation("consistency", f"highs of {items[a][0]} and {items[b][0]} conflict"))
    if cfg.variant is Variant.OPTIMISTIC:
        for p, (opt, _, _) in opts.items():
            if p in lows and not is_prefix(opt, lows[p][0]):
                bad.append(Violation("optimistic-prefix", f"opt of {p} not a prefix of its low"))
    for p, (low, proof, _) in lows.items():
        if not predicate_low(low, proof, cfg, scheme):
            bad.append(Violation("verifiability", f"low proof of {p} rejected"))
    for p, (high, proof, _) in highs.items():
        if not predicate_high(high, proof, cfg, scheme):
            bad.append(Violation("verifiability", f"high proof of {p} rejected"))
    return bad


def pc_optimistic_validity(inputs, honest, metrics, byzantine) -> List[Violation]:
    """In all-honest runs the optimistic output extends the common prefix."""
    if byzantine:
        return []
    bad = []
    common = mcp([tuple(inputs[p]) for p in honest])
    for p, (opt, _, _) in _outputs(metrics, honest, "opt").items():
        if not is_prefix(common, opt):
            bad.append(Violation("optimistic-validity", f"opt of {p} misses the common prefix"))
    return bad


def spc_violations(sim, inputs, honest, metrics) -> List[Violation]:
    bad: List[Violation] = []
    lows = _outputs(metrics, honest, "low")
    highs = _outputs(metrics, honest, "high")
    for p in honest:
        if p not in lows or p not in highs:
            bad.append(Violation("termination", f"party {p} missing outputs"))
    if not highs:
        return bad
    values = {v for v, _, _ in highs.values()}
    if len(values) > 1:
        bad.append(Violation("agreement", f"{len(values)} distinct high outputs"))
    bad += _prefix_violations(inputs, honest, lows, highs, (("low", lows), ("high", highs)))
    bad.extend(spc_skip_conservatism(sim, honest))
    return bad


def spc_skip_conservatism(sim, honest) -> List[Violation]:
    """Every skip certificate that jumps past views implies those views
    produced only parentless lows at honest parties (of an spc run)."""
    bad: List[Violation] = []
    engines = [sim.engines[p] for p in honest]
    for engine in engines:
        for cert in engine.built_skips:
            for view in range(cert.ref_view + 1, cert.prev_view + 1):
                for other in engines:
                    out = other.vpc_outputs.get(view, {})
                    if "low" in out and other._parent_of(out["low"][0]) is not None:
                        detail = f"skip over view {view} despite a parented low"
                        bad.append(Violation("skip-conservatism", detail))
    return bad


def msc_violations(sim, honest, byzantine, payload_fn, slots, gst, metrics) -> List[Violation]:
    bad: List[Violation] = []
    engines = {p: sim.engines[p] for p in honest}
    censored = censorship_audit(sim, honest, payload_fn, slots, gst, metrics)
    for slot in range(1, slots + 1):
        logs = {p: e.committed_for_slot(slot) for p, e in engines.items()}
        values = {tuple(log) for log in logs.values()}
        if len(values) > 1:
            bad.append(Violation("slot-agreement", f"slot {slot} logs differ"))
        ranks = {e.ranks.get(slot) for e in engines.values() if slot in e.ranks}
        if len(ranks) > 1:
            bad.append(Violation("ranking-agreement", f"slot {slot} rankings differ"))
        for p, e in engines.items():
            if slot not in e.slot_outputs or "high" not in e.slot_outputs[slot]:
                bad.append(Violation("termination", f"party {p} never finished slot {slot}"))
    if len(censored) > len(byzantine):
        bad.append(Violation("censorship", f"{len(censored)} censored slots exceed f"))
    bad.extend(msc_demotions_byzantine(sim, honest, byzantine, slots, gst, metrics))
    return bad


def _slot_start(metrics, honest, slot):
    """Earliest honest start of a slot, or None if no honest party
    started it: slot 1 starts at input, slot s when slot s-1's agreement
    lands."""
    starts = [0 if slot == 1 else metrics.output_time(p, f"slot{slot - 1}-high") for p in honest]
    return min((t for t in starts if t is not None), default=None)


def _slot_post_gst(metrics, honest, slot, gst) -> bool:
    """A slot counts as post-GST when its earliest honest start is."""
    start = _slot_start(metrics, honest, slot)
    return gst is not None and start is not None and start >= gst


def msc_demotions_byzantine(sim, honest, byzantine, slots, gst, metrics) -> List[Violation]:
    """Post-GST demotions must name Byzantine parties (pre-GST slots may
    legitimately demote honest parties whose proposals were delayed)."""
    bad: List[Violation] = []
    for p in honest:
        engine = sim.engines[p]
        for slot in range(1, slots):
            rank = engine.ranks.get(slot)
            nxt = engine.ranks.get(slot + 1)
            if rank is None or nxt is None:
                continue
            high = engine.slot_outputs[slot]["high"][0]
            if update_rank(rank, high) != nxt:
                bad.append(Violation("demotion", f"slot {slot} ranking update mismatch"))
            if nxt != rank and _slot_post_gst(metrics, honest, slot, gst):
                demoted = rank[len(high)]
                if demoted not in byzantine:
                    bad.append(
                        Violation("demotion", f"slot {slot} demoted honest party {demoted}")
                    )
    return bad


def censorship_audit(sim, honest, payload_fn, slots, gst, metrics) -> List[int]:
    """Post-GST slots whose committed output misses some honest input.

    A slot is classified post-GST by its earliest honest start time; with
    no GST every started slot counts."""
    censored = []
    for slot in range(1, slots + 1):
        start = _slot_start(metrics, honest, slot)
        if start is None or (gst is not None and start < gst):
            continue
        for p in honest:
            committed = {payload for _, _, payload in sim.engines[p].committed_for_slot(slot)}
            if not committed:
                continue  # termination problems are reported elsewhere
            if any(payload_fn(h, slot) not in committed for h in honest):
                censored.append(slot)
                break
    return censored


def msc_commit_prefix(sim, honest, slots) -> List[Violation]:
    """Early (low-derived) commits are prefixes of the final slot log."""
    bad = []
    for p in honest:
        engine = sim.engines[p]
        for slot in range(1, slots + 1):
            outs = engine.slot_outputs.get(slot, {})
            if "low" in outs and "high" in outs:
                if not is_prefix(outs["low"][0], outs["high"][0]):
                    bad.append(Violation("commit-prefix", f"slot {slot} low not a prefix of high"))
    return bad


def graded_violations(inputs, honest, metrics) -> List[Violation]:
    bad: List[Violation] = []
    outs = _outputs(metrics, honest, "graded")
    for p in honest:
        if p not in outs:
            bad.append(Violation("termination", f"party {p} missing graded output"))
    pairs = [v for v, _, _ in outs.values()]
    grades = [g for _, g in pairs]
    if grades and max(grades) - min(grades) > 1:
        bad.append(Violation("graded-agreement", f"grades spread {min(grades)}..{max(grades)}"))
    values = {v for v, g in pairs if v is not None}
    if len(values) > 1:
        bad.append(Violation("graded-agreement", "distinct non-empty values"))
    honest_values = {inputs[p] for p in honest}
    for v in values:
        if v not in honest_values:
            bad.append(Violation("graded-validity", "decided value was never an honest input"))
    if len(honest_values) == 1:
        want = next(iter(honest_values))
        for p, (pair, _, _) in outs.items():
            if pair != (want, 2):
                bad.append(Violation("graded-validity", f"unanimous input but party {p} output {pair}"))
    return bad


def binary_violations(inputs, honest, metrics) -> List[Violation]:
    bad: List[Violation] = []
    outs = _outputs(metrics, honest, "decision")
    for p in honest:
        if p not in outs:
            bad.append(Violation("termination", f"party {p} undecided"))
    decisions = {v for v, _, _ in outs.values()}
    if len(decisions) > 1:
        bad.append(Violation("agreement", f"decisions {decisions}"))
    honest_bits = {inputs[p] for p in honest}
    if len(honest_bits) == 1 and decisions and decisions != honest_bits:
        bad.append(Violation("validity", f"unanimous {honest_bits} but decided {decisions}"))
    return bad


def model_soundness(sim) -> List[Violation]:
    """Partial synchrony as it happened: in a recorded run
    (``record=True``) every honest-to-honest ``send`` line names a
    delivery time no later than ``max(send, gst) + cap``."""
    if not sim.record:
        raise ValueError("model_soundness reads the transcript of a run made with record=True")
    gst = sim.policy.gst
    if gst is None:
        return []
    cap = sim.policy.cap
    byzantine = sim.adversary.byzantine
    bad: List[Violation] = []
    for line in sim.records:
        at, event, rest = line.split(" ", 2)
        if event != "send":
            continue
        link, rest = rest.split(" ", 1)
        sender, receiver = (int(p) for p in link.split("->"))
        if sender in byzantine or receiver in byzantine:
            continue
        send = Fraction(at[1:])
        deliver = Fraction(rest.rsplit(" ", 2)[1][len("deliver@"):])
        bound = max(send, gst) + cap
        if deliver > bound:
            bad.append(Violation("model", f"{link} sent at {send} delivered at {deliver} > {bound}"))
    return bad
