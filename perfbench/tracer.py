"""Outside-in span tracer for prefixsim's layer boundaries.

The tracer never edits the program.  ``install`` replaces each listed
public function or method with a wrapper, and for module-level functions
it rebinds the name in every ``prefixsim`` module that imported it (for
example ``predicate_high`` is bound in ``pc``, ``spc`` and ``checks``).
``uninstall`` puts the originals back.

Each wrapped call records a span ``(id, parent id, layer, start, end,
run id)`` in memory; ``write`` saves them when the pass ends.  A layer's
self time is its span time minus the time its child spans cover.  A call
that re-enters the layer it is directly nested in (``Composite``
delegating to its inner adversary) joins the enclosing span instead of
opening a new one.  ``total_s`` counts only the outermost span of a
layer, so recursion (``verify_vote`` -> ``verify_qc`` -> ``verify_vote``)
is not counted twice.

Only boundary functions are wrapped: the per-byte encoders
(``encoding.write_uint``, ``wire._write_value``) run millions of times per
pass and a span around each would swamp what it measures.
"""

from __future__ import annotations

import gzip
import sys
import time
from array import array
from typing import Callable, Dict, List, Optional, Tuple

#: (layer name, module, qualified attribute) for every traced boundary.
#: ``adversaries.hooks`` and ``derived.engines`` are families expanded by
#: ``_targets``.
LAYERS: Tuple[Tuple[str, str, str], ...] = (
    ("scenario.setup", "", ""),  # root span, opened by the benchmark loop
    ("scenario.run_checks", "scenario", "run_checks"),
    ("simnet.Simulation.run", "simnet", "Simulation.run"),
    ("adversaries.hooks", "adversaries", "*"),
    ("pc.PcEngine.on_message", "pc", "PcEngine.on_message"),
    ("pc.verify_vote", "pc", "verify_vote"),
    ("pc.verify_qc", "pc", "verify_qc"),
    ("pc.predicate_low", "pc", "predicate_low"),
    ("pc.predicate_high", "pc", "predicate_high"),
    ("crypto.tag_bytes", "crypto", "tag_bytes"),
    ("crypto.Scheme.sign", "crypto", "Scheme.sign"),
    ("crypto.Scheme.verify", "crypto", "Scheme.verify"),
    ("crypto.Scheme.verify_aggregate", "crypto", "Scheme.verify_aggregate"),
    ("prefixes.mcp", "prefixes", "mcp"),
    ("prefixes.longest_supported_prefix", "prefixes", "longest_supported_prefix"),
    ("spc.SpcEngine.on_message", "spc", "SpcEngine.on_message"),
    ("spc.SpcEngine.on_timer", "spc", "SpcEngine.on_timer"),
    ("spc.proposal_digest", "spc", "proposal_digest"),
    ("wire.hash_obj", "wire", "hash_obj"),
    ("msc.MscEngine.on_message", "msc", "MscEngine.on_message"),
    ("msc.MscEngine.on_timer", "msc", "MscEngine.on_timer"),
    ("derived.engines", "derived", "*"),
    ("wire.encode", "wire", "encode"),
    ("wire.measure", "wire", "measure"),
    ("wire.PlainCodec.measure", "wire", "PlainCodec.measure"),
)

LAYER_NAMES = tuple(name for name, _, _ in LAYERS)

_ADVERSARY_HOOKS = ("pick_delay", "on_send", "on_deliver")
_DERIVED_ENGINES = ("GradedEngine", "PcFromGradedEngine", "BinaryEngine", "ValidatedEngine")


class Tracer:
    """Span recorder with per-layer call counts, self and total times."""

    def __init__(self) -> None:
        self.layer_ids: Dict[str, int] = {name: i for i, name in enumerate(LAYER_NAMES)}
        size = len(LAYER_NAMES)
        self.calls = [0] * size
        self.self_s = [0.0] * size
        self.total_s = [0.0] * size
        self.encoded_bytes = 0
        self.run_id = 0
        self._depth = [0] * size
        self._stack: List[list] = []  # frames: [layer id, span id, child seconds]
        self._next_span = 0
        # Spans in close order, one column per field.
        self.span_id = array("q")
        self.span_parent = array("q")
        self.span_layer = array("H")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_run = array("q")
        self._patches: List[Tuple[object, str, object]] = []

    # -- recording

    def wrap(self, name: str, fn: Callable, on_result: Optional[Callable] = None) -> Callable:
        lid = self.layer_ids[name]
        stack = self._stack
        depth = self._depth
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            if stack and stack[-1][0] == lid:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else None
            span = tracer._next_span
            tracer._next_span = span + 1
            frame = [lid, span, 0.0]
            stack.append(frame)
            depth[lid] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                depth[lid] -= 1
                elapsed = end - start
                tracer.calls[lid] += 1
                tracer.self_s[lid] += elapsed - frame[2]
                if depth[lid] == 0:
                    tracer.total_s[lid] += elapsed
                if parent is not None:
                    parent[2] += elapsed
                tracer.span_id.append(span)
                tracer.span_parent.append(parent[1] if parent is not None else -1)
                tracer.span_layer.append(lid)
                tracer.span_start.append(start)
                tracer.span_end.append(end)
                tracer.span_run.append(tracer.run_id)
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def _count_bytes(self, encoded: bytes) -> None:
        self.encoded_bytes += len(encoded)

    # -- patching

    def install(self) -> None:
        """Wrap every layer boundary (a second install must follow an
        ``uninstall``)."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        for name, owner, attr, original in _targets():
            hook = self._count_bytes if name == "wire.encode" else None
            wrapped = self.wrap(name, original, hook)
            if isinstance(owner, type):
                self._patch(owner, attr, wrapped)
                continue
            for module in _program_modules():
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapped)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results

    def write(self, path: str) -> None:
        """Save every span as gzip'd tab-separated text, one per line."""
        names = LAYER_NAMES
        with gzip.open(path, "wt", encoding="ascii", compresslevel=1) as out:
            out.write("span\tparent\tlayer\tstart_s\tend_s\trun\n")
            for i in range(len(self.span_id)):
                out.write(
                    f"{self.span_id[i]}\t{self.span_parent[i]}\t{names[self.span_layer[i]]}\t"
                    f"{self.span_start[i]:.9f}\t{self.span_end[i]:.9f}\t{self.span_run[i]}\n"
                )


def _program_modules():
    return [m for key, m in list(sys.modules.items()) if key == "prefixsim" or key.startswith("prefixsim.")]


def _targets():
    """Yield (layer, owner, attribute, original) for each traced callable.

    The owner is a class for methods and the defining module for
    functions; module functions are then rebound wherever imported."""
    modules = {m.__name__.rsplit(".", 1)[-1]: m for m in _program_modules()}
    for name, mod_name, attr in LAYERS:
        if not mod_name:
            continue
        module = modules[mod_name]
        if mod_name == "adversaries" and attr == "*":
            Adversary = modules["simnet"].Adversary  # the base class lives in simnet
            classes = [Adversary] + [
                c for c in vars(module).values() if isinstance(c, type) and issubclass(c, Adversary)
            ]
            for cls in classes:
                for hook in _ADVERSARY_HOOKS:
                    if hook in vars(cls):
                        yield name, cls, hook, vars(cls)[hook]
        elif mod_name == "derived" and attr == "*":
            for cls_name in _DERIVED_ENGINES:
                cls = getattr(module, cls_name)
                yield name, cls, "on_message", vars(cls)["on_message"]
        elif "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            yield name, cls, meth, vars(cls)[meth]
        else:
            yield name, module, attr, getattr(module, attr)
