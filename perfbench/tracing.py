"""Spans around the public functions of each signstab module.

The benchmark records spans from outside the engine: for the length of a
traced batch it replaces each function below, at every module attribute
that a caller resolves at call time, by a wrapper that records a span
(name, start, end, parent span, operation id) and restores every original
afterwards.  Per-scalar operators and private helpers are never wrapped,
because a wrapper there would cost more than the work it measures.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict
from contextlib import contextmanager
from statistics import median

# (span name, module that defines the function, function name, other modules
# that bind the same function by name when they load).  Callers that import
# the function at call time (stability's orbit step imports seeds.mutate_b
# and tropical.trop_mutate inside the function) resolve the home binding.
SPANS = (
    ("feasibility.open_cone_witness", "signstab.feasibility", "open_cone_witness",
     ("signstab.stability",)),
    ("feasibility.mixed_cone_witness", "signstab.feasibility", "mixed_cone_witness",
     ("signstab.stability",)),
    ("stability.enumerate", "signstab.stability",
     "enumerate_realizable_signs_with_witnesses", ("signstab.cli",)),
    ("stability.char_poly", "signstab.stability", "char_poly", ("signstab.cli",)),
    ("stability.spectral_radius", "signstab.stability", "spectral_radius",
     ("signstab.reduction", "signstab.cli")),
    ("stability.realization_witness", "signstab.stability", "realization_witness", ()),
    ("stability.stretch_factor", "signstab.stability", "stretch_factor",
     ("signstab.cli",)),
    ("stability.iterate_orbit", "signstab.stability", "iterate_orbit",
     ("signstab.cli",)),
    ("tropical.presentation", "signstab.tropical", "presentation_matrix_for_sign",
     ("signstab.reduction", "signstab.cli")),
    ("tropical.trop_mutate", "signstab.tropical", "trop_mutate",
     ("signstab.reduction",)),
    ("tropical.normalize_point", "signstab.tropical", "normalize_point",
     ("signstab.stability",)),
    ("seeds.mutate_b", "signstab.seeds", "mutate_b",
     ("signstab.tropical", "signstab.reduction", "signstab.cli")),
    ("matrices.mat_mul", "signstab.matrices", "mat_mul", ()),
    ("reduction.block_check", "signstab.reduction", "block_structure_check", ()),
    ("io.load_path", "signstab.io", "load_path", ()),
    ("io.render_report", "signstab.io", "render_report", ()),
    ("cli.main", "signstab.cli", "main", ()),
)

# Layers whose self time is reported as <layer>.self_s; reduction's only
# span is block_structure_check, reported as reduction.block_check_self_s.
LAYERS = ("feasibility", "stability", "tropical", "seeds", "matrices", "io", "cli")


def _note(name, args, result):
    """The one fact a span keeps about its call, for ratios and counts."""
    if name.startswith("feasibility."):
        return result is None  # empty cone
    if name == "stability.enumerate":
        return len(result)
    if name == "tropical.presentation" and len(args) == 2:
        return (id(args[0]), tuple(args[1]))
    if name == "io.render_report":
        return len(result.encode("utf-8"))
    return None


class Tracer:
    """Spans of one traced batch, kept in memory until the batch ends.

    A span is [name, start, end, parent index, operation id, tag, note];
    the tag is the current operation's label (the orbit workload marks
    rational and quadratic start points).
    """

    def __init__(self):
        self.spans = []
        self._stack = []
        self.op_id = 0
        self.tag = ""
        self.missing = []  # bindings absent from the engine

    def wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            span = [name, clock(), 0.0, parent, self.op_id, self.tag, None]
            idx = len(spans)
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            span[6] = _note(name, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self):
        """Patch every binding in SPANS; restore all of them on exit."""
        saved = []
        self.missing = []
        try:
            for name, home, attr, binders in SPANS:
                home_mod = importlib.import_module(home)
                fn = getattr(home_mod, attr, None)
                if fn is None:
                    self.missing.append(f"{home}.{attr}")
                    continue
                wrapper = self.wrap(name, fn)
                for mod_name in (home, *binders):
                    mod = importlib.import_module(mod_name)
                    if getattr(mod, attr, None) is not fn:
                        self.missing.append(f"{mod_name}.{attr}")
                        continue
                    saved.append((mod, attr, fn))
                    setattr(mod, attr, wrapper)
            yield self
        finally:
            for mod, attr, fn in reversed(saved):
                setattr(mod, attr, fn)
        for mod, attr, fn in saved:
            if getattr(mod, attr) is not fn:
                raise RuntimeError(f"{mod.__name__}.{attr} was not restored")


def summarize(spans):
    """Per-layer numbers for one batch of spans (times in seconds)."""
    child = [0.0] * len(spans)
    for s in spans:
        if s[3] >= 0:
            child[s[3]] += s[2] - s[1]
    total = defaultdict(float)
    self_time = defaultdict(float)
    calls = defaultdict(int)
    by_tag = defaultdict(float)
    layer_self = defaultdict(float)
    empties = 0
    signs_found = 0
    report_bytes = 0
    presentations = set()
    for i, (name, start, end, _, op, tag, note) in enumerate(spans):
        dur = end - start
        own = dur - child[i]
        total[name] += dur
        self_time[name] += own
        calls[name] += 1
        layer_self[name.split(".", 1)[0]] += own
        if tag:
            by_tag[(name, tag)] += dur
        if name.startswith("feasibility.") and note:
            empties += 1
        elif name == "stability.enumerate":
            signs_found += note
        elif name == "tropical.presentation":
            presentations.add((op, note))
        elif name == "io.render_report":
            report_bytes += note

    solves = calls["feasibility.open_cone_witness"] + calls["feasibility.mixed_cone_witness"]
    builds = calls["tropical.presentation"]
    out = {
        "feasibility.solves": solves,
        "feasibility.solve_s": total["feasibility.open_cone_witness"]
        + total["feasibility.mixed_cone_witness"],
        "feasibility.empty_ratio": empties / solves if solves else 0.0,
        "stability.enumerate_s": total["stability.enumerate"],
        "stability.enumerate_self_s": self_time["stability.enumerate"],
        "stability.signs_found": signs_found,
        "stability.char_poly.calls": calls["stability.char_poly"],
        "stability.char_poly_s": total["stability.char_poly"],
        "stability.spectral_radius.calls": calls["stability.spectral_radius"],
        "stability.spectral_radius_s": total["stability.spectral_radius"],
        "stability.realization_witness.calls": calls["stability.realization_witness"],
        "stability.realization_witness_s": total["stability.realization_witness"],
        "tropical.presentation.calls": builds,
        "tropical.presentation_s": total["tropical.presentation"],
        "tropical.presentation.distinct_ratio":
            len(presentations) / builds if builds else 0.0,
        "matrices.mat_mul.calls": calls["matrices.mat_mul"],
        "matrices.mat_mul_s": total["matrices.mat_mul"],
        "seeds.mutate_b.calls": calls["seeds.mutate_b"],
        "seeds.mutate_b_s": total["seeds.mutate_b"],
        "tropical.trop_mutate.calls": calls["tropical.trop_mutate"],
        "tropical.trop_mutate_s": total["tropical.trop_mutate"],
        "tropical.trop_mutate.rational_s": by_tag[("tropical.trop_mutate", "rational")],
        "tropical.trop_mutate.quadratic_s": by_tag[("tropical.trop_mutate", "quadratic")],
        "tropical.normalize_point_s": total["tropical.normalize_point"],
        "tropical.normalize_point.rational_s":
            by_tag[("tropical.normalize_point", "rational")],
        "tropical.normalize_point.quadratic_s":
            by_tag[("tropical.normalize_point", "quadratic")],
        "io.render_report_s": total["io.render_report"],
        "io.report_bytes": report_bytes,
        "io.load_s": total["io.load_path"],
        "reduction.block_check_self_s": self_time["reduction.block_check"],
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = layer_self[layer]
    return out


def median_summary(summaries):
    """Median of each per-layer number over the traced batches of a run."""
    return {key: median(s[key] for s in summaries) for key in summaries[0]}
