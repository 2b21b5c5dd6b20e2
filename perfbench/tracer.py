"""Span tracing of the library's layers, installed from outside the library.

``Tracer.install`` wraps three kinds of call sites:

* primitives of the model instances a workload built, set on the instance so
  that nested calls such as ``dilate`` calling ``self.group_product`` are
  seen too;
* public functions of the library's modules, replaced wherever a caller
  looks them up: in every ``dilatation_lab`` module namespace that bound
  the function at import, and in module-level dispatch tables;
* methods of ``Scale`` and the scale groups, on the class.

Every call becomes a span with a name, start, end, parent span and op id.
Spans are kept in flat in-memory arrays and written out once, when the run
ends.  A model-primitive span is tagged ``exact`` when its point arguments
are Python objects (``Fraction`` arrays or ``DyadicPoint``) and ``float``
otherwise; ``fraction`` marks the ``Fraction`` subset of ``exact``.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import Counter

import numpy as np

from dilatation_lab.models.dyadic import DyadicPoint

TAG_NONE, TAG_FLOAT, TAG_FRACTION, TAG_DYADIC = 0, 1, 2, 3

MODEL_PRIMITIVES = ("group_product", "group_inverse", "ambient_dilate",
                    "homogeneous_norm", "dilate", "distance", "coordinate_gap",
                    "sample_ball", "to_exact")

MODULE_FUNCTIONS = {
    "dilatation_lab.core.harness": ("verify_axiom", "verify_all_axioms"),
    "dilatation_lab.core.structure": (
        "approx_difference", "approx_sum", "approx_inverse", "rescaled_distance",
        "estimate_dx"),
    "dilatation_lab.emergent": (
        "tangent_limit", "lin_defect", "inflin_scan", "plin1_scan",
        "metric_tangent_scan", "check_affine_map", "pansu_derivative",
        "shift_isometry_defect"),
    "dilatation_lab.affine": (
        "probe_points", "menelaos_iterate", "banach_oracle", "h_map", "g_map",
        "ratio_point", "heisenberg_ratio_closed_form", "check_collinear",
        "reversed_collinear_search", "barycentric_defect", "collinearity_defect",
        "distance_estimates_check", "counterexample_check",
        "geometric_affinity_check"),
}

SCALE_METHODS = ("__mul__", "inverse", "__pow__")
SCALE_GROUP_METHODS = ("scale", "grid", "contraction")


def _span_name(module: str, func: str) -> str:
    return module.removeprefix("dilatation_lab.") + "." + func


def _tag(args) -> tuple[int, int]:
    """Arithmetic path and row count of a model-primitive call."""
    rows = 0
    for a in args:
        if isinstance(a, np.ndarray):
            if a.dtype == object:
                return TAG_FRACTION, 0
            if not rows:
                rows = 1 if a.ndim <= 1 else a.shape[0]
        elif isinstance(a, DyadicPoint):
            return TAG_DYADIC, 0
    return TAG_FLOAT, rows


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.kind = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.tag = array("b")
        self.rows = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: Counter = Counter()
        self.op_id = -1
        self._stack = [-1]
        self._undo: list = []

    # --- spans ----------------------------------------------------------------

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, fn, name: str, tagged: bool = False, name_of=None, on_result=None,
             on_error=None):
        """A wrapper of ``fn`` that records one span per call."""
        fixed = self._id(name)
        kind, parent, op, tag, rows = self.kind, self.parent, self.op, self.tag, self.rows
        start, end, stack, clock = self.start, self.end, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            i = len(start)
            kind.append(fixed if name_of is None else self._id(name_of(args, kwargs)))
            parent.append(stack[-1])
            op.append(self.op_id)
            t, r = _tag(args) if tagged else (TAG_NONE, 0)
            tag.append(t)
            rows.append(r)
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except Exception as err:
                end[i] = clock()
                stack.pop()
                if on_error is not None:
                    on_error(err, i)
                raise
            end[i] = clock()
            stack.pop()
            if on_result is not None:
                on_result(result, i)
            return result

        traced.__wrapped__ = fn
        return traced

    # --- installation ---------------------------------------------------------

    def patch(self, owner, attr, value):
        """Set an attribute and remember how to undo it."""
        had = attr in vars(owner)
        self._undo.append((owner, attr, getattr(owner, attr) if had else None, had))
        setattr(owner, attr, value)

    def instrument_model(self, model):
        """Wrap the primitives of one model instance (and its chart)."""
        from dilatation_lab.errors import DomainViolation
        parents, kinds = self.parent, self.kind

        def count_violation(err, i):
            # count a violation once, where it leaves the outermost primitive
            p = parents[i]
            if isinstance(err, DomainViolation) and (
                    p < 0 or not self.names[kinds[p]].startswith("models.")):
                self.counts["models.domain_violations"] += 1

        for prim in MODEL_PRIMITIVES:
            if hasattr(model, prim):
                self.patch(model, prim, self.wrap(getattr(model, prim), f"models.{prim}",
                                                 tagged=True, on_error=count_violation))
        chart = getattr(model, "chart", None)
        if chart is not None:
            self.patch(chart, "inverse", self.wrap(chart.inverse, "models.chart_inverse",
                                                  tagged=True, on_error=count_violation))
        return model

    def install(self, models=()):
        """Instrument models, module functions and scale arithmetic."""
        from dilatation_lab.core import scales

        for model in models:
            self.instrument_model(model)

        replacements = {}
        for modname, funcs in MODULE_FUNCTIONS.items():
            module = sys.modules[modname]
            for func in funcs:
                original = getattr(module, func)
                name = _span_name(modname, func)
                kwargs = {}
                if func == "verify_axiom":
                    kwargs["name_of"] = lambda a, k: "core.harness." + (
                        a[1] if len(a) > 1 else k["which"])
                if func == "menelaos_iterate":
                    kwargs["on_result"] = self._count_iterations
                replacements[id(original)] = (original, self.wrap(original, name, **kwargs))
        self.replace_bindings(replacements)

        self.patch(scales.Scale, "nu", property(
            self.wrap(scales.Scale.nu.fget, "core.scales.nu")))
        for meth in SCALE_METHODS:
            self.patch(scales.Scale, meth, self.wrap(getattr(scales.Scale, meth),
                                                    f"core.scales.{meth.strip('_')}"))
        for cls in (scales.ScaleGroup, *scales.ScaleGroup.__subclasses__()):
            for meth in SCALE_GROUP_METHODS:
                if meth in vars(cls):
                    self.patch(cls, meth, self.wrap(vars(cls)[meth], f"core.scales.{meth}"))
        return self

    def replace_bindings(self, replacements):
        """Swap functions for wrappers wherever library code looks them up.

        ``replacements`` maps ``id(original)`` to ``(original, wrapper)``.
        """
        for modname, module in list(sys.modules.items()):
            if not modname.startswith("dilatation_lab"):
                continue
            for attr, value in list(vars(module).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    self.patch(module, attr, hit[1])
                elif isinstance(value, dict) and not attr.startswith("__"):
                    for key, entry in list(value.items()):
                        hit = replacements.get(id(entry))
                        if hit is not None and hit[0] is entry:
                            self._undo.append((value, key, entry, "item"))
                            value[key] = hit[1]

    def _count_iterations(self, result, _span):
        self.counts["affine.menelaos_iterate.iterations"] += result.iterations

    def uninstall(self):
        while self._undo:
            owner, attr, old, had = self._undo.pop()
            if had == "item":
                owner[attr] = old
            elif had:
                setattr(owner, attr, old)
            else:
                delattr(owner, attr)

    # --- output ---------------------------------------------------------------

    def record(self) -> dict:
        """The spans and counts as arrays, the form ``save`` writes."""
        counts = sorted(self.counts.items())
        columns = {"kind": (self.kind, np.int32), "parent": (self.parent, np.int32),
                   "op": (self.op, np.int32), "tag": (self.tag, np.int8),
                   "rows": (self.rows, np.int32), "start": (self.start, np.float64),
                   "end": (self.end, np.float64)}
        return {"names": np.array(self.names, dtype=str),
                "count_names": np.array([k for k, _ in counts], dtype=str),
                "count_values": np.array([v for _, v in counts], dtype=np.int64),
                **{k: np.frombuffer(col, dtype=dt).copy() for k, (col, dt) in columns.items()}}

    def save(self, path):
        np.savez_compressed(path, **self.record())
