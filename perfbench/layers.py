"""Per-layer metrics from recorded spans.

A span's self time is its duration minus the durations of its direct
children.  Calls and self times are summed over one traced pass; counts
recorded beside the spans (iterations, caught domain violations) are summed
the same way.
"""

from __future__ import annotations

import numpy as np

from tracer import TAG_DYADIC, TAG_FLOAT, TAG_FRACTION

# primitives whose calls make up the models.exact / models.float totals;
# to_exact is the conversion into the exact path, reported on its own
PATH_PRIMITIVES = ("group_product", "group_inverse", "ambient_dilate",
                   "homogeneous_norm", "dilate", "distance", "coordinate_gap",
                   "sample_ball", "chart_inverse")
SPLIT_PRIMITIVES = ("group_product", "dilate", "distance", "homogeneous_norm",
                    "ambient_dilate", "coordinate_gap", "sample_ball")
CALLS = ("models.to_exact", "models.dilate", "models.distance",
         "core.structure.rescaled_distance", "core.structure.approx_difference",
         "affine.menelaos_iterate", "emergent.lin_defect", "core.structure.estimate_dx")
SELF_TIMES = (
    "models.to_exact", "models.chart_inverse",
    "core.harness.A1", "core.harness.A2", "core.harness.A3", "core.harness.A4",
    "core.harness.ConeProperty",
    "core.structure.rescaled_distance", "core.structure.approx_difference",
    "core.structure.estimate_dx",
    "emergent.metric_tangent_scan", "emergent.lin_defect", "emergent.tangent_limit",
    "affine.reversed_collinear_search", "affine.menelaos_iterate", "affine.banach_oracle",
    "affine.ratio_point", "affine.distance_estimates_check", "affine.counterexample_check",
) + tuple(f"models.{p}" for p in SPLIT_PRIMITIVES)
TOTAL_TIMES = ("core.harness.A1", "core.harness.A4")
COUNTS = ("affine.menelaos_iterate.iterations", "models.domain_violations")


class Spans:
    """Spans of one or more traces, concatenated, with per-span self times."""

    def __init__(self, traces):
        names, cols = [], {k: [] for k in ("kind", "parent", "tag", "rows", "start", "end")}
        self.counts: dict[str, int] = {}
        for t in traces:
            offset = sum(len(c) for c in cols["kind"])
            remap = np.array([self._name_id(names, n) for n in t["names"]], dtype=np.int64)
            cols["kind"].append(remap[t["kind"]] if len(t["kind"]) else t["kind"])
            cols["parent"].append(np.where(t["parent"] >= 0, t["parent"] + offset, -1))
            for k in ("tag", "rows", "start", "end"):
                cols[k].append(t[k])
            for k, v in zip(t["count_names"], t["count_values"]):
                self.counts[str(k)] = self.counts.get(str(k), 0) + int(v)
        self.names = np.array(names, dtype=object)
        cat = {k: np.concatenate(v) if v else np.zeros(0) for k, v in cols.items()}
        self.kind = cat["kind"].astype(np.int64)
        self.parent = cat["parent"].astype(np.int64)
        self.tag = cat["tag"].astype(np.int8)
        self.rows = cat["rows"].astype(np.int64)
        self.dur = cat["end"].astype(float) - cat["start"].astype(float)
        child = np.zeros(len(self.dur))
        has_parent = self.parent >= 0
        np.add.at(child, self.parent[has_parent], self.dur[has_parent])
        self.self_time = self.dur - child
        self.span_names = self.names[self.kind] if len(self.kind) else np.zeros(0, dtype=object)

    @staticmethod
    def _name_id(names, name):
        name = str(name)
        if name not in names:
            names.append(name)
        return names.index(name)

    def where(self, name):
        return self.span_names == name

    def calls(self, name) -> int:
        return int(np.count_nonzero(self.where(name)))

    def self_s(self, mask) -> float:
        return float(self.self_time[mask].sum())

    def total_s(self, name) -> float:
        """Inclusive time of the outermost spans of one name."""
        mask = self.where(name)
        parent_name = np.where(self.parent >= 0, self.span_names[self.parent], "")
        return float(self.dur[mask & (parent_name != name)].sum())


def layer_metrics(spans: Spans, reversed_budget: int) -> dict[str, float]:
    """Every span-derived per-layer metric of the benchmark."""
    out: dict[str, float] = {}
    names = spans.span_names
    prims = np.isin(names, [f"models.{p}" for p in PATH_PRIMITIVES])
    exact = prims & np.isin(spans.tag, (TAG_FRACTION, TAG_DYADIC))
    floating = prims & (spans.tag == TAG_FLOAT)
    out["models.exact.calls"] = int(np.count_nonzero(exact))
    out["models.exact.self_s"] = spans.self_s(exact)
    out["models.fraction.calls"] = int(np.count_nonzero(prims & (spans.tag == TAG_FRACTION)))
    out["models.float.calls"] = int(np.count_nonzero(floating))
    out["models.float.self_s"] = spans.self_s(floating)
    with_rows = floating & (spans.rows > 0)
    n_rows = np.count_nonzero(with_rows)
    out["models.float.rows_per_call"] = float(spans.rows[with_rows].sum() / n_rows) if n_rows else 0.0
    scales = np.array([str(n).startswith("core.scales.") for n in spans.names], dtype=bool)
    in_scales = scales[spans.kind] if len(spans.kind) else np.zeros(0, dtype=bool)
    out["core.scales.calls"] = int(np.count_nonzero(in_scales))
    out["core.scales.self_s"] = spans.self_s(in_scales)
    for name in CALLS:
        out[f"{name}.calls"] = spans.calls(name)
    for name in SELF_TIMES:
        out[f"{name}.self_s"] = spans.self_s(spans.where(name))
    for name in TOTAL_TIMES:
        out[f"{name}.total_s"] = spans.total_s(name)
    for prim in SPLIT_PRIMITIVES:
        mask = spans.where(f"models.{prim}")
        out[f"models.{prim}.exact.self_s"] = spans.self_s(mask & np.isin(spans.tag, (TAG_FRACTION, TAG_DYADIC)))
        out[f"models.{prim}.float.self_s"] = spans.self_s(mask & (spans.tag == TAG_FLOAT))
    for name in COUNTS:
        out[name] = spans.counts.get(name, 0)
    # a probe is evaluated when the search measures its distance
    search = spans.where("affine.reversed_collinear_search")
    parent_is_search = np.zeros(len(names), dtype=bool)
    has_parent = spans.parent >= 0
    parent_is_search[has_parent] = search[spans.parent[has_parent]]
    probes = np.count_nonzero(parent_is_search & spans.where("models.distance"))
    out["affine.reversed_collinear_search.probe_share"] = (
        probes / reversed_budget if reversed_budget else 0.0)
    return out
