"""Numeric certification of the dilatation-structure axioms.

Each axiom is turned into a per-scale defect, the sup of a residual over a
seeded sample of tuples from a region.  The defect definitions are chosen so
that a structure satisfying an axiom *exactly* (every conical group does)
reports roundoff-level defects, while structures that only satisfy it in the
limit report a decreasing sequence:

* A1      group-action identities of delta^x, evaluated directly.
* A2      deviation of d(x, delta^x_eps y) from exact first-order scaling
          nu(eps) * r(x, y), where r is the rescaled distance at a reference
          scale one refinement past the grid.
* A3      gap of the rescaled distance at eps to the reference-scale value.
* A4      gap between the composite Delta^x_eps(u,v) and a reference: the
          model's closed form at the same eps when it has one ("exact"
          mode), else the composite one refinement deeper ("cauchy" mode).
          Cauchy gaps are measured in carrier coordinates, where they decay
          at the full first-order rate; the metric statement follows by
          continuity of the distance, which a fractional-power gauge would
          otherwise clip to half the rate.
* Axiom0  inner inclusion of the domain chain: points of B(x, nu(eps)) must
          pull back under delta^x_{eps^-1} into B(x, A).
* ConeProperty  self-similarity of the tangent distance,
          d^x(u,v) = d^x(delta^x_mu u, delta^x_mu v) / nu(mu).

Each sweep has one tolerance from config.py: LIMIT_TOL for A3 and the
estimated cone property, CAUCHY_DIFFERENCE_TOL for A4 in cauchy mode and
EXACT_IDENTITY_TOL for the identities (the rest).  A sweep passes when its
defects are non-increasing (within the jitter factor) and the last is within
the tolerance; an identity sweep also passes when every defect is.
"""

from __future__ import annotations

import numpy as np

from dilatation_lab.config import (
    CAUCHY_DIFFERENCE_TOL, DEFECT_FLOOR, EXACT_IDENTITY_TOL, LIMIT_TOL, MIN_PAIRED_SAMPLES,
    SAMPLE_COUNT, TOLERANCE_FLOOR_FRACTION)
from dilatation_lab.errors import DomainViolation
from dilatation_lab.core.reports import ConvergenceReport, make_report, nonincreasing, sup
from dilatation_lab.core.scales import not_expanding, reference_scale, trend_grid
from dilatation_lab.core.structure import (
    Ball, DilatationStructure, Rows, approx_difference, difference_after, estimate_dx,
    exactify, rescaled_distance)

AXIOMS = ("A1", "A2", "A3", "A4", "Axiom0", "ConeProperty")


def _rows(bases, pairs, batch=True):
    """One row (x, u, v) per base x and pair (u, v), bases outermost."""
    rows = Rows([*bases, *(p for pair in pairs for p in pair)], batch)
    X = rows.column([x for x in bases for _ in pairs])
    U = rows.column([u for _ in bases for u, _ in pairs])
    V = rows.column([v for _ in bases for _, v in pairs])
    return rows, X, U, V


def verify_axiom(S: DilatationStructure, which: str, region: Ball, eps_grid,
                 sample_count: int = SAMPLE_COUNT, seed: int = 0,
                 reference: str = "auto") -> ConvergenceReport:
    """Certify one axiom numerically over a scale grid; "cauchy" forces A4's cauchy mode."""
    if which not in AXIOMS:
        raise ValueError(f"unknown axiom {which!r}; expected one of {AXIOMS}")
    if sample_count < MIN_PAIRED_SAMPLES:
        raise ValueError(f"verify_axiom needs at least {MIN_PAIRED_SAMPLES} samples")
    trend_grid("verify_axiom", eps_grid)
    if reference not in ("auto", "cauchy"):
        raise ValueError(f"unknown reference mode {reference!r}")
    mode = None
    if which == "A4":
        mode = "exact" if reference == "auto" and hasattr(S, "exact_difference") else "cauchy"
    elif which == "ConeProperty":
        mode = "exact" if hasattr(S, "tangent_distance") else "estimated"
    rng = np.random.default_rng(seed)
    center = region.center
    pts = S.sample_ball(center, region.radius, sample_count, rng)
    grid, exact = eps_grid, False
    # identities, and the estimated tangent's rescaled distances, are
    # evaluated in the model's exact arithmetic where it has one
    if which == "A1" or (which, mode) in (("A4", "exact"), ("ConeProperty", "estimated")):
        (center, *pts), grid, exact = exactify(S, [center, *pts], eps_grid)
    bases = [center, pts[1], pts[2 % len(pts)]]
    pairs = list(zip(pts, pts[1:] + pts[:1]))

    if which == "A1":
        defects = _a1_defects(S, bases, pairs, grid)
    elif which == "A2":
        defects = _a2_defects(S, bases, pairs, grid)
    elif which == "A3":
        defects = _a3_defects(S, bases, pairs, grid)
    elif which == "A4":
        defects = _a4_defects(S, bases, pairs, grid, mode == "exact")
    elif which == "Axiom0":
        defects = _axiom0_defects(S, bases, grid, sample_count, rng)
    else:
        defects = _cone_defects(S, bases, pairs, grid, mode == "exact")

    # limits read off a finite grid meet the limit tolerance, identities
    # the exact-identity one
    limit = which == "A3" or mode in ("estimated", "cauchy")
    tolerance = (CAUCHY_DIFFERENCE_TOL if mode == "cauchy" else LIMIT_TOL if limit
                 else EXACT_IDENTITY_TOL)
    floor = max(DEFECT_FLOOR, TOLERANCE_FLOOR_FRACTION * tolerance)
    verdict = ((defects[-1] <= tolerance and nonincreasing(defects, floor=floor))
               or (not limit and all(d <= tolerance for d in defects)))
    return make_report(
        eps_grid, defects, verdict,
        metadata={"model": S.name, "axiom": which, "seed": seed,
                  "sample_count": sample_count, "tolerance": tolerance,
                  "reference": mode, "arithmetic": "exact" if exact else "float",
                  "region_radius": region.radius})


def _a1_defects(S, bases, pairs, eps_grid):
    # derive the identity from the grid so exact grids stay exact
    one = eps_grid[0] * eps_grid[0].inverse()
    mu = eps_grid[0]
    rows, X, Y, _ = _rows(bases, pairs)
    B = rows.column(bases)
    # delta^x_1 y = y and delta^x_mu y do not depend on eps: each is evaluated once
    unit = rows.sup(lambda x, y: S.distance(S.dilate(x, one, y), y), X, Y)
    MY = rows.map(lambda x, y: S.dilate(x, mu, y), X, Y)
    defects = []
    for eps in eps_grid:
        inv, eps_mu = eps.inverse(), eps * mu
        defects.append(sup([
            unit,
            rows.sup(lambda x: S.distance(S.dilate(x, eps, x), x), B),
            rows.sup(lambda x, y, my: S.distance(S.dilate(x, eps, my), S.dilate(x, eps_mu, y)),
                     X, Y, MY),
            rows.sup(lambda x, y: S.distance(S.dilate(x, inv, S.dilate(x, eps, y)), y), X, Y)]))
    return defects


def _a2_defects(S, bases, pairs, eps_grid):
    ref = reference_scale(eps_grid)
    rows, X, Y, _ = _rows(bases, pairs)
    refs = rows.map(lambda x, y: S.distance(x, S.dilate(x, ref, y)) / ref.nu, X, Y)
    return [rows.sup(lambda x, y, r: abs(S.distance(x, S.dilate(x, eps, y)) - eps.nu * r),
                     X, Y, refs)
            for eps in eps_grid]


def _a3_defects(S, bases, pairs, eps_grid):
    ref = reference_scale(eps_grid)
    rows, X, U, V = _rows(bases, pairs)
    refs = rows.map(lambda x, u, v: rescaled_distance(S, x, ref, u, v), X, U, V)
    return [rows.sup(lambda x, u, v, r: abs(rescaled_distance(S, x, eps, u, v) - r),
                     X, U, V, refs)
            for eps in eps_grid]


def _a4_defects(S, bases, pairs, eps_grid, use_exact):
    rows, X, U, V = _rows(bases, pairs)
    if use_exact:
        # approx_difference against exact_difference, sharing a = delta^x_eps u
        not_expanding("a finite-scale composite", *eps_grid)

        def gap(x, eps, u, v):
            a = S.dilate(x, eps, u)
            return S.distance(difference_after(S, x, eps, a, v),
                              S.exact_difference_after(a, u, v))

        return [rows.sup(lambda x, u, v: gap(x, eps, u, v), X, U, V) for eps in eps_grid]
    ref = reference_scale(eps_grid)
    refs = rows.map(lambda x, u, v: approx_difference(S, x, ref, u, v), X, U, V)
    return [rows.sup(lambda x, u, v, r: S.coordinate_gap(approx_difference(S, x, eps, u, v), r),
                     X, U, V, refs)
            for eps in eps_grid]


def _axiom0_defects(S, bases, eps_grid, sample_count, rng):
    inner = max(4, sample_count // 4)

    def excess(x, eps, t):
        # a pull-back that leaves the domain scores A, whether the
        # dilatation or the distance finds it out
        try:
            return S.distance(x, S.dilate(x, eps.inverse(), t)) - S.domain_radius_A
        except DomainViolation:
            return S.domain_radius_A

    return [sup(excess(x, eps, t)
                for x in bases for t in S.sample_ball(x, 0.999 * eps.nu, inner, rng))
            for eps in eps_grid]


def _cone_defects(S, bases, pairs, eps_grid, use_exact):
    if use_exact:
        dx = S.tangent_distance
    else:
        def dx(x, u, v):
            return estimate_dx(S, x, u, v, eps_grid)[0]

    # estimate_dx runs a sweep of its own per point, so it takes rows one at a time
    rows, X, U, V = _rows(bases, pairs, batch=use_exact)
    # the left-hand side does not depend on mu: one value per row
    lhs = rows.map(dx, X, U, V)
    return [rows.sup(lambda x, u, v, left: abs(left - dx(x, S.dilate(x, mu, u),
                                                         S.dilate(x, mu, v)) / mu.nu),
                     X, U, V, lhs)
            for mu in eps_grid]


def verify_all_axioms(S, region, eps_grid, sample_count=SAMPLE_COUNT,
                      seed=0) -> dict[str, ConvergenceReport]:
    return {w: verify_axiom(S, w, region, eps_grid, sample_count, seed)
            for w in AXIOMS}
