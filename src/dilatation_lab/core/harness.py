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

Samples pair in a cycle, each with the next and the last with the first; a
sweep has one row (x, u, v) per base x and sample u, a block of rows per
base (``Rows.pairs``).  A3, A4 and the cone property see a pair only through
delta^x_eps u and delta^x_eps v (``Rows.images``), and A3 and cauchy A4 are
one sweep of a value's gap to its reference-scale value.  A1 dilates y once
per distinct scale value of the grid and of {eps mu} and reads each of its
residuals' images of y off those.  Exact images are the same rationals and a
batch row is its single-point value, so no defect moves.

Each sweep has one tolerance from config.py: LIMIT_TOL for A3 and the
estimated cone property, CAUCHY_DIFFERENCE_TOL for A4 in cauchy mode and
EXACT_IDENTITY_TOL for the identities (the rest).  Its verdict is the rule
``converges``, or ``within`` where an identity sweep fails that (README, Verdicts).
"""

from __future__ import annotations

import numpy as np

from dilatation_lab.config import (
    CAUCHY_DIFFERENCE_TOL, DEFECT_FLOOR, EXACT_IDENTITY_TOL, LIMIT_TOL, MIN_PAIRED_SAMPLES,
    SAMPLE_COUNT, TOLERANCE_FLOOR_FRACTION)
from dilatation_lab.errors import DomainViolation
from dilatation_lab.core.reports import ConvergenceReport, converges, make_report, sup, within
from dilatation_lab.core.scales import not_expanding, reference_scale, trend_grid
from dilatation_lab.core.structure import (
    Ball, DilatationStructure, Rows, difference_after, estimate_dx, exactify,
    rescaled_distance_after)

AXIOMS = ("A1", "A2", "A3", "A4", "Axiom0", "ConeProperty")


def verify_axiom(S: DilatationStructure, which: str, region: Ball, eps_grid,
                 sample_count: int = SAMPLE_COUNT, seed: int = 0,
                 reference: str = "auto") -> ConvergenceReport:
    """Certify one axiom numerically over a scale grid; "cauchy" forces A4's
    cauchy mode, and no other axiom takes it."""
    if which not in AXIOMS:
        raise ValueError(f"unknown axiom {which!r}; expected one of {AXIOMS}")
    if sample_count < MIN_PAIRED_SAMPLES:
        raise ValueError(f"verify_axiom needs at least {MIN_PAIRED_SAMPLES} samples")
    trend_grid("verify_axiom", eps_grid)
    if reference not in ("auto", "cauchy"):
        raise ValueError(f"unknown reference mode {reference!r}")
    if reference == "cauchy" and which != "A4":
        raise ValueError(f"reference='cauchy' applies to A4 only, not to {which}")
    mode = None
    if which == "A4":
        mode = "exact" if reference == "auto" and hasattr(S, "exact_difference_after") else "cauchy"
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

    if which == "A1":
        defects = _a1_defects(S, bases, pts, grid)
    elif which == "A2":
        defects = _a2_defects(S, bases, pts, grid)
    elif which == "A3":
        defects = _a3_defects(S, bases, pts, grid)
    elif which == "A4":
        defects = _a4_defects(S, bases, pts, grid, mode == "exact")
    elif which == "Axiom0":
        defects = _axiom0_defects(S, bases, grid, sample_count, rng)
    else:
        defects = _cone_defects(S, bases, pts, grid, mode == "exact")

    # limits read off a finite grid meet the limit tolerance, identities
    # the exact-identity one, which they also meet with every defect within it
    limit = which == "A3" or mode in ("estimated", "cauchy")
    tol = (CAUCHY_DIFFERENCE_TOL if mode == "cauchy" else LIMIT_TOL if limit
           else EXACT_IDENTITY_TOL)
    verdict = converges(defects, tol, max(DEFECT_FLOOR, TOLERANCE_FLOOR_FRACTION * tol))
    if not (verdict or limit):
        verdict = within(defects, tol)
    return make_report(eps_grid, defects, verdict,
                       {"model": S.name, "axiom": which, "seed": seed, "sample_count": sample_count,
                        "reference": mode, "arithmetic": "exact" if exact else "float",
                        "region_radius": region.radius})


def _a1_defects(S, bases, pts, eps_grid):
    # derive the identity from the grid so exact grids stay exact
    one = eps_grid[0] * eps_grid[0].inverse()
    mu = eps_grid[0]
    rows, X, Y, _ = Rows.pairs(bases, pts)
    B = rows.column(bases)
    # delta^x_1 y = y does not depend on eps: it is evaluated once
    unit = rows.sup(lambda x, y: S.distance(S.dilate(x, one, y), y), X, Y)
    # delta^x_e y once per scale value e of the grid and of eps mu, which the
    # grid's next scales often repeat: delta^x_mu y, delta^x_{eps mu} y and the
    # inverse's inner delta^x_eps y are read off them
    images = {}
    for e in [*eps_grid, *(eps * mu for eps in eps_grid)]:
        if e.value not in images:
            images[e.value] = rows.map(lambda x, y: S.dilate(x, e, y), X, Y)
    MY = images[mu.value]
    defects = []
    for eps in eps_grid:
        inv = eps.inverse()
        defects.append(sup([
            unit,
            rows.sup(lambda x: S.distance(S.dilate(x, eps, x), x), B),
            rows.sup(lambda x, my, emy: S.distance(S.dilate(x, eps, my), emy),
                     X, MY, images[(eps * mu).value]),
            rows.sup(lambda x, y, ey: S.distance(S.dilate(x, inv, ey), y),
                     X, Y, images[eps.value])]))
    return defects


def _a2_defects(S, bases, pts, eps_grid):
    ref = reference_scale(eps_grid)
    rows, X, Y, _ = Rows.pairs(bases, pts)
    refs = rows.map(lambda x, y: S.distance(x, S.dilate(x, ref, y)) / ref.nu, X, Y)
    return [rows.sup(lambda x, y, r: abs(S.distance(x, S.dilate(x, eps, y)) - eps.nu * r),
                     X, Y, refs)
            for eps in eps_grid]


def _gaps_to_reference(S, bases, pts, eps_grid, what, after, gap):
    """Per scale eps, the sup over rows of gap(after(S, eps, a, b), the same at
    the reference scale), a and b the images of the row's pair; what names the
    quantity for ``not_expanding``."""
    rows, X, U, _ = Rows.pairs(bases, pts)

    def values(eps):
        not_expanding(what, eps)
        return rows.map(lambda a, b: after(S, eps, a, b), *rows.images(S, X, U, eps, len(pts)))

    refs = values(reference_scale(eps_grid))
    return [rows.sup(gap, values(eps), refs) for eps in eps_grid]


def _a3_defects(S, bases, pts, eps_grid):
    return _gaps_to_reference(S, bases, pts, eps_grid, "the rescaled distance",
                              rescaled_distance_after, lambda d, r: abs(d - r))


def _a4_defects(S, bases, pts, eps_grid, use_exact):
    if not use_exact:
        return _gaps_to_reference(S, bases, pts, eps_grid, "a finite-scale composite",
                                  difference_after, S.coordinate_gap)
    # approx_difference against exact_difference_after, sharing a = delta^x_eps u
    rows, X, U, V = Rows.pairs(bases, pts)
    not_expanding("a finite-scale composite", *eps_grid)
    return [rows.sup(lambda a, b, u, v: S.distance(difference_after(S, eps, a, b),
                                                   S.exact_difference_after(a, u, v)),
                     *rows.images(S, X, U, eps, len(pts)), U, V)
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


def _cone_defects(S, bases, pts, eps_grid, use_exact):
    if use_exact:
        dx = S.tangent_distance
    else:
        def dx(x, u, v):
            return estimate_dx(S, x, u, v, eps_grid)[0]

    # estimate_dx runs a sweep of its own per point, so it takes rows one at a time
    rows, X, U, V = Rows.pairs(bases, pts, batch=use_exact)
    # the left-hand side does not depend on mu: one value per row
    lhs = rows.map(dx, X, U, V)
    return [rows.sup(lambda x, a, b, left: abs(left - dx(x, a, b) / mu.nu),
                     X, *rows.images(S, X, U, mu, len(pts)), lhs)
            for mu in eps_grid]


def verify_all_axioms(S, region, eps_grid, sample_count=SAMPLE_COUNT,
                      seed=0) -> dict[str, ConvergenceReport]:
    return {w: verify_axiom(S, w, region, eps_grid, sample_count, seed)
            for w in AXIOMS}
