"""Dilatation structures and the operator calculus derived from them.

A dilatation structure is a metric space together with a field of
base-point-anchored contractions delta^x_eps, one group of them per point,
indexed by a scale group.  The composite operators built from dilatations,

    Delta^x_eps(u, v) = delta^{delta^x_eps u}_{eps^-1} delta^x_eps v
    Sigma^x_eps(u, v) = delta^x_{eps^-1} delta^{delta^x_eps u}_eps v
    inv^x_eps(u)      = delta^{delta^x_eps u}_{eps^-1} x

converge, as nu(eps) -> 0, to the difference, sum and inverse operations of
the tangent group at x.  This module hosts the abstract structure interface,
those composites, the rescaled distances and the tangent-distance estimator.
"""

from __future__ import annotations

import numpy as np

from dilatation_lab.config import DEFECT_FLOOR, EXACT_IDENTITY_TOL
from dilatation_lab.errors import DomainViolation, NonConvergent
from dilatation_lab.core.reports import (
    ConvergenceReport, beyond, contracts, make_report, sup, within)
from dilatation_lab.core.scales import RowScale, Scale, ScaleGroup, not_expanding, trend_grid


class Ball:
    """A metric ball, used to describe sampling regions; a float centre with a NaN
    or infinite coordinate raises DomainViolation (``require_finite``)."""

    def __init__(self, center, radius: float):
        require_radius(radius)
        require_finite([center])
        self.center = center
        self.radius = float(radius)

    def __repr__(self):
        return f"Ball(center={self.center!r}, radius={self.radius})"


class DilatationStructure:
    """Abstract interface: a distance plus a field of dilatations.

    Concrete models supply the carrier, the distance, the dilatation map and
    sampling.  A model has an optional capability exactly when it defines the
    method, which callers look up by name: exact rational arithmetic
    (``to_exact``, ``to_exact_scale``), the difference composite in closed
    form (``exact_difference_after``), the tangent operations in closed form
    (``tangent_sum``, ``tangent_difference``, ``tangent_inverse``,
    ``tangent_distance``) and ``barycentric_pair``.  Each is cross-validated
    against the generic numeric path in the test-suite.

    On models whose points are float coordinate arrays, ``dilate``,
    ``distance``, ``coordinate_gap`` and ``tangent_distance`` also take an
    ``(N, dim)`` batch of rows, and each row of the result equals, bit for
    bit, the result for that row alone; so do a group model's exact
    primitives on an ``ExactRows`` batch.  ``sample_ball`` and the exact
    conversions are single-point only.

    Single-point loops and checks convert their points once with the hook
    ``single_point_kernels``, and a group model folds products with
    ``product_of``; each defaults to the structure's own methods on points as
    given.  An override must compute what those methods would, bit for bit,
    and apply only while they are its class's own, so that a subclass
    override or a wrapper set on the instance still sees every call.
    """

    name: str = "abstract"
    scale_group: ScaleGroup
    domain_radius_A: float = 2.0

    # --- required surface -------------------------------------------------

    def distance(self, p, q) -> float:
        raise NotImplementedError

    def dilate(self, x, eps: Scale, y):
        raise NotImplementedError

    def origin(self):
        raise NotImplementedError

    def sample_ball(self, center, radius: float, count: int, rng) -> list:
        """Deterministic lattice points followed by seeded random fill."""
        raise NotImplementedError

    # --- defaults ---------------------------------------------------------

    def closeness_budget(self) -> float:
        """Radius below which tuples of points count as sufficiently closed:
        one tenth of the domain radius A."""
        return 0.1 * self.domain_radius_A

    def coordinate_gap(self, p, q) -> float:
        """Carrier-coordinate disagreement, the right yardstick for oracle
        agreement: metrics with fractional-power gauges blow roundoff-scale
        coordinate gaps up past any usable tolerance."""
        return self.distance(p, q)

    def single_point_kernels(self, points, scales):
        """(points, scales, dilate, distance, coordinate_gap, back) in working form."""
        return points, scales, self.dilate, self.distance, self.coordinate_gap, lambda p: p

    def point_from_json(self, obj):
        raise NotImplementedError

    def point_to_list(self, p) -> list:
        raise NotImplementedError

    def __repr__(self):  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name}>"


def exactify(S: DilatationStructure, points, scales) -> tuple[list, list, bool]:
    """The points and scales in the exact arithmetic of S, and True; else as given, and False.

    Identity-type residuals vanish exactly in rational arithmetic, which
    sidesteps the roundoff blowup of fractional-power gauges.  A model
    without exact arithmetic (no ``to_exact``), or a complex scale, leaves
    them in floats.  A float point with a NaN or infinite coordinate has no
    exact value: ``require_finite`` raises DomainViolation, naming the point.
    """
    if not hasattr(S, "to_exact"):
        return points, scales, False
    try:
        exact_scales = [S.to_exact_scale(e) for e in scales]
    except ValueError:
        return points, scales, False
    require_finite(points)
    return [S.to_exact(p) for p in points], exact_scales, True


def require_finite(points) -> None:
    """A float point with a NaN or infinite coordinate raises DomainViolation, naming it."""
    for p in points:
        if isinstance(p, np.ndarray) and not np.isfinite(p).all():
            raise DomainViolation(f"the point {p.tolist()} has a non-finite coordinate")


def require_radius(radius: float) -> None:
    """A ball radius that is not positive and finite raises ValueError, naming it."""
    if not 0 < radius < np.inf:  # a NaN radius fails both comparisons
        raise ValueError(f"ball radius must be positive and finite, got {radius!r}")


# ---------------------------------------------------------------------------
# sampling helper for models whose carrier is a numpy coordinate vector
# ---------------------------------------------------------------------------

def _lattice_offsets(dim: int):
    """The seven lattice directions 0, +-e0, +-e1, +-diag, each built when asked for."""
    yield np.zeros(dim)
    for i in (0, min(1, dim - 1)):
        e = np.zeros(dim)
        e[i] = 1.0
        yield e
        yield -e
    diag = np.ones(dim) / np.sqrt(dim)
    yield diag
    yield -diag


def vector_sample_ball(model, center, radius: float, count: int, rng) -> list:
    """Sample a metric ball of a coordinate model.

    Starts from a fixed lattice of directions, then fills with seeded random
    offsets; every candidate is halved until it lands inside the ball, which
    keeps the procedure deterministic for a fixed seed.  A candidate still
    outside after 60 halvings raises DomainViolation: the model's distance
    does not shrink with the offset there, as a homogeneous norm would.
    """
    require_radius(radius)
    center = np.asarray(center, dtype=float)
    dim = center.shape[0]
    pts = []

    def shrink(offset):
        for _ in range(60):
            p = center + offset
            if model.distance(center, p) <= radius:
                return p
            offset = offset * 0.5
        raise DomainViolation(
            f"no candidate inside the ball of radius {radius} on {model.name} "
            f"after 60 halvings")

    for _, off in zip(range(count), _lattice_offsets(dim)):
        pts.append(shrink(off * (radius * 0.5)))
    while len(pts) < count:
        off = rng.uniform(-radius, radius, size=dim)
        pts.append(shrink(off))
    return pts


# ---------------------------------------------------------------------------
# rows of sample tuples
# ---------------------------------------------------------------------------

def float_points(points) -> bool:
    """True when there are points and every one is a float coordinate array."""
    return bool(points) and all(isinstance(p, np.ndarray) and p.dtype.kind == "f"
                                for p in points)


def _stacker(points):
    """How these points stack into a batch: ``np.stack`` for float arrays, the
    ``stack`` of their one type for exact points (``ExactPoint``), else None."""
    if float_points(points):
        return np.stack
    kind = type(points[0]) if points else None
    if hasattr(kind, "stack") and all(type(p) is kind for p in points):
        return kind.stack
    return None


class Rows:
    """Evaluation of one function over many tuples of points.

    When every point is a float array, each tuple position is stacked into an
    ``(N, dim)`` batch, and exact points into an ``ExactRows`` batch, and the
    function runs once over all rows; otherwise (dyadic points) it runs once
    per row.  Either way it is the same function, and a batch row equals the
    value of its own row.  A per-row scale holds floats, so rows that take one
    (``scaled``) batch float points only.  A sweep that pairs each sample with
    the next one lays its rows out with ``pairs``, so a map that is the same on
    every row of a block, such as a dilatation based at the block's point, is
    evaluated once for both points of a pair (``images``).
    """

    def __init__(self, points, batch: bool = True):
        self.stack = _stacker(points) if batch else None
        self.batched = self.stack is not None

    @classmethod
    def scaled(cls, points, batch: bool = True) -> "Rows":
        """Rows that take a per-row scale (``scale_column``): a batch of float
        points; exact points go one row at a time."""
        return cls(points, batch and float_points(points))

    @classmethod
    def pairs(cls, bases, pts, batch: bool = True):
        """The rows and the columns X, U, V of one row (x, u, v) per base x and
        sample u, bases outermost; v, the sample after u (the last pairs with the
        first), is U rotated within x's block."""
        rows = cls([*bases, *pts], batch)
        X = rows.column([x for x in bases for _ in pts])
        U = rows.column([u for _ in bases for u in pts])
        return rows, X, U, rows.rotate(U, len(pts))

    def images(self, S, X, U, eps, block: int):
        """delta^x_eps u and delta^x_eps v on every row, from one dilate: the rows
        of a block share x, so v's image is the next row's image of u."""
        A = self.map(lambda x, u: S.dilate(x, eps, u), X, U)
        return A, self.rotate(A, block)

    @classmethod
    def over_grid(cls, points, eps_grid) -> "Rows":
        """A row per scale of the grid at fixed points, ``scaled``; a per-row scale
        holds one value type, so a grid that mixes types goes one scale at a time."""
        return cls.scaled(points, len({type(e.value) for e in eps_grid}) == 1)

    def column(self, points):
        """The points of one tuple position, stacked when batched."""
        return self.stack(points) if self.batched else list(points)

    def scale_column(self, scales: list[Scale]):
        """The scales of one tuple position, one validated ``Scale`` per row.

        When batched, one per-row scale: a ``RowScale`` holding their values,
        of one type, as an ``(N, 1)`` array, which the float ``_dilate`` of
        every coordinate model (C x R with real or complex values) applies row
        by row; otherwise the scales as they are.
        """
        return RowScale.of(scales) if self.batched else list(scales)

    def row(self, col, i: int):
        """Row i of a column, as a point of its own rather than a view into the batch."""
        return col[i].copy() if isinstance(col, np.ndarray) else col[i]

    def rotate(self, col, block: int):
        """Each block of ``block`` consecutive rows shifted up by one row, its
        first row moving to the block's end; no row leaves its block."""
        n = range(len(col))
        order = [j for i in n[::block] for j in (*n[i + 1:i + block], i)]
        return col[order] if self.batched else [col[j] for j in order]

    def map(self, f, *cols):
        """f on every row: an array from one call, or a list of per-row values."""
        if self.batched:
            return f(*cols)
        return [f(*row) for row in zip(*cols)]

    def floats(self, f, *cols) -> list[float]:
        """f on every row, as a list of Python floats."""
        out = self.map(f, *cols)
        return out.tolist() if self.batched else out

    def sup(self, f, *cols) -> float:
        """``core.reports.sup`` of f over the rows."""
        return sup(self.map(f, *cols))


# ---------------------------------------------------------------------------
# composite operators
# ---------------------------------------------------------------------------

def approx_difference(S: DilatationStructure, x, eps: Scale, u, v):
    """Delta^x_eps(u, v), the finite-scale difference composite (per row on batches)."""
    not_expanding("a finite-scale composite", eps)
    return difference_after(S, eps, S.dilate(x, eps, u), S.dilate(x, eps, v))


def difference_after(S: DilatationStructure, eps: Scale, a, b):
    """Delta^x_eps(u, v) from the images a = delta^x_eps u and b = delta^x_eps v."""
    return S.dilate(a, eps.inverse(), b)


def approx_sum(S: DilatationStructure, x, eps: Scale, u, v):
    """Sigma^x_eps(u, v), the finite-scale sum composite."""
    not_expanding("a finite-scale composite", eps)
    a = S.dilate(x, eps, u)
    return S.dilate(x, eps.inverse(), S.dilate(a, eps, v))


def approx_inverse(S: DilatationStructure, x, eps: Scale, u):
    """inv^x_eps(u), the finite-scale inverse composite."""
    not_expanding("a finite-scale composite", eps)
    a = S.dilate(x, eps, u)
    return S.dilate(a, eps.inverse(), x)


def rescaled_distance(S: DilatationStructure, x, mu: Scale, u, v) -> float:
    """The distance (delta^x, mu): d(delta^x_mu u, delta^x_mu v) / nu(mu), per row on batches."""
    not_expanding("the rescaled distance", mu)
    return rescaled_distance_after(S, mu, S.dilate(x, mu, u), S.dilate(x, mu, v))


def rescaled_distance_after(S: DilatationStructure, mu: Scale, a, b) -> float:
    """The rescaled distance from the images a = delta^x_mu u and b = delta^x_mu v."""
    return S.distance(a, b) / mu.nu


def estimate_dx(S: DilatationStructure, x, u, v, eps_grid) -> tuple[float, ConvergenceReport]:
    """Estimate the tangent distance d^x(u, v) along a decreasing scale grid.

    The estimate is the finest-grid rescaled distance, read in the exact
    arithmetic of S where it has one (``exactify``), else in one float call over
    the grid (``Rows.over_grid``); the report records the gap of each grid value
    to it.  Successive differences must contract (``contracts``),
    otherwise the sweep raises NonConvergent.  A vanishing limit for distinct
    u, v flags the structure as degenerate; only then is their coordinate gap read.
    """
    if len(eps_grid) < 4:
        raise ValueError("estimate_dx needs a grid of at least 4 scales")
    trend_grid("estimate_dx", eps_grid)
    (x, u, v), grid, _ = exactify(S, [x, u, v], eps_grid)
    rows = Rows.over_grid([x, u, v], grid)
    values = rows.floats(lambda e: rescaled_distance(S, x, e, u, v), rows.scale_column(grid))
    diffs = [abs(a - b) for a, b in zip(values, values[1:])]
    if not contracts(diffs, [e.nu for e in eps_grid]):
        raise NonConvergent(f"rescaled distances do not settle on {S.name}: diffs={diffs}")
    estimate = values[-1]
    verdict = (beyond([estimate], DEFECT_FLOOR)
               or within([S.coordinate_gap(u, v)], EXACT_IDENTITY_TOL))
    return estimate, make_report(eps_grid, [abs(val - estimate) for val in values], verdict,
                                 {"model": S.name, "quantity": "rescaled-distance",
                                  "values": values, "degenerate": not verdict})
