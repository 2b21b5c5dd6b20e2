"""What emerges at small scales: tangent operations, induced structures,
linearity defects and derivatives.

The finite-scale composites of the core module converge to the operations of
a local conical group at each point.  This module extracts those limits
numerically (with exact short-circuits where a model knows its tangent in
closed form), rescales a structure into its induced structures, measures the
failure of dilatations based at different points to commute, and estimates
derivatives of maps between structures as conical-group morphisms.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from dilatation_lab.config import DERIVATIVE_TOL, EXACT_IDENTITY_TOL, MIN_PAIRED_SAMPLES, default_ks
from dilatation_lab.errors import NonConvergent
from dilatation_lab.core.reports import (
    ConvergenceReport, contracts, converges, dies_out, make_report, nonincreasing, sup, within)
from dilatation_lab.core.structure import (
    DilatationStructure, Rows, approx_difference, approx_inverse, approx_sum,
    estimate_dx, exactify, require_finite, rescaled_distance)
from dilatation_lab.core.scales import (
    Scale, contraction, decreasing, not_expanding, reference_scale, trend_grid)
from dilatation_lab.models.base import EXACT_TYPES

LIMIT_OPS = {"sum": approx_sum, "difference": approx_difference,
             "inverse": approx_inverse}


def tangent_limit(S: DilatationStructure, x, u, v, which: str,
                  eps_grid) -> tuple[object, ConvergenceReport]:
    """Limit of the sum/difference/inverse composite along a scale grid.

    The limit is taken as the finest-grid composite after a Cauchy check:
    successive coordinate gaps must contract (``contracts``).  Models with exact
    tangent operations supply the reference instead; the defect column then
    records the distance to the limit and the numeric path double-checks the
    closed form.  On float points one composite call covers the whole grid, as
    a per-row scale over the single x, u, v, and the gaps and the defects are
    one call each (``Rows``); each value is the one its scale alone gives.  A
    non-finite point raises DomainViolation before any work (``require_finite``).
    """
    if which not in LIMIT_OPS:
        raise ValueError(f"which must be one of {sorted(LIMIT_OPS)}, got {which!r}")
    trend_grid("tangent_limit", eps_grid)
    require_finite([x, u, v])
    op = LIMIT_OPS[which]
    args = (u,) if which == "inverse" else (u, v)
    rows = Rows.over_grid([x, *args], eps_grid)
    points = rows.map(lambda e: op(S, x, e, *args), rows.scale_column(eps_grid))
    increments = rows.floats(S.coordinate_gap, points[:-1], points[1:])
    if not (verdict := contracts(increments, [e.nu for e in eps_grid])):
        raise NonConvergent(f"tangent {which} composites do not settle on {S.name}: {increments}")
    exact = getattr(S, f"tangent_{which}", None)
    limit = rows.row(points, -1) if exact is None else exact(x, *args)
    defects = rows.floats(lambda p: S.distance(p, limit), points)
    return limit, make_report(eps_grid, defects, verdict,
                              {"model": S.name, "quantity": f"tangent-{which}",
                               "exact_reference": exact is not None,
                               "cauchy_increments": increments})


class AnchoredStructure(DilatationStructure):
    """A structure on the carrier of a base S, anchored at a point x of S.

    The carrier is S's: the origin is x, and sampling, JSON and coordinate gaps
    are S's.  So is the exact arithmetic, looked up at each use and there only
    when S has it; the anchor, x and any anchor scales, is converted to it once,
    on first exact use.
    """

    def __init__(self, base: DilatationStructure, name: str, x, *scales: Scale):
        self.base = base
        self.anchor = (x, *scales)
        self.scale_group = base.scale_group
        self.domain_radius_A = base.domain_radius_A
        self.name = name

    def _anchor(self, like):
        """The anchor in the arithmetic of the query point like."""
        return self._exact_anchor if type(like) in EXACT_TYPES else self.anchor

    @cached_property
    def _exact_anchor(self):
        # converted on first exact use: bases without exact arithmetic never pay
        x, *scales = self.anchor
        return (self.base.to_exact(x), *map(self.base.to_exact_scale, scales))

    def origin(self):
        return self.anchor[0]

    def sample_ball(self, center, radius, count, rng):
        return self.base.sample_ball(center, radius, count, rng)

    def point_from_json(self, obj):
        return self.base.point_from_json(obj)

    def point_to_list(self, p):
        return self.base.point_to_list(p)

    def coordinate_gap(self, p, q) -> float:
        return self.base.coordinate_gap(p, q)

    def __getattr__(self, name):
        if name in ("to_exact", "to_exact_scale"):
            return getattr(self.base, name)
        raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")


class TangentSpace(AnchoredStructure):
    """The tangent (T_x S, d^x, delta-hat^x) at x, a structure on S's carrier: the
    distance d^x, and dilatations based at u, Sigma^x(u, delta^x_eps Delta^x(u, y)).

    Each operation is S's closed form ``tangent_<op>`` where S has one, else its
    limit along ``eps_grid`` (``tangent_limit``, ``estimate_dx``).  Float batches
    pass straight through to S's batched closed forms; a limit takes single
    points, so the tangent of a base without closed forms (an
    ``InducedStructure``) takes single points only.
    """

    def __init__(self, base: DilatationStructure, x, eps_grid):
        super().__init__(base, f"tangent({base.name})", x)
        self.eps_grid = list(eps_grid)

    def _op(self, which, *args):
        S, (x,) = self.base, self._anchor(args[0])
        closed = getattr(S, f"tangent_{which}", None)
        if closed is not None:
            return closed(x, *args)
        if which == "distance":
            return estimate_dx(S, x, *args, self.eps_grid)[0]
        u, v = (*args, None)[:2]
        return tangent_limit(S, x, u, v, which, self.eps_grid)[0]

    def sum(self, u, v):
        return self._op("sum", u, v)

    def difference(self, u, v):
        return self._op("difference", u, v)

    def inverse(self, u):
        return self._op("inverse", u)

    def distance(self, u, v) -> float:
        return self._op("distance", u, v)

    def dilate(self, u, eps: Scale, y):
        (x,) = self._anchor(u)
        return self.sum(u, self.base.dilate(x, eps, self.difference(u, y)))


def tangent_space(S, x, eps_grid=None) -> TangentSpace:
    return TangentSpace(S, x, S.scale_group.grid(default_ks()) if eps_grid is None else eps_grid)


# ---------------------------------------------------------------------------
# induced structures at a fixed scale
# ---------------------------------------------------------------------------

class InducedStructure(AnchoredStructure):
    """The structure seen at scale mu from x: distance (delta^x, mu) and
    dilatations delta^x_{mu^-1} delta^{delta^x_mu u}_eps delta^x_mu."""

    def __init__(self, base: DilatationStructure, x, mu: Scale):
        contraction("an induced structure", mu)
        super().__init__(base, f"induced({base.name}, nu={mu.nu:g})", x, mu)

    def distance(self, p, q) -> float:
        x, mu = self._anchor(p)
        return rescaled_distance(self.base, x, mu, p, q)

    def dilate(self, u, eps: Scale, v):
        b = self.base
        x, mu = self._anchor(u)
        inner = b.dilate(b.dilate(x, mu, u), eps, b.dilate(x, mu, v))
        return b.dilate(x, mu.inverse(), inner)


def shift_isometry_defect(S: DilatationStructure, x, mu: Scale, u, pairs) -> float:
    """How far Sigma^x_mu(u, .) is from an isometry between induced distances.

    Compares (delta^{delta^x_mu u}, mu)(v, w) with (delta^x, mu) of the
    shifted points, the sup taken over the supplied (v, w) pairs.
    """
    a = S.dilate(x, mu, u)
    return sup(abs(rescaled_distance(S, a, mu, v, w)
                   - rescaled_distance(S, x, mu, approx_sum(S, x, mu, u, v),
                                       approx_sum(S, x, mu, u, w)))
               for v, w in pairs)


# ---------------------------------------------------------------------------
# linearity
# ---------------------------------------------------------------------------

def lin_defect(S: DilatationStructure, x, y, z, eps: Scale, mu: Scale) -> float:
    """d(delta^x_eps delta^y_mu z, delta^{delta^x_eps y}_mu delta^x_eps z).

    Zero exactly when dilatations based at different points commute the way
    conical-group ones do; the raw measure of nonlinearity otherwise.
    """
    not_expanding("the linearity defect", eps, mu)
    lhs = S.dilate(x, eps, S.dilate(y, mu, z))
    rhs = S.dilate(S.dilate(x, eps, y), mu, S.dilate(x, eps, z))
    return S.distance(lhs, rhs)


def _lin_scan(S: DilatationStructure, x, y, z, eps_grid, quantity: str) -> ConvergenceReport:
    """Lin(x, delta^x_eps y, z; eps, eps) / eps^2 over the grid, in exact arithmetic
    where S has it (``exactify``)."""
    (x, y, z), grid, _ = exactify(S, [x, y, z], eps_grid)
    values = [lin_defect(S, x, S.dilate(x, e, y), z, e, e) / (eps.nu * eps.nu)
              for eps, e in zip(eps_grid, grid)]
    return make_report(eps_grid, values, dies_out(values), {"model": S.name, "quantity": quantity})


def inflin_scan(S: DilatationStructure, x, y, z, eps_grid) -> ConvergenceReport:
    """Second-order vanishing of nonlinearity: Lin(x, delta^x_eps y, z; eps, eps) / eps^2.

    Passes when the rescaled defects die out (``dies_out``)."""
    trend_grid("inflin_scan", eps_grid)
    return _lin_scan(S, x, y, z, eps_grid, "lin-over-eps-squared")


def plin1_scan(S: DilatationStructure, x, y, v, eps_grid) -> ConvergenceReport:
    """First-order agreement of true and induced dilatations near u = delta^x_eps y.

    (1/eps)(delta^x, eps)(delta^u_eps v, delta-hat v), delta-hat the induced
    dilatation at scale eps, is ``inflin_scan``'s Lin(x, u, v; eps, eps) / eps^2;
    it must die out (``dies_out``)."""
    trend_grid("plin1_scan", eps_grid)
    return _lin_scan(S, x, y, v, eps_grid, "induced-dilatation-gap")


def metric_tangent_scan(S: DilatationStructure, x, eps_grid, sample_count: int = 16,
                        seed: int = 0) -> ConvergenceReport:
    """Quality of the tangent distance on shrinking balls.

    Sweeps sup |d(u, v) - d^x(u, v)| / nu(eps) over points at distance
    O(nu(eps)) from x, produced by contracting a fixed sample; a metric
    tangent space exists exactly when this dies out.
    """
    if sample_count < MIN_PAIRED_SAMPLES:
        raise ValueError(f"metric_tangent_scan needs at least {MIN_PAIRED_SAMPLES} samples")
    trend_grid("metric_tangent_scan", eps_grid)
    rng = np.random.default_rng(seed)
    base_pts = S.sample_ball(x, S.closeness_budget(), sample_count, rng)
    # each contracted point against the next one, the last against the first
    rows, X, U, _ = Rows.pairs([x], base_pts)
    values = [rows.sup(lambda x, u, v: abs(S.distance(u, v) - S.tangent_distance(x, u, v)),
                       X, *rows.images(S, X, U, eps, len(base_pts))) / eps.nu
              for eps in eps_grid]
    return make_report(eps_grid, values, nonincreasing(values),
                       {"model": S.name, "quantity": "metric-tangent-gap",
                        "seed": seed, "sample_count": sample_count})


# ---------------------------------------------------------------------------
# affine maps and derivatives
# ---------------------------------------------------------------------------

def check_affine_map(S: DilatationStructure, T, samples, eps_set) -> ConvergenceReport:
    """Largest commutation defect d(T delta^x_eps y, delta^{Tx}_eps T y).

    samples is a list of (x, y) pairs; the report passes when every defect is
    within EXACT_IDENTITY_TOL, and carries an empirical Lipschitz constant, to
    which a pair of coincident points adds 0.0 and a pair at a NaN distance
    NaN.  A single scale will do; a misordered set raises before any work.
    """
    decreasing(eps_set)
    images = [(T(x), T(y)) for x, y in samples]
    lip = sup(S.distance(tx, ty) / d if (d := S.distance(x, y)) != 0.0 else 0.0
              for (x, y), (tx, ty) in zip(samples, images))
    defects = [sup(S.distance(T(S.dilate(x, eps, y)), S.dilate(tx, eps, ty))
                   for (x, y), (tx, ty) in zip(samples, images))
               for eps in eps_set]
    return make_report(eps_set, defects, within(defects, EXACT_IDENTITY_TOL),
                       {"model": S.name, "quantity": "affine-commutation",
                        "lipschitz_estimate": lip})


def pansu_derivative(Ssrc: DilatationStructure, Sdst: DilatationStructure, f, x, u,
                     eps_grid) -> tuple[object, ConvergenceReport]:
    """Derivative of f at x along u as a tangent-group morphism value.

    Estimates Q^x(u) = lim delta^{f(x)}_{eps^-1} f(delta^x_eps u) over the
    grid, then recomputes the defining residual
    (1/eps) d(f(delta^x_eps u), delta^{f(x)}_eps Q^x(u)) with the estimate.
    Candidates that neither agree to EXACT_IDENTITY_TOL nor contract
    (``contracts``) raise NonConvergent, a finding (f is not
    differentiable at x along u), not a crash; the residuals decide the verdict.
    A non-finite x or u raises DomainViolation before any work (``require_finite``).
    """
    trend_grid("pansu_derivative", eps_grid)
    require_finite([x, u])
    fx = f(x)
    images = [f(Ssrc.dilate(x, eps, u)) for eps in eps_grid]
    candidates = [Sdst.dilate(fx, eps.inverse(), fu) for eps, fu in zip(eps_grid, images)]
    increments = [Sdst.coordinate_gap(a, b) for a, b in zip(candidates, candidates[1:])]
    if not (within(increments, EXACT_IDENTITY_TOL)
            or contracts(increments, [e.nu for e in eps_grid])):
        raise NonConvergent(f"derivative candidates do not settle along u: {increments}")
    # estimate at one refinement past the grid so every residual row,
    # including the last, measures the estimate against fresh data
    ref = reference_scale(eps_grid)
    q = Sdst.dilate(fx, ref.inverse(), f(Ssrc.dilate(x, ref, u)))
    residuals = [Sdst.distance(fu, Sdst.dilate(fx, eps, q)) / eps.nu
                 for eps, fu in zip(eps_grid, images)]
    return q, make_report(eps_grid, residuals, converges(residuals, DERIVATIVE_TOL),
                          {"model": f"{Ssrc.name}->{Sdst.name}", "quantity": "derivative-residual"})
