"""The noncommutative affine layer.

In a linear structure the composite of two contracting dilatations is again
a dilatation, based at the fixed point of the composite (the Menelaos
property) and with coefficient the product of the two.  This module hosts
that fixed point computed four independent ways (the two-sequence iteration,
plain Banach iteration of the composite, the h/g inversion in a group model,
and the Heisenberg closed form), the resulting collinear-triple geometry
with its ratio invariant, the barycentric and collinearity diagnostics that
separate the commutative case, the distance envelopes of the fixed point,
and the valuation counterexample on C x R.
"""

from __future__ import annotations

import statistics
import warnings
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from dilatation_lab.config import (
    COUNTEREXAMPLE_SEPARATION, ENVELOPE_ABS_SLACK, ENVELOPE_SLACK, EXACT_IDENTITY_TOL,
    FIXED_POINT_TOL, MAX_ITER, MENELAOS_PROBE_TOL, RATE_FLOOR_FACTOR)
from dilatation_lab.errors import DomainViolation, MaxIterExceeded
from dilatation_lab.core.reports import (
    ConvergenceReport, Verdict, beyond, make_report, sup, within, within_envelopes)
from dilatation_lab.core.scales import RowScale, Scale, contraction
from dilatation_lab.core.structure import DilatationStructure, Rows, exactify, require_finite
from dilatation_lab.emergent import check_affine_map
from dilatation_lab.models.base import GroupModel
from dilatation_lab.models.complexheis import ComplexHeisenbergModel
from dilatation_lab.models.heisenberg import HeisenbergModel


def probe_points(S: DilatationStructure, center, radius: float, seed: int = 0) -> list:
    """The standard identity-test probe set, 16 points of the ball: the model's
    fixed lattice, then seeded fill.  An exact center gives exact probes."""
    return S.sample_ball(center, radius, 16, np.random.default_rng(seed))


# ---------------------------------------------------------------------------
# Menelaos fixed points
# ---------------------------------------------------------------------------

@dataclass
class MenelaosResult:
    """Outcome of the two-sequence iteration toward the composite's base point."""

    w: object
    iterations: int
    residual: float
    contraction_rate: float
    step_rates: list[float] = field(default_factory=list)
    probe_defect: float = 0.0


def _menelaos_walk(S: DilatationStructure, x, eps: Scale, y, mu: Scale, tol: float,
                   max_iter: int, on_step=None) -> tuple[object, int, float]:
    """The paired iteration

        x_{n+1} = delta_mu^{delta_eps^{x_n} y_n} x_n,   y_{n+1} = delta_eps^{x_n} y_n,

    run until the coordinate gap of the two strands is at most tol, which a
    NaN gap never is.  Returns the base point, the step count and the last
    gap.  Five steps in a row that do not shrink the gap, NaN steps included,
    or max_iter steps, raise MaxIterExceeded.
    The strands step in ``S.single_point_kernels``' working form.  ``on_step(d)``,
    if given, sees each step's distance between the strands before its gap.
    """
    (xn, yn), (eps, mu), dilate, distance, gap_of, back = S.single_point_kernels([x, y], [eps, mu])
    gap = gap_of(xn, yn)
    stall = 0
    iterations = 0
    while not gap <= tol:
        if iterations >= max_iter:
            raise MaxIterExceeded(f"no convergence after {max_iter} iterations")
        y_next = dilate(xn, eps, yn)
        x_next = dilate(y_next, mu, xn)
        if on_step is not None:
            on_step(distance(x_next, y_next))
        gap_next = gap_of(x_next, y_next)
        if not gap_next < gap:
            stall += 1
            if stall >= 5:
                raise MaxIterExceeded(
                    f"contraction stalled for 5 consecutive steps at gap {gap_next:.3g}")
        else:
            stall = 0
        xn, yn, gap = x_next, y_next, gap_next
        iterations += 1
    return back(xn), iterations, gap


def menelaos_iterate(S: DilatationStructure, x, eps: Scale, y, mu: Scale,
                     tol: float = FIXED_POINT_TOL,
                     max_iter: int = MAX_ITER) -> MenelaosResult:
    """Find w with delta^x_eps delta^y_mu = delta^w_{eps mu} by the paired
    iteration, whose two strands contract toward the common fixed point at
    the exact per-step rate nu(eps mu).  The result records the step rates and
    the probe defect, the dilatation identity read on three probe points near w.
    A probe defect the CLI's menelaos verdict fails warns that the structure looks
    nonlinear; a float point with a non-finite coordinate raises DomainViolation.
    """
    contraction("the Menelaos composite", eps, mu)
    require_finite([x, y])
    d_metric = S.distance(x, y)
    # contraction rates are read from metric distances, but only while they
    # sit safely above the resolution floor of the gauge
    rate_floor = RATE_FLOOR_FACTOR * max(1.0, d_metric)
    rates: list[float] = []

    def read_rate(d_next):
        nonlocal d_metric
        if d_metric > rate_floor and d_next > 0:
            rates.append(d_next / d_metric)
        d_metric = d_next

    w, iterations, gap = _menelaos_walk(S, x, eps, y, mu, tol, max_iter, read_rate)
    observed = statistics.median(rates) if rates else float("nan")
    # one probe at a time, in the kernels' working form: a 3-row batch of the
    # coordinate-wise C x R and Engel products costs more than three single points
    probes = S.sample_ball(w, S.closeness_budget(), 3, np.random.default_rng(0))
    (xk, yk, wk, *ps), (e, m, em), dilate, _, gap_of, _ = S.single_point_kernels(
        [x, y, w, *probes], [eps, mu, eps * mu])
    probe_defect = sup(gap_of(dilate(xk, e, dilate(yk, m, p)), dilate(wk, em, p)) for p in ps)
    if not within([probe_defect], MENELAOS_PROBE_TOL):
        warnings.warn(f"{S.name} looks nonlinear near the inputs (probe defect "
                      f"{probe_defect:.3g}); the composite may not be a dilatation", stacklevel=2)
    return MenelaosResult(w, iterations, gap, observed, rates, probe_defect)


def banach_oracle(S: DilatationStructure, x, eps: Scale, y, mu: Scale, u0,
                  tol: float = FIXED_POINT_TOL,
                  max_iter: int = MAX_ITER):
    """Independent fixed-point oracle: iterate u -> delta^x_eps delta^y_mu u.

    The composite contracts distances by the factor nu(eps mu) < 1, so plain
    iteration converges to the same w as the paired iteration.  The iterates
    step in ``S.single_point_kernels``' working form; a NaN step raises at once.
    """
    contraction("Banach iteration of the composite", eps * mu)
    (x, y, u), (eps, mu), dilate, distance, _, back = S.single_point_kernels([x, y, u0], [eps, mu])
    for step in range(1, max_iter + 1):
        nxt = dilate(x, eps, dilate(y, mu, u))
        d = distance(nxt, u)
        if d <= tol:
            return back(nxt)
        if not d > tol:  # neither within tol nor beyond it: a NaN
            raise MaxIterExceeded(f"Banach step {step} moved the iterate by a NaN distance")
        u = nxt
    raise MaxIterExceeded(f"no fixed point after {max_iter} iterations")


# ---------------------------------------------------------------------------
# the h/g inversion and the ratio function
# ---------------------------------------------------------------------------

def h_map(M: GroupModel, eps: Scale, x):
    """h_eps(x) = x . delta_eps(x^-1) = delta^x_eps e."""
    contraction("h_eps", eps)
    return M.group_product(x, M.ambient_dilate(eps, M.group_inverse(x)))


class GMapResult(NamedTuple):
    point: object
    truncation_bound: float


def g_map(M: GroupModel, eps: Scale, y, N: int) -> GMapResult:
    """Truncated inverse of h: the product delta_1(y) delta_eps(y) ... delta_{eps^N}(y).

    Extending the truncation from N to any longer product moves the result by
    at most nu(eps)^{N+1} / (1 - nu(eps)) times |y|, which is attached to the
    result as its error bound.  The powers eps^k are scale values, multiplied as
    ``Scale * Scale`` does; on a float y their N dilatations are one per-row
    ``ambient_dilate`` call, and ``M.product_of`` folds the N products.
    """
    contraction("g_eps", eps)
    if N < 1:
        raise ValueError("truncation order N must be at least 1")
    group, e = eps.group, eps.value
    values = [e]
    for _ in range(N - 1):
        values.append(group.combine(values[-1], e))
    rows = Rows([y])
    powers = (RowScale(group, np.array(values).reshape(-1, 1)) if rows.batched
              else [Scale(group, v) for v in values])
    out = M.product_of(y, rows.map(lambda p: M.ambient_dilate(p, y), powers))
    nu = eps.nu
    bound = nu ** (N + 1) / (1.0 - nu) * M.homogeneous_norm(y)
    return GMapResult(out, bound)


def ratio_point(M: GroupModel, x, y, eps: Scale, mu: Scale, N: int = 64):
    """The ratio function w(x, y, eps, mu) = g_{eps mu}(h_eps(x) . h_mu(delta_eps y)).

    Solves h_eps(x) . delta_eps(h_mu(y)) = h_{eps mu}(w) for w, which is the
    base point of the composite dilatation; agrees with both iterations.
    """
    rhs = M.group_product(h_map(M, eps, x), h_map(M, mu, M.ambient_dilate(eps, y)))
    return g_map(M, eps * mu, rhs, N).point


def heisenberg_ratio_closed_form(M: HeisenbergModel, X, Y, eps: float, mu: float):
    """Exact base point of delta^X_eps delta^Y_mu in H(n).

    Componentwise in (planar, center) coordinates:

        z    = (1-eps)/(1-eps mu) x + eps(1-mu)/(1-eps mu) y
        zbar = (1-eps^2)/(1-eps^2 mu^2) xbar + eps^2 (1-mu^2)/(1-eps^2 mu^2) ybar
               + eps(1-eps)(1-mu) / (2 (1-eps^2 mu^2)) omega(x, y)
    """
    eps = float(eps)
    mu = float(mu)
    if eps * mu == 1.0:
        raise DomainViolation("the closed form needs eps mu != 1")
    n2 = 2 * M.n
    x, y = X[:n2], Y[:n2]
    xbar, ybar = X[n2], Y[n2]
    em = eps * mu
    z = (1.0 - eps) / (1.0 - em) * x + eps * (1.0 - mu) / (1.0 - em) * y
    em2 = em * em
    zbar = ((1.0 - eps * eps) * xbar + eps * eps * (1.0 - mu * mu) * ybar
            + eps * (1.0 - eps) * (1.0 - mu) / 2.0 * M.symplectic(x, y)) / (1.0 - em2)
    out = np.empty(M.coordinate_dim)
    out[:n2] = z
    out[n2] = zbar
    return out


# ---------------------------------------------------------------------------
# collinear triples
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CollinearTriple:
    """Three points with exponents whose dilatation composite is the identity.

    The third exponent is always derived as 1/(alpha beta); construction
    rejects exponent data with any of the three equal to one.  Exponents may
    be floats or exact rationals.
    """

    x: object
    y: object
    z: object
    alpha: object
    beta: object

    def __post_init__(self):
        a, b = float(self.alpha), float(self.beta)
        if a <= 0 or b <= 0:
            raise ValueError("exponents must be positive")
        if 1.0 in (a, b) or a * b == 1.0:
            raise ValueError("all three exponents must differ from 1")

    @property
    def gamma(self):
        return 1 / (self.alpha * self.beta)

    @property
    def ratio_norm(self) -> float:
        """r = alpha / (1 - alpha beta), the basic invariant of the triple."""
        return float(self.alpha / (1 - self.alpha * self.beta))


def collinear_triple_from_ratio(M: GroupModel, x, y, alpha: float, beta: float) -> CollinearTriple:
    """Construct the unique triple over (x^alpha, y^beta) via the ratio function."""
    sg = M.scale_group
    z = ratio_point(M, x, y, sg.scale(alpha), sg.scale(beta))
    return CollinearTriple(x, y, z, alpha, beta)


def check_collinear(S: DilatationStructure, triple: CollinearTriple,
                    probes=None) -> ConvergenceReport:
    """Identity defect of delta^x_alpha delta^y_beta delta^z_gamma on probe points."""
    sg = S.scale_group
    a, b, g = sg.scale(triple.alpha), sg.scale(triple.beta), sg.scale(triple.gamma)
    if probes is None:
        probes = probe_points(S, triple.x, S.closeness_budget())
    defects = [S.distance(S.dilate(triple.x, a, S.dilate(triple.y, b, S.dilate(triple.z, g, p))), p)
               for p in probes]
    # reports are scale-indexed; an identity check is scale-free, so wrap the
    # probe defects in a single-scale report carrying the sup
    return make_report([sg.contraction(1)], [sup(defects)], within(defects, EXACT_IDENTITY_TOL),
                       {"model": S.name, "quantity": "collinear-identity",
                        "ratio_norm": triple.ratio_norm, "probe_count": len(probes),
                        "probe_defects": defects})


def reversed_collinear_search(M: HeisenbergModel, X, Y, Z, grid_lo: float = 1.01,
                              grid_hi: float = 4.0, resolution: int = 50,
                              probes=None, seed: int = 0) -> float:
    """Best identity defect of (Y^b', X^a', Z^g') over an exponent grid.

    Scans a resolution x resolution grid of (a', b') and returns the smallest
    probe-sup defect; a large minimum certifies that reversing the first two
    legs of a collinear triple is impossible for the given configuration.

    For each a' the rows are every (b', probe) pair, b' by b', with b' and
    g' = 1/(a' b') as per-row scales: one call of each primitive over all of
    them on float probes, one row at a time on exact ones.  Each pair's
    ``sup`` over its probes is one row of ``sup(d, axis=1)``; the minimum
    over pairs is NaN when any pair's sup is.  A grid of no exponents
    certifies nothing: a resolution below 1 raises ValueError.
    """
    if resolution < 1:
        raise ValueError("reversed_collinear_search needs a resolution of at least 1")
    sg = M.scale_group
    if probes is None:
        probes = probe_points(M, X, M.closeness_budget(), seed)
    alphas = np.linspace(grid_lo, grid_hi, resolution).tolist()
    rows = Rows(probes)

    def per_pair(scales):
        """One scale per (b', probe) row, from one scale per b'."""
        return rows.scale_column([s for s in scales for _ in probes])

    P = rows.column([p for _ in alphas for p in probes])
    B = per_pair([sg.scale(b) for b in alphas])
    best = float("inf")
    for a in alphas:
        sa = sg.scale(a)
        C = per_pair([sg.scale(1.0 / (a * b)) for b in alphas])
        moved = rows.map(lambda p, sb, sc: M.dilate(Y, sb, M.dilate(X, sa, M.dilate(Z, sc, p))),
                         P, B, C)
        d = np.reshape(rows.map(M.distance, moved, P), (resolution, len(probes)))
        best = np.minimum.reduce(sup(d, axis=1), initial=best)
    return float(best)


# ---------------------------------------------------------------------------
# barycentric and collinearity diagnostics
# ---------------------------------------------------------------------------

def barycentric_defect(S: DilatationStructure, x, y, eps: Scale) -> float:
    """d(delta^x_eps y, delta^y_{1-eps} x): zero exactly in the commutative case."""
    if hasattr(S, "barycentric_pair"):
        left, right = S.barycentric_pair(x, y, eps)
        return S.distance(left, right)
    contraction("the barycentric comparison", eps)
    one_minus = S.scale_group.scale(1 - eps.value)
    return S.distance(S.dilate(x, eps, y), S.dilate(y, one_minus, x))


def collinearity_defect(S: GroupModel, u, v, eps: Scale) -> float:
    """Triangle-equality gap of inv^u(v), u and delta^u_eps v.

    d(inv^u(v), u) + d(u, delta^u_eps v) - d(inv^u(v), delta^u_eps v); it is
    nonnegative and vanishes when the three points sit on a geodesic, which
    the barycentric condition forces.
    """
    contraction("the collinearity diagnostic", eps)
    inv_u = S.base_inverse(u, v)
    mid = S.dilate(u, eps, v)
    return S.distance(inv_u, u) + S.distance(u, mid) - S.distance(inv_u, mid)


def distance_estimates_check(S: DilatationStructure, x, y, eps: Scale,
                             mu: Scale) -> tuple[float, float, Verdict]:
    """Envelopes of the composite's base point:

        d(x, w) <= nu(eps) / (1 - nu(eps mu)) d(x, delta^y_mu x)
        d(y, w) <= 1 / (1 - nu(eps mu)) d(y, delta^x_eps y)

    Returns the two left-hand sides and the ``within_envelopes`` verdict on both,
    with multiplicative slack 1 + ENVELOPE_SLACK and absolute ENVELOPE_ABS_SLACK.
    Only w is read, so the paired iteration runs without the step rates and
    the probe check of ``menelaos_iterate``.
    """
    contraction("the Menelaos composite", eps, mu)
    w = _menelaos_walk(S, x, eps, y, mu, FIXED_POINT_TOL, MAX_ITER)[0]
    q = eps.nu * mu.nu
    lhs1 = S.distance(x, w)
    bound1 = eps.nu / (1.0 - q) * S.distance(x, S.dilate(y, mu, x))
    lhs2 = S.distance(y, w)
    bound2 = 1.0 / (1.0 - q) * S.distance(y, S.dilate(x, eps, y))
    return lhs1, lhs2, within_envelopes([lhs1, lhs2], [bound1, bound2],
                                        ENVELOPE_SLACK, ENVELOPE_ABS_SLACK)


# ---------------------------------------------------------------------------
# the valuation counterexample
# ---------------------------------------------------------------------------

def counterexample_check(M: ComplexHeisenbergModel, eps: float, Y, probes=None,
                         flip: bool = True) -> ConvergenceReport:
    """Composite dilatations on C x R with nu(eps mu) = 1.

    With mu = -1/eps (so eps mu = -1) the composite delta^X_eps delta^Y_mu,
    X the neutral element, is an isometry but *not* the left translation by
    its value at the neutral element: the report's defect is the probe-sup
    distance between the two maps, and it passes when the defect exceeds
    COUNTEREXAMPLE_SEPARATION.  With flip=False the control case mu = +1/eps
    runs instead, where the composite *is* that translation and the defect
    must vanish.

    Both scales are real here, so every coordinate stays rational; the two
    maps are evaluated on the model's exact points, and only the gap between
    them is rounded, coordinate by coordinate, before the gauge is taken.
    A fourth-root gauge would otherwise inflate coordinate roundoff past any
    honest tolerance.
    """
    eps = float(eps)
    if not 0.0 < eps < 1.0:
        raise DomainViolation("the construction needs a real eps in (0,1)")
    sg = M.scale_group
    if probes is None:
        probes = probe_points(M, M.identity(), 1.0)

    (y, neutral, *us), (e,), _ = exactify(M, [Y, M.identity(), *probes], [sg.scale(eps)])
    mu = Scale(sg, -1 / e.value if flip else 1 / e.value)

    def composite(u):
        return M.ambient_dilate(e, M.dilate(y, mu, u))

    head = composite(neutral)

    def gap(u):
        return M.group_product(M.group_inverse(composite(u)), M.group_product(head, u))

    defect = sup(M.homogeneous_norm(gap(u).to_float()) for u in us)
    verdict = (beyond([defect], COUNTEREXAMPLE_SEPARATION) if flip
               else within([defect], EXACT_IDENTITY_TOL))
    return make_report([sg.scale(complex(eps))], [defect], verdict,
                       {"model": M.name, "quantity": "translation-defect",
                        "eps": eps, "eps_mu": -1.0 if flip else 1.0,
                        "probe_count": len(probes)})


# ---------------------------------------------------------------------------
# geometric affinity
# ---------------------------------------------------------------------------

def geometric_affinity_check(S: DilatationStructure, T, triple_samples,
                             probes=None) -> ConvergenceReport:
    """Does T preserve collinear triples with their exponents?

    For each sampled triple the image triple ((Tx)^a, (Ty)^b, (Tz)^g) is run
    through the identity check; the report passes when every image defect
    stays below EXACT_IDENTITY_TOL.  The metadata carries the commutation
    defect of T with dilatations on the same points, the equivalent
    characterization.
    """
    defects = []
    pts = []
    for triple in triple_samples:
        image = CollinearTriple(T(triple.x), T(triple.y), T(triple.z),
                                triple.alpha, triple.beta)
        rep = check_collinear(S, image, probes=probes)
        defects.append(rep.defect[0])
        pts.append((triple.x, triple.y))
    sg = S.scale_group
    commutation = check_affine_map(S, T, pts, [sg.contraction(k) for k in (1, 2, 3)])
    return make_report([sg.contraction(1)], [sup(defects)], within(defects, EXACT_IDENTITY_TOL),
                       {"model": S.name, "quantity": "geometric-affinity",
                        "triple_defects": defects,
                        "commutation_defect": sup(commutation.defect),
                        "commutation_pass": commutation.verdict})
