"""Chart transport: dilatation structures read through a fixed chart.

Two transports of a Euclidean base through a chart phi ship here:

* ``dilatation``: the chart is re-anchored at every base point and only the
  dilatations are transported,

      delta^x_eps y = x + phi^-1(eps . phi(y - x)),

  while the distance stays Euclidean.  The group axioms hold exactly, the
  rescaled distances converge to d^x(u, v) = |phi(u-x) - phi(v-x)|, and for a
  nonlinear chart the dilatations based at different points genuinely fail to
  commute, so the structure has a nonzero linearity defect at finite scale
  that dies out quadratically faster than the scale.  This is the lab's
  standard nonlinear specimen.

* ``metric``: the dilatations stay Euclidean and only the distance is read
  through the chart, d(u, v) = |phi(u) - phi(v)|.  Rescaled distances then
  converge to the derivative-weighted distance |Dphi(x)(u - v)|, which makes
  it the model of choice for tangent-distance oracles; as a family of maps
  it stays exactly linear.

The chart is the cubic t + t^3, applied componentwise on the ball of radius
0.5, where it is bi-Lipschitz; arguments outside it raise DomainViolation.
Every float primitive takes a point or an ``(N, dim)`` batch; a batch raises
when any of its rows leaves the ball.
"""

from __future__ import annotations

import numpy as np

from dilatation_lab.config import CHART_BALL_SLACK
from dilatation_lab.errors import DomainViolation, ModelError
from dilatation_lab.core.scales import Scale
from dilatation_lab.core.structure import DilatationStructure, vector_sample_ball
from dilatation_lab.models.base import float_or_rows, row_length
from dilatation_lab.models.euclidean import EuclideanModel


class CubicChart:
    """phi(t) = t + t^3 componentwise: smooth, odd, visibly nonlinear.

    Strictly increasing, hence globally invertible; the inverse solves the
    depressed cubic by the real Cardano root, polished with two Newton steps.
    """

    name = "cubic"

    def forward(self, v):
        return v + v ** 3

    def inverse(self, s):
        s = np.asarray(s, dtype=float)
        disc = np.sqrt(s * s / 4.0 + 1.0 / 27.0)
        t = np.cbrt(s / 2.0 + disc) + np.cbrt(s / 2.0 - disc)
        for _ in range(2):
            t = t - (t + t ** 3 - s) / (1.0 + 3.0 * t * t)
        return t

    def derivative(self, v):
        return 1.0 + 3.0 * v * v


class PullbackModel(DilatationStructure):
    """A Euclidean base seen through the cubic chart, in one of the two transports."""

    # the chart ball; the domain constants are inherited from it, not from
    # the usual normalization A > 1
    radius = 0.5
    domain_radius_A = radius / 2.0
    codomain_radius_B = radius

    def __init__(self, base: EuclideanModel, chart: str = "cubic",
                 transport: str = "dilatation"):
        if not isinstance(base, EuclideanModel):
            raise ModelError("chart transport is implemented over Euclidean bases")
        if chart != CubicChart.name:
            raise ModelError(f"unknown chart {chart!r}")
        if transport not in ("dilatation", "metric"):
            raise ModelError(f"unknown transport {transport!r}")
        self.base = base
        self.chart = CubicChart()
        self.transport = transport
        self.scale_group = base.scale_group
        self.coordinate_dim = base.coordinate_dim
        self.name = f"pullback-{chart}-{transport}-{base.n}d"

    # --- guards --------------------------------------------------------------

    def _check_ball(self, p, what: str):
        # a NaN length is inside no ball
        if np.count_nonzero(~(row_length(p) <= self.radius + CHART_BALL_SLACK)):
            raise DomainViolation(f"{what} leaves the chart ball of radius {self.radius}")

    # --- structure surface ------------------------------------------------------

    def distance(self, p, q) -> float:
        if self.transport == "metric":
            self._check_ball(p, "point")
            self._check_ball(q, "point")
            return self.base.distance(self.chart.forward(p), self.chart.forward(q))
        return self.base.distance(p, q)

    def dilate(self, x, eps: Scale, y):
        if self.transport == "metric":
            return self.base.dilate(x, eps, y)
        off = y - x
        self._check_ball(off, "dilatation argument")
        out = self.chart.inverse(eps.value * self.chart.forward(off))
        self._check_ball(out, "dilatation image")
        return x + out

    def origin(self):
        return np.zeros(self.coordinate_dim)

    def sample_ball(self, center, radius, count, rng):
        return vector_sample_ball(self, center, radius, count, rng)

    def point_from_json(self, obj):
        return self.base.point_from_json(obj)

    def point_to_list(self, p) -> list:
        return self.base.point_to_list(p)

    def coordinate_gap(self, p, q) -> float:
        return self.base.coordinate_gap(p, q)

    # --- exact tangent operations --------------------------------------------------

    def tangent_sum(self, x, u, v):
        if self.transport == "metric":
            return self.base.tangent_sum(x, u, v)
        f = self.chart.forward
        return x + self.chart.inverse(f(u - x) + f(v - x))

    def tangent_difference(self, x, u, v):
        if self.transport == "metric":
            return self.base.tangent_difference(x, u, v)
        f = self.chart.forward
        return x + self.chart.inverse(f(v - x) - f(u - x))

    def tangent_inverse(self, x, u):
        if self.transport == "metric":
            return self.base.tangent_inverse(x, u)
        return x - self.chart.inverse(self.chart.forward(u - x))

    def tangent_distance(self, x, u, v) -> float:
        if self.transport == "metric":
            return float_or_rows(row_length(self.chart.derivative(x) * (u - v)))
        f = self.chart.forward
        return float_or_rows(row_length(f(u - x) - f(v - x)))
