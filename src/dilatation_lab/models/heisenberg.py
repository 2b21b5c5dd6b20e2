"""Heisenberg groups H(n) with the Cygan gauge distance.

Points are (x, xbar) with x in R^{2n} and xbar real, multiplied by

    (x, xbar)(y, ybar) = (x + y, xbar + ybar + omega(x, y) / 2)

where omega is the standard symplectic form.  The ambient dilatations
delta_eps(x, xbar) = (eps x, eps^2 xbar) are group automorphisms and the
Cygan norm |(x, xbar)| = (|x|^4 + 16 xbar^2)^{1/4} is homogeneous and
subadditive, so the induced left-invariant distance is a true metric.
"""

from __future__ import annotations

import numpy as np

from dilatation_lab.models.base import dot_square, is_integer, power, row_dot
from dilatation_lab.models.carnot import CarnotModel, heisenberg_structure_constants


def cygan_gauge(planar: float, center: float) -> float:
    """(|x|^4 + 16 xbar^2)^{1/4} from the squared planar length and the center."""
    return power(planar * planar + 16.0 * center * center, 0.25)


class HeisenbergModel(CarnotModel):
    """H(n) on R^{2n+1}, coordinates [x_1..x_{2n}, xbar], with the Cygan gauge."""

    def __init__(self, n: int):
        if not is_integer(n) or n < 1:
            raise ValueError(f"Heisenberg index n must be an integer of at least 1, got {n!r}")
        self.n = int(n)
        super().__init__(2, *heisenberg_structure_constants(self.n))
        self.name = f"heisenberg-{self.n}"

    def symplectic(self, x, y):
        """omega(x, y) by dots, for the closed-form oracle; the product sums its own."""
        n = self.n
        return row_dot(x[..., :n], y[..., n:2 * n]) - row_dot(x[..., n:2 * n], y[..., :n])

    def _norm(self, a) -> float:
        n2 = 2 * self.n
        if type(a) is list:  # a single point's Python floats
            return cygan_gauge(dot_square(a[:n2]), a[n2])
        return cygan_gauge(row_dot(a[..., :n2], a[..., :n2]), a.T[n2])

    def _exact_norm(self, a) -> float:
        n2 = 2 * self.n
        return cygan_gauge(a.sumsq(slice(0, n2)), a.coordinate(n2))

    def point(self, x, xbar: float):
        """Convenience constructor from the planar part and the center part."""
        p = np.zeros(self.coordinate_dim)
        p[:2 * self.n] = np.asarray(x, dtype=float)
        p[2 * self.n] = float(xbar)
        return p
