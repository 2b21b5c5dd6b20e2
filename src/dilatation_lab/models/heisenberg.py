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

from dilatation_lab.core.scales import Scale
from dilatation_lab.models.base import is_integer, power, row_dot, whole_rows
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
        if self.n > 1:
            # dots of two or more terms, which BLAS rounds with a fused multiply-add
            # (the float digests record it), on whole rows; H(1) takes the compiled
            # product of its table
            self._operand, self._product = whole_rows, self._row_product
        super().__init__(2, *heisenberg_structure_constants(self.n))
        self.name = f"heisenberg-{self.n}"

    def symplectic(self, x, y):
        n = self.n
        return row_dot(x[..., :n], y[..., n:2 * n]) - row_dot(x[..., n:2 * n], y[..., :n])

    def _row_product(self, a, b):
        out = a + b
        # out.T[k] is coordinate k of a point, or column k of a batch
        out.T[2 * self.n] += self.symplectic(a, b) / 2
        return out

    def _dilate(self, eps: Scale, a):
        e = eps.value
        if type(a) is list:  # H(1)'s columns; a per-row scale as one value per row
            e = e[:, 0] if isinstance(e, np.ndarray) else e
            a0, a1, a2 = a
            return [e * a0, e * a1, e * e * a2]
        if isinstance(e, np.ndarray):  # an (N, 1) per-row scale
            return a * np.concatenate([e] * (2 * self.n) + [e * e], axis=1)
        return a * np.array([e] * (2 * self.n) + [e * e])

    def _norm(self, a) -> float:
        n2 = 2 * self.n
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
