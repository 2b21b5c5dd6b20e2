"""The group C x R with complex scales: a conical group whose valuation is
not injective.

Points X = (x, x') with x complex and x' real multiply by

    (x, x')(y, y') = (x + y, x' + y' + Im(x conj(y)) / 2),

and for any nonzero complex eps the map delta_eps X = (eps x, |eps|^2 x') is
a group automorphism with |delta_eps X| = |eps| |X| for the Cygan gauge.
Because distinct scales can share a valuation (eps and eps e^{i theta}),
compositions delta^X_eps delta^Y_mu with nu(eps mu) = 1 need not be left
translations; the check for that dichotomy lives in the affine module.
"""

from __future__ import annotations

import numpy as np

from dilatation_lab.core.scales import COMPLEX_UNITS, Scale
from dilatation_lab.models.base import VectorGroupModel
from dilatation_lab.models.carnot import CarnotModel
from dilatation_lab.models.heisenberg import cygan_gauge


class ComplexHeisenbergModel(VectorGroupModel):
    """C x R, coordinates [Re x, Im x, x']."""

    def __init__(self):
        self.coordinate_dim = 3
        self.scale_group = COMPLEX_UNITS
        self.name = "complex-heisenberg"
        # Im(x conj(y)) = a1 b0 - a0 b1 is the bracket [e0, e1] = -e2;
        # exact points take real scales only
        self._kernel = CarnotModel(2, [2, 1], [[0, 1, 2, -1.0]])

    def _product(self, a, b):
        im_cross = a[1] * b[0] - a[0] * b[1]  # Im(x conj(y))
        return np.array([a[0] + b[0], a[1] + b[1], a[2] + b[2] + im_cross / 2])

    def _dilate(self, eps: Scale, a):
        e = eps.value
        if isinstance(e, complex):
            x = complex(float(a[0]), float(a[1])) * e
            return np.array([x.real, x.imag, (e.real * e.real + e.imag * e.imag) * float(a[2])])
        return np.array([e * a[0], e * a[1], e * e * a[2]])

    def _norm(self, a) -> float:
        return cygan_gauge(float(a[0] * a[0] + a[1] * a[1]), float(a[2]))

    def _exact_norm(self, a) -> float:
        return cygan_gauge(a.sumsq(slice(0, 2)), a.coordinate(2))

    def point(self, x, xprime: float):
        x = complex(x)
        return np.array([x.real, x.imag, float(xprime)])
