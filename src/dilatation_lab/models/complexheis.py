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
from dilatation_lab.models.base import columns
from dilatation_lab.models.carnot import CarnotModel
from dilatation_lab.models.heisenberg import cygan_gauge


class ComplexHeisenbergModel(CarnotModel):
    """C x R, coordinates [Re x, Im x, x']."""

    def __init__(self):
        # Im(x conj(y)) = a1 b0 - a0 b1 is the bracket [e0, e1] = -e2, whose
        # table both products are built from; exact points take real scales only
        super().__init__(2, [2, 1], [[0, 1, 2, -1.0]])
        self.scale_group = COMPLEX_UNITS
        self.name = "complex-heisenberg"

    def _dilate(self, eps: Scale, A):
        e = eps.value
        if not (isinstance(e, complex) or isinstance(e, np.ndarray) and e.dtype.kind == "c"):
            return super()._dilate(eps, A)
        if isinstance(e, np.ndarray):  # an (N, 1) per-row scale, as one value per row
            e = e[:, 0]
        # (a0 + i a1) e, with the parts in the order of Python's complex product
        a0, a1, a2 = A
        er, ei = e.real, e.imag
        return [a0 * er - a1 * ei, a0 * ei + a1 * er, (er * er + ei * ei) * a2]

    def _norm(self, a) -> float:
        # a single point's Python floats, or a batch's columns: a Python sum either way
        a0, a1, a2 = a if type(a) is list else columns(a)
        return cygan_gauge(a0 * a0 + a1 * a1, a2)

    def _exact_norm(self, a) -> float:
        return cygan_gauge(a.sumsq(slice(0, 2)), a.coordinate(2))

    def point(self, x, xprime: float):
        x = complex(x)
        return np.array([x.real, x.imag, float(xprime)])
