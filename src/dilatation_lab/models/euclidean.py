"""Euclidean space as the prototype dilatation structure.

Dilatations are the classical maps delta^x_eps y = x + eps (y - x); every
axiom holds exactly and all limit operators reduce to vector arithmetic.
"""

from __future__ import annotations

import math

from dilatation_lab.core.scales import Scale
from dilatation_lab.models.base import EXACT_TYPES, dot_square, is_integer, row_length
from dilatation_lab.models.carnot import CarnotModel, _exact_call


class EuclideanModel(CarnotModel):
    """R^n with the Euclidean distance and linear dilatations: the step-1 Carnot group.
    Float products and batch dilatations add and scale whole rows, bit for bit as the
    compiled kernels on columns, since batched distances take a + b (``float-sweeps``
    read 2.6 % slower on the compiled product); the rest takes the generated kernels."""

    def __init__(self, n: int):
        if not is_integer(n) or n < 1:
            raise ValueError(f"dimension must be an integer of at least 1, got {n!r}")
        super().__init__(1, [n], [])
        self.n = int(n)
        self.name = f"euclidean-{self.n}d"

    def group_product(self, a, b):
        if type(a) in EXACT_TYPES:
            return _exact_call(self._exact_product, a, b)
        return a + b

    def _rows_dilate(self, x, eps: Scale, y):
        return x + (-x + y) * eps.value

    def _norm(self, a) -> float:
        if type(a) is list:  # a single point's Python floats
            return math.sqrt(dot_square(a))
        return row_length(a)

    def _exact_norm(self, a) -> float:
        # rounds the exact sum of squares once
        return math.sqrt(a.sumsq(slice(None)))
