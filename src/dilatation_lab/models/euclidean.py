"""Euclidean space as the prototype dilatation structure.

Dilatations are the classical maps delta^x_eps y = x + eps (y - x); every
axiom holds exactly and all limit operators reduce to vector arithmetic.
"""

from __future__ import annotations

import math

from dilatation_lab.core.scales import Scale
from dilatation_lab.models.base import ExactPoint, dot_square, is_integer, row_length
from dilatation_lab.models.carnot import CarnotModel, _exact_pair


class EuclideanModel(CarnotModel):
    """R^n with the Euclidean distance and linear dilatations: the step-1 Carnot group.
    Its float products, ambient dilatations and batch dilatations add and scale
    whole rows, one numpy call per operation, bit for bit as the compiled
    product and ``_dilate`` would on columns; single-point ``dilate`` and
    ``distance`` take the compiled kernels."""

    def __init__(self, n: int):
        if not is_integer(n) or n < 1:
            raise ValueError(f"dimension must be an integer of at least 1, got {n!r}")
        super().__init__(1, [n], [])
        self.n = int(n)
        self.name = f"euclidean-{self.n}d"

    def group_product(self, a, b):
        if type(a) is ExactPoint:
            return self._exact_product(*_exact_pair(a, b))
        return a + b

    def ambient_dilate(self, eps: Scale, a):
        if type(a) is ExactPoint:
            return super().ambient_dilate(eps, a)
        return a * eps.value

    def _rows_dilate(self, x, eps: Scale, y):
        return x + (-x + y) * eps.value

    def _norm(self, a) -> float:
        if type(a) is list:  # a single point's Python floats
            return math.sqrt(dot_square(a))
        return row_length(a)

    def _exact_norm(self, a) -> float:
        # rounds the exact sum of squares once
        return math.sqrt(a.sumsq(slice(None)))
