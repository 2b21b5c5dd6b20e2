"""Euclidean space as the prototype dilatation structure.

Dilatations are the classical maps delta^x_eps y = x + eps (y - x); every
axiom holds exactly and all limit operators reduce to vector arithmetic.
"""

from __future__ import annotations

import math

import numpy as np

from dilatation_lab.core.scales import Scale
from dilatation_lab.models.base import columns, float_or_rows, power, row_length, row_max
from dilatation_lab.models.carnot import CarnotModel


class EuclideanModel(CarnotModel):
    """R^n with a p-norm distance and linear dilatations: the step-1 Carnot group."""

    def __init__(self, n: int, p: float = 2.0):
        if n < 1:
            raise ValueError("dimension must be at least 1")
        super().__init__(1, [n], [])
        self.n = int(n)
        self.p = float(p)
        self.name = f"euclidean-{self.n}d" if p == 2.0 else f"euclidean-{self.n}d-p{p:g}"

    def _product(self, a, b):
        return a + b

    def _dilate(self, eps: Scale, a):
        return a * eps.value

    def _norm(self, a) -> float:
        if self.p == 2.0:
            return float_or_rows(row_length(a))
        if math.isinf(self.p):
            return row_max(np.abs(a))
        total = 0
        for c in columns(a):
            total = total + power(abs(c), self.p)
        return power(total, 1.0 / self.p)

    def _exact_norm(self, a) -> float:
        # the 2-norm rounds the exact sum of squares once; other p-norms
        # work on the rounded coordinates
        if self.p == 2.0:
            return math.sqrt(a.sumsq(slice(None)))
        return self._norm(a.to_float())
