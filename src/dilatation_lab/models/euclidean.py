"""Euclidean space as the prototype dilatation structure.

Dilatations are the classical maps delta^x_eps y = x + eps (y - x); every
axiom holds exactly and all limit operators reduce to vector arithmetic.
"""

from __future__ import annotations

import math

from dilatation_lab.core.scales import Scale
from dilatation_lab.models.base import float_or_rows, is_integer, row_length, whole_rows
from dilatation_lab.models.carnot import CarnotModel


class EuclideanModel(CarnotModel):
    """R^n with the Euclidean distance and linear dilatations: the step-1 Carnot group."""

    def __init__(self, n: int):
        if not is_integer(n) or n < 1:
            raise ValueError(f"dimension must be an integer of at least 1, got {n!r}")
        super().__init__(1, [n], [])
        self.n = int(n)
        self.name = f"euclidean-{self.n}d"

    _operand = staticmethod(whole_rows)  # one numpy call per operation

    def _product(self, a, b):
        return a + b

    def _dilate(self, eps: Scale, a):
        return a * eps.value

    def _norm(self, a) -> float:
        return float_or_rows(row_length(a))

    def _exact_norm(self, a) -> float:
        # rounds the exact sum of squares once
        return math.sqrt(a.sumsq(slice(None)))
