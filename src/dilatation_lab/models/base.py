"""Shared machinery for models that are normed conical groups.

A conical group carries a group operation, ambient dilatations delta_eps that
are group automorphisms, and a homogeneous norm scaling exactly by nu(eps).
The induced structure uses the left-invariant distance d(a,b) = |a^-1 b| and
dilatations based at any point,

    delta^x_eps u = x . delta_eps(x^-1 u).

All composite operators then have closed forms, exposed through the exact
capability hooks, e.g. Delta^x_eps(u,v) = delta^x_eps(u) . u^-1 . v and its
limit Delta^x(u,v) = x . u^-1 . v.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from dilatation_lab.core.scales import Scale
from dilatation_lab.core.structure import DilatationStructure, vector_sample_ball


class ExactPoint:
    """A point with rational coordinates ``num[i] / den``.

    The numerators are Python integers over one shared positive denominator,
    kept in lowest terms by a single gcd per constructed point.  Group models
    compute on these exactly; a float appears only where a distance or a
    coordinate gap is read off, and it is the correctly rounded value there.
    Mixing with numpy float arrays raises instead of degrading to floats.
    """

    __slots__ = ("num", "den")
    __array_ufunc__ = None

    def __init__(self, num, den: int = 1):
        if den <= 0:
            raise ValueError(f"the denominator must be positive, got {den}")
        g = math.gcd(den, *num)
        if g != 1:
            num = [n // g for n in num]
            den //= g
        self.num = tuple(num)
        self.den = den

    @classmethod
    def from_floats(cls, coords) -> "ExactPoint":
        """The exact value of float coordinates (every float is a dyadic rational)."""
        ratios = [float(c).as_integer_ratio() for c in coords]
        den = math.lcm(*(d for _, d in ratios))
        # over the lcm of reduced denominators the numerators share no factor
        p = cls.__new__(cls)
        p.num = tuple(n * (den // d) for n, d in ratios)
        p.den = den
        return p

    def __neg__(self) -> "ExactPoint":
        p = ExactPoint.__new__(ExactPoint)
        p.num = tuple(-n for n in self.num)
        p.den = self.den
        return p

    def __eq__(self, other):
        if type(other) is not ExactPoint:
            return NotImplemented
        return self.den == other.den and self.num == other.num

    def __repr__(self):
        return f"ExactPoint({list(self.num)}, {self.den})"

    def coordinate(self, i: int) -> float:
        """Coordinate i, correctly rounded."""
        return self.num[i] / self.den

    def sumsq(self, sl: slice) -> float:
        """The exact sum of squares of a block of coordinates, rounded once."""
        return sum(n * n for n in self.num[sl]) / (self.den * self.den)

    def to_float(self) -> np.ndarray:
        """Every coordinate correctly rounded to a float."""
        return np.array([n / self.den for n in self.num])


class GroupModel(DilatationStructure):
    """Dilatation structure of a normed conical group.

    Group operations are polynomial with rational coefficients, so they can
    be evaluated exactly on rational points and rational scales, which makes
    every algebraic identity come out exactly; ``to_exact`` and
    ``to_exact_scale`` convert float data to that arithmetic.
    """

    @property
    def supports_exact_arithmetic(self) -> bool:
        return True

    def to_exact(self, p):
        raise NotImplementedError

    def to_exact_scale(self, eps: Scale) -> Scale:
        value = eps.value
        if isinstance(value, complex):
            if value.imag != 0.0:
                raise ValueError("only real scales have an exact rational form")
            value = value.real
        return Scale(eps.group, Fraction(value))

    # --- group surface, supplied by subclasses -----------------------------

    def group_product(self, a, b):
        raise NotImplementedError

    def group_inverse(self, a):
        raise NotImplementedError

    def identity(self):
        raise NotImplementedError

    def ambient_dilate(self, eps: Scale, a):
        """The automorphism delta_eps based at the neutral element."""
        raise NotImplementedError

    def homogeneous_norm(self, a) -> float:
        raise NotImplementedError

    # --- induced structure --------------------------------------------------

    def origin(self):
        return self.identity()

    def left_translation(self, w, base=None):
        """The map v -> w . base^-1 . v, translation in the group re-zeroed at base.

        With the default base (the neutral element) this is plain left
        translation by w; it is an isometry of the model's distance.
        """
        if base is None:
            head = w
        else:
            head = self.group_product(w, self.group_inverse(base))
        return lambda v: self.group_product(head, v)

    def base_inverse(self, u, x):
        """inv^u(x) = u . x^-1 . u, the inverse of x in the group re-zeroed at u."""
        return self.group_product(self.group_product(u, self.group_inverse(x)), u)

    # --- exact capability hooks ----------------------------------------------

    @property
    def has_exact_operators(self) -> bool:
        return True

    def exact_operator(self, kind: str, x, eps: Scale, u, v=None):
        inv = self.group_inverse
        prod = self.group_product
        if kind == "difference":
            a = self.dilate(x, eps, u)
            return prod(prod(a, inv(u)), v)
        if kind == "sum":
            a = self.dilate(u, eps, x)
            return prod(prod(a, inv(x)), v)
        if kind == "inverse":
            a = self.dilate(x, eps, u)
            return prod(prod(a, inv(u)), x)
        raise ValueError(f"unknown operator kind {kind!r}")

    @property
    def has_exact_tangent(self) -> bool:
        return True

    def tangent_sum(self, x, u, v):
        return self.group_product(self.group_product(u, self.group_inverse(x)), v)

    def tangent_difference(self, x, u, v):
        return self.group_product(self.group_product(x, self.group_inverse(u)), v)

    def tangent_inverse(self, x, u):
        return self.base_inverse(x, u)

    def tangent_distance(self, x, u, v) -> float:
        return self.distance(u, v)


class VectorGroupModel(GroupModel):
    """Group model whose carrier is a flat numpy coordinate vector.

    Subclasses supply the float formulas (``_product``, ``_dilate``,
    ``_norm``) and the gauge on exact points (``_exact_norm``).  Exact points
    (``ExactPoint``) take the product and the dilatations from ``_kernel``,
    the integer BCH kernel of the ``CarnotModel`` with the same structure
    constants; the group inverse is negation in either arithmetic.
    """

    coordinate_dim: int
    _kernel: "CarnotModel"

    def identity(self):
        return np.zeros(self.coordinate_dim)

    def group_product(self, a, b):
        if type(a) is ExactPoint:
            return self._kernel._exact_product(a, b)
        return self._product(a, b)

    def group_inverse(self, a):
        return -a

    def ambient_dilate(self, eps: Scale, a):
        if type(a) is ExactPoint:
            return self._kernel._exact_dilate(eps.value, a)
        return self._dilate(eps, a)

    def homogeneous_norm(self, a) -> float:
        if type(a) is ExactPoint:
            return self._exact_norm(a)
        return self._norm(a)

    def distance(self, p, q) -> float:
        """|p^-1 q|."""
        if type(p) is ExactPoint:
            return self.homogeneous_norm(self._kernel._exact_product(-p, q))
        return self.homogeneous_norm(self._product(-p, q))

    def dilate(self, x, eps: Scale, y):
        """x . delta_eps(x^-1 y)."""
        if type(y) is ExactPoint:
            k = self._kernel
            return k._exact_product(x, k._exact_dilate(eps.value, k._exact_product(-x, y)))
        return self._product(x, self._dilate(eps, self._product(-x, y)))

    def sample_ball(self, center, radius, count, rng):
        return vector_sample_ball(self, center, radius, count, rng)

    def point_from_json(self, obj):
        p = np.asarray(obj, dtype=float)
        if p.shape != (self.coordinate_dim,):
            raise ValueError(
                f"{self.name} expects {self.coordinate_dim} coordinates, got {obj!r}")
        return p

    def point_to_list(self, p) -> list:
        return [float(c) for c in np.asarray(p).ravel()]

    def to_exact(self, p):
        if type(p) is ExactPoint:
            return p
        return ExactPoint.from_floats(p)

    def coordinate_gap(self, p, q) -> float:
        if type(p) is ExactPoint:
            p, q = p.to_float(), q.to_float()
        return float(max(abs(float(a) - float(b)) for a, b in zip(p, q)))
