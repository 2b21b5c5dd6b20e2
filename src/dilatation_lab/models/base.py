"""Shared machinery for models that are normed conical groups.

A conical group carries a group operation, ambient dilatations delta_eps that
are group automorphisms, and a homogeneous norm scaling exactly by nu(eps).
The induced structure uses the left-invariant distance d(a,b) = |a^-1 b| and
dilatations based at any point,

    delta^x_eps u = x . delta_eps(x^-1 u).

All composite operators then have closed forms, exposed as the optional
capability methods, e.g. Delta^x_eps(u,v) = delta^x_eps(u) . u^-1 . v and its
limit Delta^x(u,v) = x . u^-1 . v.

``GroupModel`` holds what follows from the group law alone.  Its
implementations are the dyadic tree boundary and ``CarnotModel``, which every
model on a numpy coordinate vector (Euclidean, H(n), C x R, Engel) is; each
supplies ``dilate``, the formula above in its own arithmetic.

Float primitives take a single ``(dim,)`` point or an ``(N, dim)`` batch of
rows through the same code, and a batch row comes out bit for bit as the
single point would.  The helpers below keep that so: products that are
written coordinate by coordinate run on Python floats for a single point and
on column views for a batch; dot products go through ``np.vecdot`` for rows
and ``np.dot`` for single points, summed from +0.0 either way; fractional
powers use Python's ``**`` per element, which ``np.power`` does not match.
Layer factors are products, never powers, so a per-row scale takes them as a
single point does.
"""

from __future__ import annotations

import math
from fractions import Fraction
from numbers import Integral, Real

import numpy as np

from dilatation_lab.core.scales import Scale
from dilatation_lab.core.structure import DilatationStructure


def is_integer(value) -> bool:
    """True for an integer; False for a bool, a float, a string or anything else."""
    return isinstance(value, Integral) and not isinstance(value, bool)


def is_real(value) -> bool:
    """True for a real number; False for a bool, a string or anything else."""
    return isinstance(value, Real) and not isinstance(value, bool)


def real_array(obj) -> np.ndarray:
    """Nested lists of finite real numbers as a float array; ValueError for any other entry."""
    entries = np.asarray(obj, dtype=object)
    if not all(is_real(e) and math.isfinite(e) for e in entries.flat):
        raise ValueError(f"expected finite real numbers, got {obj!r}")
    return entries.astype(float)


def columns(a) -> list:
    """The coordinates of a point as Python floats, or the columns of a batch."""
    try:
        return a.tolist() if a.ndim == 1 else list(a.T)
    except AttributeError:  # an ExactPoint
        raise TypeError(f"float points do not mix with exact ones, got {a!r}") from None


def stack(cols) -> np.ndarray:
    """The point or C-ordered ``(N, dim)`` batch whose ``columns`` these are."""
    # a transposed copy of the (dim, N) array: np.stack's C-ordered bytes, sooner
    return np.array(cols).T.copy() if isinstance(cols[0], np.ndarray) else np.array(cols)


def float_or_rows(v):
    """A single result as a Python float; a batch of results as it is."""
    return v if isinstance(v, np.ndarray) else float(v)


def row_dot(a, b):
    """The dot product of two vectors, or of each pair of rows of batches.

    ``np.vecdot`` sums each row from +0.0 and otherwise gives it the value of
    the 1-D ``np.dot`` bit for bit; two single vectors take ``np.dot``, the
    cheaper call, from +0.0 too, as a length-1 ``np.dot`` keeps a -0.0 product.
    """
    return 0.0 + a.dot(b) if a.ndim == 1 and b.ndim == 1 else np.vecdot(a, b)


def dot_square(c: list) -> float:
    """c . c for the Python floats of a single vector, as a Python float: the
    1-D ``np.dot`` that ``row_dot`` takes, whose sum of squares is never -0.0."""
    v = np.array(c)
    return float(v.dot(v))


def row_length(v):
    """The Euclidean length of a vector or of each row, as ``np.linalg.norm`` gives it."""
    return np.sqrt(row_dot(v, v))


def power(v, exponent: float):
    """``v ** exponent`` with Python's float power, per element of a batch."""
    if isinstance(v, np.ndarray):
        return np.array([c ** exponent for c in v.ravel().tolist()]).reshape(v.shape)
    return float(v) ** exponent


class ExactPoint:
    """A point with rational coordinates ``num[i] / den``.

    The numerators are Python integers over one shared positive denominator,
    kept in lowest terms by a single gcd per constructed point.  Group models
    compute on these exactly; a float appears only where a distance or a
    coordinate gap is read off.  Coordinates and ``sumsq`` round correctly; a
    distance need not, as a gauge takes its roots in floats (H(1)'s misses the
    correctly rounded norm on about one point in ten).
    Mixing with numpy float arrays raises ``columns``' TypeError instead of
    degrading to floats, in whole-row arithmetic too.
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

    def _refuse_floats(self, other):
        raise TypeError(f"float points do not mix with exact ones, got {self!r}")

    __add__ = __radd__ = __sub__ = __rsub__ = _refuse_floats

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
    every algebraic identity come out exactly; ``to_exact``, which each
    subclass supplies, and ``to_exact_scale`` convert float data to that
    arithmetic.  The closed forms of the composites and of the tangent
    operations follow from the group law; ``dilate``, the based dilatation
    x . delta_eps(x^-1 y), is each subclass's own.
    """

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

    def product_of(self, a, terms):
        """a . t_1 . ... . t_n left to right, one ``group_product`` per point or batch
        row of ``terms``; an override matches it bit for bit."""
        for t in terms:
            a = self.group_product(a, t)
        return a

    # --- induced structure --------------------------------------------------

    def distance(self, p, q) -> float:
        """|p^-1 q|; 0.0, the norm of the identity, for equal exact points."""
        if type(p) is ExactPoint and p == q:
            return 0.0
        return self.homogeneous_norm(self.group_product(self.group_inverse(p), q))

    def origin(self):
        return self.identity()

    def left_translation(self, w):
        """The map v -> w . v, an isometry of the model's distance."""
        return lambda v: self.group_product(w, v)

    def base_inverse(self, u, x):
        """inv^u(x) = u . x^-1 . u = Delta^u(x, u), the inverse of x in the group re-zeroed at u."""
        return self.tangent_difference(u, x, u)

    # --- closed forms, every one the difference Delta^x(u, v) -----------------

    def tangent_difference(self, x, u, v):
        """Delta^x(u, v) = x . u^-1 . v."""
        return self.group_product(self.group_product(x, self.group_inverse(u)), v)

    def exact_difference_after(self, a, u, v):
        """Delta^x_eps(u, v) in closed form from a = delta^x_eps u: Delta^a(u, v)."""
        return self.tangent_difference(a, u, v)

    def tangent_sum(self, x, u, v):
        return self.tangent_difference(u, x, v)

    def tangent_inverse(self, x, u):
        return self.tangent_difference(x, u, x)

    def tangent_distance(self, x, u, v) -> float:
        return self.distance(u, v)
