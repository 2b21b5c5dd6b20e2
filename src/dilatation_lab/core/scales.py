"""Scale groups.

A scale group is a commutative group Gamma together with a valuation,
a group morphism nu: Gamma -> (0, +infinity).  Scales parametrize every
dilatation; "eps -> 0" always means nu(eps) -> 0.  Three concrete groups
ship with the lab:

* positive reals with nu = identity,
* integer powers of two acting on dyadic integers, nu(2^p) = 2^-p,
* nonzero complex numbers with nu = modulus (here nu is not injective).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Number, Real
from typing import Any

import numpy as np

from dilatation_lab.errors import DomainViolation


def _float_range(value) -> bool:
    """True when a positive real rounds to a positive finite float, its valuation's type."""
    try:
        return 0.0 < float(value) < math.inf
    except OverflowError:
        return False


class ScaleGroup:
    """Abstract commutative scale group with valuation nu.

    The group law is multiplication by default, a * b with inverse 1 / a, as
    the positive reals and C^* have it; the dyadic powers, stored by their
    exponents, add them instead.
    """

    name: str = "abstract"
    identity_value: Any = None

    def validate(self, value) -> Any:
        return value

    def nu_of(self, value) -> float:
        raise NotImplementedError

    def combine(self, a, b):
        return a * b

    def invert(self, a):
        return 1 / a

    def contraction(self, k: int) -> "Scale":
        """The canonical grid element with nu = 2^-k."""
        raise NotImplementedError

    def scale(self, value) -> "Scale":
        return Scale(self, self.validate(value))

    @property
    def one(self) -> "Scale":
        return Scale(self, self.identity_value)

    def grid(self, ks) -> list["Scale"]:
        return [self.contraction(k) for k in ks]

    def __repr__(self):  # pragma: no cover - debugging aid
        return f"<ScaleGroup {self.name}>"


@dataclass(frozen=True)
class Scale:
    """An element of a scale group, carrying its group for arithmetic."""

    group: ScaleGroup
    value: Any

    @property
    def nu(self) -> float:
        return self.group.nu_of(self.value)

    def __mul__(self, other: "Scale") -> "Scale":
        if other.group is not self.group:
            raise ValueError("cannot combine scales from different groups")
        return Scale(self.group, self.group.combine(self.value, other.value))

    def inverse(self) -> "Scale":
        return Scale(self.group, self.group.invert(self.value))

    def __pow__(self, k: int) -> "Scale":
        if k < 0:
            return self.inverse() ** (-k)
        out = self.group.one
        for _ in range(k):
            out = out * self
        return out

    def __repr__(self):
        return f"Scale({self.group.name}, {self.value!r})"


class RowScale(Scale):
    """One scale per row of a batch, its values an ``(N, 1)`` array.  ``nu``, ``inverse``
    and ``*`` apply the group's scalar rule to each row in Python, which numpy's
    complex reciprocal, product and modulus do not match."""

    @classmethod
    def of(cls, scales: list[Scale]) -> "RowScale":
        return cls(scales[0].group, np.array([s.value for s in scales]).reshape(-1, 1))

    def rows(self) -> list[Scale]:
        return [Scale(self.group, v) for v in self.value[:, 0].tolist()]

    @property
    def nu(self) -> np.ndarray:
        return np.array([s.nu for s in self.rows()])

    def __mul__(self, other: Scale) -> "RowScale":
        others = other.rows() if type(other) is RowScale else [other] * len(self.value)
        return RowScale.of([s * o for s, o in zip(self.rows(), others)])

    __rmul__ = __mul__  # the groups are commutative, and so is each row's product

    def inverse(self) -> "RowScale":
        return RowScale.of([s.inverse() for s in self.rows()])


class PositiveReals(ScaleGroup):
    """Gamma = (0, +infinity) with nu the identity.

    Values keep their numeric type: floats normally, Fractions for the exact
    arithmetic of the group models.
    """

    name = "positive-reals"
    identity_value = 1.0

    def validate(self, value):
        # a string or any other non-real raises TypeError at the comparison; a bool
        # is no scale, and an int or Fraction beyond float range has no valuation
        if not 0 < value < math.inf or type(value) is not float and (
                isinstance(value, bool) or not _float_range(value)):
            raise ValueError(f"scale must be a finite positive real, got {value!r}")
        return value

    def nu_of(self, value) -> float:
        return float(value)

    def contraction(self, k: int) -> Scale:
        return Scale(self, 2.0 ** (-k))


class DyadicPowers(ScaleGroup):
    """Gamma = {2^p : p integer} inside the dyadic numbers.

    Elements are stored by their exponent p; the group element 2^p acts by
    exact multiplication and has valuation nu(2^p) = 2^-p, so p >= 1 is a
    contraction of the dyadic metric.
    """

    name = "dyadic-powers"
    identity_value = 0

    def validate(self, value):
        # a bool is an int to Python, not an exponent
        if not isinstance(value, int) or isinstance(value, bool):
            raise ValueError(f"dyadic scale exponent must be an int, got {value!r}")
        return value

    def nu_of(self, value) -> float:
        return 2.0 ** (-value)

    def combine(self, a, b):
        return a + b

    def invert(self, a):
        return -a

    def contraction(self, k: int) -> Scale:
        return Scale(self, int(k))


class ComplexUnits(ScaleGroup):
    """Gamma = C^* with nu(eps) = |eps|.  The valuation is not injective.

    Real values (including exact rationals) are kept as given so that the
    real slice of the group supports exact arithmetic; other numbers are
    coerced to complex.
    """

    name = "complex-units"
    identity_value = complex(1.0)

    def validate(self, value):
        if (not isinstance(value, Number) or isinstance(value, bool)
                or not 0 < abs(value) < math.inf or not _float_range(abs(value))):
            raise ValueError(f"scale must be a finite nonzero complex number, got {value!r}")
        return value if isinstance(value, Real) else complex(value)

    def nu_of(self, value) -> float:
        return float(abs(value))

    def contraction(self, k: int) -> Scale:
        return Scale(self, complex(2.0 ** (-k)))


POSITIVE_REALS = PositiveReals()
DYADIC_POWERS = DyadicPowers()
COMPLEX_UNITS = ComplexUnits()


def decreasing(eps_grid) -> None:
    """Raise ValueError unless the grid refines: strictly decreasing in nu, which a NaN
    is not, from a finite first nu, which a ``Scale`` built directly need not have."""
    nus = [e.nu for e in eps_grid]
    if nus[:1] == [math.inf] or any(not b < a for a, b in zip(nus, nus[1:])):
        raise ValueError(f"scale grid must be strictly decreasing in nu from a finite one, "
                         f"got nu={nus}")


def trend_grid(what: str, eps_grid) -> None:
    """Raise ValueError, naming the sweep, unless the grid has 2 scales and is ``decreasing``."""
    if len(eps_grid) < 2:
        raise ValueError(f"{what} needs a grid of at least 2 scales")
    decreasing(eps_grid)


def reference_scale(eps_grid) -> Scale:
    """One refinement past the end of a grid, reusing its last ratio."""
    last, prev = eps_grid[-1], eps_grid[-2]
    return last * (last * prev.inverse())


def contraction(what: str, *scales: Scale) -> None:
    """Raise DomainViolation, naming the operation, unless every scale (row) has 0 < nu < 1."""
    for eps in scales:
        if type(eps) is RowScale:
            contraction(what, *eps.rows())
        elif not 0.0 < (nu := eps.nu) < 1.0:
            raise DomainViolation(f"{what} needs a contraction, 0 < nu < 1; got nu={nu}")


def not_expanding(what: str, *scales: Scale) -> None:
    """Raise DomainViolation, naming the operation, unless every scale (row) has 0 < nu <= 1."""
    for eps in scales:
        if type(eps) is RowScale:
            not_expanding(what, *eps.rows())
        elif not 0.0 < (nu := eps.nu) <= 1.0:
            raise DomainViolation(f"{what} needs a scale with 0 < nu <= 1; got nu={nu}")
