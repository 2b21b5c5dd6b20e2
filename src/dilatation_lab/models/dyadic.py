"""The boundary of the dyadic tree with exact 2-adic arithmetic.

The space of infinite binary words is isometric to the dyadic integers with
the ultrametric d(x, y) = 2^-m, m the length of the longest common prefix.
The lab truncates words to K digits: a point is a residue modulo 2^known
together with the count of exactly known low digits.  Fresh points know all
K digits; contractions preserve or extend knowledge, divisions by powers of
two lose digits.  Constructions that would need digits beyond what is known
raise PrecisionExhausted instead of silently truncating.

The trivial dilatation structure is the conical structure of the additive
group: delta^x_{2^p} y = x + 2^p (y - x), all evaluated exactly.  On top of
the same carrier, a family of tree isometries W induces dilatations of
coefficient two via prefix surgery: with m the common-prefix length of the
base b and the argument w,

    delta_2^b w = (prefix of b up to m+1) (flipped bit m+1 of b) W^b_{m+1}(tail of w),

which halves the distance to the base.
"""

from __future__ import annotations

import math

from dilatation_lab.errors import DomainViolation, ModelError, PrecisionExhausted
from dilatation_lab.core.scales import DYADIC_POWERS, Scale, contraction
from dilatation_lab.models.base import GroupModel, is_integer


class DyadicPoint:
    """A truncated dyadic integer: residue modulo 2^known.  Immutable."""

    __slots__ = ("residue", "known")

    def __init__(self, residue: int, known: int):
        if known < 1:
            raise PrecisionExhausted("point retains no known digits")
        _set_residue(self, residue % (1 << known))
        _set_known(self, known)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return DyadicPoint, (self.residue, self.known)

    def __eq__(self, other):
        if type(other) is not DyadicPoint:
            return NotImplemented
        return self.residue == other.residue and self.known == other.known

    def __hash__(self):
        return hash((self.residue, self.known))

    def __repr__(self):
        return f"DyadicPoint(residue={self.residue!r}, known={self.known!r})"

    def bit(self, i: int) -> int:
        if i >= self.known:
            raise PrecisionExhausted(f"digit {i + 1} is beyond the known prefix")
        return (self.residue >> i) & 1


# the slot descriptors set a new point's fields past its guarded __setattr__
_set_residue = DyadicPoint.residue.__set__
_set_known = DyadicPoint.known.__set__


def _v2(n: int) -> int:
    return (n & -n).bit_length() - 1


class DyadicBoundaryModel(GroupModel):
    """Length-K binary words identified with integers modulo 2^K."""

    def __init__(self, precision: int = 64):
        if not is_integer(precision) or precision < 2:
            raise ModelError(f"dyadic precision must be an integer of at least 2, "
                             f"got {precision!r}")
        self.precision = int(precision)
        self.scale_group = DYADIC_POWERS
        self.name = f"dyadic-{self.precision}"

    # --- carrier ------------------------------------------------------------

    def point(self, value: int) -> DyadicPoint:
        return DyadicPoint(int(value), self.precision)

    def point_from_json(self, obj) -> DyadicPoint:
        if not is_integer(obj):
            raise ValueError(f"dyadic points are integers, got {obj!r}")
        return self.point(obj)

    def point_to_list(self, p) -> list:
        return [int(p.residue)]

    def identity(self) -> DyadicPoint:
        return self.point(0)

    def coincide(self, a: DyadicPoint, b: DyadicPoint) -> bool:
        """Equality as far as the jointly known digits can tell."""
        m = min(a.known, b.known)
        return (a.residue - b.residue) % (1 << m) == 0

    def to_exact(self, p: DyadicPoint) -> DyadicPoint:
        return p  # integer arithmetic is exact already

    def to_exact_scale(self, eps: Scale) -> Scale:
        return eps

    # --- metric ---------------------------------------------------------------

    # distance overrides GroupModel's generic form, a product and a norm, which takes ~6x as long
    def distance(self, p: DyadicPoint, q: DyadicPoint) -> float:
        """Exact ultrametric distance, or an upper bound 2^-known when the
        points agree on every jointly known digit without both being full
        words.  Full-precision equal words are at distance zero."""
        m = min(p.known, q.known)
        diff = (p.residue - q.residue) % (1 << m)
        if diff:
            return 2.0 ** (-_v2(diff))
        if m == self.precision:
            return 0.0
        return 2.0 ** (-m)

    def homogeneous_norm(self, a: DyadicPoint) -> float:
        return self.distance(self.identity(), a)

    # --- group and dilatations --------------------------------------------------

    def group_product(self, a: DyadicPoint, b: DyadicPoint) -> DyadicPoint:
        m = min(a.known, b.known)
        return DyadicPoint(a.residue + b.residue, m)

    def group_inverse(self, a: DyadicPoint) -> DyadicPoint:
        return DyadicPoint(-a.residue, a.known)

    def ambient_dilate(self, eps: Scale, a: DyadicPoint) -> DyadicPoint:
        return self._shift(a, eps.value)

    def _shift(self, a: DyadicPoint, p: int) -> DyadicPoint:
        """Exact multiplication by 2^p with digit-knowledge bookkeeping."""
        if p >= 0:
            known = min(self.precision, a.known + p)
            return DyadicPoint(a.residue << p, known)
        q = -p
        if a.residue % (1 << a.known) == 0:
            if a.known == self.precision:
                return a  # the zero word scales to itself
            raise PrecisionExhausted(
                "cannot certify the 2-adic valuation of an ambiguous zero")
        v = _v2(a.residue)
        if v < q:
            raise DomainViolation(
                f"division by 2^{q} leaves the dyadic integers (valuation {v})")
        if a.known - q < 1:
            raise PrecisionExhausted(f"division by 2^{q} needs digits beyond {a.known}")
        return DyadicPoint(a.residue >> q, a.known - q)

    def dilate(self, x: DyadicPoint, eps: Scale, y: DyadicPoint) -> DyadicPoint:
        m = min(x.known, y.known)
        diff = DyadicPoint(y.residue - x.residue, m)
        if diff.residue == 0 and m == self.precision:
            return x
        moved = self._shift(diff, eps.value)
        return DyadicPoint(x.residue + moved.residue, min(x.known, moved.known))

    # --- sampling ----------------------------------------------------------------

    def sample_ball(self, center, radius, count, rng):
        m = 0 if radius >= 1.0 else math.ceil(-math.log2(radius))
        m = min(m, self.precision - 1)
        step = 1 << m
        pts = []
        for t in (0, 1, 2, 3, 5, 7, 11):
            if len(pts) >= count:
                return pts
            pts.append(self.point(center.residue + t * step))
        span = 1 << (self.precision - m)
        while len(pts) < count:
            t = int(rng.integers(0, min(span, 1 << 62)))
            pts.append(self.point(center.residue + t * step))
        return pts

    # --- barycentric arithmetic -----------------------------------------------------

    def barycentric_pair(self, x: DyadicPoint, y: DyadicPoint, eps: Scale):
        """Both sides of delta^x_eps y = delta^y_{1-eps} x in ring arithmetic.

        1 - 2^p is not a power of two, so the right-hand side is evaluated
        directly as y + (1 - 2^p)(x - y) over the truncated dyadic integers.
        """
        contraction("the barycentric comparison", eps)
        p = eps.value
        left = self.dilate(x, eps, y)
        m = min(x.known, y.known)
        diff = (x.residue - y.residue) % (1 << m)
        right = DyadicPoint(y.residue + diff - (diff << p), m)
        return left, right


# ---------------------------------------------------------------------------
# tree-isometry dilatations of coefficient two
# ---------------------------------------------------------------------------

def identity_isometries(k: int, base: DyadicPoint):
    """The trivial smooth family: every W^x_k is the identity on tails."""
    return lambda tail: tail


def xor_mask_isometries(mask: int):
    """A smooth family of genuine tree isometries: XOR with a depth-keyed mask."""

    def family(k: int, base: DyadicPoint):
        key = mask ^ (k * 0x9E3779B97F4A7C15)
        return lambda tail: tail ^ (key & ((1 << 62) - 1))

    return family


def w_dilatation(model: DyadicBoundaryModel, W, x: DyadicPoint, y: DyadicPoint) -> DyadicPoint:
    """Apply the coefficient-two dilatation based at x, built from the family W.

    W is a callable (k, base) -> isometry acting on tail words given as
    integers.  The base point is fixed; any other word is mapped by prefix
    surgery, which lands at half the original distance from the base.
    """
    K = model.precision
    if model.coincide(x, y):
        if min(x.known, y.known) < K:
            raise PrecisionExhausted("cannot separate base and argument words")
        return x
    m = min(x.known, y.known)
    diff = (y.residue - x.residue) % (1 << m)
    lcp = _v2(diff)
    if lcp + 2 > x.known:
        raise PrecisionExhausted(
            f"prefix surgery at depth {lcp} needs digit {lcp + 2} of the base")
    if lcp + 2 > K:
        raise PrecisionExhausted("result would start beyond the last kept digit")
    prefix = x.residue & ((1 << (lcp + 1)) - 1)       # q followed by alpha
    flipped = (1 - x.bit(lcp + 1)) << (lcp + 1)        # complemented next base letter
    tail = y.residue >> (lcp + 1)
    mapped = W(lcp + 1, x)(tail)
    known = min(K, (y.known - lcp - 1) + lcp + 2)
    return DyadicPoint(prefix | flipped | (mapped << (lcp + 2)), known)


def w_smoothness_defect(model: DyadicBoundaryModel, W, k: int,
                        x: DyadicPoint, xprime: DyadicPoint, y_tail: int) -> float:
    """The modulus (1/2^k) d(W^x_k(y), W^{x'}_k(y)) on one sample."""
    a = W(k, x)(y_tail)
    b = W(k, xprime)(y_tail)
    diff = (a ^ b) % (1 << model.precision)
    if diff == 0:
        return 0.0
    return 2.0 ** (-_v2(diff)) / float(1 << k)
