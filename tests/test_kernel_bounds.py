"""The generated float kernels against the true value, within an a-priori bound.

A straight-line program of sums and products rounds to within about c u times
the same program run on absolute values, where u = 2^-53 is the unit roundoff
and c the number of roundings on the longest path (Higham, *Accuracy and
Stability of Numerical Algorithms*, ch. 3).  Each float kernel of a model
(``_product``, ``_inverse_product`` and ``_dilate_point``) is held to that
bound against the generated exact kernel on the same floats, coordinate by
coordinate, with B the product a + b + [a, b]/2 + ([a, [a, b]] + [b, [a, b]])/12
evaluated from the bracket table on absolute values.  The fold of ``g_map``
chains ``_product`` N times, so its accuracy rests on this bound.
"""

import math
from fractions import Fraction as F

import numpy as np
import pytest

from dilatation_lab.models import (
    CarnotModel, ComplexHeisenbergModel, ExactPoint, HeisenbergModel, engel_structure_constants)

from conftest import STEP3_HALF

U = F(1, 2 ** 53)
# c, the roundings on the deepest coordinate's path (``_roundings``), and beside
# it the worst |float - exact| / (u B) over 20,000 draws per model and kernel at
# seed 0; each coordinate is held to its own count n, as n u / (1 - n u) B
#                  _product      _inverse_product  _dilate_point
#   heisenberg-1    3  (2.69)     3  (2.66)          7  (3.77)
#   heisenberg-2    4  (3.21)     4  (3.16)          8  (3.46)
#   engel           7  (3.77)     7  (4.31)         13  (4.72)
#   cxr             3  (2.71)     3  (2.53)          7  (3.45)
#   step3-half      7  (3.79)     7  (3.71)         13  (5.06)
KERNELS = ["_product", "_inverse_product", "_dilate_point"]
C = {"heisenberg-1": [3, 3, 7], "heisenberg-2": [4, 4, 8], "engel": [7, 7, 13],
     "cxr": [3, 3, 7], "step3-half": [7, 7, 13]}
MODELS = {"heisenberg-1": lambda: HeisenbergModel(1), "heisenberg-2": lambda: HeisenbergModel(2),
          "engel": lambda: CarnotModel(3, *engel_structure_constants()),
          "cxr": ComplexHeisenbergModel, "step3-half": lambda: CarnotModel(3, *STEP3_HALF)}
DRAWS = 300


class _Roundings:
    """Stands in for a float in a kernel and counts the roundings on the longest
    path to it: a sum or difference one more than its larger operand, a product
    one more than both operands together, as (1 + theta_j)(1 + theta_k) is
    1 + theta_{j+k}.  A power-of-two constant and negation round nothing; any
    other constant counts its own rounding and the product's."""

    def __init__(self, n: int = 0):
        self.n = n

    def __add__(self, other):
        return _Roundings(max(self.n, other.n) + 1)

    __sub__ = __add__

    def __mul__(self, other):
        if isinstance(other, _Roundings):
            return _Roundings(self.n + other.n + 1)
        return _Roundings(self.n if abs(math.frexp(other)[0]) == 0.5 else self.n + 2)

    __rmul__ = __mul__

    def __neg__(self):
        return self


def _roundings(model, kernel: str) -> list:
    """Each output coordinate's count of roundings."""
    a, b = ([_Roundings() for _ in range(model.dim)] for _ in range(2))
    args = (a, _Roundings(), b) if kernel == "_dilate_point" else (a, b)
    return [r.n for r in getattr(model, kernel)(*args)]


def _abs_bracket(model, u, v):
    """[u, v] from the bracket table, term by term on absolute values."""
    out = [F(0)] * model.dim
    for i, j, k, c, _ in model._entries:
        out[k] += abs(F(c)) * (u[i] * v[j] + u[j] * v[i])
    return out


def _abs_product(model, a, b):
    """B: a . b evaluated term by term on the absolute values of a and b."""
    a, b = [abs(c) for c in a], [abs(c) for c in b]
    z = _abs_bracket(model, a, b)
    out = [x + y + w / 2 for x, y, w in zip(a, b, z)]
    if model.step == 3:
        out = [t + (p + q) / 12
               for t, p, q in zip(out, _abs_bracket(model, a, z), _abs_bracket(model, b, z))]
    return out


def _fractions(p: ExactPoint) -> list:
    return [F(n, p.den) for n in p.num]


def _draw(rng, dim: int) -> list:
    """Coordinates of either sign and magnitude 1e-6 to 1e2, as Python floats."""
    return (rng.uniform(-1.0, 1.0, dim) * 10.0 ** rng.uniform(-6.0, 2.0, dim)).tolist()


def _cases(model, kernel: str, rng):
    """Per draw: the float kernel's value, the exact kernel's, and B."""
    for _ in range(DRAWS):
        x, y = _draw(rng, model.dim), _draw(rng, model.dim)
        X, Y = ExactPoint.from_floats(x), ExactPoint.from_floats(y)
        bound = _abs_product(model, map(F, x), map(F, y))
        if kernel == "_product":
            yield model._product(x, y), model._exact_product(X.num, X.den, Y.num, Y.den), bound
        elif kernel == "_inverse_product":  # (-x) . y
            yield (model._inverse_product(x, y),
                   model._exact_product((-X).num, X.den, Y.num, Y.den), bound)
        else:  # x . delta_e((-x) . y), layer i of the inner product scaled by e^i
            e = float(rng.uniform(0.05, 4.0))
            scaled = [F(e) ** (i + 1) * b for i, b in zip(model._layer_index, bound)]
            yield (model._dilate_point(x, e, y),
                   model._exact_dilate(X.num, X.den, Y.num, Y.den, *e.as_integer_ratio()),
                   _abs_product(model, map(F, x), scaled))


def ratios(model, kernel: str, seed: int):
    """Per draw and coordinate: |float - exact| / (u B), and the coordinate's roundings."""
    counts = _roundings(model, kernel)
    for got, exact, bound in _cases(model, kernel, np.random.default_rng(seed)):
        for g, t, b, n in zip(got, _fractions(exact), bound, counts):
            assert b or g == 0  # a zero bound: every input of the coordinate is 0
            yield (abs(F(g) - t) / (U * b) if b else F(0)), n


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("name", list(MODELS))
def test_float_kernels_are_within_their_roundings_of_the_exact_value(name, kernel):
    model = MODELS[name]()
    assert max(_roundings(model, kernel)) == C[name][KERNELS.index(kernel)]
    assert all(r <= n / (1 - n * U) for r, n in ratios(model, kernel, 37))


def test_the_bound_sees_a_dropped_bracket_term():
    # the step-3 model's float kernels without its 0.5 bracket constant, as a
    # generator that skipped a table entry would write them
    model = CarnotModel(3, *STEP3_HALF)
    dropped = CarnotModel(3, STEP3_HALF[0], STEP3_HALF[1][:2])
    for kernel in KERNELS:
        setattr(model, kernel, getattr(dropped, kernel))
        assert max(r for r, _ in ratios(model, kernel, 37)) > 1e6
