import ast
import contextlib
import math
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import dilatation_lab
from dilatation_lab.core.harness import AXIOMS, verify_axiom
from dilatation_lab.core.reports import make_report, within
from dilatation_lab.core.scales import (
    COMPLEX_UNITS, DYADIC_POWERS, POSITIVE_REALS, RowScale, contraction, decreasing,
    not_expanding)
from dilatation_lab.core.structure import Ball, estimate_dx
from dilatation_lab.emergent import (
    LIMIT_OPS, check_affine_map, inflin_scan, metric_tangent_scan, pansu_derivative,
    plin1_scan, tangent_limit)
from dilatation_lab.errors import DomainViolation, NonConvergent
from dilatation_lab.models import HeisenbergModel

PACKAGE = Path(dilatation_lab.__file__).parent


def test_positive_reals_basics():
    e = POSITIVE_REALS.scale(0.5)
    m = POSITIVE_REALS.scale(0.25)
    assert e.nu == 0.5
    assert (e * m).nu == 0.125
    assert e.inverse().nu == 2.0
    assert POSITIVE_REALS.one.nu == 1.0
    assert (e ** 3).nu == 0.125


def test_positive_reals_rejects_nonpositive():
    with pytest.raises(ValueError):
        POSITIVE_REALS.scale(0.0)
    with pytest.raises(ValueError):
        POSITIVE_REALS.scale(-1.0)


def test_positive_reals_keeps_exact_rationals():
    e = POSITIVE_REALS.scale(Fraction(1, 2))
    assert isinstance((e * e).value, Fraction)
    assert e.inverse().value == 2


def test_dyadic_powers_valuation():
    two = DYADIC_POWERS.scale(1)  # the element 2^1
    assert two.nu == 0.5
    assert two.inverse().nu == 2.0
    assert (two * two).value == 2
    with pytest.raises(ValueError):
        DYADIC_POWERS.scale(0.5)
    with pytest.raises(ValueError):
        DYADIC_POWERS.scale(True)


def test_complex_units_valuation_not_injective():
    e = COMPLEX_UNITS.scale(complex(0.3, 0.0))
    rotated = COMPLEX_UNITS.scale(0.3 * complex(math.cos(1.0), math.sin(1.0)))
    assert e.value != rotated.value
    assert abs(e.nu - rotated.nu) < 1e-15
    with pytest.raises(ValueError):
        COMPLEX_UNITS.scale(0.0)


def test_contraction_needs_nu_below_one_and_not_expanding_up_to_one():
    contraction("op", POSITIVE_REALS.scale(0.5), DYADIC_POWERS.scale(1),
                COMPLEX_UNITS.scale(0.5j))
    not_expanding("op", POSITIVE_REALS.one, DYADIC_POWERS.one, COMPLEX_UNITS.scale(-1.0))
    for eps in (POSITIVE_REALS.one, DYADIC_POWERS.scale(0), COMPLEX_UNITS.scale(1j)):
        with pytest.raises(DomainViolation, match=r"^op needs .*nu=1\.0$"):
            contraction("op", POSITIVE_REALS.scale(0.5), eps)
    for eps in (POSITIVE_REALS.scale(1.5), DYADIC_POWERS.scale(-1), COMPLEX_UNITS.scale(2j)):
        with pytest.raises(DomainViolation, match=r"^op needs .*nu=(1\.5|2\.0)$"):
            not_expanding("op", eps)


def test_per_row_scales_are_checked_row_by_row():
    ok = RowScale.of([POSITIVE_REALS.scale(v) for v in (0.5, 0.25, 0.75)])
    contraction("op", ok)
    not_expanding("op", ok, RowScale.of([COMPLEX_UNITS.scale(1j), COMPLEX_UNITS.scale(0.5)]))
    # the first row outside is the one named, as a loop over the scales names it
    bad = RowScale.of([POSITIVE_REALS.scale(v) for v in (0.5, 1.0, 1.5, 0.25)])
    with pytest.raises(DomainViolation, match=r"^op needs .*nu=1\.0$"):
        contraction("op", POSITIVE_REALS.scale(0.5), bad)
    with pytest.raises(DomainViolation, match=r"^op needs .*nu=1\.5$"):
        not_expanding("op", bad)


def _nu_literal_comparisons(path):
    def names_nu(node):
        return any(isinstance(n, ast.Name) and n.id == "nu"
                   or isinstance(n, ast.Attribute) and n.attr == "nu"
                   for n in ast.walk(node))

    def literal(node):
        return isinstance(node, ast.Constant) and type(node.value) in (int, float)

    tree = ast.parse(path.read_text(), filename=str(path))
    return [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Compare)
            for operands in [[node.left, *node.comparators]]
            if any(map(names_nu, operands)) and any(map(literal, operands))]


def test_no_valuation_bound_outside_scales():
    # whether a scale contracts is decided by contraction and not_expanding;
    # no other module compares a valuation with 0 or 1 itself
    found = {str(path.relative_to(PACKAGE)): lines
             for path in sorted(PACKAGE.rglob("*.py")) if path.name != "scales.py"
             for lines in [_nu_literal_comparisons(path)] if lines}
    assert found == {}
    assert _nu_literal_comparisons(PACKAGE / "core" / "scales.py")


def test_grid_is_strictly_decreasing():
    grid = POSITIVE_REALS.grid(range(2, 13))
    nus = [s.nu for s in grid]
    assert all(b < a for a, b in zip(nus, nus[1:]))


# --- a misordered grid is a bad argument, refused before any work -------------

ORDER = "scale grid must be strictly decreasing in nu"
# each has the 4 scales estimate_dx needs; the valuation of 1j is 1
BAD_GRIDS = {
    "increasing": POSITIVE_REALS.grid([5, 4, 3, 2]),
    "repeated": POSITIVE_REALS.grid([2, 3, 3, 4]),
    "repeated-nu": [COMPLEX_UNITS.scale(v) for v in (0.5, 0.5j, 0.25, 0.125)],
}
GOOD_GRID = POSITIVE_REALS.grid([2, 3, 4, 5])


def test_decreasing_refuses_a_grid_that_does_not_refine():
    for grid in BAD_GRIDS.values():
        with pytest.raises(ValueError, match=ORDER):
            decreasing(grid)
    for grid in ([], GOOD_GRID[:1], GOOD_GRID, DYADIC_POWERS.grid([1, 2])):
        decreasing(grid)
    # a report checks its grid with the same rule
    with pytest.raises(ValueError, match=ORDER):
        make_report(BAD_GRIDS["repeated"], [0.0] * 4, within([0.0] * 4, 1e-9), {})


class _Counting:
    """A model that records the name of every method called on it."""

    def __init__(self, model):
        self._model, self.calls = model, []

    def __getattr__(self, name):
        value = getattr(self._model, name)
        if not callable(value):
            return value

        def counted(*args, **kwargs):
            self.calls.append(name)
            return value(*args, **kwargs)

        return counted


H1 = HeisenbergModel(1)
X, Y, Z = H1.point([0.1, 0.0], 0.0), H1.point([0.0, 0.1], 0.0), H1.point([0.05, 0.1], 0.0)

# every routine that sweeps a grid, on a counting model S
GRID_ROUTINES = {
    **{f"verify_axiom-{w}": lambda S, g, w=w: verify_axiom(S, w, Ball(X, 0.5), g, 4)
       for w in AXIOMS},
    **{f"tangent_limit-{w}": lambda S, g, w=w: tangent_limit(S, X, Y, Z, w, g)
       for w in LIMIT_OPS},
    "pansu_derivative": lambda S, g: pansu_derivative(
        S, S, lambda p: S.group_product(X, p), X, Y, g),
    "inflin_scan": lambda S, g: inflin_scan(S, X, Y, Z, g),
    "plin1_scan": lambda S, g: plin1_scan(S, X, Y, Z, g),
    "metric_tangent_scan": lambda S, g: metric_tangent_scan(S, X, g, sample_count=4),
    "estimate_dx": lambda S, g: estimate_dx(S, X, Y, Z, g),
    "check_affine_map": lambda S, g: check_affine_map(
        S, lambda p: S.group_product(X, p), [(X, Y), (Y, Z)], g),
}


@pytest.mark.parametrize("grid", list(BAD_GRIDS))
@pytest.mark.parametrize("routine", list(GRID_ROUTINES))
def test_a_misordered_grid_raises_before_any_work(routine, grid):
    # a ValueError, not a NonConvergent finding, and not after the sweep
    S = _Counting(H1)
    with pytest.raises(ValueError, match=ORDER):
        GRID_ROUTINES[routine](S, BAD_GRIDS[grid])
    assert S.calls == []
    # while the model does see the work of a good grid
    with contextlib.suppress(NonConvergent):
        GRID_ROUTINES[routine](S, GOOD_GRID)
    assert S.calls


@given(st.integers(-20, 20), st.integers(-20, 20))
def test_valuation_is_a_morphism_dyadic(p, q):
    a = DYADIC_POWERS.scale(p)
    b = DYADIC_POWERS.scale(q)
    assert (a * b).nu == pytest.approx(a.nu * b.nu)
    assert a.inverse().nu == pytest.approx(1.0 / a.nu)


@given(st.floats(min_value=1e-3, max_value=1e3), st.floats(min_value=1e-3, max_value=1e3))
def test_valuation_is_a_morphism_reals(a, b):
    sa = POSITIVE_REALS.scale(a)
    sb = POSITIVE_REALS.scale(b)
    assert (sa * sb).nu == pytest.approx(sa.nu * sb.nu, rel=1e-12)
