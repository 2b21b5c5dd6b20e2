import ast
import math
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import dilatation_lab
from dilatation_lab.core.scales import (
    COMPLEX_UNITS, DYADIC_POWERS, POSITIVE_REALS, RowScale, contraction, not_expanding)
from dilatation_lab.errors import DomainViolation

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
