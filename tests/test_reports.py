"""core.reports.sup is the one sup rule behind every sampled verdict."""

import ast
from pathlib import Path

import numpy as np
from hypothesis import given, strategies as st

import dilatation_lab
from dilatation_lab.core.reports import sup

PACKAGE = Path(dilatation_lab.__file__).parent
NAN = float("nan")


def _loop(values):
    worst = 0.0
    for d in values:
        worst = max(worst, d)
    return worst


def test_sup_of_an_empty_or_all_negative_sample_is_zero():
    for values in ([], [-1.0, -0.5], [NAN], [-2.0, NAN]):
        assert sup(values) == 0.0
        assert sup(np.array(values)) == 0.0


def test_sup_skips_nan_in_any_position():
    for values in ([NAN, 1.0, 2.0], [1.0, NAN, 2.0], [1.0, 2.0, NAN], [2.0, NAN, 1.0]):
        assert sup(values) == 2.0
        assert sup(np.array(values)) == 2.0


@given(st.lists(st.floats(allow_nan=True, allow_infinity=True), max_size=12))
def test_sup_is_the_accumulation_loop(values):
    assert sup(values) == _loop(values)
    assert sup(iter(values)) == _loop(values)
    got = sup(np.array(values, dtype=float))
    assert type(got) is float and got == _loop(values)


def test_sup_per_row_is_the_loop_on_each_row():
    table = np.random.default_rng(0).normal(size=(6, 5))
    table[1, 0] = table[2, 3] = table[4, 4] = NAN
    table[3] = NAN
    table[5] = -1.0
    assert sup(table, axis=1).tolist() == [_loop(row.tolist()) for row in table]


def _own_sup_rules(path):
    """Lines of a module that take a sup by hand: ``w = max(w, ...)`` or ``np.fmax.reduce``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and isinstance(node.value, ast.Call)
                and isinstance(node.value.func, ast.Name) and node.value.func.id == "max"
                and node.value.args and isinstance(node.value.args[0], ast.Name)
                and node.value.args[0].id == node.targets[0].id):
            found.append(node.lineno)
        if (isinstance(node, ast.Attribute) and node.attr == "reduce"
                and isinstance(node.value, ast.Attribute) and node.value.attr == "fmax"):
            found.append(node.lineno)
    return found


def test_no_sup_rule_outside_reports():
    found = {str(path.relative_to(PACKAGE)): lines
             for path in sorted(PACKAGE.rglob("*.py")) if path != PACKAGE / "core" / "reports.py"
             for lines in [_own_sup_rules(path)] if lines}
    assert found == {}


def test_reports_holds_the_sup_rule():
    assert _own_sup_rules(PACKAGE / "core" / "reports.py")
