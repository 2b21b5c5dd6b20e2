"""core.reports.sup is the one sup rule behind every sampled verdict, and
core.reports.worst_defect the one NaN rule behind every every-sample verdict."""

import ast
import math
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, strategies as st

import dilatation_lab
from dilatation_lab import affine, cli
from dilatation_lab.affine import CollinearTriple, check_collinear, geometric_affinity_check
from dilatation_lab.config import EXACT_IDENTITY_TOL
from dilatation_lab.core.reports import sup, worst_defect
from dilatation_lab.core.scales import POSITIVE_REALS as PR
from dilatation_lab.models import EuclideanModel

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


# --- a NaN defect fails an every-sample verdict, in whichever place it falls ----

NAN_ORDERS = [[NAN, 1e-20], [1e-20, NAN]]


def _returning(values):
    """A stub residual that returns the values in turn, whatever it is asked."""
    it = iter(values)
    return lambda *args, **kwargs: next(it)


@pytest.mark.parametrize("defects", NAN_ORDERS)
def test_worst_defect_is_nan_when_any_defect_is(defects):
    assert math.isnan(worst_defect(defects))
    assert not worst_defect(defects) <= EXACT_IDENTITY_TOL


def test_worst_defect_is_the_largest_without_nan():
    assert worst_defect([1e-20, 3.0, -1.0, 2.0]) == 3.0


@pytest.mark.parametrize("defects", NAN_ORDERS)
def test_check_collinear_fails_on_a_nan_probe_defect(defects, monkeypatch):
    E = EuclideanModel(1)
    monkeypatch.setattr(E, "distance", _returning(defects))
    triple = CollinearTriple(np.array([0.0]), np.array([1.0]), np.array([1.0 / 3.0]), 0.5, 0.5)
    assert not check_collinear(E, triple, probes=[np.array([0.1]), np.array([0.2])]).verdict


@pytest.mark.parametrize("defects", NAN_ORDERS)
def test_geometric_affinity_fails_on_a_nan_triple_defect(defects, monkeypatch):
    collinear = _returning([SimpleNamespace(defect=[d]) for d in defects])
    monkeypatch.setattr(affine, "check_collinear", collinear)
    triple = CollinearTriple(np.array([0.0]), np.array([1.0]), np.array([1.0 / 3.0]), 0.5, 0.5)
    assert not geometric_affinity_check(EuclideanModel(1), lambda p: p, [triple] * 2).verdict


@pytest.mark.parametrize("defects", NAN_ORDERS)
def test_barycentric_command_fails_on_a_nan_pair_defect(defects, monkeypatch):
    monkeypatch.setattr(cli, "barycentric_defect", _returning(defects))
    _, verdict = cli._cmd_barycentric(EuclideanModel(2), eps=PR.scale(0.5), seed=0,
                                      sample_count=2)
    assert not verdict
