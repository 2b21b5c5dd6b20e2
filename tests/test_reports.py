"""core.reports holds the named rules behind every verdict, the lab's one sup
rule, its one NaN rule and its one emptiness rule: a NaN residual is the worst
value, so it makes every sup NaN and fails every verdict built on it, wherever
in the sample it falls, and an empty sample raises ValueError, since a sup over
nothing would pass anything."""

import ast
import hashlib
import math
from dataclasses import FrozenInstanceError
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

import dilatation_lab
from dilatation_lab import affine, cli, emergent
from dilatation_lab.affine import (
    CollinearTriple, check_collinear, collinear_triple_from_ratio, counterexample_check,
    distance_estimates_check, geometric_affinity_check, reversed_collinear_search)
from dilatation_lab.core.harness import verify_axiom
from dilatation_lab.config import DEFECT_FLOOR, FIXED_POINT_TOL, JITTER_FACTOR, MAX_ITER
from dilatation_lab.core.reports import (
    Verdict, beyond, contracts, converges, dies_out, make_report, nonincreasing, sup, within,
    within_envelopes)
from dilatation_lab.core.scales import POSITIVE_REALS as PR
from dilatation_lab.core.structure import Ball, Rows, estimate_dx
from dilatation_lab.emergent import (
    LIMIT_OPS, check_affine_map, inflin_scan, metric_tangent_scan, pansu_derivative,
    plin1_scan, shift_isometry_defect, tangent_limit)
from dilatation_lab.errors import DomainViolation, MaxIterExceeded, NonConvergent
from dilatation_lab.models.base import ExactRows
from dilatation_lab.models import (
    CarnotModel, ComplexHeisenbergModel, EuclideanModel, HeisenbergModel, PullbackModel,
    engel_structure_constants, heisenberg_structure_constants)

from conftest import blas_kernel

PACKAGE = Path(dilatation_lab.__file__).parent
NAN = float("nan")
EMPTY = "an empty sample certifies nothing"


def _loop(values):
    worst = 0.0
    for d in values:
        if math.isnan(d):
            return NAN
        worst = max(worst, d)
    return worst


def _same(a, b):
    return a == b or (math.isnan(a) and math.isnan(b))


def test_sup_of_an_all_negative_sample_is_zero_and_of_an_empty_one_raises():
    values = [-1.0, -0.5]
    for got in (sup(values), sup(iter(values)), sup(np.array(values))):
        assert got == 0.0 and math.copysign(1.0, got) == 1.0
    for empty in ([], iter([]), (d for d in []), np.array([]), np.zeros((0, 3))):
        with pytest.raises(ValueError, match=EMPTY):
            sup(empty)
    with pytest.raises(ValueError, match=EMPTY):
        sup(np.zeros((4, 0)), axis=1)
    # along an axis the sample is that axis: a batch of no rows has no sups
    assert sup(np.zeros((0, 3)), axis=1).shape == (0,)


def test_an_empty_batch_has_no_gauges_and_no_gaps():
    models = [EuclideanModel(2), HeisenbergModel(1), HeisenbergModel(2),
              CarnotModel(2, *heisenberg_structure_constants(1)),
              CarnotModel(3, *engel_structure_constants()), ComplexHeisenbergModel(),
              PullbackModel(EuclideanModel(2), "cubic", "dilatation"),
              PullbackModel(EuclideanModel(2), "cubic", "metric")]
    for M in models:
        empty = np.zeros((0, M.coordinate_dim))
        assert M.coordinate_gap(empty, empty).shape == (0,), M.name
        if hasattr(M, "homogeneous_norm"):
            assert M.homogeneous_norm(empty).shape == (0,), M.name


def test_sup_of_negative_zeros_is_positive_zero():
    # a largest value of -0.0 reads as the 0.0 the sup starts from, on every path
    values = [-0.0, -1.0]
    for got in (sup(values), sup(iter(values)), sup(np.array(values))):
        assert repr(got) == "0.0"
    assert repr(sup(np.array([values, [-0.0, -0.0]]), axis=1).tolist()) == "[0.0, 0.0]"


def test_sup_is_nan_when_any_value_is():
    for values in ([NAN], [NAN, 1.0, 2.0], [1.0, NAN, 2.0], [1.0, 2.0, NAN], [-2.0, NAN]):
        assert math.isnan(sup(values))
        assert math.isnan(sup(iter(values)))
        assert math.isnan(sup(np.array(values)))
    table = np.array([[NAN, 1.0, 2.0], [1.0, NAN, 2.0], [1.0, 2.0, NAN], [1.0, 2.0, 0.5]])
    assert np.array_equal(sup(table, axis=1), [NAN, NAN, NAN, 2.0], equal_nan=True)


@given(st.lists(st.floats(allow_nan=True, allow_infinity=True), min_size=1, max_size=12))
@example([1.0, NAN, 2.0])
@example([NAN, -1.0])
def test_sup_is_the_accumulation_loop(values):
    assert _same(sup(values), _loop(values))
    assert _same(sup(iter(values)), _loop(values))
    got = sup(np.array(values, dtype=float))
    assert type(got) is float and _same(got, _loop(values))


def test_sup_per_row_is_the_loop_on_each_row():
    table = np.random.default_rng(0).normal(size=(6, 5))
    table[1, 0] = table[2, 3] = table[4, 4] = NAN
    table[3] = NAN
    table[5] = -1.0
    assert np.array_equal(sup(table, axis=1), [_loop(row.tolist()) for row in table],
                          equal_nan=True)


NAN_SKIPPING = {"fmax", "fmin", "nanmax", "nanmin"}
# builtin max and min over integers or constants, where no residual and so no
# NaN can reach them, by (module, function)
INTEGER_MAX_MIN = {
    # the dyadic model's digit counts
    *(("models/dyadic.py", f) for f in (
        "coincide", "distance", "group_product", "_shift", "dilate", "sample_ball",
        "barycentric_pair", "w_dilatation")),
    ("core/structure.py", "_lattice_offsets"),
    ("core/harness.py", "_axiom0_defects"),   # max(4, sample_count // 4)
    ("core/harness.py", "verify_axiom"),      # the tolerance floor
    ("affine.py", "menelaos_iterate"),        # the Menelaos rate floor
}


def _called(func):
    """The name a call goes by: ``f`` for ``f(...)`` and ``m.f(...)``."""
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def _owners(tree):
    """The innermost function around each node of a module; None at module level."""
    owner = {}

    def visit(node, name):
        for child in ast.iter_child_nodes(node):
            owner[child] = name
            visit(child, child.name if isinstance(child, ast.FunctionDef) else name)

    visit(tree, None)
    return owner


def _own_sup_rules(path):
    """Lines of a module that take a sup or treat NaN by hand: a builtin ``max``
    or ``min`` outside ``INTEGER_MAX_MIN``, ``reduce(max, ...)``,
    ``np.maximum.reduce``, a binary ``np.maximum(a, b)``, a NaN-skipping numpy
    function (``np.fmax``, ``np.fmin``, ``np.nanmax``, ``np.nanmin``) or an
    ``isnan`` call."""
    tree = ast.parse(path.read_text(), filename=str(path))
    module, owner = path.relative_to(PACKAGE).as_posix(), _owners(tree)
    found = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in ("max", "min")
                and (module, owner[node]) not in INTEGER_MAX_MIN):
            found.append(node.lineno)
        if (isinstance(node, ast.Attribute) and node.attr in NAN_SKIPPING
                or isinstance(node, ast.Name) and node.id in NAN_SKIPPING):
            found.append(node.lineno)
        if (isinstance(node, ast.Attribute) and node.attr == "reduce"
                and isinstance(node.value, ast.Attribute) and node.value.attr == "maximum"):
            found.append(node.lineno)
        if isinstance(node, ast.Call) and (
                _called(node.func) == "isnan"
                or _called(node.func) == "maximum" and len(node.args) == 2
                or _called(node.func) == "reduce" and node.args
                and isinstance(node.args[0], ast.Name) and node.args[0].id == "max"):
            found.append(node.lineno)
    return found


def test_no_sup_rule_outside_reports():
    found = {str(path.relative_to(PACKAGE)): lines
             for path in sorted(PACKAGE.rglob("*.py")) if path != PACKAGE / "core" / "reports.py"
             for lines in [_own_sup_rules(path)] if lines}
    assert found == {}


def test_reports_holds_the_sup_rule():
    assert _own_sup_rules(PACKAGE / "core" / "reports.py")


SETTLING_FACTORS = {"JITTER_FACTOR", "DECAY_FACTOR"}
ORDER_RULE = "strictly decreasing in nu"


def _reads(path, names):
    """Lines of a module that read one of the names; a docstring does not read."""
    return [node.lineno for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
            if isinstance(node, ast.Name) and node.id in names
            or isinstance(node, ast.Attribute) and node.attr in names
            or isinstance(node, ast.ImportFrom) and {a.name for a in node.names} & names]


def _raises(path, text):
    """Lines of a module that raise an error whose message holds the text."""
    return [node.lineno for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
            if isinstance(node, ast.Raise)
            and any(isinstance(c, ast.Constant) and isinstance(c.value, str) and text in c.value
                    for c in ast.walk(node))]


def test_settling_and_grid_order_rules_have_one_home_each():
    # nonincreasing, contracts and dies_out read the sequence factors; trend_grid
    # and every report check a grid's order through core.scales.decreasing
    modules = {str(path.relative_to(PACKAGE)): path for path in sorted(PACKAGE.rglob("*.py"))}
    reads = {name: lines for name, path in modules.items()
             if name not in ("core/reports.py", "config.py")
             for lines in [_reads(path, SETTLING_FACTORS)] if lines}
    assert reads == {}
    assert _reads(modules["core/reports.py"], SETTLING_FACTORS)
    raised = {name: lines for name, path in modules.items()
              for lines in [_raises(path, ORDER_RULE)] if lines}
    assert list(raised) == ["core/scales.py"] and len(raised["core/scales.py"]) == 1


# --- every verdict comes from a named rule, which says where it broke ----------

VERDICT_TOLERANCES = {"EXACT_IDENTITY_TOL", "LIMIT_TOL", "CAUCHY_DIFFERENCE_TOL", "DERIVATIVE_TOL",
                      "MENELAOS_PROBE_TOL", "COUNTEREXAMPLE_SEPARATION", "ENVELOPE_SLACK",
                      "ENVELOPE_ABS_SLACK"}


def _compares(path, names):
    """Lines of a module that compare a value against one of the names."""
    return [node.lineno for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
            if isinstance(node, ast.Compare)
            and any(isinstance(n, ast.Name) and n.id in names
                    or isinstance(n, ast.Attribute) and n.attr in names
                    for operand in [node.left, *node.comparators] for n in ast.walk(operand))]


def test_verdict_tolerances_are_compared_only_by_the_rules():
    # a module hands its tolerance to a rule of core.reports, which compares
    found = {str(path.relative_to(PACKAGE)): lines for path in sorted(PACKAGE.rglob("*.py"))
             for lines in [_compares(path, VERDICT_TOLERANCES)] if lines}
    assert found == {}
    takers = {node.func.id for path in PACKAGE.rglob("*.py")
              for node in ast.walk(ast.parse(path.read_text()))
              if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and any(isinstance(a, ast.Name) and a.id in VERDICT_TOLERANCES for a in node.args)}
    assert takers == {"within", "beyond", "converges", "within_envelopes"}


@pytest.mark.parametrize("verdict", [True, False, np.True_, 1])
def test_make_report_takes_only_a_named_rule(verdict):
    with pytest.raises(TypeError, match="named rule"):
        make_report(PR.grid([2, 3]), [0.5, 0.25], verdict, {})


def test_a_report_records_its_rule_and_where_it_broke():
    grid = PR.grid([2, 3, 4])
    meta = make_report(grid, [1.0, 0.5, 0.6], converges([1.0, 0.5, 0.6], 0.7), {"seed": 1}).metadata
    assert meta == {"seed": 1, "rule": "converges", "broke_at": None, "tolerance": 0.7}
    meta = make_report(grid, [1.0, 0.5, 0.6], dies_out([1.0, 0.5, 0.6]), {}).metadata
    assert meta == {"rule": "dies_out", "broke_at": 2}


def test_the_rules_break_at_the_first_value_that_breaks_them():
    assert converges([1.0, 0.5, 0.25], 0.3) == Verdict(True, "converges", 0.3)
    assert converges([1.0, 0.5, 0.4], 0.3).broke_at == 2           # last above tol
    assert converges([1.0, 2.0, 0.1], 0.3).broke_at == 1           # growth
    assert converges([1e-3, 2e-3, 0.0], 0.3, floor=1e-2)           # flat below the floor
    assert dies_out([1.0, 0.5, 0.2]).broke_at == 2                 # did not fall tenfold
    assert dies_out([0.0, 1e-13, 0.0]) and dies_out([1.0, 0.5, 0.01])
    assert within([0.1, 2.0, 3.0], 1.0) == Verdict(False, "within", 1.0, 1)
    assert within(iter([0.1, 0.2]), 1.0) and within(np.array([0.5, 1.0]), 1.0)
    assert beyond([2.0, 0.5, NAN], 1.0) == Verdict(False, "beyond", 1.0, 1)
    assert beyond([2.0, 3.0], 1.0) and not beyond([NAN], 1.0)
    assert nonincreasing([1.0, 1.5, 2.3]) == Verdict(False, "nonincreasing", None, 2)
    assert contracts([1.0, 0.5, 0.5], [1.0, 0.5, 0.25, 0.125]) == \
        Verdict(False, "contracts", None, 2)
    for rule in (within, beyond):
        with pytest.raises(ValueError, match=EMPTY):
            rule([], 1.0)
    # a vanishing envelope takes only the absolute slack
    assert within_envelopes([1.05, 1e-16, 1.2], [1.0, 0.0, 1.0], 0.1, 0.0) == \
        Verdict(False, "within_envelopes", 0.1, 1)
    assert within_envelopes([1.05, 1e-16], [1.0, 0.0], 0.1, 1e-15)
    assert within_envelopes([0.5, NAN], [1.0, 1.0], 0.1, 0.0).broke_at == 1
    with pytest.raises(ValueError, match=EMPTY):
        within_envelopes([], [], 0.1, 0.0)


# --- a NaN residual fails every verdict, in whichever place it falls ----------

NAN_ORDERS = [[NAN, 1e-20], [1e-20, NAN]]
TRIPLE = CollinearTriple(np.array([0.0]), np.array([1.0]), np.array([1.0 / 3.0]), 0.5, 0.5)


def _nan_at(values):
    return [math.isnan(v) for v in values].index(True)


def _returning(values):
    """A stub residual that returns the values in turn, whatever it is asked."""
    it = iter(values)
    return lambda *args, **kwargs: next(it)


@pytest.mark.parametrize("defects", NAN_ORDERS)
def test_check_collinear_fails_on_a_nan_probe_defect(defects, monkeypatch):
    E = EuclideanModel(1)
    monkeypatch.setattr(E, "distance", _returning(defects))
    triple = CollinearTriple(np.array([0.0]), np.array([1.0]), np.array([1.0 / 3.0]), 0.5, 0.5)
    rep = check_collinear(E, triple, probes=[np.array([0.1]), np.array([0.2])])
    assert not rep.verdict and rep.metadata["broke_at"] == _nan_at(defects)


@pytest.mark.parametrize("defects", NAN_ORDERS)
def test_geometric_affinity_fails_on_a_nan_triple_defect(defects, monkeypatch):
    collinear = _returning([SimpleNamespace(defect=[d]) for d in defects])
    monkeypatch.setattr(affine, "check_collinear", collinear)
    triple = CollinearTriple(np.array([0.0]), np.array([1.0]), np.array([1.0 / 3.0]), 0.5, 0.5)
    rep = geometric_affinity_check(EuclideanModel(1), lambda p: p, [triple] * 2)
    assert not rep.verdict and rep.metadata["broke_at"] == _nan_at(defects)


@pytest.mark.parametrize("defects", NAN_ORDERS)
def test_barycentric_command_fails_on_a_nan_pair_defect(defects, monkeypatch):
    monkeypatch.setattr(cli, "barycentric_defect", _returning(defects))
    _, verdict = cli._cmd_barycentric(EuclideanModel(2), eps=PR.scale(0.5), seed=0,
                                      sample_count=2)
    assert not verdict and verdict.broke_at == _nan_at(defects)


def test_coordinate_gap_is_nan_on_a_nan_coordinate():
    E = EuclideanModel(2)
    for p in ([0.1, NAN], [NAN, 0.1]):
        assert math.isnan(E.coordinate_gap(np.array(p), np.zeros(2)))


def test_a_nan_coordinate_gives_a_nan_gauge():
    engel = CarnotModel(3, *engel_structure_constants())
    p = np.array([0.5, 0.1, 0.0, NAN])
    assert math.isnan(engel.homogeneous_norm(p))
    assert math.isnan(engel.distance(engel.origin(), p))


def _nus(ks):
    return [e.nu for e in PR.grid(ks)]


DEFAULT_NUS = _nus(range(2, 13))  # the default grid: 11 scales, 10 increments


def test_contracts_fails_at_a_nan_and_passes_at_the_floor():
    assert contracts([], DEFAULT_NUS) and contracts([1e9], DEFAULT_NUS)
    assert contracts([math.inf], DEFAULT_NUS)
    halving = [2.0 ** -i for i in range(10)]
    assert contracts(halving, DEFAULT_NUS)
    for i in range(10):
        values = [*halving[:i], NAN, *halving[i + 1:]]
        assert contracts(values, DEFAULT_NUS) == Verdict(False, "contracts", None, i)
    # at or below the floor an increment always passes, and the next is held to it
    assert contracts([1e-9, 1e-11, DEFECT_FLOOR, 1e-13, 0.0, DEFECT_FLOOR], DEFAULT_NUS)
    assert contracts([1.0] * 5 + [DEFECT_FLOOR] * 5, DEFAULT_NUS)
    assert not contracts([1.0] * 5 + [DEFECT_FLOOR, 1e-9, 0.0, 0.0, 0.0], DEFAULT_NUS)
    # a flat second half is no limit
    assert contracts([1.0] * 10, DEFAULT_NUS).broke_at == 5
    assert contracts([*halving[:6], *[halving[5]] * 4], DEFAULT_NUS).broke_at == 6


def test_contracts_does_not_judge_the_first_half():
    # the differences of the pinned metric-pullback draw (test_operators): one
    # early rise on the coarse start of the grid, then halving
    diffs = [2.3e-4, 2.1e-5, 4.4e-5, *(3.1e-5 * 0.5 ** i for i in range(7))]
    assert diffs[2] > JITTER_FACTOR * diffs[1] and contracts(diffs, DEFAULT_NUS)
    # the same rise in the second half breaks the rule where it falls
    late = [*diffs[:6], 4 * diffs[6], *diffs[7:]]
    assert contracts(late, DEFAULT_NUS) == Verdict(False, "contracts", None, 6)
    # on two increments the second is judged
    assert not contracts([1.0, 1.0], DEFAULT_NUS) and contracts([1.0, 0.5], DEFAULT_NUS)


def test_contracts_takes_its_bound_from_the_grid():
    # the jitter factor times the grid's own ratio, plus the floor
    assert contracts([1.0, JITTER_FACTOR * 0.5 + DEFECT_FLOOR], DEFAULT_NUS)
    assert not contracts([1.0, JITTER_FACTOR * 0.5 + 2 * DEFECT_FLOOR], DEFAULT_NUS)
    # on k = 2, 4, 6, ... the scale falls fourfold per step: a tail that only
    # halves is slower than a first-order limit there
    halving = [2.0 ** -i for i in range(10)]
    quartering = _nus(range(2, 24, 2))
    assert contracts(halving, quartering).broke_at == 5
    assert contracts([4.0 ** -i for i in range(10)], quartering)
    # on a non-geometric grid each step is held to its own ratio: 1/4, then 1/8
    ks = [2, 3, 5, 8, 12]
    assert contracts([1.0, 1.0, 0.3, 0.05], _nus(ks))
    assert contracts([1.0, 1.0, 0.3, 0.06], _nus(ks)).broke_at == 3
    assert contracts([1.0, 1.0, 0.4, 0.05], _nus(ks)).broke_at == 2


def test_derivative_candidates_that_agree_have_settled():
    # the float identity map on H(1): roundoff times 1/eps grows the increments
    # from 1e-16 to 1.3e-11, so they pass on agreeing to EXACT_IDENTITY_TOL
    grid = PR.grid(range(3, 11))
    for seed in range(6):
        rng = np.random.default_rng(seed)
        x, u = rng.uniform(-0.3, 0.3, 3), rng.uniform(-0.3, 0.3, 3)
        q, rep = pansu_derivative(H1, H1, lambda p: p, x, u, grid)
        assert rep.verdict and max(rep.defect) < 2e-5 and H1.coordinate_gap(q, u) < 1e-10, seed
        # a 1e-7 oscillation is no roundoff: its candidates neither settle nor agree
        with pytest.raises(NonConvergent, match="do not settle"):
            pansu_derivative(H1, H1, lambda p: p + 1e-7 * np.sin(1e3 * np.linalg.norm(p)),
                             x, u, grid)


def test_reports_are_immutable():
    rep = make_report(PR.grid([2, 3]), [0.5, 0.25], nonincreasing([0.5, 0.25]), {})
    with pytest.raises(FrozenInstanceError):
        rep.verdict = False


def test_nonincreasing_fails_on_a_nan_anywhere():
    for values in ([NAN], [1.0, NAN], [1.0, NAN, 5.0], [NAN, 1.0, 0.5]):
        assert nonincreasing(values).broke_at == _nan_at(values)
        assert dies_out(values).broke_at == _nan_at(values)
    assert nonincreasing([1.0, 1.0, 0.5]) and dies_out([1.0, 0.5, 0.01])


def test_a_nan_increment_never_settles(monkeypatch):
    H = HeisenbergModel(1)
    x, u = H.point([0.1, 0.0], 0.0), H.point([0.0, 0.1], 0.0)
    monkeypatch.setattr(H, "coordinate_gap", _returning([1.0, NAN, 5.0]))
    with pytest.raises(NonConvergent, match="do not settle"):
        pansu_derivative(H, H, lambda p: p, x, u, PR.grid([2, 3, 4, 5]))


@pytest.mark.parametrize("place", [1, 2, 3, 4], ids=["unit", "base", "composition", "inverse"])
def test_axiom_a1_fails_on_a_nan_residual(monkeypatch, place):
    # A1 joins four sups per scale: delta^x_1 y = y once, then the base
    # point, composition and inverse residuals at each scale; the first
    # exact distance of the chosen sup, the first row of its exact batch, is NaN
    E = EuclideanModel(2)
    distance, row_sup, sups, hit = E.distance, Rows.sup, [], []

    def counted_sup(self, f, *cols):
        sups.append(f)
        return row_sup(self, f, *cols)

    def nan_in_place(p, q):
        if type(p) is ExactRows and len(sups) == place and not hit:
            hit.append(p)
            return np.array([NAN, *distance(p, q)[1:]])
        return distance(p, q)

    monkeypatch.setattr(Rows, "sup", counted_sup)
    monkeypatch.setattr(E, "distance", nan_in_place)
    rep = verify_axiom(E, "A1", Ball(E.origin(), 0.5), PR.grid(range(2, 6)), sample_count=4)
    assert hit and math.isnan(rep.defect[0]) and not rep.verdict
    assert rep.metadata["broke_at"] == 0


def test_check_affine_map_fails_on_a_nan_commutation_defect(monkeypatch):
    E = EuclideanModel(1)
    monkeypatch.setattr(E, "distance", lambda p, q: NAN)
    samples = [(np.array([0.1]), np.array([0.2]))]
    rep = check_affine_map(E, lambda p: p, samples, PR.grid([1, 2]))
    assert not rep.verdict and rep.metadata["broke_at"] == 0


def test_geometric_affinity_reports_a_nan_commutation_defect(monkeypatch):
    commutation = SimpleNamespace(defect=[0.0, NAN, 0.0], verdict=False)
    monkeypatch.setattr(affine, "check_affine_map", lambda *args: commutation)
    rep = geometric_affinity_check(EuclideanModel(1), lambda p: p, [TRIPLE])
    assert math.isnan(rep.metadata["commutation_defect"])


def test_reversed_collinear_search_is_nan_on_a_nan_pair(monkeypatch):
    H = HeisenbergModel(1)
    X, Y, Z = H.point([0.1, 0.0], 0.0), H.point([0.0, 0.1], 0.0), H.point([0.1, 0.1], 0.0)
    probes = H.sample_ball(H.origin(), 0.05, 2, np.random.default_rng(0))
    distance = H.distance

    def one_nan(p, q):
        d = np.array(distance(p, q))
        d[3] = NAN
        return d

    monkeypatch.setattr(H, "distance", one_nan)
    assert math.isnan(reversed_collinear_search(H, X, Y, Z, resolution=3, probes=probes))


def test_a_nan_menelaos_gap_never_converges():
    # a NaN gap is within no tol and shrinks no gap: five stalled steps raise
    H = HeisenbergModel(1)
    x, y, half = H.point([NAN, 0.0], 0.0), H.point([0.0, 1.0], 0.0), PR.scale(0.5)
    steps = []
    with pytest.raises(MaxIterExceeded, match="stalled for 5"):
        affine._menelaos_walk(H, x, half, y, half, FIXED_POINT_TOL, MAX_ITER,
                              lambda *pair: steps.append(pair))
    assert len(steps) == 5
    with pytest.raises(MaxIterExceeded, match="stalled for 5"):
        distance_estimates_check(H, x, y, half, half)


@pytest.mark.parametrize("transport", ["dilatation", "metric"])
def test_a_nan_point_leaves_the_chart_ball(transport):
    S = PullbackModel(EuclideanModel(2), "cubic", transport)
    nan_row, rows = np.array([NAN, 0.1]), np.array([[0.1, 0.0], [NAN, 0.1]])
    for p in (nan_row, rows):
        with pytest.raises(DomainViolation, match="chart ball"):
            if transport == "metric":
                S.distance(S.origin(), p)
            else:
                S.dilate(S.origin(), PR.scale(0.5), p)


def test_a_nan_distance_makes_the_lipschitz_estimate_nan():
    # only a pair of coincident points adds 0.0 to the estimate
    E, p, q = EuclideanModel(2), np.array([0.1, 0.0]), np.array([0.0, 0.1])
    for pairs, lip in (([(p, q), (p, np.array([NAN, 0.1]))], NAN), ([(p, p), (p, q)], 2.0)):
        rep = check_affine_map(E, lambda a: 2 * a, pairs, PR.grid([1, 2]))
        assert repr(rep.metadata["lipschitz_estimate"]) == repr(lip)


class _NanGapPullback(PullbackModel):
    """The cubic pullback with every coordinate gap NaN."""

    def coordinate_gap(self, p, q):
        return super().coordinate_gap(p, q) * NAN


def test_cauchy_a4_fails_on_nan_coordinate_gaps():
    S = _NanGapPullback(EuclideanModel(2), "cubic", "dilatation")
    rep = verify_axiom(S, "A4", Ball(S.origin(), 0.05), PR.grid(range(2, 8)),
                       sample_count=4, seed=0, reference="cauchy")
    assert not rep.verdict and rep.metadata["broke_at"] == 0


# --- an empty sample has nothing to certify -----------------------------------

def test_check_collinear_rejects_an_empty_probe_set():
    with pytest.raises(ValueError, match=EMPTY):
        check_collinear(EuclideanModel(1), TRIPLE, probes=[])


def test_geometric_affinity_rejects_an_empty_triple_sample():
    with pytest.raises(ValueError, match=EMPTY):
        geometric_affinity_check(EuclideanModel(1), lambda p: p, [])


def test_check_affine_map_rejects_an_empty_scale_set():
    samples = [(np.array([0.1]), np.array([0.2]))]
    with pytest.raises(ValueError, match=EMPTY):
        check_affine_map(EuclideanModel(1), lambda p: p, samples, [])


H1 = HeisenbergModel(1)
X, Y, Z = H1.point([0.1, 0.0], 0.0), H1.point([0.0, 0.1], 0.0), H1.point([0.1, 0.1], 0.0)

# entry points whose verdict or value would otherwise rest on no sample at all
EMPTY_SAMPLES = {
    "check_affine_map": lambda: check_affine_map(EuclideanModel(1), lambda p: p, [],
                                                 PR.grid([1, 2])),
    "metric_tangent_scan": lambda: metric_tangent_scan(H1, H1.origin(), PR.grid([2, 3]),
                                                       sample_count=0),
    "counterexample_check": lambda: counterexample_check(
        ComplexHeisenbergModel(), 0.5, np.array([1.0, 0.0, 1.0]), probes=[], flip=False),
    # 0.0 would read as a reversed triple found
    "reversed_collinear_search": lambda: reversed_collinear_search(H1, X, Y, Z, resolution=3,
                                                                   probes=[]),
    "shift_isometry_defect": lambda: shift_isometry_defect(H1, X, PR.scale(0.5), Y, []),
}


@pytest.mark.parametrize("entry", list(EMPTY_SAMPLES))
def test_an_empty_sample_raises(entry):
    with pytest.raises(ValueError):
        EMPTY_SAMPLES[entry]()


def test_metric_tangent_scan_needs_two_samples():
    # one sample pairs only with itself, at distance 0 in every gauge
    with pytest.raises(ValueError, match="at least 2 samples"):
        metric_tangent_scan(H1, H1.origin(), PR.grid([2, 3]), sample_count=1)


# --- the reports outside the harness, bit for bit -------------------------------

def _pinned_reports():
    """Each report entry point outside verify_axiom on seed-0 inputs, by name."""
    rng = np.random.default_rng(0)
    pull = PullbackModel(EuclideanModel(2))
    x, y, z = rng.uniform(-0.05, 0.05, (3, 2))
    hx, hu, hw = rng.uniform(-0.3, 0.3, (3, 3))
    translate = H1.left_translation(hw)
    pairs = [tuple(rng.uniform(-0.3, 0.3, (2, 3))) for _ in range(4)]
    triple = collinear_triple_from_ratio(H1, hx, hu, 0.5, 0.25)
    cxr = ComplexHeisenbergModel()
    probes = affine.probe_points(cxr, cxr.identity(), 1.0, 0)
    Y = cxr.point(1.0 + 0.0j, 1.0)
    exact_grid = [H1.to_exact_scale(e) for e in PR.grid(range(2, 9))]
    reports = {
        "inflin_scan": lambda: inflin_scan(pull, x, y, z, PR.grid(range(3, 11))),
        "plin1_scan": lambda: plin1_scan(pull, x, y, z, PR.grid(range(3, 11))),
        "metric_tangent_scan": lambda: metric_tangent_scan(pull, pull.origin(),
                                                           PR.grid(range(2, 9)), 8, seed=0),
        "check_affine_map": lambda: check_affine_map(H1, translate, pairs, PR.grid([1, 2, 3])),
        "pansu_derivative": lambda: pansu_derivative(
            H1, H1, lambda p: p, H1.to_exact(hx), H1.to_exact(hu), exact_grid)[1],
        **{f"tangent_limit-{which}": lambda which=which: tangent_limit(
            pull, x, y, z, which, PR.grid(range(2, 7)))[1] for which in LIMIT_OPS},
        "estimate_dx": lambda: estimate_dx(pull, x, y, z, PR.grid(range(2, 9)))[1],
        "check_collinear": lambda: check_collinear(H1, triple),
        "geometric_affinity_check": lambda: geometric_affinity_check(H1, translate, [triple]),
        "counterexample_check-flip": lambda: counterexample_check(cxr, 0.5, Y, probes),
        "counterexample_check-control": lambda: counterexample_check(cxr, 0.5, Y, probes,
                                                                     flip=False),
    }
    return {name: run() for name, run in reports.items()}


# sha256 over each report's verdict and the float.hex of its defects
PINNED_DIGESTS = {
    "inflin_scan":
        "102e832a3520fb0ec25f44837d4a6c414d05c91f3961d293f718ea1e21280d16",
    "plin1_scan":
        "4f63a8c0906768ec3e24afc73fcdd7bfc79f08c3c441dbd22d48188353c0e8b6",
    "metric_tangent_scan":
        "16b279d0920cb43910663de80415452d214070b639290e263e532be0aff19b3b",
    "check_affine_map":
        "f0da94b2a5393c789fc1f4ebbe552448cf5afb610cf600f88ffd4f022fef36d0",
    "pansu_derivative":
        "fdb2407fc4e95c594676e706db22ea7ccb3ea4864162e660a67bc705026ca862",
    "tangent_limit-sum":
        "e83e853c0042269160ecc9b163557c927bd596c5e563fa095de70277307160dc",
    "tangent_limit-difference":
        "21fc12d09c14c3f684023fbf542d371577b60ea194e6267660e3c331db413392",
    "tangent_limit-inverse":
        "1d079be3b5afb4f6f48fff44ea6b491df7adb01416a682ccbbd42f9f877404be",
    "estimate_dx":
        "5a28bdc14dd7a21261373f44a17ed01d2ceae14cecb7a7626d47836503c601e6",
    "check_collinear":
        "91fe9fa54c2ed0b4b9cf420510b083f23ba6a9564463acb4c57bd6ac4ec548ea",
    "geometric_affinity_check":
        "3e8b656a8f44ce151ee9e64e03d17d9d987c62d239cbe1715fec2d9d91844807",
    "counterexample_check-flip":
        "9b5a92dab29e08607164fa5fb473950d1350f52425dfbb0f0519ed98bc637b52",
    "counterexample_check-control":
        "6d23fa046e3dbed0fc526ada7acb7d0d893c6a43c05f490ccc70345bb47a2df1",
}


def test_reports_outside_the_harness_are_pinned():
    got = {}
    for name, rep in _pinned_reports().items():
        text = f"{name} {rep.verdict} {[d.hex() for d in rep.defect]}\n"
        got[name] = hashlib.sha256(text.encode()).hexdigest()
    assert got == PINNED_DIGESTS, (
        f"reports outside the harness moved; if no change to the lab meant to move them, a "
        f"possible cause is the BLAS kernel, {blas_kernel()}, rounding float dots other than "
        f"the kernel they were recorded under (see the probes in tests/test_batch.py)")
