"""core.reports holds the lab's one sup rule, its one NaN rule and its one
emptiness rule: a NaN residual is the worst value, so it makes every sup NaN
and fails every verdict built on it, wherever in the sample it falls, and an
empty sample raises ValueError, since a sup over nothing would pass anything."""

import ast
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
    CollinearTriple, check_collinear, counterexample_check, geometric_affinity_check,
    reversed_collinear_search)
from dilatation_lab.core.harness import verify_axiom
from dilatation_lab.config import CAUCHY_SHRINK, DEFECT_FLOOR
from dilatation_lab.core.reports import dies_out, make_report, nonincreasing, settles, sup
from dilatation_lab.core.scales import POSITIVE_REALS as PR
from dilatation_lab.core.structure import Ball, Rows
from dilatation_lab.emergent import (
    check_affine_map, metric_tangent_scan, pansu_derivative, shift_isometry_defect)
from dilatation_lab.errors import NonConvergent
from dilatation_lab.models.base import ExactPoint
from dilatation_lab.models import (
    CarnotModel, ComplexHeisenbergModel, EuclideanModel, HeisenbergModel, PullbackModel,
    engel_structure_constants, heisenberg_structure_constants)

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


SETTLING_FACTORS = {"CAUCHY_SHRINK", "JITTER_FACTOR", "DECAY_FACTOR"}
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
    # nonincreasing, settles and dies_out read the sequence factors; trend_grid
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


# --- a NaN residual fails every verdict, in whichever place it falls ----------

NAN_ORDERS = [[NAN, 1e-20], [1e-20, NAN]]
TRIPLE = CollinearTriple(np.array([0.0]), np.array([1.0]), np.array([1.0 / 3.0]), 0.5, 0.5)


def _returning(values):
    """A stub residual that returns the values in turn, whatever it is asked."""
    it = iter(values)
    return lambda *args, **kwargs: next(it)


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


def test_coordinate_gap_is_nan_on_a_nan_coordinate():
    E = EuclideanModel(2)
    for p in ([0.1, NAN], [NAN, 0.1]):
        assert math.isnan(E.coordinate_gap(np.array(p), np.zeros(2)))


def test_a_nan_coordinate_gives_a_nan_gauge():
    engel = CarnotModel(3, *engel_structure_constants())
    p = np.array([0.5, 0.1, 0.0, NAN])
    assert math.isnan(engel.homogeneous_norm(p))
    assert math.isnan(engel.distance(engel.origin(), p))


def test_settles_keeps_the_cauchy_rule():
    assert settles([]) and settles([1e9]) and settles([math.inf])
    assert settles([1.0, 1.0 / CAUCHY_SHRINK + DEFECT_FLOOR])
    assert not settles([1.0, 1.0 / CAUCHY_SHRINK + 2 * DEFECT_FLOOR])
    # at or below the floor an increment always passes, and the next is held to it
    assert settles([1e-9, DEFECT_FLOOR, 1e-13, 0.0])
    assert not settles([1.0, DEFECT_FLOOR, 1e-9])
    for values in ([NAN], [1.0, NAN], [NAN, 0.0], [1.0, 0.5, NAN, 0.1]):
        assert not settles(values)


def test_reports_are_immutable():
    rep = make_report(PR.grid([2, 3]), [0.5, 0.25], True, {})
    with pytest.raises(FrozenInstanceError):
        rep.verdict = False


def test_nonincreasing_fails_on_a_nan_anywhere():
    for values in ([NAN], [1.0, NAN], [1.0, NAN, 5.0], [NAN, 1.0, 0.5]):
        assert not nonincreasing(values)
        assert not dies_out(values)
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
    # exact distance of the chosen sup is NaN
    E = EuclideanModel(2)
    distance, row_sup, sups, hit = E.distance, Rows.sup, [], []

    def counted_sup(self, f, *cols):
        sups.append(f)
        return row_sup(self, f, *cols)

    def nan_in_place(p, q):
        if type(p) is ExactPoint and len(sups) == place and not hit:
            hit.append(p)
            return NAN
        return distance(p, q)

    monkeypatch.setattr(Rows, "sup", counted_sup)
    monkeypatch.setattr(E, "distance", nan_in_place)
    rep = verify_axiom(E, "A1", Ball(E.origin(), 0.5), PR.grid(range(2, 6)), sample_count=4)
    assert hit and math.isnan(rep.defect[0]) and not rep.verdict


def test_check_affine_map_fails_on_a_nan_commutation_defect(monkeypatch):
    E = EuclideanModel(1)
    monkeypatch.setattr(E, "distance", lambda p, q: NAN)
    samples = [(np.array([0.1]), np.array([0.2]))]
    assert not check_affine_map(E, lambda p: p, samples, PR.grid([1, 2])).verdict


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


class _NanGapPullback(PullbackModel):
    """The cubic pullback with every coordinate gap NaN."""

    def coordinate_gap(self, p, q):
        return super().coordinate_gap(p, q) * NAN


def test_cauchy_a4_fails_on_nan_coordinate_gaps():
    S = _NanGapPullback(EuclideanModel(2), "cubic", "dilatation")
    rep = verify_axiom(S, "A4", Ball(S.origin(), 0.05), PR.grid(range(2, 8)),
                       sample_count=4, seed=0, reference="cauchy")
    assert not rep.verdict


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
