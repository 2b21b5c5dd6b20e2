"""Group laws, norms, dilatations and the JSON factory of the concrete models."""

import inspect
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from dilatation_lab.core.scales import COMPLEX_UNITS, POSITIVE_REALS as PR, RowScale
from dilatation_lab import models
from dilatation_lab.errors import ModelError
from dilatation_lab.models import (
    CarnotModel, ComplexHeisenbergModel, CubicChart, EuclideanModel, ExactPoint,
    HeisenbergModel, PullbackModel, from_json, heisenberg_structure_constants)
from dilatation_lab.errors import DomainViolation

HALF = PR.scale(0.5)
README = Path(__file__).resolve().parents[1] / "README.md"


# --- Heisenberg -------------------------------------------------------------

def test_heisenberg_product_example(heis1):
    a = heis1.point([1.0, 0.0], 0.0)
    b = heis1.point([0.0, 1.0], 0.0)
    assert np.allclose(heis1.group_product(a, b), [1.0, 1.0, 0.5])


def test_neutral_element_everywhere():
    from conftest import conical_models
    for model in conical_models():
        if model.name.startswith("dyadic"):
            a = model.point(37)
        else:
            a = np.linspace(0.1, 0.3, model.coordinate_dim)
        e = model.identity()
        assert model.distance(model.group_product(a, e), a) < 1e-15
        assert model.distance(model.group_product(e, a), a) < 1e-15
        assert model.distance(
            model.group_product(a, model.group_inverse(a)), e) < 1e-15


def test_group_associativity(heis1, heis2, engel, cxheis):
    rng = np.random.default_rng(2)
    for model in (heis1, heis2, engel, cxheis):
        for _ in range(10):
            a, b, c = (rng.uniform(-1, 1, model.coordinate_dim) for _ in range(3))
            lhs = model.group_product(model.group_product(a, b), c)
            rhs = model.group_product(a, model.group_product(b, c))
            assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_dilatation_is_automorphism(heis1, engel):
    rng = np.random.default_rng(4)
    for model in (heis1, engel):
        for _ in range(10):
            a, b = (rng.uniform(-1, 1, model.coordinate_dim) for _ in range(2))
            eps = PR.scale(float(rng.uniform(0.1, 0.9)))
            lhs = model.ambient_dilate(eps, model.group_product(a, b))
            rhs = model.group_product(model.ambient_dilate(eps, a),
                                      model.ambient_dilate(eps, b))
            assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_conical_dilate_spec_values(heis1):
    x = heis1.point([1.0, 0.0], 0.0)
    u = heis1.point([1.0, 1.0], 0.0)
    inner = heis1.group_product(heis1.group_inverse(x), u)
    assert np.allclose(inner, [0.0, 1.0, -0.5])
    got = heis1.dilate(x, HALF, u)
    assert np.allclose(got, [1.0, 0.5, 0.125])
    # base at the neutral element reduces to the ambient dilatation
    v = heis1.point([0.3, -0.2], 0.07)
    assert np.allclose(heis1.dilate(heis1.identity(), HALF, v),
                       heis1.ambient_dilate(HALF, v))


def test_cygan_norm_values_and_homogeneity(heis1):
    assert heis1.homogeneous_norm(heis1.identity()) == 0.0
    assert heis1.homogeneous_norm(heis1.point([0.0, 0.0], 1.0)) == pytest.approx(2.0)
    half_img = heis1.ambient_dilate(HALF, heis1.point([0.0, 0.0], 1.0))
    assert heis1.homogeneous_norm(half_img) == pytest.approx(1.0)
    rng = np.random.default_rng(6)
    for _ in range(50):
        a = rng.uniform(-1, 1, 3)
        eps = PR.scale(float(rng.uniform(0.05, 2.0)))
        assert heis1.homogeneous_norm(heis1.ambient_dilate(eps, a)) == pytest.approx(
            eps.nu * heis1.homogeneous_norm(a), rel=1e-12)


def test_cygan_norm_subadditive(heis1, heis2):
    rng = np.random.default_rng(8)
    for model in (heis1, heis2):
        for _ in range(200):
            a = rng.uniform(-1, 1, model.coordinate_dim)
            b = rng.uniform(-1, 1, model.coordinate_dim)
            assert model.homogeneous_norm(model.group_product(a, b)) <= (
                model.homogeneous_norm(a) + model.homogeneous_norm(b) + 1e-12)


def test_left_translation_is_isometry(heis1):
    rng = np.random.default_rng(9)
    for _ in range(100):
        w, a, b = (rng.uniform(-1, 1, 3) for _ in range(3))
        L = heis1.left_translation(w)
        assert heis1.distance(L(a), L(b)) == pytest.approx(
            heis1.distance(a, b), abs=1e-12)


def test_left_translation_by_neutral_is_identity(heis1):
    L = heis1.left_translation(heis1.identity())
    p = heis1.point([0.3, -0.4], 0.2)
    assert np.allclose(L(p), p)


def test_base_inverse_identity(heis1):
    rng = np.random.default_rng(10)
    for _ in range(20):
        u, x = (rng.uniform(-1, 1, 3) for _ in range(2))
        # x +_u inv^u(x) = u, with +_u the group operation re-zeroed at u
        got = heis1.group_product(
            heis1.group_product(x, heis1.group_inverse(u)), heis1.base_inverse(u, x))
        assert np.max(np.abs(got - u)) < 1e-12


# --- Carnot -----------------------------------------------------------------

def test_carnot_step2_reproduces_heisenberg(carnot_h1, heis1):
    # H(1) takes the product compiled from its table, so the two agree bit for bit
    rng = np.random.default_rng(12)
    for _ in range(50):
        a, b = (rng.uniform(-1, 1, 3) for _ in range(2))
        assert carnot_h1.group_product(a, b).tobytes() == heis1.group_product(a, b).tobytes()


def test_every_model_takes_one_layer_factor_rule(engel):
    # layer i of a dilatation is e^i as the product e * ... * e on every Carnot
    # model: at a scale where e ** 2 != e * e and e ** 3 != e * e * e, a generic
    # model built from H(1)'s table dilates as H(1) bit for bit, C x R's centre
    # reads e * e and Engel's layer 3 e * e * e, on a single point (the generated
    # kernel), on batch rows (the columns), under a per-row scale and in
    # ambient_dilate alike
    rng = np.random.default_rng(2)
    e = next(v for v in rng.uniform(0.01, 4.0, 100_000).tolist()
             if v ** 2 != v * v and v ** 3 != v * v * v)

    def paths(model, x, y):
        eps = model.scale_group.scale(e)
        per_row = RowScale.of([eps] * 4)
        X, Y = np.tile(x, (4, 1)), np.tile(y, (4, 1))
        return [model.dilate(x, eps, y), *model.dilate(X, eps, Y), *model.dilate(X, per_row, Y),
                model.ambient_dilate(eps, y), *model.ambient_dilate(per_row, Y)]

    h1, generic = HeisenbergModel(1), CarnotModel(2, *heisenberg_structure_constants(1))
    centre = np.array([0.0, 0.0, 1.0])
    for x, y in [(h1.identity(), centre), *rng.uniform(-2.0, 2.0, (8, 2, 3))]:
        assert [p.tobytes() for p in paths(generic, x, y)] == [p.tobytes() for p in paths(h1, x, y)]
    for model in (h1, generic, ComplexHeisenbergModel()):
        assert [float(p[2]).hex() for p in paths(model, model.identity(), centre)] == \
            [(e * e).hex()] * 14, model.name
    top = np.array([0.0, 0.0, 0.0, 1.0])
    assert [float(p[3]).hex() for p in paths(engel, engel.identity(), top)] == \
        [(e * e * e).hex()] * 14


def test_carnot_homogeneous_dimension(engel, carnot_h1):
    assert carnot_h1.homogeneous_dimension == 4
    assert engel.homogeneous_dimension == 7


def test_carnot_rejects_bad_specs():
    with pytest.raises(ModelError):
        CarnotModel(4, [2, 1, 1, 1], [])
    with pytest.raises(ModelError):
        CarnotModel(2, [2], [[0, 1, 2, 1.0]])
    # grading violation: [V1, V1] must land in V2
    with pytest.raises(ModelError):
        CarnotModel(2, [2, 1], [[0, 1, 1, 1.0]])
    # Jacobi violation on a step-3 algebra: [e0,e1]=e3-ish inconsistencies
    with pytest.raises(ModelError):
        CarnotModel(3, [3, 2, 1], [
            [0, 1, 3, 1.0], [1, 2, 4, 1.0], [0, 2, 3, 1.0],
            [0, 3, 5, 1.0], [1, 4, 5, -1.0], [2, 3, 5, 1.0],
        ])


def test_carnot_jacobi_check_holds_the_sum_to_its_tolerance():
    # [e0,[e1,e2]] + [e1,[e2,e0]] + [e2,[e0,e1]] = (0.1 + 0.2 - 0.3) e6: about
    # 2.8e-17 exactly (5.6e-17 in floats), inside JACOBI_TOL, so the table builds;
    # with -0.29 the sum is 0.01 and the triple (0, 1, 2) is named
    def brackets(c):
        return [[0, 1, 3, 1.0], [1, 2, 4, 1.0], [2, 0, 5, 1.0],
                [0, 4, 6, 0.1], [1, 5, 6, 0.2], [2, 3, 6, c]]
    CarnotModel(3, [3, 3, 1], brackets(-0.3))
    with pytest.raises(ModelError, match=re.escape("triple (0,1,2)")):
        CarnotModel(3, [3, 3, 1], brackets(-0.29))


def test_carnot_quasi_norm_constant_reported(engel):
    c = engel.subadditivity_constant(samples=200, seed=0)
    assert 0.5 < c < 3.0


def test_carnot_dilatation_homogeneity(engel):
    rng = np.random.default_rng(13)
    for _ in range(100):
        a = rng.uniform(-1, 1, engel.dim)
        eps = PR.scale(float(rng.uniform(0.05, 1.5)))
        assert engel.homogeneous_norm(engel.ambient_dilate(eps, a)) == pytest.approx(
            eps.nu * engel.homogeneous_norm(a), rel=1e-12)


# --- complex Heisenberg ------------------------------------------------------

def test_complex_scale_group_non_injective(cxheis):
    eps = COMPLEX_UNITS.scale(complex(0.5, 0.0))
    rotated = COMPLEX_UNITS.scale(0.5 * complex(math.cos(0.7), math.sin(0.7)))
    assert eps.value != rotated.value and eps.nu == pytest.approx(rotated.nu)
    a = cxheis.point(0.3 + 0.4j, 0.2)
    img1 = cxheis.ambient_dilate(eps, a)
    img2 = cxheis.ambient_dilate(rotated, a)
    assert cxheis.homogeneous_norm(img1) == pytest.approx(cxheis.homogeneous_norm(img2))
    assert not np.allclose(img1, img2)


def test_complex_dilatation_is_automorphism(cxheis):
    rng = np.random.default_rng(14)
    for _ in range(20):
        a, b = (rng.uniform(-1, 1, 3) for _ in range(2))
        theta = float(rng.uniform(0, 2 * math.pi))
        eps = COMPLEX_UNITS.scale(0.6 * complex(math.cos(theta), math.sin(theta)))
        lhs = cxheis.ambient_dilate(eps, cxheis.group_product(a, b))
        rhs = cxheis.group_product(cxheis.ambient_dilate(eps, a),
                                   cxheis.ambient_dilate(eps, b))
        assert np.max(np.abs(lhs - rhs)) < 1e-12


# --- pullback ----------------------------------------------------------------

def test_cubic_chart_roundtrip(cubic_pullback):
    chart = cubic_pullback.chart
    v = np.linspace(-0.5, 0.5, 41)
    assert np.max(np.abs(chart.inverse(chart.forward(v)) - v)) < 1e-14
    assert np.max(np.abs(chart.forward(chart.inverse(v)) - v)) < 1e-14


def test_pullback_dilate_group_axiom(cubic_pullback):
    x = np.array([0.05, -0.02])
    y = np.array([0.2, 0.1])
    a = cubic_pullback.dilate(x, HALF, cubic_pullback.dilate(x, HALF, y))
    b = cubic_pullback.dilate(x, HALF * HALF, y)
    assert np.max(np.abs(a - b)) < 1e-13
    assert np.allclose(cubic_pullback.dilate(x, PR.one, y), y)
    assert np.allclose(cubic_pullback.dilate(x, HALF, x), x)


def test_pullback_domain_guard(cubic_pullback):
    x = np.zeros(2)
    with pytest.raises(DomainViolation):
        cubic_pullback.dilate(x, HALF, np.array([0.9, 0.0]))
    with pytest.raises(DomainViolation):
        cubic_pullback.dilate(x, PR.scale(64.0).inverse().inverse(), np.array([0.3, 0.0]))


def test_pullback_requires_euclidean_base(heis1):
    with pytest.raises(ModelError):
        PullbackModel(heis1, "cubic")


def test_metric_pullback_keeps_euclid_maps(metric_pullback_1d):
    # the metric transport reads only the distance through the chart: its
    # dilatations and tangent operations are the Euclidean ones, bit for bit
    M = metric_pullback_1d
    X, U, V = np.random.default_rng(0).uniform(-0.4, 0.4, (3, 8, 1))
    X[0], U[0], V[0] = 0.0, -0.0, 0.0
    for x, u, v in ((X[1], U[1], V[1]), (X[0], U[0], V[0]), (X, U, V)):
        for got, want in ((M.dilate(x, HALF, u), x + (u - x) * 0.5),
                          (M.tangent_sum(x, u, v), u - x + v),
                          (M.tangent_difference(x, u, v), x - u + v),
                          (M.tangent_inverse(x, u), x - u + x)):
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))
    x, y = np.array([0.1]), np.array([0.3])
    d = M.distance(x, y)
    phi = lambda t: t + t ** 3
    assert d == pytest.approx(abs(phi(0.1) - phi(0.3)))


# --- JSON factory -------------------------------------------------------------

def test_factory_builds_every_kind():
    layers, brackets = heisenberg_structure_constants(1)
    descs = [
        {"model": "euclidean", "n": 2},
        {"model": "heisenberg", "n": 1},
        {"model": "carnot", "step": 2, "layers": layers, "brackets": brackets},
        {"model": "dyadic", "precision": 64},
        {"model": "complex_heisenberg"},
        {"model": "pullback", "base": {"model": "euclidean", "n": 2}, "chart": "cubic"},
    ]
    names = [from_json(d).name for d in descs]
    assert names == ["euclidean-2d", "heisenberg-1", "carnot-step2-2x1",
                     "dyadic-64", "complex-heisenberg",
                     "pullback-cubic-dilatation-2d"]


def test_factory_rejects_unknown_fields():
    with pytest.raises(ModelError):
        from_json({"model": "euclidean", "n": 2, "extra": 1})
    with pytest.raises(ModelError):
        from_json({"model": "nonsense"})
    with pytest.raises(ModelError):
        from_json({"model": "heisenberg"})
    with pytest.raises(ModelError):
        from_json({"model": "pullback", "base": {"model": "euclidean", "n": 2},
                   "chart": "quartic"})
    with pytest.raises(ModelError):
        from_json({"model": "pullback", "base": {"model": "euclidean", "n": 2},
                   "radius": 0.5})
    with pytest.raises(ModelError):
        from_json({"model": "euclidean", "n": 2, "p": 2})
    with pytest.raises(ModelError):
        from_json({"model": "dyadic", "precision": "64"})
    # integer fields take integers only: no bool, float or string
    layers, brackets = heisenberg_structure_constants(1)
    for desc in ({"model": "euclidean", "n": 2.5}, {"model": "euclidean", "n": 2.0},
                 {"model": "heisenberg", "n": True}, {"model": "dyadic", "precision": 64.9},
                 {"model": "carnot", "step": 2.0, "layers": layers, "brackets": brackets},
                 {"model": "carnot", "step": 2, "layers": [2.7, 1], "brackets": brackets},
                 {"model": "carnot", "step": 2, "layers": layers,
                  "brackets": [[0.9, 1, 2, 1.0]]},
                 {"model": "carnot", "step": 2, "layers": layers,
                  "brackets": [[0, 1, "2", 1.0]]},
                 # and a bracket constant is a finite real number: no string,
                 # bool, infinity or NaN
                 *({"model": "carnot", "step": 2, "layers": layers, "brackets": [[0, 1, 2, c]]}
                   for c in ("1.0", True, math.inf, -math.inf, math.nan))):
        with pytest.raises(ModelError):
            from_json(desc)


def test_readme_lists_each_models_fields():
    # every example description names exactly its kind's constructor parameters
    lines = re.findall(r'^\{"model": .*\}$', README.read_text(), re.MULTILINE)
    documented = {desc["model"]: set(desc) - {"model"} for desc in map(json.loads, lines)}
    assert documented == {kind: set(inspect.signature(cls).parameters)
                          for kind, cls in models._KINDS.items()}


def test_pullback_takes_only_the_cubic_chart_by_name(euclid2):
    with pytest.raises(ModelError):
        PullbackModel(euclid2, CubicChart())


def test_sample_ball_stays_inside():
    from conftest import conical_models
    rng = np.random.default_rng(20)
    for model in conical_models():
        center = model.origin()
        for radius in (0.5, 0.05):
            for p in model.sample_ball(center, radius, 16, rng):
                assert model.distance(center, p) <= radius + 1e-12


def test_sample_ball_around_an_exact_center_is_exact():
    from conftest import conical_models
    for model in conical_models():
        if not isinstance(model, CarnotModel):
            continue
        center = model.origin() + 0.01
        floats = model.sample_ball(center, 0.2, 12, np.random.default_rng(4))
        exact = model.sample_ball(model.to_exact(center), 0.2, 12,
                                  np.random.default_rng(4))
        assert all(type(p) is ExactPoint for p in exact), model.name
        assert exact == [model.to_exact(p) for p in floats], model.name


def test_sample_ball_raises_when_no_candidate_lands_inside():
    # a distance that does not shrink with the offset: halving never helps
    class Far(EuclideanModel):
        def distance(self, p, q):
            return 1.0

    with pytest.raises(DomainViolation):
        Far(2).sample_ball(np.zeros(2), 0.5, 4, np.random.default_rng(0))


def test_every_model_is_a_carnot_model_with_its_own_name():
    models = {EuclideanModel(2): "euclidean-2d", HeisenbergModel(2): "heisenberg-2",
              ComplexHeisenbergModel(): "complex-heisenberg"}
    for model, name in models.items():
        assert isinstance(model, CarnotModel) and model.name == name
