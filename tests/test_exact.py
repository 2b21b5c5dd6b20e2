"""Exact points against inline Fraction evaluations of each model's formulas.

Every vector group model computes on ``ExactPoint``s through one integer
kernel.  The references below are the defining formulas of each model,
written out over ``Fraction`` so that they share no code with the kernel.
"""

import math
import re
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dilatation_lab.affine import menelaos_iterate
from dilatation_lab.core.harness import verify_axiom
from dilatation_lab.core.scales import POSITIVE_REALS as PR, Scale
from dilatation_lab.core.structure import Ball
from dilatation_lab.emergent import inflin_scan
from dilatation_lab.errors import DomainViolation
from dilatation_lab.models import (
    CarnotModel, ComplexHeisenbergModel, EuclideanModel, ExactPoint, HeisenbergModel,
    engel_structure_constants, heisenberg_structure_constants)
from dilatation_lab.models import carnot

from conftest import STEP3_HALF


def _euclid_product(a, b):
    return [x + y for x, y in zip(a, b)]


def _heisenberg_product(n):
    def product(a, b):
        omega = sum(a[i] * b[n + i] - a[n + i] * b[i] for i in range(n))
        return ([x + y for x, y in zip(a[:2 * n], b[:2 * n])]
                + [a[2 * n] + b[2 * n] + omega / 2])
    return product


def _cxr_product(a, b):
    im_cross = a[1] * b[0] - a[0] * b[1]
    return [a[0] + b[0], a[1] + b[1], a[2] + b[2] + im_cross / 2]


def _engel_bracket(a, b):
    # [e0, e1] = e2, [e0, e2] = e3
    return [F(0), F(0), a[0] * b[1] - a[1] * b[0], a[0] * b[2] - a[2] * b[0]]


def _half_bracket(a, b):
    return [F(0), F(0), a[0] * b[1] - a[1] * b[0], a[0] * b[2] - a[2] * b[0],
            (a[1] * b[2] - a[2] * b[1]) / 2]


def _step3_product(bracket):
    def product(a, b):
        ab = bracket(a, b)
        aab = bracket(a, ab)
        bab = bracket(b, ab)
        return [x + y + z / 2 + (p - q) / 12 for x, y, z, p, q in zip(a, b, ab, aab, bab)]
    return product


# (model, product reference, homogeneous degree of each coordinate)
MODELS = [
    (EuclideanModel(2), _euclid_product, [1, 1]),
    (EuclideanModel(3), _euclid_product, [1, 1, 1]),
    (HeisenbergModel(1), _heisenberg_product(1), [1, 1, 2]),
    (HeisenbergModel(2), _heisenberg_product(2), [1, 1, 1, 1, 2]),
    (CarnotModel(2, *heisenberg_structure_constants(1)), _heisenberg_product(1), [1, 1, 2]),
    (CarnotModel(3, *engel_structure_constants()), _step3_product(_engel_bracket), [1, 1, 2, 3]),
    (CarnotModel(3, *STEP3_HALF), _step3_product(_half_bracket), [1, 1, 2, 3, 3]),
    (ComplexHeisenbergModel(), _cxr_product, [1, 1, 2]),
]
IDS = [m.name for m, _, _ in MODELS]

COORD = st.floats(-4.0, 4.0, allow_nan=False, allow_infinity=False)
# non-dyadic fractions, exact images of floats (dyadic) and their inverses
SCALE = st.one_of(
    st.fractions(F(-4), F(4), max_denominator=1000),
    COORD.map(F),
    st.floats(0.05, 4.0).map(lambda c: 1 / F(c)),
).filter(lambda f: f != 0)
# the scales the harness and the collinear triples produce
SPECIAL_SCALES = [F(0.3), 1 / F(0.3), -1 / F(0.3), 1 / (F(0.3) * F(0.7)), F(1, 12)]


def _points(dim, n):
    return st.lists(st.lists(COORD, min_size=dim, max_size=dim), min_size=n, max_size=n)


def _fractions(p: ExactPoint):
    return [F(n, p.den) for n in p.num]


def _check(got: ExactPoint, want):
    assert _fractions(got) == want
    assert got.to_float().tolist() == [float(w) for w in want]


def _scale(model, value):
    return Scale(model.scale_group, value)


def _dilate_by_definition(product, degrees, a, b, s):
    """x . delta_s(x^-1 y) over Fractions, from the group law and the layer degrees."""
    moved = product([-c for c in a], b)
    return product(a, [s ** d * c for d, c in zip(degrees, moved)])


@pytest.mark.parametrize("model,product,degrees", MODELS, ids=IDS)
def test_special_scales_dilate_exactly(model, product, degrees):
    a = [F(c) for c in np.linspace(-0.7, 0.9, model.coordinate_dim)]
    ea = model.to_exact(np.array([float(c) for c in a]))
    for e in SPECIAL_SCALES:
        _check(model.ambient_dilate(_scale(model, e), ea),
               [e ** d * c for d, c in zip(degrees, a)])


@pytest.mark.parametrize("model,product,degrees", MODELS, ids=IDS)
def test_exact_primitives_match_fraction_formulas(model, product, degrees):
    @settings(max_examples=25, deadline=None)
    @given(pts=_points(model.coordinate_dim, 2), e=SCALE)
    def check(pts, e):
        a, b = ([F(c) for c in p] for p in pts)
        ea, eb = (model.to_exact(np.array(p)) for p in pts)
        _check(ea, a)
        _check(model.group_product(ea, eb), product(a, b))
        _check(model.group_inverse(ea), [-c for c in a])
        _check(model.ambient_dilate(_scale(model, e), ea),
               [e ** d * c for d, c in zip(degrees, a)])
        # x . delta_eps(x^-1 y) from the definition, against the expanded form
        for s in (e, *SPECIAL_SCALES):
            eps = _scale(model, s)
            _check(model.dilate(ea, eps, eb), _dilate_by_definition(product, degrees, a, b, s))
            assert model.dilate(ea, eps, eb) == model.group_product(
                ea, model.ambient_dilate(eps, model.group_product(model.group_inverse(ea), eb)))

    check()


@pytest.mark.parametrize("model,product,degrees", MODELS, ids=IDS)
def test_exact_group_laws_hold_with_equality(model, product, degrees):
    @settings(max_examples=25, deadline=None)
    @given(pts=_points(model.coordinate_dim, 3), e=SCALE)
    def check(pts, e):
        a, b, c = (model.to_exact(np.array(p)) for p in pts)
        prod = model.group_product
        assert prod(prod(a, b), c) == prod(a, prod(b, c))
        assert prod(a, model.group_inverse(a)) == model.to_exact(model.identity())
        delta = lambda p: model.ambient_dilate(_scale(model, e), p)
        assert delta(prod(a, b)) == prod(delta(a), delta(b))

    check()


@pytest.mark.parametrize("model,product,degrees", MODELS, ids=IDS)
def test_exact_norm_rounds_exact_values(model, product, degrees):
    # the gauge sees the float of each exact sum of squares of a layer (and
    # of each single center coordinate), rounded once
    @settings(max_examples=25, deadline=None)
    @given(pts=_points(model.coordinate_dim, 2))
    def check(pts):
        a = product(*([F(c) for c in p] for p in pts))
        got = model.homogeneous_norm(model.group_product(
            *(model.to_exact(np.array(p)) for p in pts)))
        layers = [[c for c, d in zip(a, degrees) if d == i] for i in (1, 2, 3)]
        squares = [float(sum(c * c for c in layer)) for layer in layers if layer]
        if type(model) is CarnotModel:
            want = max(s ** (0.5 / i) for i, s in enumerate(squares, start=1))
        elif isinstance(model, EuclideanModel):
            want = math.sqrt(squares[0])
        else:
            center = float(a[-1])
            want = (squares[0] * squares[0] + 16.0 * center * center) ** 0.25
        assert got == want

    check()


def test_exact_points_refuse_floats():
    # a float point beside an exact one raises the TypeError that says so, in
    # either order, on every primitive: on compiled kernels, columns, whole
    # rows and the integer kernel alike, for a single float point and a batch
    models = [HeisenbergModel(1), HeisenbergModel(2), ComplexHeisenbergModel(), EuclideanModel(2),
              CarnotModel(3, *engel_structure_constants()),
              CarnotModel(2, *heisenberg_structure_constants(2))]
    mixing = r"do not mix"
    for model in models:
        f = np.random.default_rng(4).uniform(-1.0, 1.0, model.coordinate_dim)
        p, half = model.to_exact(f), model.scale_group.scale(0.5)
        for g in (f, np.stack([f, f])):
            for call in (lambda: g + p, lambda: g - p, lambda: p + g,
                         lambda: model.group_product(g, p), lambda: model.group_product(p, g),
                         lambda: model.dilate(g, half, p), lambda: model.dilate(p, half, g),
                         lambda: model.distance(g, p), lambda: model.distance(p, g),
                         lambda: model.coordinate_gap(g, p), lambda: model.coordinate_gap(p, g)):
                with pytest.raises(TypeError, match=mixing):
                    call()
        # the gauge takes one point, so it cannot mix: it reads either
        # arithmetic, and an exact point's gauge is its float value's up to roundoff
        assert model.homogeneous_norm(f) == pytest.approx(model.homogeneous_norm(p), rel=1e-15)
        assert model.coordinate_gap(f, f) == model.coordinate_gap(p, p) == 0.0
    cxr = models[2]
    with pytest.raises(TypeError):
        cxr.ambient_dilate(cxr.scale_group.scale(0.5j), cxr.to_exact(np.ones(3)))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_a_non_finite_coordinate_has_no_exact_value(bad):
    # exactify refuses it, naming the point, before from_floats would raise a
    # bare ValueError (NaN) or OverflowError (an infinity)
    H = HeisenbergModel(1)
    x, y, z, half = np.array([bad, 0.0, 0.0]), np.array([0.0, 1.0, 0.0]), np.zeros(3), PR.scale(0.5)
    with pytest.raises(DomainViolation, match=r"non-finite coordinate"):
        menelaos_iterate(H, x, half, y, half)
    with pytest.raises(DomainViolation, match=r"non-finite coordinate"):
        inflin_scan(H, x, y, z, PR.grid(range(2, 6)))


@pytest.mark.parametrize("model,product,degrees", MODELS, ids=IDS)
def test_equal_points_are_at_the_norm_of_the_identity(model, product, degrees):
    # equal exact points read 0.0 without a product; floats still take the formula
    zero = model.homogeneous_norm(model.to_exact(model.identity()))
    assert repr(zero) == "0.0"
    for p in np.random.default_rng(0).uniform(-1.0, 1.0, (4, model.coordinate_dim)):
        assert repr(model.distance(model.to_exact(p), model.to_exact(p.copy()))) == repr(zero)
        assert model.distance(p, p.copy()) == model.homogeneous_norm(
            model.group_product(model.group_inverse(p), p))


def _off_by_one(method):
    def mutant(self, *args):
        out = method(self, *args)
        return ExactPoint([out.num[0] + 1, *out.num[1:]], out.den)
    return mutant


@pytest.mark.parametrize("model,product,degrees", MODELS, ids=IDS)
def test_exact_dilate_builds_one_point(model, product, degrees, monkeypatch):
    # one expanded formula on every step: no kernel product, and a single
    # reduced point; the ambient dilatation is that formula based at the identity
    x, y = (model.to_exact(p) for p in
            np.random.default_rng(1).uniform(-1.0, 1.0, (2, model.coordinate_dim)))
    neutral = model.to_exact(model.identity())
    init = ExactPoint.__init__
    made = [0]

    def counting(self, *args):
        made[0] += 1
        init(self, *args)

    def refuse(*args):
        raise AssertionError("an exact dilate composed kernel calls")

    monkeypatch.setattr(ExactPoint, "__init__", counting)
    # the generated product is the model's own attribute, so it is refused there
    monkeypatch.setattr(model, "_exact_product", refuse)
    for e in (F(1), *SPECIAL_SCALES):
        made[0] = 0
        model.dilate(x, _scale(model, e), y)
        assert made[0] == 1, e
        assert model.ambient_dilate(_scale(model, e), y) == model.dilate(neutral, _scale(model, e), y)


def test_a_step3_dilate_over_12h_for_12h_squared_fails_where_h_is_2(monkeypatch):
    # a generator whose step-3 dilatation folds 12 h in place of 12 h^2 into its
    # denominator agrees with the definition where the constants are integers
    # (h = 1, Engel) and fails on STEP3_HALF, whose constant 1/2 makes h = 2
    generate = exec

    def mutant(source, *namespaces):
        # n = 12 h^2 dx dy names the denominator's constant; the mutant divides it by h
        h = math.isqrt(int(re.search(r"n = (\d+) \* dx \* dy", source)[1]) // 12)
        source, found = re.subn(r"\], n \* ", f"], n // {h} * ", source)
        assert found == 1
        generate(source, *namespaces)

    monkeypatch.setattr(carnot, "exec", mutant, raising=False)
    eps = F(3, 7)
    for constants, product, degrees, agrees in (
            (engel_structure_constants(), _step3_product(_engel_bracket), [1, 1, 2, 3], True),
            (STEP3_HALF, _step3_product(_half_bracket), [1, 1, 2, 3, 3], False)):
        model = CarnotModel(3, *constants)
        x, y = np.random.default_rng(2).uniform(-1.0, 1.0, (2, model.dim))
        got = model.dilate(model.to_exact(x), _scale(model, eps), model.to_exact(y))
        want = _dilate_by_definition(product, degrees, [F(c) for c in x], [F(c) for c in y], eps)
        assert (_fractions(got) == want) is agrees, model.name


# an exact dilate is one expanded formula on every step, so the sweeps meet
# a wrong exact dilatation through dilate alone
@pytest.mark.parametrize("model", [
    HeisenbergModel(1), CarnotModel(3, *engel_structure_constants())],
    ids=["heisenberg-1", "engel"])
def test_exact_sweeps_see_an_exact_dilatation_off_by_one(model, monkeypatch):
    # the shortcuts of the exact sweeps must not hide a wrong exact result
    monkeypatch.setattr(CarnotModel, "dilate", _off_by_one(CarnotModel.dilate))
    for axiom in ("A1", "A4"):
        rep = verify_axiom(model, axiom, Ball(model.origin(), 0.5),
                           model.scale_group.grid(range(2, 7)), 8)
        assert rep.metadata["arithmetic"] == "exact"
        assert not rep.verdict, axiom
