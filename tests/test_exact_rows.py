"""Exact batches (``ExactRows``) against the single exact points of their rows.

An exact batch runs each generated exact kernel once over all its rows, and
a single point is that kernel's one-row batch; every row of a batch must be
``==`` to its single-point result, and every float read off a batch must be
the single point's bit for bit.
"""

from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dilatation_lab.core.harness import verify_axiom
from dilatation_lab.core.scales import POSITIVE_REALS as PR, Scale
from dilatation_lab.core.structure import Ball, Rows
from dilatation_lab.models import (
    CarnotModel, ComplexHeisenbergModel, DyadicBoundaryModel, EuclideanModel, ExactPoint,
    ExactRows, HeisenbergModel, engel_structure_constants)

from conftest import STEP3_HALF

MODELS = {
    "euclidean-2d": EuclideanModel(2),
    "heisenberg-1": HeisenbergModel(1),
    "heisenberg-2": HeisenbergModel(2),
    "engel": CarnotModel(3, *engel_structure_constants()),
    "cxr": ComplexHeisenbergModel(),
    "step3-half": CarnotModel(3, *STEP3_HALF),
}
# the exact scales of the op dump: 1, 2^-k, a non-dyadic contraction, an
# expansion and a negative scale
SCALES = st.one_of(st.just(F(1)), st.integers(1, 12).map(lambda k: F(1, 2 ** k)),
                   st.sampled_from([F(3, 7), F(5, 2), F(-2, 3)]))
COORD = st.floats(-4.0, 4.0, allow_nan=False, allow_infinity=False)


def _batch(dim):
    """Two batches of the same number of rows, and a single point, as exact points;
    zeros and repeated rows often, so equal rows and shared factors show."""
    row = st.lists(st.one_of(st.just(0.0), COORD), min_size=dim, max_size=dim)
    return st.integers(1, 5).flatmap(lambda n: st.tuples(
        st.lists(row, min_size=n, max_size=n), st.lists(row, min_size=n, max_size=n), row))


def _exact(model, rows):
    return [model.to_exact(np.array(r)) for r in rows]


def _same_floats(batch, singles):
    assert isinstance(batch, np.ndarray) and batch.shape == (len(singles),)
    assert [v.hex() for v in batch.tolist()] == [float(v).hex() for v in singles]


@pytest.mark.parametrize("name", list(MODELS))
def test_each_batch_row_is_its_single_point_result(name):
    model = MODELS[name]

    @settings(max_examples=30, deadline=None)
    @given(drawn=_batch(model.coordinate_dim), e=SCALES)
    def check(drawn, e):
        xs, ys, (z,) = _exact(model, drawn[0]), _exact(model, drawn[1]), _exact(model, [drawn[2]])
        X, Y = ExactPoint.stack(xs), ExactPoint.stack(ys)
        eps = Scale(model.scale_group, e)
        pairs = {
            "group_product": (model.group_product(X, Y),
                              [model.group_product(x, y) for x, y in zip(xs, ys)]),
            "dilate": (model.dilate(X, eps, Y), [model.dilate(x, eps, y) for x, y in zip(xs, ys)]),
            "ambient_dilate": (model.ambient_dilate(eps, X),
                               [model.ambient_dilate(eps, x) for x in xs]),
            # a single point beside a batch, either side
            "point-product": (model.group_product(z, Y), [model.group_product(z, y) for y in ys]),
            "point-dilate": (model.dilate(z, eps, Y), [model.dilate(z, eps, y) for y in ys]),
            "dilate-point": (model.dilate(X, eps, z), [model.dilate(x, eps, z) for x in xs]),
        }
        for op, (batch, singles) in pairs.items():
            assert type(batch) is ExactRows, op
            assert [batch[k] for k in range(len(batch))] == singles, op
            # the canonical form: the batch of the single results, stacked
            assert batch == ExactPoint.stack(singles), op
        _same_floats(model.homogeneous_norm(X), [model.homogeneous_norm(x) for x in xs])
        _same_floats(model.distance(X, Y), [model.distance(x, y) for x, y in zip(xs, ys)])
        _same_floats(model.distance(X, X), [model.distance(x, x) for x in xs])
        _same_floats(model.distance(z, Y), [model.distance(z, y) for y in ys])
        _same_floats(model.coordinate_gap(X, Y),
                     [model.coordinate_gap(x, y) for x, y in zip(xs, ys)])

    check()


def test_a_batch_is_in_lowest_terms_whatever_its_rows_were_given_in():
    # the same rationals over 8, over 4, and row by row reduced: one batch
    a = ExactRows([(2, 4), (6, 8)], 8)
    b = ExactRows([(1, 2), (3, 4)], 4)
    c = ExactPoint.stack([ExactPoint([2, 4], 8), ExactPoint([6, 8], 8)])
    assert a == b == c
    assert (a.rows, a.den) == ([(1, 2), (3, 4)], 4)
    # the denominator is the lcm of the rows' reduced ones, here 1 and 3
    d = ExactRows([(3, 6), (1, 2)], 3)
    assert (d.rows, d.den) == ([(3, 6), (1, 2)], 3) and d[0] == ExactPoint([1, 2])
    assert ExactRows([(2, 4), (6, 9)], 12) != ExactRows([(2, 4), (6, 8)], 12)


@pytest.mark.parametrize("name", list(MODELS))
def test_an_identity_batch_is_equal_to_its_input(name):
    # delta^x_1 y = y: the kernel's batch at scale 1 is the input batch, ==, so
    # the sweeps' distance reads 0.0 on every row without a product
    model = MODELS[name]
    pts = np.random.default_rng(3).uniform(-1.0, 1.0, (6, model.coordinate_dim))
    X, Y = (ExactPoint.stack([model.to_exact(p) for p in half]) for half in (pts[:3], pts[3:]))
    one = Scale(model.scale_group, F(1))
    assert model.dilate(X, one, Y) == Y
    assert model.ambient_dilate(one, Y) == Y
    assert model.group_product(-Y, Y) == ExactPoint.stack([model.to_exact(np.zeros_like(p))
                                                            for p in pts[3:]])
    zeros = model.distance(model.dilate(X, one, Y), Y)
    assert zeros.tolist() == [0.0] * 3


@pytest.mark.parametrize("name", list(MODELS))
def test_exact_batches_do_not_mix_with_floats(name):
    model = MODELS[name]
    p = np.random.default_rng(4).uniform(-1.0, 1.0, (2, model.coordinate_dim))
    X, eps = ExactPoint.stack([model.to_exact(q) for q in p]), Scale(model.scale_group, F(1, 2))
    float_eps = Scale(model.scale_group, 0.5)
    for call in (lambda: model.group_product(X, p), lambda: model.group_product(p, X),
                 lambda: model.group_product(p[0], X), lambda: model.dilate(X, eps, p),
                 lambda: model.dilate(p, float_eps, X), lambda: model.dilate(p[0], float_eps, X),
                 lambda: model.distance(X, p), lambda: model.distance(p, X),
                 lambda: model.coordinate_gap(X, p), lambda: model.coordinate_gap(p, X),
                 lambda: X + p, lambda: p - X):
        with pytest.raises(TypeError, match="do not mix"):
            call()
    with pytest.raises(ValueError, match="do not pair"):
        model.group_product(X, ExactPoint.stack([model.to_exact(q) for q in (*p, p[0])]))


def test_exact_sweeps_run_as_batches(monkeypatch):
    # exact A1 and A4 take their rows in one call per primitive, as float sweeps do
    model = HeisenbergModel(1)
    seen = []
    dilate = model.dilate
    monkeypatch.setattr(model, "dilate", lambda x, eps, y: seen.append(type(y)) or
                        dilate(x, eps, y))
    for axiom in ("A1", "A4"):
        rep = verify_axiom(model, axiom, Ball(model.origin(), 0.2), PR.grid(range(2, 6)), 4)
        assert rep.metadata["arithmetic"] == "exact" and rep.defect == [0.0] * 4
    assert seen and set(seen) == {ExactRows}


def test_per_row_scales_and_dyadic_points_go_one_row_at_a_time():
    # a per-row scale holds floats, so rows that take one batch float points only
    H, D = HeisenbergModel(1), DyadicBoundaryModel(16)
    exact = [H.to_exact(np.array([0.1, 0.2, 0.3])), H.to_exact(np.zeros(3))]
    assert Rows(exact).batched and not Rows(exact, batch=False).batched
    assert not Rows.scaled(exact).batched and not Rows.over_grid(exact, PR.grid([2, 3])).batched
    assert Rows.scaled([np.zeros(3)]).batched
    assert not Rows([D.point(3), D.point(5)]).batched
    # a mix of exact points and floats is no batch
    assert not Rows([exact[0], np.zeros(3)]).batched
