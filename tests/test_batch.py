"""Float batches against the same points one row at a time, bit for bit.

A float primitive takes an ``(N, dim)`` batch through the code that takes a
single point, and every row of its result must equal (``==``, not approx)
the result for that row alone, which in turn must equal the model's
single-point reference formula below.  The harness sweeps evaluate their rows as
batches; forcing row-at-a-time evaluation on the same tuples must give the
same defect lists and verdicts.  A per-row scale gives each row what its own
scale gives, and the single-point chains that now batch (``tangent_limit``
and ``g_map``) give what their one-at-a-time loops gave.
"""

import cmath
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dilatation_lab.affine import g_map
from dilatation_lab.core import structure
from dilatation_lab.core.harness import verify_axiom
from dilatation_lab.core.scales import COMPLEX_UNITS, POSITIVE_REALS as PR, RowScale
from dilatation_lab.core.structure import Ball, estimate_dx, exactify, rescaled_distance
from dilatation_lab.emergent import LIMIT_OPS, InducedStructure, metric_tangent_scan, tangent_limit
from dilatation_lab.errors import NonConvergent
from dilatation_lab.models import (
    CarnotModel, ComplexHeisenbergModel, DyadicBoundaryModel, EuclideanModel, HeisenbergModel,
    PullbackModel, engel_structure_constants, heisenberg_structure_constants)

from conftest import STEP3_HALF, blas_kernel


def _rotated_grid(ks, turn=0.7):
    """Complex scales 2^-k e^{i turn k}: no exact form, so every sweep runs in floats."""
    return [COMPLEX_UNITS.scale(2.0 ** -k * cmath.exp(1j * turn * k)) for k in ks]


REAL = st.floats(0.01, 4.0)
COMPLEX = st.builds(lambda r, t: r * cmath.exp(1j * t), st.floats(0.05, 4.0), st.floats(-3.1, 3.1))

# (model, coordinate bound, scale values, axiom grid, sampling radius)
CASES = {
    "euclidean-2d": (EuclideanModel(2), 4.0, REAL, None, 0.2),
    "heisenberg-1": (HeisenbergModel(1), 4.0, REAL, None, 0.2),
    "heisenberg-2": (HeisenbergModel(2), 4.0, REAL, None, 0.2),
    "engel": (CarnotModel(3, *engel_structure_constants()), 4.0, REAL, None, 0.2),
    # generic products compiled from other tables: a fractional constant, and
    # H(2)'s brackets without its closed-form product
    "step3-half": (CarnotModel(3, *STEP3_HALF), 4.0, REAL, None, 0.2),
    "carnot-h2": (CarnotModel(2, *heisenberg_structure_constants(2)), 4.0, REAL, None, 0.2),
    "cxr-real": (ComplexHeisenbergModel(), 4.0, REAL, None, 0.2),
    "cxr-complex": (ComplexHeisenbergModel(), 4.0, COMPLEX, _rotated_grid(range(2, 9)), 0.2),
    # chart offsets stay inside the radius-0.5 ball for contracting scales
    "pullback-dilatation": (PullbackModel(EuclideanModel(2), "cubic", "dilatation"), 0.15,
                            st.floats(0.01, 1.0), None, 0.05),
    "pullback-metric": (PullbackModel(EuclideanModel(2), "cubic", "metric"), 0.15,
                        st.floats(0.01, 1.0), None, 0.05),
}
IDS = list(CASES)


# --- single-point reference formulas ------------------------------------------
# The float formulas as they were written before batches, one point at a time
# with np.dot, np.linalg.norm, Python's complex product and Python's ``**``.
# Each row of a batch must reproduce them bit for bit.  Every group model
# multiplies as the bracket loop of its table does (Euclidean space's whole-row
# sum is that loop's a + b); the retired products, by value or within a bound.

def _ref_group(product, dilate, norm):
    def ref_dilate(x, e, y):
        return product(x, dilate(e, product(-x, y)))

    def ref_distance(p, q):
        return norm(product(-p, q))
    return ref_dilate, ref_distance


def _ref_euclid(product=lambda a, b: a + b):
    return _ref_group(product, lambda e, a: a * e, lambda a: math.sqrt(float(np.dot(a, a))))


def _heisenberg_product(n):
    # the whole-row product that H(n) kept before it took the compiled one
    def product(a, b):
        # each dot from +0.0, as a batch row's: a length-1 np.dot keeps a -0.0 product
        omega = (0.0 + np.dot(a[:n], b[n:2 * n])) - (0.0 + np.dot(a[n:2 * n], b[:n]))
        out = np.empty(2 * n + 1)
        out[:2 * n] = a[:2 * n] + b[:2 * n]
        out[2 * n] = a[2 * n] + b[2 * n] + omega / 2
        return out
    return product


def _ref_heisenberg(n, product):
    def dilate(e, a):
        out = a.copy()
        out[:2 * n] *= e
        out[2 * n] *= e * e
        return out

    def norm(a):
        planar, center = float(np.dot(a[:2 * n], a[:2 * n])), float(a[2 * n])
        return (planar * planar + 16.0 * center * center) ** 0.25
    return _ref_group(product, dilate, norm)


def _bch_product(model):
    """The BCH product summed from the bracket table in loops, only the table's
    terms in table order, as the product compiled from the table is."""
    def bracket(a, b):
        # None where [a, b] has no term; a None coordinate of b is 0 and drops
        # its products, which leaves a_i b_j where b_i is 0
        out = [None] * model.dim
        for i, j, k, c, _ in model._entries:
            if b[j] is None:
                continue
            t = c * (a[i] * b[j] if b[i] is None else a[i] * b[j] - a[j] * b[i])
            out[k] = t if out[k] is None else out[k] + t
        return out

    def product(a, b):
        ab = bracket(a, b)
        out = a + b
        for k, (z, p, q) in enumerate(zip(ab, bracket(a, ab), bracket(b, ab))):
            if z is not None:
                out[k] = out[k] + z * 0.5
            if p is not None:
                out[k] = out[k] + (p - q) * (1.0 / 12.0)
        return out
    return product


def _ref_carnot(model):
    def dilate(e, a):
        # layer i times e^i as the product e * ... * e, as on H(n): 1.0 * e is e
        out, factor = a.copy(), 1.0
        for sl in model._slices:
            factor = factor * e
            out[sl] *= factor
        return out

    def norm(a):
        best = 0.0
        for i, sl in enumerate(model._slices, start=1):
            best = max(best, float(np.dot(a[sl], a[sl])) ** (0.5 / i))
        return best
    return _ref_group(_bch_product(model), dilate, norm)


def _cxr_product(a, b):
    im_cross = a[1] * b[0] - a[0] * b[1]
    return np.array([a[0] + b[0], a[1] + b[1], a[2] + b[2] + im_cross / 2])


def _ref_cxr(product):
    def dilate(e, a):
        if isinstance(e, complex):
            x = complex(float(a[0]), float(a[1])) * e
            return np.array([x.real, x.imag, (e.real * e.real + e.imag * e.imag) * float(a[2])])
        return np.array([e * a[0], e * a[1], e * e * a[2]])

    def norm(a):
        planar, center = float(a[0] * a[0] + a[1] * a[1]), float(a[2])
        return (planar * planar + 16.0 * center * center) ** 0.25
    return _ref_group(product, dilate, norm)


# the products that H(1) and C x R wrote out by hand before they took the one
# compiled from their table: equal to it by value, but their bracket terms round
# a zero to another sign than the table's sum does
RETIRED = {"heisenberg-1": _heisenberg_product(1), "cxr-real": _cxr_product,
           "cxr-complex": _cxr_product}


def _retired_h2_gap_bound(a, b):
    # H(2)'s whole-row product summed each half of omega as a BLAS dot (a fused
    # multiply-add), the compiled one sums omega's four products left to right,
    # so only the centre differs, at roundoff.  On 20,000 draws of uniform
    # coordinates in [-4, 4] (6,887 of them differing) the gap reached
    # 1.7 eps S, with eps = 2^-52 and S the centre's sum of absolute terms;
    # the bound is 4 eps S, above the first-order error of both orders of
    # summation, plus 8 smallest subnormals for products that underflow
    terms = [a[4], b[4], *(a[i] * b[j] / 2 for i, j in ((0, 2), (1, 3), (2, 0), (3, 1)))]
    return 4 * 2.0 ** -52 * sum(map(abs, terms)) + 8 * math.ulp(0.0)


def _ref_pullback(model):
    chart, euclid_dilate, euclid_distance = model.chart, *_ref_euclid()

    def guard(v):
        if float(np.linalg.norm(v)) > model.radius + 1e-12:
            raise AssertionError("reference point left the chart ball")

    def ref_dilate(x, e, y):
        if model.transport == "metric":
            return euclid_dilate(x, e, y)
        guard(y - x)
        out = chart.inverse(e * chart.forward(y - x))
        guard(out)
        return x + out

    def ref_distance(p, q):
        if model.transport == "metric":
            return euclid_distance(chart.forward(p), chart.forward(q))
        return euclid_distance(p, q)
    return ref_dilate, ref_distance


def _ref_tangent_distance(model, x, u, v):
    if isinstance(model, PullbackModel):
        f = model.chart.forward
        if model.transport == "metric":
            return float(np.linalg.norm(model.chart.derivative(x) * (u - v)))
        return float(np.linalg.norm(f(u - x) - f(v - x)))
    return _reference(model)[1](u, v)


def _reference(model):
    if isinstance(model, PullbackModel):
        return _ref_pullback(model)
    if isinstance(model, EuclideanModel):
        return _ref_euclid(_bch_product(model))
    if isinstance(model, HeisenbergModel):
        return _ref_heisenberg(model.n, _bch_product(model))
    if isinstance(model, ComplexHeisenbergModel):
        return _ref_cxr(_bch_product(model))
    return _ref_carnot(model)


def _ref_gap(p, q):
    return float(max(abs(float(a) - float(b)) for a, b in zip(p, q)))


def _batch(dim, bound):
    # signed zeros often, so a row whose zero differs in sign from its point's shows
    coord = st.one_of(st.sampled_from([0.0, -0.0]),
                      st.floats(-bound, bound, allow_nan=False, allow_infinity=False))
    return st.integers(2, 7).flatmap(
        lambda n: st.lists(st.lists(coord, min_size=dim, max_size=dim),
                           min_size=3 * n, max_size=3 * n)
    ).map(lambda rows: np.array(rows).reshape(3, -1, dim))


def _same(batch, rows):
    # bytes, not ==, which takes -0.0 for 0.0
    assert isinstance(batch, np.ndarray)
    assert batch.shape[0] == len(rows)
    assert _bits(batch) == _bits(np.array(rows))


@pytest.mark.parametrize("case", IDS)
def test_primitives_batch_equals_rows(case):
    model, bound, scales, _, _ = CASES[case]

    def check(xyz, e):
        X, Y, Z = xyz
        eps = model.scale_group.scale(e)
        rows = list(zip(X, Y, Z))
        _same(model.dilate(X, eps, Y), [model.dilate(x, eps, y) for x, y, _ in rows])
        _same(model.dilate(X[0], eps, Y), [model.dilate(X[0], eps, y) for _, y, _ in rows])
        _same(model.distance(X, Y), [model.distance(x, y) for x, y, _ in rows])
        _same(model.coordinate_gap(X, Y), [model.coordinate_gap(x, y) for x, y, _ in rows])
        _same(model.tangent_distance(X, Y, Z),
              [model.tangent_distance(x, y, z) for x, y, z in rows])
        ref_dilate, ref_distance = _reference(model)
        for x, y, z in rows:
            if case in RETIRED:
                assert np.array_equal(model.group_product(x, y), RETIRED[case](x, y))
            if case == "heisenberg-2":
                gap = np.abs(model.group_product(x, y) - _heisenberg_product(2)(x, y))
                assert gap[:4].max() == 0.0 and gap[4] <= _retired_h2_gap_bound(x, y)
            assert _bits(model.dilate(x, eps, y)) == _bits(ref_dilate(x, eps.value, y))
            d = model.distance(x, y)
            assert type(d) is float and _bits(d) == _bits(ref_distance(x, y))
            gap = model.coordinate_gap(x, y)
            assert type(gap) is float and _bits(gap) == _bits(_ref_gap(x, y))
            assert model.tangent_distance(x, y, z) == _ref_tangent_distance(model, x, y, z)

    # one seeded batch of nonzero uniform coordinates, on which two orders of
    # summation round apart far more often than on the drawn ones, half of
    # whose coordinates are signed zeros
    rng = np.random.default_rng(17)
    check(rng.uniform(-bound, bound, (3, 64, model.coordinate_dim)),
          _row_scale_values(case, rng, 1)[0])
    settings(max_examples=30, deadline=None)(
        given(xyz=_batch(model.coordinate_dim, bound), e=scales)(check))()


@pytest.mark.parametrize("case", [c for c in IDS if hasattr(CASES[c][0], "group_product")])
def test_product_rows_keep_the_sign_of_a_zero(case):
    # a length-1 np.dot keeps a -0.0 product where np.vecdot sums from +0.0, so a
    # point's dot is summed from +0.0 too (row_dot); signed zeros and units make
    # zero products of either sign often.  Dilatations at fixed scales, complex
    # ones on C x R, must keep each row's zero signs and the reference's too:
    # drawn scales would not pin them.  A product writes only its table's terms,
    # so a layer-1 coordinate of -0.0 . -0.0 is -0.0 + -0.0 = -0.0
    model = CASES[case][0]
    A, B = np.random.default_rng(3).choice([0.0, -0.0, 1.0, -1.0], (2, 400, model.coordinate_dim))
    rows = [model.group_product(a, b) for a, b in zip(A, B)]
    _same(model.group_product(A, B), rows)
    _same(np.array([_bch_product(model)(a, b) for a, b in zip(A, B)]), rows)
    zeros = np.full((5, model.coordinate_dim), -0.0)
    layer1 = model.layer_of == 1
    for out in [model.group_product(zeros, zeros), *map(model.group_product, zeros, zeros)]:
        assert np.signbit(out[..., layer1]).all()
    ref_dilate = _reference(model)[0]
    turns = [cmath.exp(2j), 0.5j] if isinstance(model, ComplexHeisenbergModel) else []
    for e in [0.5, 0.3, *turns]:
        eps = model.scale_group.scale(e)
        rows = [model.dilate(a, eps, b) for a, b in zip(A, B)]
        _same(model.dilate(A, eps, B), rows)
        _same(np.array([ref_dilate(a, e, b) for a, b in zip(A, B)]), rows)


@pytest.mark.parametrize("case", IDS)
def test_row_maxima_keep_max_rule_on_nan(case):
    # the max rule is core.reports.sup's: NaN is the largest value, so a NaN in
    # any column makes that row's gap NaN, and each batch row must agree
    model = CASES[case][0]
    dim = model.coordinate_dim
    X = np.array([[0.5 * (i + 1) for i in range(dim)]] * (dim + 1))
    for r in range(dim):
        X[r, r] = math.nan
    Y = np.zeros_like(X)
    rows = [model.coordinate_gap(x, y) for x, y in zip(X, Y)]
    assert all(math.isnan(g) for g in rows[:-1]) and rows[-1] == 0.5 * dim
    assert np.array_equal(model.coordinate_gap(X, Y), rows, equal_nan=True)


def _row_at_a_time(monkeypatch, run):
    with monkeypatch.context() as m:
        m.setattr(structure, "float_points", lambda points: False)
        return run()


def _sweeps(model, grid, radius):
    """Every float sweep of the harness on this model, as (name, run(seed))."""
    region = Ball(model.origin(), radius)
    runs = [(f"{axiom}:{ref}", lambda seed, a=axiom, r=ref: verify_axiom(
                model, a, region, grid, sample_count=5, seed=seed, reference=r))
            for axiom, ref in (("A1", "auto"), ("A2", "auto"), ("A3", "auto"),
                               ("A4", "auto"), ("A4", "cauchy"), ("ConeProperty", "auto"))]
    runs.append(("metric_tangent_scan", lambda seed: metric_tangent_scan(
        model, model.origin(), grid, sample_count=5, seed=seed)))
    return runs


@pytest.mark.parametrize("case", IDS)
def test_sweeps_batch_equals_rows(case, monkeypatch):
    model, _, _, grid, radius = CASES[case]
    grid = grid or model.scale_group.grid(range(2, 9))

    @settings(max_examples=3, deadline=None)
    @given(seed=st.integers(0, 2 ** 16))
    def check(seed):
        for name, run in _sweeps(model, grid, radius):
            batched = run(seed)
            rows = _row_at_a_time(monkeypatch, lambda: run(seed))
            assert batched.defect == rows.defect, name
            assert batched.verdict == rows.verdict, name
            assert all(type(d) is float for d in batched.defect), name

    check()


def test_float_sweeps_run_as_batches(monkeypatch):
    # the sweeps above compare both ways of evaluating rows; make sure the default batches
    model = HeisenbergModel(1)
    seen = []
    dilate = model.dilate
    monkeypatch.setattr(model, "dilate", lambda x, eps, y: seen.append(np.ndim(y)) or
                        dilate(x, eps, y))
    verify_axiom(model, "A3", Ball(model.origin(), 0.2), model.scale_group.grid(range(2, 6)),
                 sample_count=4, seed=0)
    assert seen and set(seen) == {2}


@pytest.mark.parametrize("block", [1, 2, 5])
def test_rows_rotate_within_blocks(block):
    # a batch and a list rotate alike, and each row stays in its block: row
    # i takes the next row of its block, the block's last row its first
    pts = list(np.random.default_rng(block).uniform(-1.0, 1.0, (3 * block, 2)))
    batch, rows = structure.Rows(pts), structure.Rows(pts, batch=False)
    assert batch.batched and not rows.batched
    order = [i - i % block + (i + 1) % block for i in range(len(pts))]
    assert np.array_equal(batch.rotate(batch.column(pts), block), [pts[i] for i in order])
    assert [id(p) for p in rows.rotate(rows.column(pts), block)] == [id(pts[i]) for i in order]
    # a column of one value per row rotates the same way
    assert batch.rotate(np.arange(len(pts)), block).tolist() == order
    assert rows.rotate(list(range(len(pts))), block) == order


def _row_scale_values(case, rng, n):
    """n scale values for a case's per-row scale: complex ones that are not
    powers of two on C x R, contracting ones on the pullbacks' chart ball."""
    if case == "cxr-complex":
        turns = rng.uniform(0.05, 4.0, n // 2) * np.exp(1j * rng.uniform(-3.1, 3.1, n // 2))
        return [(0.3 + 0.4j) * 2.0 ** -k for k in range(n - n // 2)] + turns.tolist()
    return rng.uniform(0.01, 1.0 if case.startswith("pullback") else 4.0, n).tolist()


@pytest.mark.parametrize("case", IDS)
def test_per_row_scale_equals_its_rows(case):
    # row i under the per-row scale is row i under the scalar scale vs[i], bit for bit
    model, bound = CASES[case][:2]
    rng = np.random.default_rng(7)
    n, dim = 64, model.coordinate_dim
    X, Y = rng.uniform(-bound, bound, (2, n, dim))
    scales = [model.scale_group.scale(v) for v in _row_scale_values(case, rng, n)]
    per_row = structure.Rows(list(Y)).scale_column(scales)
    assert per_row.value.shape == (n, 1)
    _same(model.dilate(X[0], per_row, Y), [model.dilate(X[0], s, y) for s, y in zip(scales, Y)])
    _same(model.dilate(X, per_row, Y),
          [model.dilate(x, s, y) for x, s, y in zip(X, scales, Y)])
    _same(model.dilate(X[0], per_row, Y[0]), [model.dilate(X[0], s, Y[0]) for s in scales])


# every model that computes on columns: each Carnot model but Euclidean space,
# which computes on whole rows
COLUMN_CASES = [c for c, (model, *_) in CASES.items()
                if isinstance(model, CarnotModel) and not isinstance(model, EuclideanModel)]


def test_column_cases_are_collected():
    assert COLUMN_CASES and "euclidean-2d" not in COLUMN_CASES


@pytest.mark.parametrize("case", COLUMN_CASES)
def test_compiled_product_batches_are_c_ordered_rows(case):
    # the dots take np.vecdot on C-ordered rows, so a model that computes on
    # columns must join them into a C-contiguous (N, dim) batch, from a
    # Fortran-ordered one too, under a scalar and a per-row scale alike
    model = CASES[case][0]
    rng = np.random.default_rng(11)
    n, dim = 48, model.coordinate_dim
    X, Y = rng.uniform(-1.0, 1.0, (2, n, dim))
    per_row = RowScale.of([model.scale_group.scale(v) for v in _row_scale_values(case, rng, n)])
    for A, B in ((X, Y), (np.asfortranarray(X), np.asfortranarray(Y))):
        outs = [model.group_product(A, B)]
        for eps in (model.scale_group.scale(0.5), per_row):
            outs += [model.ambient_dilate(eps, A), model.dilate(A, eps, B)]
        for out in outs:
            assert out.shape == (n, dim) and out.flags.c_contiguous


def _exact_values(values):
    """Scale values as exact strings, so -0.0 and 0.0 differ."""
    return [v.hex() if isinstance(v, float) else (v.real.hex(), v.imag.hex()) for v in values]


@pytest.mark.parametrize("case", ["positive-reals", "complex-real", "complex"])
def test_per_row_scale_arithmetic_is_the_scalar_rule_per_row(case):
    # numpy's complex reciprocal, product and modulus round differently from
    # Python's on about a third of random inputs; each row must take Python's
    rng = np.random.default_rng(11)
    n = 200
    group = PR if case == "positive-reals" else COMPLEX_UNITS
    values = _row_scale_values("cxr-complex" if case == "complex" else case, rng, n)
    scales = [group.scale(v) for v in values]
    others = scales[1:] + scales[:1]
    fixed = group.scale(0.3 + 0.4j if case == "complex" else 0.7)
    per_row = RowScale.of(scales)
    checks = [
        (per_row.inverse(), [s.inverse() for s in scales]),
        (per_row * RowScale.of(others), [s * o for s, o in zip(scales, others)]),
        (per_row * fixed, [s * fixed for s in scales]),
        (fixed * per_row, [fixed * s for s in scales]),
        (per_row ** 3, [s ** 3 for s in scales]),
    ]
    for got, want in checks:
        assert type(got) is RowScale and got.value.shape == (n, 1)
        assert _exact_values(got.value[:, 0].tolist()) == _exact_values([s.value for s in want])
    assert _exact_values(per_row.nu.tolist()) == _exact_values([s.nu for s in scales])
    assert [s.value for s in per_row.rows()] == values


# --- the single-point chains, batched --------------------------------------------
# Inline copies of the loops that computed them one scale, one power and one
# probe at a time; the batched paths must give the same bits.

def _bits(v):
    if isinstance(v, np.ndarray):
        return v.shape, v.dtype.str, v.tobytes()
    if isinstance(v, float):
        return v.hex()
    if isinstance(v, (list, tuple)):
        return [_bits(a) for a in v]
    return v


def _tangent_limit_one_scale_at_a_time(S, x, u, v, which, grid):
    op = LIMIT_OPS[which]
    args = (u,) if which == "inverse" else (u, v)
    points = [op(S, x, e, *args) for e in grid]
    increments = [S.coordinate_gap(a, b) for a, b in zip(points, points[1:])]
    exact = getattr(S, f"tangent_{which}", None)
    limit = points[-1] if exact is None else exact(x, *args)
    return limit, [S.distance(p, limit) for p in points], increments


def _complex_grid(ks):
    return [COMPLEX_UNITS.scale((0.3 + 0.4j) * 2.0 ** -k) for k in ks]


H1 = HeisenbergModel(1)
# (structure, grid or None for the default one, sampling radius)
TANGENT_CASES = {
    **{case: (CASES[case][0], None, CASES[case][4])
       for case in ("euclidean-2d", "heisenberg-1", "heisenberg-2", "engel", "cxr-real",
                    "pullback-dilatation", "pullback-metric")},
    "cxr-complex-grid": (ComplexHeisenbergModel(), _complex_grid(range(2, 13)), 0.2),
    "cxr-rotated-grid": (ComplexHeisenbergModel(), _rotated_grid(range(2, 13)), 0.2),
    # real and complex values in one grid: no one per-row array holds both
    "cxr-mixed-grid": (ComplexHeisenbergModel(), [COMPLEX_UNITS.scale(2.0 ** -k * (1j if k % 2 else 1.0))
                                                  for k in range(2, 13)], 0.2),
    "induced-heisenberg-1": (InducedStructure(H1, H1.origin(), PR.scale(0.5)), None, 0.2),
    "heisenberg-1-exact": (H1, None, 0.2),
}


@pytest.mark.parametrize("case", list(TANGENT_CASES))
def test_tangent_limit_is_the_one_scale_at_a_time_loop(case):
    S, grid, radius = TANGENT_CASES[case]
    grid = grid or S.scale_group.grid(range(2, 13))
    for seed in range(3):
        pts = S.sample_ball(S.origin(), radius, 10, np.random.default_rng(seed))[7:]
        if case.endswith("exact"):
            pts = [S.to_exact(p) for p in pts]
        for which in LIMIT_OPS:
            limit, report = tangent_limit(S, *pts, which, grid)
            want = _tangent_limit_one_scale_at_a_time(S, *pts, which, grid)
            got = limit, report.defect, report.metadata["cauchy_increments"]
            assert _bits(got) == _bits(want), (seed, which)
            # the limit is a point of its own, not a view into the batch
            assert not isinstance(limit, np.ndarray) or limit.base is None


@pytest.mark.parametrize("case", list(TANGENT_CASES))
def test_estimate_dx_is_the_one_scale_at_a_time_loop(case):
    # seven scales, on which the float gauges mostly settle
    S, grid, radius = TANGENT_CASES[case]
    grid = (grid or S.scale_group.grid(range(2, 13)))[:7]
    for seed in range(3):
        pts = S.sample_ball(S.origin(), radius, 10, np.random.default_rng(seed))[7:]
        if case.endswith("exact"):
            pts = [S.to_exact(p) for p in pts]
        # the estimate reads exactly where S can, and so does the loop
        (x, u, v), exact_grid, _ = exactify(S, pts, grid)
        want = [rescaled_distance(S, x, e, u, v) for e in exact_grid]
        try:
            estimate, report = estimate_dx(S, *pts, grid)
        except NonConvergent as err:
            # float roundoff through a fractional-power gauge: the same unsettled steps
            assert str(err).endswith(f"diffs={[abs(a - b) for a, b in zip(want, want[1:])]}")
            continue
        assert _bits([estimate, report.metadata["values"]]) == _bits([want[-1], want]), seed


def _g_map_one_power_at_a_time(M, eps, y, N):
    out, power = y, eps
    for _ in range(N):
        out = M.group_product(out, M.ambient_dilate(power, y))
        power = power * eps
    return out


def _chain_inputs(M, seed):
    """A point y and a contracting scale eps for the model, complex on C x R at odd seeds."""
    y = M.sample_ball(M.origin(), 0.2, 8, np.random.default_rng(seed))[7]
    sg = M.scale_group
    if isinstance(M, DyadicBoundaryModel):
        return y, sg.scale(3)
    if isinstance(M, ComplexHeisenbergModel) and seed % 2:
        return y, sg.scale(0.3 + 0.4j) * sg.scale(0.6j)
    return y, sg.scale(0.35 + 0.1 * seed) * sg.scale(0.6)


@pytest.mark.parametrize("index", range(9))
def test_g_map_is_the_one_power_at_a_time_loop(index):
    # the six shipped models, then exact H(1) points and scales (6), a generic
    # step-3 model with a fractional constant (7) and C x R under a complex
    # scale at every seed (8)
    from conftest import conical_models
    exact = index == 6
    M = [*conical_models(), HeisenbergModel(1), CarnotModel(3, *STEP3_HALF),
         ComplexHeisenbergModel()][index]
    for seed in range(3):
        y, eps = _chain_inputs(M, seed)
        if exact:
            y, eps = M.to_exact(y), M.to_exact_scale(eps)
        if index == 8:
            eps = COMPLEX_UNITS.scale(cmath.rect(0.4 + 0.1 * seed, 0.7 + seed))
        for N in (1, 2, 7, 64):
            got = g_map(M, eps, y, N).point
            assert _bits(got) == _bits(_g_map_one_power_at_a_time(M, eps, y, N)), (seed, N)


def _counting(monkeypatch, S, name):
    calls = []
    method = getattr(S, name)
    monkeypatch.setattr(S, name, lambda *a: calls.append(1) or method(*a))
    return calls


@pytest.mark.parametrize("index", range(5))
def test_g_map_makes_one_ambient_dilate_call_on_floats(index, monkeypatch):
    from conftest import conical_models
    M = conical_models()[index]
    y, eps = _chain_inputs(M, 1)
    calls = _counting(monkeypatch, M, "ambient_dilate")
    g_map(M, eps, y, 64)
    assert len(calls) == 1


def test_tangent_limit_calls_do_not_grow_with_the_grid(monkeypatch):
    model = CASES["pullback-dilatation"][0]
    x, u, v = model.sample_ball(model.origin(), 0.05, 10, np.random.default_rng(0))[7:]
    counts = []
    for ks in (range(2, 7), range(2, 13)):
        with monkeypatch.context() as m:
            calls = _counting(m, model, "dilate")
            grid = model.scale_group.grid(ks)
            for which in LIMIT_OPS:
                tangent_limit(model, x, u, v, which, grid)
            estimate_dx(model, x, u, v, grid)
        counts.append(len(calls))
    assert counts[0] == counts[1] == 3 + 3 + 2 + 2


def test_a_grid_mixing_value_types_runs_one_scale_at_a_time(monkeypatch):
    # C x R dilates by a real value and by a complex one through different
    # formulas, which can differ in the sign of a zero; one per-row array
    # cannot hold both types, so tangent_limit does not stack such a grid
    model = ComplexHeisenbergModel()
    a = np.array([-0.0, -1.0, 0.0])
    assert (model.ambient_dilate(COMPLEX_UNITS.scale(0.5), a).tobytes()
            != model.ambient_dilate(COMPLEX_UNITS.scale(0.5 + 0j), a).tobytes())
    grid = TANGENT_CASES["cxr-mixed-grid"][1]
    x, u, v = model.sample_ball(model.origin(), 0.2, 10, np.random.default_rng(0))[7:]
    calls = _counting(monkeypatch, model, "dilate")
    tangent_limit(model, x, u, v, "sum", grid)
    assert len(calls) == 3 * len(grid)


# --- the rounding of the BLAS kernel the float digests assume ------------------

BLAS_CAUSE = ("so the float CSV digests, recorded under a fused multiply-add kernel, "
              "cannot match here: the cause of a float digest mismatch is the BLAS "
              "kernel, not the lab")


def _fma(x, y, z):
    """x y + z rounded once; Python 3.11 has no math.fma."""
    return float(Fraction(x) * Fraction(y) + Fraction(z))


def test_blas_rounds_a_length_two_dot_as_one_fused_multiply_add():
    A, B = np.random.default_rng(0).uniform(-1.0, 1.0, (2, 2000, 2))
    off = sum(float(np.dot(a, b)) != _fma(a[1], b[1], a[0] * b[0]) for a, b in zip(A, B))
    assert not off, (f"{blas_kernel()}: np.dot differs from fma(a1, b1, round(a0 b0)) on "
                     f"{off} of {len(A)} draws, {BLAS_CAUSE}")


@pytest.mark.parametrize("dim", [2, 3, 5])
def test_vecdot_rows_equal_the_one_dimensional_dot(dim):
    A, B = np.random.default_rng(dim).uniform(-1.0, 1.0, (2, 500, dim))
    off = np.count_nonzero(np.vecdot(A, B) != [np.dot(a, b) for a, b in zip(A, B)])
    assert not off, (f"{blas_kernel()}: np.vecdot differs from np.dot on {off} of "
                     f"{len(A)} rows of length {dim}, {BLAS_CAUSE}")
