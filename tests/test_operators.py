"""The composite operators and rescaled distances on concrete models."""

import numpy as np
import pytest

from dilatation_lab.core.scales import POSITIVE_REALS as PR
from dilatation_lab.core.structure import (
    Ball, approx_difference, approx_inverse, approx_sum, estimate_dx,
    rescaled_distance)
from dilatation_lab.config import JITTER_FACTOR, LIMIT_TOL
from dilatation_lab.errors import DomainViolation, NonConvergent
from dilatation_lab.models import EuclideanModel, PullbackModel
from dilatation_lab.models.base import float_or_rows

HALF = PR.scale(0.5)


def test_difference_closed_form_euclid(euclid2):
    x = np.zeros(2)
    u = np.array([1.0, 0.0])
    v = np.array([1.0, 1.0])
    got = approx_difference(euclid2, x, HALF, u, v)
    assert np.allclose(got, [0.5, 1.0])
    # x + eps(-x+u) + (-u+v) for generic data
    rng = np.random.default_rng(0)
    for _ in range(20):
        x, u, v = rng.uniform(-1, 1, (3, 2))
        want = x + 0.5 * (u - x) + (v - u)
        assert np.allclose(approx_difference(euclid2, x, HALF, u, v), want)


def test_difference_of_point_with_itself_is_dilate():
    # Delta^x_eps(u, u) ends at the fixed point of the rescaling leg
    from conftest import conical_models
    for model in conical_models():
        if model.name.startswith("dyadic"):
            x, u = model.point(9), model.point(30)
            eps = model.scale_group.scale(2)
        else:
            rng = np.random.default_rng(17)
            x = rng.uniform(-0.3, 0.3, model.coordinate_dim)
            u = rng.uniform(-0.3, 0.3, model.coordinate_dim)
            eps = model.scale_group.contraction(1)
        got = approx_difference(model, x, eps, u, u)
        assert model.coordinate_gap(got, model.dilate(x, eps, u)) < 1e-13, model.name


def test_difference_heisenberg_group_oracle(heis1):
    # brute-force oracle: compose the two conical dilatations coordinate-wise
    x = heis1.identity()
    u = heis1.point([1.0, 0.0], 0.0)
    v = heis1.point([0.0, 1.0], 0.0)
    a = heis1.dilate(x, HALF, u)
    want = heis1.dilate(a, HALF.inverse(), heis1.dilate(x, HALF, v))
    got = approx_difference(heis1, x, HALF, u, v)
    assert heis1.distance(got, want) == 0.0
    # and the closed form delta^x_eps(u) . u^-1 . v agrees
    closed = heis1.exact_difference_after(a, u, v)
    assert heis1.coordinate_gap(got, closed) < 1e-15


def test_sum_closed_form_euclid(euclid1):
    got = approx_sum(euclid1, np.array([0.0]), HALF, np.array([2.0]), np.array([3.0]))
    assert np.allclose(got, [4.0])


def test_sum_with_base_tends_to_first_argument(euclid1):
    x, u = np.array([0.0]), np.array([2.0])
    got = approx_sum(euclid1, x, HALF, u, x)
    assert np.allclose(got, u + 0.5 * (x - u))
    fine = PR.scale(2.0 ** -20)
    assert np.allclose(approx_sum(euclid1, x, fine, u, x), u, atol=1e-5)


def test_sum_heisenberg_against_group_product(heis1):
    rng = np.random.default_rng(3)
    x = heis1.identity()
    eps = PR.scale(2.0 ** -6)
    for _ in range(10):
        u = heis1.point(rng.uniform(-0.5, 0.5, 2), rng.uniform(-0.25, 0.25))
        v = heis1.point(rng.uniform(-0.5, 0.5, 2), rng.uniform(-0.25, 0.25))
        got = approx_sum(heis1, x, eps, u, v)
        oracle = heis1.group_product(u, v)  # u . x^-1 . v at x = e
        assert heis1.distance(got, oracle) <= 10.0 * eps.nu


def test_inverse_closed_form_and_shifted_involutivity(euclid1):
    x, u = np.array([0.0]), np.array([3.0])
    got = approx_inverse(euclid1, x, HALF, u)
    assert np.allclose(got, [-1.5])
    assert np.allclose(approx_inverse(euclid1, x, HALF, x), x)
    # inv based at delta^x_eps u undoes inv^x_eps
    base = euclid1.dilate(x, HALF, u)
    back = approx_inverse(euclid1, base, HALF, got)
    assert np.allclose(back, u)


def test_operators_reject_expanding_scales(euclid1):
    with pytest.raises(DomainViolation):
        approx_sum(euclid1, np.array([0.0]), PR.scale(2.0), np.array([1.0]),
                   np.array([2.0]))


def test_cancellation_identities_all_models():
    from conftest import conical_models, pt
    for model in conical_models():
        if model.name.startswith("dyadic"):
            x, u, v = model.point(5), model.point(9), model.point(14)
            eps = model.scale_group.scale(2)
        else:
            dim = model.coordinate_dim
            rng = np.random.default_rng(1)
            x, u, v = (model.to_exact(p) for p in (
                rng.uniform(-0.2, 0.2, dim), rng.uniform(-0.2, 0.2, dim),
                rng.uniform(-0.2, 0.2, dim)))
            eps = model.to_exact_scale(model.scale_group.contraction(2))
        via = approx_sum(model, x, eps, u, approx_difference(model, x, eps, u, v))
        assert model.coordinate_gap(via, v) <= 1e-9
        via2 = approx_difference(model, x, eps, u, approx_sum(model, x, eps, u, v))
        assert model.coordinate_gap(via2, v) <= 1e-9


def test_shifted_associativity_euclidean(euclid2):
    rng = np.random.default_rng(7)
    for _ in range(25):
        x, u, v, w = rng.uniform(-1, 1, (4, 2))
        lhs = approx_sum(euclid2, x, HALF, approx_sum(euclid2, x, HALF, u, v), w)
        shifted_base = euclid2.dilate(x, HALF, u)
        rhs = approx_sum(euclid2, x, HALF, u, approx_sum(euclid2, shifted_base, HALF, v, w))
        assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_rescaled_distance_identity_scale(heis1):
    u = heis1.point([0.3, 0.1], 0.02)
    v = heis1.point([-0.2, 0.2], -0.01)
    one = PR.one
    assert rescaled_distance(heis1, heis1.identity(), one, u, v) == pytest.approx(
        heis1.distance(u, v))


def test_rescaled_distance_exact_on_euclid(euclid2):
    rng = np.random.default_rng(11)
    for _ in range(10):
        x, u, v = rng.uniform(-1, 1, (3, 2))
        mu = PR.scale(float(rng.uniform(0.05, 1.0)))
        got = rescaled_distance(euclid2, x, mu, u, v)
        assert got == pytest.approx(float(np.linalg.norm(u - v)), rel=1e-12)


def test_rescaled_distance_heisenberg_direct(heis1):
    u = heis1.point([1.0, 0.0], 0.0)
    v = heis1.point([0.0, 0.0], 1.0)
    got = rescaled_distance(heis1, heis1.identity(), HALF, u, v)
    du = heis1.dilate(heis1.identity(), HALF, u)
    dv = heis1.dilate(heis1.identity(), HALF, v)
    assert got == pytest.approx(heis1.distance(du, dv) / 0.5)
    assert got == pytest.approx(heis1.distance(u, v))


def test_estimate_dx_constant_for_conical(euclid2, heis1):
    grid = PR.grid(range(2, 13))
    x, u, v = np.zeros(2), np.array([0.1, 0.0]), np.array([0.0, 0.1])
    val, report = estimate_dx(euclid2, x, u, v, grid)
    assert val == pytest.approx(float(np.linalg.norm(u - v)))
    assert max(report.defect) < 1e-12
    e = heis1.identity()
    a, b = heis1.point([0.1, 0.0], 0.0), heis1.point([0.0, 0.1], 0.01)
    val, report = estimate_dx(heis1, e, a, b, grid)
    assert val == pytest.approx(heis1.distance(a, b))
    assert max(report.defect) < 1e-12


@pytest.mark.parametrize("model", ["heis1", "heis2", "engel", "cxheis"])
def test_estimate_dx_reads_group_models_exactly(model, request):
    # in floats the gauges' roots lift roundoff past the settling rule, which
    # raises NonConvergent on each of these seeds; read exactly, each estimate
    # is the closed form to the gauge's rounding
    S = request.getfixturevalue(model)
    grid = S.scale_group.grid(range(2, 13))
    for seed in range(20):
        x, u, v = np.random.default_rng(seed).uniform(-0.2, 0.2, (3, len(S.origin())))
        val, report = estimate_dx(S, x, u, v, grid)
        assert abs(val - S.tangent_distance(x, u, v)) <= 4e-16, seed
        assert report.verdict, seed


def test_estimate_dx_pullback_analytic_oracle(metric_pullback_1d):
    # rescaled distances converge to the derivative-weighted gap
    grid = PR.grid(range(2, 13))
    x = np.array([0.3])
    u, v = np.array([0.32]), np.array([0.27])
    val, report = estimate_dx(metric_pullback_1d, x, u, v, grid)
    oracle = (1.0 + 3.0 * 0.3 ** 2) * abs(0.32 - 0.27)
    assert val == pytest.approx(oracle, abs=5e-4)
    assert report.verdict


def test_estimate_dx_symmetric(heis1, metric_pullback_1d):
    grid = PR.grid(range(2, 13))
    u = heis1.point([0.1, 0.05], 0.02)
    v = heis1.point([-0.05, 0.12], -0.01)
    a, _ = estimate_dx(heis1, heis1.identity(), u, v, grid)
    b, _ = estimate_dx(heis1, heis1.identity(), v, u, grid)
    assert abs(a - b) <= 1e-9
    x, p, q = np.array([0.2]), np.array([0.25]), np.array([0.15])
    a, _ = estimate_dx(metric_pullback_1d, x, p, q, grid)
    b, _ = estimate_dx(metric_pullback_1d, x, q, p, grid)
    assert abs(a - b) <= 1e-9


def test_estimate_dx_reads_a_converging_limit_past_a_coarse_grid_start():
    # pinned so that a change of the rule shows here: on the metric pullback
    # (floats only) at the draw scripts/op_dump.py labels pullback-metric#4 at
    # seed 0, the rescaled distances converge, their differences (2.3e-4,
    # 2.1e-5, 4.4e-5, 3.1e-5, 1.7e-5, ...) shrinking by about half from the
    # third on; the one early rise past JITTER_FACTOR on the coarse start of the
    # grid k = 2..12 falls in the half ``contracts`` does not judge
    S = PullbackModel(EuclideanModel(2), transport="metric")
    rng = np.random.default_rng(0)
    for _ in range(5):
        x, u, v = rng.uniform(-0.2, 0.2, (3, 2))
    grid = PR.grid(range(2, 13))
    val, _ = estimate_dx(S, x, u, v, grid)
    assert abs(val - S.tangent_distance(x, u, v)) <= LIMIT_TOL
    values = [rescaled_distance(S, x, e, u, v) for e in grid]
    diffs = [abs(a - b) for a, b in zip(values, values[1:])]
    assert diffs[1] < diffs[0] and diffs[2] > JITTER_FACTOR * diffs[1]
    assert all(0.45 * a < b < 0.7 * a for a, b in zip(diffs[2:], diffs[3:]))


def test_estimate_dx_raises_on_few_metric_pullback_draws():
    # 200 seeded draws on the metric pullback, grid k = 2..12: the two that
    # raise NonConvergent, each where a dip in its differences makes the next
    # one, in the judged half, a rise, and the error of those that do not
    S = PullbackModel(EuclideanModel(2), transport="metric")
    grid = PR.grid(range(2, 13))
    raised, errors = [], []
    for seed in range(10):
        rng = np.random.default_rng(seed)
        for i in range(20):
            x, u, v = rng.uniform(-0.2, 0.2, (3, 2))
            try:
                val, _ = estimate_dx(S, x, u, v, grid)
            except NonConvergent:
                raised.append((seed, i))
            else:
                errors.append(abs(val - S.tangent_distance(x, u, v)))
    assert raised == [(4, 4), (8, 3)]
    assert max(errors) < 2e-5


def test_estimate_dx_validates_grid(euclid2):
    with pytest.raises(ValueError):
        estimate_dx(euclid2, np.zeros(2), np.ones(2), np.zeros(2), PR.grid([2, 3]))
    with pytest.raises(ValueError):
        estimate_dx(euclid2, np.zeros(2), np.ones(2), np.zeros(2),
                    PR.grid([5, 4, 3, 2]))


class _FloatOnly:
    """A model whose distance is written for float points only: it has no exact
    scales, the route ``exactify`` takes for a complex scale, so it runs in floats."""

    def to_exact_scale(self, eps):
        raise ValueError(f"{type(self).__name__} computes in floats only")


class _ProjectionMetric(_FloatOnly, EuclideanModel):
    """Pseudo-distance that forgets the second coordinate: A3 limit degenerates.
    Like every float model it takes a point or an ``(N, 2)`` batch."""

    def __init__(self):
        super().__init__(2)
        self.name = "projection-metric"

    def homogeneous_norm(self, a):
        return float_or_rows(np.abs(a[..., 0]))


def test_estimate_dx_flags_degenerate_limit():
    model = _ProjectionMetric()
    grid = PR.grid(range(2, 8))
    u = np.array([0.1, 0.3])
    v = np.array([0.1, -0.4])  # distinct points, zero projected distance
    val, report = estimate_dx(model, np.zeros(2), u, v, grid)
    assert val == 0.0
    assert report.metadata["degenerate"]
    assert not report.verdict


def test_estimate_dx_raises_on_noise():
    class Jumpy(_FloatOnly, EuclideanModel):
        """Every third distance it evaluates, a point's or a batch row's, is off by 0.5."""

        def __init__(self):
            super().__init__(1)
            self._flip = 0

        def distance(self, p, q):
            gap = np.abs(p - q)[..., 0]
            flips = self._flip + np.arange(1, gap.size + 1).reshape(gap.shape)
            self._flip += gap.size
            return float_or_rows(gap + np.where(flips % 3 == 0, 0.5, 0.0))

    with pytest.raises(NonConvergent):
        estimate_dx(Jumpy(), np.zeros(1), np.ones(1), -np.ones(1), PR.grid(range(2, 9)))
