"""Tangent operations, induced structures, linearity scans, derivatives."""

import math

import numpy as np
import pytest

from dilatation_lab.core.scales import POSITIVE_REALS as PR
from dilatation_lab.core.harness import verify_axiom
from dilatation_lab.core.structure import Ball, approx_difference, approx_sum, estimate_dx
from dilatation_lab.errors import DomainViolation, NonConvergent
from dilatation_lab.models import EuclideanModel, HeisenbergModel, PullbackModel
from dilatation_lab.emergent import (
    InducedStructure, check_affine_map, inflin_scan, lin_defect,
    metric_tangent_scan, pansu_derivative, plin1_scan, shift_isometry_defect,
    tangent_limit, tangent_space)

GRID = PR.grid(range(2, 13))
HALF = PR.scale(0.5)


# --- tangent limits -----------------------------------------------------------

def test_tangent_sum_euclid(euclid1):
    lim, rep = tangent_limit(euclid1, np.array([0.0]), np.array([2.0]),
                             np.array([3.0]), "sum", GRID)
    assert np.allclose(lim, [5.0])
    assert rep.verdict


def test_tangent_inverse_euclid(euclid1):
    lim, _ = tangent_limit(euclid1, np.array([0.0]), np.array([3.0]), None,
                           "inverse", GRID)
    assert np.allclose(lim, [-3.0])


def test_tangent_limit_needs_two_scales(heis1):
    # one composite, or none, shows no limit: there is no increment to settle
    u, v = heis1.point([0.1, 0.0], 0.0), heis1.point([0.0, 0.1], 0.0)
    for ks in ([3], []):
        with pytest.raises(ValueError, match="at least 2 scales"):
            tangent_limit(heis1, heis1.identity(), u, v, "sum", PR.grid(ks))
    _, rep = tangent_limit(heis1, heis1.identity(), u, v, "sum", PR.grid([3, 4]))
    assert len(rep.defect) == 2 and len(rep.metadata["cauchy_increments"]) == 1


# a trend needs two scales: below that, a sweep has nothing to compare and must not pass

SHORT_GRIDS = [PR.grid([]), PR.grid([3])]


def test_pansu_derivative_needs_two_scales(heis1):
    x, u = heis1.point([0.1, 0.0], 0.0), heis1.point([0.0, 0.1], 0.0)
    for grid in SHORT_GRIDS:
        with pytest.raises(ValueError, match="pansu_derivative needs a grid of at least 2"):
            pansu_derivative(heis1, heis1, lambda p: p, x, u, grid)


def test_inflin_scan_needs_two_scales(euclid2):
    for grid in SHORT_GRIDS:
        with pytest.raises(ValueError, match="inflin_scan needs a grid of at least 2"):
            inflin_scan(euclid2, np.zeros(2), np.array([0.3, 0.1]), np.array([0.1, 0.2]), grid)


def test_plin1_scan_needs_two_scales(euclid2):
    for grid in SHORT_GRIDS:
        with pytest.raises(ValueError, match="plin1_scan needs a grid of at least 2"):
            plin1_scan(euclid2, np.zeros(2), np.array([0.3, 0.1]), np.array([0.1, 0.2]), grid)


def test_metric_tangent_scan_needs_two_scales(euclid2):
    for grid in SHORT_GRIDS:
        with pytest.raises(ValueError, match="metric_tangent_scan needs a grid of at least 2"):
            metric_tangent_scan(euclid2, np.zeros(2), grid, sample_count=4)


def test_tangent_sum_heisenberg_is_group_product(heis1):
    u = heis1.point([1.0, 0.0], 0.0)
    v = heis1.point([0.0, 1.0], 0.0)
    lim, rep = tangent_limit(heis1, heis1.identity(), u, v, "sum", GRID)
    assert np.allclose(lim, [1.0, 1.0, 0.5])
    assert rep.metadata["exact_reference"]
    # the numeric path converges to the same point
    assert rep.defect[-1] < rep.defect[0]


def test_float_tangent_limits_settle_on_heisenberg(heis1):
    # the Cauchy rule reads coordinate gaps, which halve with the scale; the
    # Cygan fourth root would show them shrinking by less than CAUCHY_SHRINK
    rng = np.random.default_rng(5)
    x, u, v = (rng.uniform(-0.3, 0.3, 3) for _ in range(3))
    grid = PR.grid(range(3, 11))
    for which, exact in (("sum", heis1.tangent_sum),
                         ("difference", heis1.tangent_difference)):
        lim, rep = tangent_limit(heis1, x, u, v, which, grid)
        assert heis1.coordinate_gap(lim, exact(x, u, v)) == 0.0
        increments = rep.metadata["cauchy_increments"]
        assert all(b < a for a, b in zip(increments, increments[1:]))


def test_tangent_group_laws_via_exact_ops(heis1, engel, cubic_pullback):
    rng = np.random.default_rng(3)
    for model, scalebox in ((heis1, 0.3), (engel, 0.3), (cubic_pullback, 0.1)):
        dim = model.coordinate_dim
        x = model.origin()
        T = tangent_space(model, x, GRID)
        for _ in range(10):
            u, v, w = (rng.uniform(-scalebox, scalebox, dim) for _ in range(3))
            assert model.coordinate_gap(T.sum(x, u), u) < 1e-12
            assert model.coordinate_gap(T.sum(u, x), u) < 1e-12
            assert model.coordinate_gap(T.sum(T.sum(u, v), w),
                                        T.sum(u, T.sum(v, w))) < 1e-6
            assert model.coordinate_gap(T.sum(u, T.inverse(u)), x) < 1e-6


def test_numeric_tangent_matches_exact_on_pullback(cubic_pullback):
    # cross-validation of the closed forms against the raw grid limit; the
    # composites converge at first order, so a deep grid pins them down
    x = np.zeros(2)
    u = np.array([0.05, 0.01])
    v = np.array([-0.03, 0.04])
    deep = PR.grid(range(2, 19))
    lim, rep = tangent_limit(cubic_pullback, x, u, v, "sum", deep)
    assert rep.defect[-1] < 1e-6
    assert np.max(np.abs(lim - cubic_pullback.tangent_sum(x, u, v))) < 1e-12


def test_tangent_dilate_fixes_its_base(heis1):
    T = tangent_space(heis1, heis1.identity(), GRID)
    u = heis1.point([0.2, 0.1], 0.03)
    assert heis1.coordinate_gap(T.dilate(u, HALF, u), u) < 1e-12


def test_tangent_dilate_euclid_closed_form(euclid1):
    T = tangent_space(euclid1, np.array([0.0]), GRID)
    got = T.dilate(np.array([1.0]), HALF, np.array([3.0]))
    assert np.allclose(got, [2.0])


def test_tangent_dilate_matches_conical_dilate(heis1):
    # in a conical group the tangent dilatations anchored at u are the
    # dilatations based at u
    rng = np.random.default_rng(8)
    T = tangent_space(heis1, heis1.identity(), GRID)
    for _ in range(10):
        u = heis1.point(rng.uniform(-0.3, 0.3, 2), rng.uniform(-0.1, 0.1))
        y = heis1.point(rng.uniform(-0.3, 0.3, 2), rng.uniform(-0.1, 0.1))
        assert heis1.coordinate_gap(T.dilate(u, HALF, y),
                                    heis1.dilate(u, HALF, y)) < 1e-9


# --- induced structures ----------------------------------------------------------

def test_tangent_space_without_closed_forms_takes_grid_limits():
    # an induced structure has no tangent_<op>: every operation is a grid limit
    x = np.array([0.01, -0.02])
    u, v = np.array([0.015, 0.005]), np.array([-0.01, 0.02])
    S = InducedStructure(PullbackModel(EuclideanModel(2)), x, HALF)
    grid = PR.grid(range(2, 9))
    T = tangent_space(S, x, grid)
    for which, got in (("sum", T.sum(u, v)), ("difference", T.difference(u, v)),
                       ("inverse", T.inverse(u))):
        assert np.array_equal(got, tangent_limit(S, x, u, v, which, grid)[0])
    assert T.distance(u, v) == estimate_dx(S, x, u, v, grid)[0]


def test_induced_structures_and_lin_defect_need_small_scales(euclid2):
    with pytest.raises(DomainViolation):
        InducedStructure(euclid2, np.zeros(2), PR.one)
    with pytest.raises(DomainViolation):
        lin_defect(euclid2, np.zeros(2), np.ones(2), np.ones(2), HALF, PR.scale(2.0))


def test_induced_equals_original_on_euclid(euclid2):
    ind = InducedStructure(euclid2, np.zeros(2), HALF)
    rng = np.random.default_rng(4)
    for _ in range(10):
        u, v = rng.uniform(-1, 1, (2, 2))
        assert ind.distance(u, v) == pytest.approx(euclid2.distance(u, v), rel=1e-12)
        got = ind.dilate(u, HALF, v)
        assert np.allclose(got, euclid2.dilate(u, HALF, v))


def test_induced_heisenberg_passes_a1_to_a3(heis1):
    ind = InducedStructure(heis1, heis1.origin(), HALF)
    region = Ball(heis1.origin(), 0.2)
    for ax in ("A1", "A2", "A3"):
        rep = verify_axiom(ind, ax, region, GRID, sample_count=8, seed=3)
        assert rep.verdict, (ax, rep.defect[-1])
    assert verify_axiom(ind, "A1", region, GRID, 8, 3).defect[-1] <= 1e-9


def test_induced_heisenberg_cone_property(heis1):
    # no exact tangent here, so every tangent distance is estimated along
    # the grid; each estimate must belong to its own (base, pair)
    ind = InducedStructure(heis1, heis1.origin(), HALF)
    rep = verify_axiom(ind, "ConeProperty", Ball(heis1.origin(), 0.2),
                       PR.grid(range(2, 9)), sample_count=4, seed=0)
    assert rep.metadata["reference"] == "estimated"
    assert rep.verdict, rep.defect


def test_induced_cone_property_off_origin_is_exact(heis1):
    # in floats, roundoff in the rescaled distances (8e-15 rising to 2.8e-12)
    # crossed the defect floor and broke the jitter rule: NonConvergent
    x = heis1.point([0.1, -0.05], 0.02)
    ind = InducedStructure(heis1, x, PR.scale(0.3))
    rep = verify_axiom(ind, "ConeProperty", Ball(x, 0.2), PR.grid(range(2, 9)),
                       sample_count=4, seed=0)
    assert rep.metadata["reference"] == "estimated"
    assert rep.metadata["arithmetic"] == "exact"
    assert rep.verdict and rep.defect == [0.0] * 7


def test_induced_exact_anchor_is_converted_once(monkeypatch):
    base = HeisenbergModel(1)
    x = base.point([0.1, -0.05], 0.02)
    ind = InducedStructure(base, x, PR.scale(0.3))
    calls = []
    to_exact = base.to_exact
    monkeypatch.setattr(base, "to_exact", lambda p: calls.append(1) or to_exact(p))
    rep = verify_axiom(ind, "A1", Ball(x, 0.2), GRID, sample_count=8, seed=5)
    assert rep.metadata["arithmetic"] == "exact"
    assert rep.verdict and rep.defect == [0.0] * len(GRID)
    # the sweep converts its center and its 8 sample points once each, the
    # anchor once more
    assert len(calls) == 1 + 8 + 1


def test_shifted_point_is_fixed(heis1):
    # Sigma^x_mu(u, delta^x_mu u) = u exactly, any model, any contraction
    u = heis1.point([0.25, -0.1], 0.04)
    moved = heis1.dilate(heis1.origin(), HALF, u)
    back = approx_sum(heis1, heis1.origin(), HALF, u, moved)
    assert heis1.coordinate_gap(back, u) < 1e-15


def test_shift_isometry_defect_small(heis1):
    rng = np.random.default_rng(5)
    u = heis1.point([0.1, 0.2], 0.01)
    pairs = [(heis1.point(rng.uniform(-0.2, 0.2, 2), rng.uniform(-0.05, 0.05)),
              heis1.point(rng.uniform(-0.2, 0.2, 2), rng.uniform(-0.05, 0.05)))
             for _ in range(8)]
    assert shift_isometry_defect(heis1, heis1.origin(), HALF, u, pairs) < 1e-9


# --- linearity -----------------------------------------------------------------

def test_lin_defect_zero_euclid(euclid2):
    rng = np.random.default_rng(6)
    for _ in range(20):
        x, y, z = rng.uniform(-1, 1, (3, 2))
        e = PR.scale(float(rng.uniform(0.1, 1.0)))
        m = PR.scale(float(rng.uniform(0.1, 1.0)))
        assert lin_defect(euclid2, x, y, z, e, m) < 1e-14


def test_lin_defect_exact_zero_conical_models():
    from conftest import conical_models
    rng = np.random.default_rng(7)
    for model in conical_models():
        if model.name.startswith("dyadic"):
            x, y, z = model.point(3), model.point(21), model.point(46)
            e, m = model.scale_group.scale(1), model.scale_group.scale(2)
        else:
            dim = model.coordinate_dim
            x, y, z = (model.to_exact(rng.uniform(-0.3, 0.3, dim)) for _ in range(3))
            e = model.to_exact_scale(model.scale_group.contraction(1))
            m = model.to_exact_scale(model.scale_group.contraction(2))
        assert lin_defect(model, x, y, z, e, m) == 0.0, model.name


def test_lin_defect_cubic_pullback_regression(cubic_pullback):
    # frozen at the first verified run of this configuration
    x = np.zeros(2)
    y = np.array([0.2, 0.0])
    z = np.array([0.0, 0.2])
    got = lin_defect(cubic_pullback, x, y, z, HALF, HALF)
    assert got > 1e-3
    assert got == pytest.approx(2.1638973974674944e-3, rel=1e-9)


def test_inflin_scan_flat_zero_euclid(euclid2):
    rep = inflin_scan(euclid2, np.zeros(2), np.array([0.3, 0.1]),
                      np.array([0.1, 0.2]), PR.grid(range(3, 11)))
    assert rep.verdict
    assert max(rep.defect) == 0.0


def test_inflin_scan_decreases_on_cubic_pullback(cubic_pullback):
    rep = inflin_scan(cubic_pullback, np.zeros(2), np.array([0.2, 0.0]),
                      np.array([0.0, 0.2]), PR.grid(range(3, 11)))
    assert rep.verdict
    assert rep.defect[-1] < 0.1 * rep.defect[0]


def test_plin1_scan_cubic_pullback(cubic_pullback):
    rep = plin1_scan(cubic_pullback, np.zeros(2), np.array([0.15, 0.05]),
                     np.array([0.05, 0.12]), PR.grid(range(3, 11)))
    assert rep.verdict
    assert rep.defect[-1] < 1e-3  # frozen threshold, observed decay is ~cubic


def test_plin1_scan_flat_zero_euclid(euclid2):
    rep = plin1_scan(euclid2, np.zeros(2), np.array([0.3, 0.1]),
                     np.array([0.1, 0.2]), PR.grid(range(3, 9)))
    assert rep.verdict
    assert max(rep.defect) < 1e-12


def test_plin1_scan_heisenberg_small(heis1):
    rep = plin1_scan(heis1, heis1.origin(), heis1.point([0.2, 0.0], 0.0),
                     heis1.point([0.0, 0.2], 0.01), PR.grid(range(3, 9)))
    assert max(rep.defect) < 1e-6


@pytest.mark.parametrize("name", ["heis1", "engel"])
def test_linearity_scans_read_lin_exactly_on_conical_groups(name, request):
    # Lin is exactly 0 on a conical group; read in floats, roundoff through the
    # Cygan fourth root, divided by eps^2, rose from 1e-15 to 1e-2 on H(1)
    model = request.getfixturevalue(name)
    grid = PR.grid(range(3, 11))
    for seed in range(5):
        x, y, z = np.random.default_rng(seed).uniform(-0.2, 0.2, (3, model.dim))
        for scan in (inflin_scan, plin1_scan):
            rep = scan(model, x, y, z, grid)
            assert rep.verdict and rep.defect == [0.0] * len(grid), (scan.__name__, seed)


def test_metric_tangent_scan_decreases_on_pullback(cubic_pullback):
    rep = metric_tangent_scan(cubic_pullback, np.zeros(2), GRID, sample_count=12,
                              seed=3)
    assert rep.verdict
    assert rep.defect[-1] < rep.defect[0]


# --- affine maps and derivatives ---------------------------------------------------

def test_affine_map_linear_euclid(euclid2):
    M = np.array([[2.0, 1.0], [0.5, -1.0]])
    b = np.array([0.3, -0.7])
    T = lambda p: M @ p + b
    rng = np.random.default_rng(9)
    samples = [(rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 2)) for _ in range(16)]
    rep = check_affine_map(euclid2, T, samples, PR.grid([1, 2, 3]))
    assert rep.verdict
    assert max(rep.defect) < 1e-12


def test_affine_map_left_translation_heisenberg(heis1):
    w = heis1.to_exact(heis1.point([0.3, -0.2], 0.1))
    T = heis1.left_translation(w)
    rng = np.random.default_rng(10)
    samples = [(heis1.to_exact(rng.uniform(-0.3, 0.3, 3)),
                heis1.to_exact(rng.uniform(-0.3, 0.3, 3))) for _ in range(10)]
    grid = [heis1.to_exact_scale(s) for s in PR.grid([1, 2, 3])]
    rep = check_affine_map(heis1, T, samples, grid)
    assert rep.verdict
    assert max(rep.defect) <= 1e-9


def test_affine_map_rejects_square_witness(euclid2):
    T = lambda p: np.array([p[0] ** 2, p[1]])
    rng = np.random.default_rng(11)
    samples = [(rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 2)) for _ in range(16)]
    rep = check_affine_map(euclid2, T, samples, PR.grid([1, 2, 3]))
    assert not rep.verdict
    assert max(rep.defect) > 0.01


def test_affine_map_applies_the_map_once_per_point(heis1):
    # T maps each sample point once, for the Lipschitz estimate and every scale
    # alike, and each image delta^x_eps y once per scale: 2P + PE calls
    w = heis1.to_exact(heis1.point([0.3, -0.2], 0.1))
    translate = heis1.left_translation(w)
    calls = []

    def T(p):
        calls.append(p)
        return translate(p)
    rng = np.random.default_rng(10)
    samples = [tuple(heis1.to_exact(rng.uniform(-0.3, 0.3, 3)) for _ in range(2))
               for _ in range(5)]
    grid = [heis1.to_exact_scale(s) for s in PR.grid([1, 2, 3, 4])]
    rep = check_affine_map(heis1, T, samples, grid)
    assert rep.verdict
    assert len(calls) == 2 * 5 + 5 * 4


def test_pansu_identity_map(heis1):
    x = heis1.to_exact(heis1.point([0.1, 0.0], 0.02))
    u = heis1.to_exact(heis1.point([0.3, 0.1], 0.0))
    grid = [heis1.to_exact_scale(s) for s in GRID]
    q, rep = pansu_derivative(heis1, heis1, lambda p: p, x, u, grid)
    assert heis1.coordinate_gap(q, u) == 0.0
    assert rep.verdict
    assert max(rep.defect) == 0.0


def test_pansu_smooth_map_jacobian_oracle(euclid2):
    f = lambda p: np.array([math.sin(p[0]) + 0.5 * math.cos(p[1]),
                            p[1] + 0.25 * math.sin(p[0])])
    x = np.zeros(2)
    u = np.array([0.1, 0.05])
    q, rep = pansu_derivative(euclid2, euclid2, f, x, u, GRID)
    # independent oracle: central finite differences of f at x
    h = 1e-6
    J = np.empty((2, 2))
    for j in range(2):
        step = np.zeros(2)
        step[j] = h
        J[:, j] = (f(x + step) - f(x - step)) / (2 * h)
    assert np.max(np.abs(q - (f(x) + J @ (u - x)))) < 1e-6
    assert rep.verdict


def test_pansu_dilation_is_conical_morphism(heis1):
    lam = heis1.to_exact_scale(PR.scale(0.75))
    e = heis1.to_exact(heis1.identity())
    f = lambda p: heis1.dilate(e, lam, p)
    x = heis1.to_exact(heis1.point([0.1, -0.05], 0.01))
    u = heis1.to_exact(heis1.point([0.25, 0.2], -0.02))
    grid = [heis1.to_exact_scale(s) for s in GRID]
    q, rep = pansu_derivative(heis1, heis1, f, x, u, grid)
    assert heis1.coordinate_gap(q, f(u)) <= 1e-9
    assert rep.verdict


def test_pansu_derivative_maps_each_dilated_point_once(euclid2):
    # f(x), one f(delta^x_eps u) per grid scale, shared by the candidates and
    # the residuals, and one at the reference scale: G + 2 calls
    calls = []

    def f(p):
        calls.append(p)
        return np.array([math.sin(p[0]), p[1] + 0.25 * p[0] * p[0]])
    q, rep = pansu_derivative(euclid2, euclid2, f, np.zeros(2), np.array([0.1, 0.05]), GRID)
    assert rep.verdict
    assert len(calls) == len(GRID) + 2


def test_pansu_flags_oscillation(euclid1):
    def f(p):
        t = float(p[0])
        if t == 0.0:
            return np.zeros(1)
        return np.array([t * math.sin(math.pi * math.log2(abs(t)))])

    with pytest.raises(NonConvergent):
        pansu_derivative(euclid1, euclid1, f, np.zeros(1), np.array([0.7]), GRID)


def test_translation_commutation_with_dilatations(heis1):
    # Delta^x_eps(delta^x_mu u, delta^x_mu v) = delta^{delta^x_{eps mu} u}_mu
    #   Delta^x_{eps mu}(u, v), exactly on conical models
    rng = np.random.default_rng(12)
    e = heis1.to_exact_scale(PR.scale(0.5))
    m = heis1.to_exact_scale(PR.scale(0.25))
    for _ in range(10):
        x, u, v = (heis1.to_exact(rng.uniform(-0.3, 0.3, 3)) for _ in range(3))
        lhs = approx_difference(heis1, x, e, heis1.dilate(x, m, u),
                                heis1.dilate(x, m, v))
        rhs = heis1.dilate(heis1.dilate(x, e * m, u), m,
                           approx_difference(heis1, x, e * m, u, v))
        assert heis1.coordinate_gap(lhs, rhs) == 0.0
