"""Menelaos fixed points, the h/g inversion, collinear triples, diagnostics."""

import dataclasses
import math
import warnings
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from conftest import STEP3_HALF, conical_models
from dilatation_lab.config import ENVELOPE_ABS_SLACK, ENVELOPE_SLACK, MENELAOS_PROBE_TOL
from dilatation_lab.core.scales import DYADIC_POWERS as DP, POSITIVE_REALS as PR
from dilatation_lab.core.structure import approx_difference, approx_sum, exactify
from dilatation_lab.errors import DomainViolation, MaxIterExceeded
from dilatation_lab.models import (
    CarnotModel, ComplexHeisenbergModel, DyadicBoundaryModel, EuclideanModel, ExactPoint,
    HeisenbergModel, engel_structure_constants, heisenberg_structure_constants)
from dilatation_lab.affine import (
    CollinearTriple, banach_oracle, barycentric_defect, check_collinear,
    collinear_triple_from_ratio, collinearity_defect, counterexample_check,
    distance_estimates_check, g_map, geometric_affinity_check, h_map,
    heisenberg_ratio_closed_form, menelaos_iterate, probe_points, ratio_point,
    reversed_collinear_search)

HALF = PR.scale(0.5)
GRID = PR.grid(range(2, 13))


# --- Menelaos ------------------------------------------------------------------

def test_menelaos_euclid_closed_form(euclid1):
    res = menelaos_iterate(euclid1, np.array([0.0]), HALF, np.array([1.0]), HALF)
    assert np.allclose(res.w, [1.0 / 3.0], atol=1e-11)
    assert res.residual <= 1e-12
    assert res.contraction_rate == pytest.approx(0.25, abs=1e-9)
    assert res.probe_defect < 1e-10


def test_menelaos_equal_points_fixed(euclid2, heis1):
    x = np.array([0.4, -0.2])
    res = menelaos_iterate(euclid2, x, HALF, x.copy(), PR.scale(0.75))
    assert np.allclose(res.w, x)
    assert res.iterations == 0


def test_menelaos_heisenberg_acceptance_point(heis1):
    X = heis1.point([1.0, 0.0], 0.0)
    Y = heis1.point([0.0, 1.0], 0.0)
    res = menelaos_iterate(heis1, X, HALF, Y, HALF)
    assert np.allclose(res.w, [2.0 / 3.0, 1.0 / 3.0, 1.0 / 15.0], atol=1e-11)
    # per-step contraction is exactly nu(eps mu)
    assert all(abs(r - 0.25) < 1e-6 for r in res.step_rates)


def test_menelaos_rejects_expanding_scales(euclid1):
    with pytest.raises(DomainViolation):
        menelaos_iterate(euclid1, np.zeros(1), PR.scale(1.5), np.ones(1), HALF)


def test_menelaos_stops_a_contraction_that_stalls(euclid1):
    class Stalled(type(euclid1)):
        def coordinate_gap(self, p, q):
            return 1.0  # never shrinks

    with pytest.raises(MaxIterExceeded, match="contraction stalled"):
        menelaos_iterate(Stalled(1), np.zeros(1), HALF, np.ones(1), HALF)
    with pytest.raises(MaxIterExceeded, match="contraction stalled"):
        distance_estimates_check(Stalled(1), np.zeros(1), np.ones(1), HALF, HALF)


def test_menelaos_warns_on_nonlinear_structure(cubic_pullback):
    with pytest.warns(UserWarning):
        menelaos_iterate(cubic_pullback, np.zeros(2), HALF,
                         np.array([0.2, 0.1]), HALF)
    # it warns exactly when the probe defect fails the CLI menelaos verdict's rule
    rng = np.random.default_rng(38)
    warned, failed = [], []
    for _ in range(20):
        x, y = rng.uniform(-0.05, 0.05, (2, 2))
        eps, mu = (PR.scale(float(v)) for v in rng.uniform(0.15, 0.85, 2))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            res = menelaos_iterate(cubic_pullback, x, eps, y, mu)
        warned.append(len(caught))
        failed.append(int(res.probe_defect > MENELAOS_PROBE_TOL))
        assert all(f"looks nonlinear near the inputs (probe defect {res.probe_defect:.3g})"
                   in str(w.message) for w in caught)
    assert warned == failed


@pytest.mark.parametrize("model", conical_models(), ids=lambda m: m.name)
def test_menelaos_does_not_warn_on_conical_models(model):
    # dilatations of a conical group commute exactly, and their probe defect
    # stays at roundoff; the dyadic words probe exactly
    rng = np.random.default_rng(0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for _ in range(20):
            if isinstance(model, DyadicBoundaryModel):
                x, y = (model.point(int.from_bytes(rng.bytes(8), "little")) for _ in range(2))
                eps, mu = (DP.scale(int(k)) for k in rng.integers(1, 4, 2))
            else:
                x, y = rng.uniform(-0.5, 0.5, (2, model.coordinate_dim))
                eps, mu = (PR.scale(float(v)) for v in rng.uniform(0.15, 0.85, 2))
            menelaos_iterate(model, x, eps, y, mu)


def test_menelaos_refuses_a_non_finite_point_under_a_complex_scale(cxheis):
    # a complex scale has no exact value, yet a NaN point is still named
    eps = cxheis.scale_group.scale(complex(0.3, 0.4))
    with pytest.raises(DomainViolation, match=r"non-finite coordinate"):
        menelaos_iterate(cxheis, np.array([math.nan, 0.0, 0.0]), eps, np.zeros(3), eps)


def test_menelaos_on_exact_inputs(heis1):
    # the probe step samples around the exact fixed point and probes exactly
    rng = np.random.default_rng(5)
    x, y = rng.uniform(-0.3, 0.3, 3), rng.uniform(-0.3, 0.3, 3)
    eps, mu = HALF, PR.scale(0.25)
    floats = menelaos_iterate(heis1, x, eps, y, mu)
    exact = menelaos_iterate(heis1, heis1.to_exact(x), heis1.to_exact_scale(eps),
                             heis1.to_exact(y), heis1.to_exact_scale(mu))
    assert type(exact.w) is ExactPoint
    assert exact.iterations == floats.iterations
    assert heis1.coordinate_gap(exact.w.to_float(), floats.w) <= 1e-12
    assert exact.probe_defect <= 1e-12
    assert all(r == 0.125 for r in exact.step_rates)


def test_banach_oracle_agrees(euclid1, heis1):
    w = banach_oracle(euclid1, np.array([0.0]), HALF, np.array([1.0]), HALF,
                      np.array([0.9]))
    assert np.allclose(w, [1.0 / 3.0], atol=1e-11)
    X = heis1.point([1.0, 0.0], 0.0)
    Y = heis1.point([0.0, 1.0], 0.0)
    res = menelaos_iterate(heis1, X, HALF, Y, HALF)
    wb = banach_oracle(heis1, X, HALF, Y, HALF, X)
    assert heis1.coordinate_gap(res.w, wb) < 1e-10


def test_banach_oracle_fixed_start(euclid1):
    w = np.array([1.0 / 3.0])
    got = banach_oracle(euclid1, np.array([0.0]), HALF, np.array([1.0]), HALF, w)
    assert np.allclose(got, w, atol=1e-11)


def test_banach_oracle_stops_on_generic_carnot_brackets():
    # a plain CarnotModel with H(2)'s brackets: [-u, u] cancels in its float
    # product, so an iterate that is fixed bit for bit is at distance 0; a
    # MaxIterExceeded fails the test
    G = CarnotModel(2, *heisenberg_structure_constants(2))
    rng = np.random.default_rng(1)
    for _ in range(30):
        x, y, u0 = rng.uniform(-1.0, 1.0, (3, G.dim))
        eps, mu = (PR.scale(float(e)) for e in rng.uniform(0.2, 0.8, 2))
        banach_oracle(G, x, eps, y, mu, u0)


def test_banach_max_iter(euclid1):
    with pytest.raises(MaxIterExceeded):
        banach_oracle(euclid1, np.zeros(1), PR.scale(0.9999), np.ones(1),
                      PR.scale(0.9999), np.array([50.0]), tol=1e-15, max_iter=3)


def _counted(model, names=("dilate", "distance", "coordinate_gap")) -> Counter:
    """Wrap the named methods on the instance, counting calls; the instance
    wrapper makes every loop take the structure's own methods."""
    calls = Counter()

    def counted(name, method):
        def wrapper(*args):
            calls[name] += 1
            return method(*args)
        return wrapper

    for name in names:
        setattr(model, name, counted(name, getattr(model, name)))
    return calls


def _bits(value):
    """Every float of a loop's result as hex, arrays as their bytes."""
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.tobytes()
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, (list, tuple)):
        return [_bits(v) for v in value]
    if isinstance(value, ExactPoint):
        return repr(value)
    if dataclasses.is_dataclass(value):
        return {f.name: _bits(getattr(value, f.name)) for f in dataclasses.fields(value)}
    return value


def _loops(model, x, y, eps, mu):
    """The three single-point loops at one draw, bit for bit."""
    return _bits([menelaos_iterate(model, x, eps, y, mu),
                  distance_estimates_check(model, x, y, eps, mu),
                  banach_oracle(model, x, eps, y, mu, x)])


VIEW_MODELS = {
    "euclid-2d": lambda: EuclideanModel(2), "H(1)": lambda: HeisenbergModel(1),
    "H(2)": lambda: HeisenbergModel(2),
    "engel": lambda: CarnotModel(3, *engel_structure_constants()),
    "CxR": ComplexHeisenbergModel, "step3-half": lambda: CarnotModel(3, *STEP3_HALF)}


@pytest.mark.parametrize("make", VIEW_MODELS.values(), ids=VIEW_MODELS.keys())
def test_single_point_kernels_step_bit_for_bit(make):
    # the loops on the generated kernels against the same model with its
    # primitives wrapped on the instance, which keeps them on its methods
    model, default = make(), make()
    _counted(default)
    rng = np.random.default_rng(36)
    for _ in range(5):
        x, y = rng.uniform(-0.3, 0.3, (2, model.coordinate_dim))
        eps, mu = (PR.scale(float(v)) for v in rng.uniform(0.15, 0.85, 2))
        assert model.single_point_kernels([x, y], [eps, mu])[2] == model._dilate_point
        assert default.single_point_kernels([x, y], [eps, mu])[2] is default.dilate
        assert _loops(model, x, y, eps, mu) == _loops(default, x, y, eps, mu)


@pytest.mark.parametrize("make", VIEW_MODELS.values(), ids=VIEW_MODELS.keys())
def test_menelaos_on_floats_builds_no_exact_point(make, monkeypatch):
    # the probe defect is the one reading of the Menelaos property: float
    # inputs take no exact conversion on the way
    def refuse(cls, coords):
        raise AssertionError("an exact point was built")

    model = make()
    monkeypatch.setattr(ExactPoint, "from_floats", classmethod(refuse))
    rng = np.random.default_rng(38)
    for _ in range(20):
        x, y = rng.uniform(-0.3, 0.3, (2, model.coordinate_dim))
        eps, mu = (PR.scale(float(v)) for v in rng.uniform(0.15, 0.85, 2))
        menelaos_iterate(model, x, eps, y, mu)


def test_banach_reads_a_subclass_distance():
    class Blind(HeisenbergModel):
        def distance(self, p, q):
            return 0.0  # every step looks converged

    model = Blind(1)
    x, y, u0 = model.point([0.1, 0.0], 0.0), model.point([0.0, 0.2], 0.1), np.zeros(3)
    got = banach_oracle(model, x, HALF, y, HALF, u0)
    assert _bits(got) == _bits(model.dilate(x, HALF, model.dilate(y, HALF, u0)))


def test_complex_scales_and_exact_points_take_the_structure_methods(cxheis, heis1):
    # neither has a working form of its own: the loops run the methods, as before
    x, y = cxheis.point(0.1 + 0.2j, 0.05), cxheis.point(-0.2j, 0.1)
    eps, mu = cxheis.scale_group.scale(0.3 + 0.4j), cxheis.scale_group.scale(0.5)
    X, Y = (heis1.to_exact(heis1.point(*p)) for p in (([0.1, 0.0], 0.0), ([0.0, 0.2], 0.1)))
    e, m = heis1.to_exact_scale(HALF), heis1.to_exact_scale(PR.scale(0.25))
    for make, points, scales in ((ComplexHeisenbergModel, (x, y), (eps, mu)),
                                 (lambda: HeisenbergModel(1), (X, Y), (e, m))):
        model, default = make(), make()
        _counted(default)
        assert model.single_point_kernels(list(points), list(scales))[2] == model.dilate
        p, q = points
        assert _loops(model, p, q, *scales) == _loops(default, p, q, *scales)


@pytest.mark.parametrize("nan_at", ["u0", "x"])
def test_banach_stops_at_a_nan_step(nan_at):
    # a NaN distance is within no tol: the first step raises, not the 10,000th
    model = HeisenbergModel(1)
    calls = _counted(model, ["dilate"])
    args = {"x": model.point([0.1, 0.0], 0.0), "y": model.point([0.0, 0.2], 0.1),
            "u0": np.zeros(3)}
    args[nan_at] = model.point([math.nan, 0.0], 0.0)
    for S in (model, HeisenbergModel(1)):
        with pytest.raises(MaxIterExceeded, match="step 1 moved the iterate by a NaN"):
            banach_oracle(S, args["x"], HALF, args["y"], HALF, args["u0"])
    assert calls["dilate"] == 2


# --- h and g -----------------------------------------------------------------------

def test_h_map_euclid(euclid1):
    assert np.allclose(h_map(euclid1, HALF, np.array([4.0])), [2.0])


def test_h_map_heisenberg_vertical(heis1):
    got = h_map(heis1, HALF, heis1.point([0.0, 0.0], 1.0))
    assert np.allclose(got, [0.0, 0.0, 0.75])


def test_h_g_homogeneous(heis1):
    rng = np.random.default_rng(3)
    for _ in range(20):
        x = heis1.point(rng.uniform(-1, 1, 2), rng.uniform(-0.5, 0.5))
        mu = PR.scale(float(rng.uniform(0.2, 1.5)))
        lhs = h_map(heis1, HALF, heis1.ambient_dilate(mu, x))
        rhs = heis1.ambient_dilate(mu, h_map(heis1, HALF, x))
        assert np.max(np.abs(lhs - rhs)) < 1e-12
        g_lhs = g_map(heis1, HALF, heis1.ambient_dilate(mu, x), 48).point
        g_rhs = heis1.ambient_dilate(mu, g_map(heis1, HALF, x, 48).point)
        assert np.max(np.abs(g_lhs - g_rhs)) < 1e-11


def test_g_map_geometric_series(euclid1):
    res = g_map(euclid1, HALF, np.array([2.0]), 40)
    assert np.allclose(res.point, [4.0], atol=2 ** -38)
    assert res.truncation_bound == pytest.approx(0.5 ** 41 / 0.5 * 2.0)


def test_g_map_fixes_identity(heis1):
    res = g_map(heis1, HALF, heis1.identity(), 16)
    assert np.allclose(res.point, heis1.identity())


def test_g_map_truncation_tail_bound(heis1):
    rng = np.random.default_rng(4)
    for _ in range(10):
        y = heis1.point(rng.uniform(-1, 1, 2), rng.uniform(-0.5, 0.5))
        eps = PR.scale(float(rng.uniform(0.2, 0.7)))
        for N in (4, 7, 11):
            a = g_map(heis1, eps, y, N).point
            b = g_map(heis1, eps, y, N + 1).point
            bound = eps.nu ** (N + 1) / (1.0 - eps.nu) * heis1.homogeneous_norm(y)
            assert heis1.distance(a, b) <= bound + 1e-12


@pytest.mark.parametrize("make", VIEW_MODELS.values(), ids=VIEW_MODELS.keys())
def test_g_map_folds_through_an_instance_group_product(make):
    # a group_product wrapped on the instance sees each of the N terms, and the
    # fold on the generated kernel gives the same bits
    model, counted = make(), make()
    calls = _counted(counted, ["group_product"])
    rng = np.random.default_rng(37)
    for N in (1, 7, 64):
        y = rng.uniform(-0.3, 0.3, model.coordinate_dim)
        eps = model.scale_group.scale(float(rng.uniform(0.15, 0.85)))
        calls.clear()
        assert _bits(g_map(model, eps, y, N)) == _bits(g_map(counted, eps, y, N))
        assert calls["group_product"] == N


def test_g_map_folds_through_a_subclass_group_product():
    calls = []

    class Counted(HeisenbergModel):
        def group_product(self, a, b):
            calls.append(1)
            return super().group_product(a, b)

    y = HeisenbergModel(1).point([0.1, -0.2], 0.05)
    assert _bits(g_map(Counted(1), HALF, y, 64)) == _bits(g_map(HeisenbergModel(1), HALF, y, 64))
    assert len(calls) == 64


def test_g_inverts_h(euclid1, heis1):
    # exact rational arithmetic: the roundtrip residue is exactly
    # delta_{eps^{N+1}}(x), far below the stated tail bound
    rng = np.random.default_rng(5)
    for model in (euclid1, heis1):
        for _ in range(10):
            x = model.to_exact(rng.uniform(-1, 1, model.coordinate_dim))
            eps = model.to_exact_scale(PR.scale(float(rng.uniform(0.2, 0.7))))
            back = g_map(model, eps, h_map(model, eps, x), 64).point
            nu = eps.nu
            bound = nu ** 65 / (1.0 - nu) * model.homogeneous_norm(x) + 1e-12
            assert model.distance(back, x) <= bound


def test_ratio_point_agrees_with_iterations(heis1, heis2):
    # the closed form sums omega by BLAS dots, independently of the compiled product
    rng = np.random.default_rng(6)
    for model in (heis1, heis2):
        for _ in range(50):
            X, Y = (model.point(rng.uniform(-0.6, 0.6, 2 * model.n), rng.uniform(-0.3, 0.3))
                    for _ in range(2))
            e = PR.scale(float(rng.uniform(0.2, 0.8)))
            m = PR.scale(float(rng.uniform(0.2, 0.8)))
            w_iter = menelaos_iterate(model, X, e, Y, m, tol=1e-13).w
            w_hg = ratio_point(model, X, Y, e, m, 64)
            w_closed = heisenberg_ratio_closed_form(model, X, Y, e.value, m.value)
            assert model.coordinate_gap(w_iter, w_hg) < 1e-10
            assert model.coordinate_gap(w_hg, w_closed) < 1e-12


def test_ratio_point_euclid_closed_form(euclid1):
    got = ratio_point(euclid1, np.array([0.0]), np.array([1.0]), HALF, HALF, 64)
    assert np.allclose(got, [1.0 / 3.0], atol=1e-12)


def test_ratio_point_of_equal_points(heis1):
    X = heis1.point([0.3, 0.2], 0.1)
    got = ratio_point(heis1, X, X.copy(), HALF, PR.scale(0.25), 64)
    assert heis1.coordinate_gap(got, X) < 1e-12


def test_ratio_point_on_dyadic_words_is_the_menelaos_point(dyadic):
    # the h/g product runs the dyadic ambient_dilate; g_map's bound its homogeneous_norm
    rng = np.random.default_rng(3)
    for _ in range(4):
        x, y = (dyadic.point(int.from_bytes(rng.bytes(8), "little")) for _ in range(2))
        for e, m in ((1, 1), (1, 2), (2, 3)):
            eps, mu = DP.scale(e), DP.scale(m)
            w = menelaos_iterate(dyadic, x, eps, y, mu, tol=0.0).w
            assert ratio_point(dyadic, x, y, eps, mu, 64) == w
        assert 0.0 < g_map(dyadic, DP.scale(1), y, 64).truncation_bound < math.inf


def test_heisenberg_closed_form_abelian_reduction(heis1):
    # omega(x, y) = 0 and flat center: vertical part 0, planar part Euclidean
    X = heis1.point([0.4, 0.0], 0.0)
    Y = heis1.point([0.8, 0.0], 0.0)
    Z = heisenberg_ratio_closed_form(heis1, X, Y, 0.5, 0.25)
    planar = (1 - 0.5) / (1 - 0.125) * X[:2] + 0.5 * (1 - 0.25) / (1 - 0.125) * Y[:2]
    assert np.allclose(Z[:2], planar)
    assert Z[2] == 0.0


# --- collinear triples -----------------------------------------------------------

def test_collinear_triple_validation(euclid1):
    with pytest.raises(ValueError):
        CollinearTriple(np.zeros(1), np.ones(1), np.ones(1), 1.0, 2.0)
    with pytest.raises(ValueError):
        CollinearTriple(np.zeros(1), np.ones(1), np.ones(1), 2.0, 0.5)
    with pytest.raises(ValueError):
        CollinearTriple(np.zeros(1), np.ones(1), np.ones(1), -0.5, 2.0)
    t = CollinearTriple(np.zeros(1), np.ones(1), np.full(1, 1 / 3), 0.5, 0.5)
    assert t.gamma == pytest.approx(4.0)
    assert t.ratio_norm == pytest.approx(2.0 / 3.0)


def test_check_collinear_euclid_closed_form(euclid1):
    # z from the classical ratio relation, gamma = 4
    t = CollinearTriple(np.array([0.0]), np.array([1.0]), np.array([1.0 / 3.0]),
                        0.5, 0.5)
    rep = check_collinear(euclid1, t)
    assert rep.verdict
    assert rep.defect[0] < 1e-12
    assert rep.metadata["ratio_norm"] == pytest.approx(2.0 / 3.0)


def test_check_collinear_circular_permutation(euclid2):
    x = np.array([0.1, 0.2])
    y = np.array([0.5, -0.3])
    t = collinear_triple_from_ratio(EuclideanFix2(), x, y, 0.5, 0.25)
    rotated = CollinearTriple(t.y, t.z, t.x, t.beta, t.gamma)
    assert check_collinear(euclid2, t).verdict
    assert check_collinear(euclid2, rotated).verdict


def EuclideanFix2():
    from dilatation_lab.models import EuclideanModel
    return EuclideanModel(2)


def test_check_collinear_heisenberg_exact(heis1):
    X = heis1.to_exact(heis1.point([1.0, 0.0], 0.0))
    Y = heis1.to_exact(heis1.point([0.0, 1.0], 0.0))
    alpha = beta = Fraction(1, 2)
    t = collinear_triple_from_ratio(heis1, X, Y, alpha, beta)
    probes = [heis1.to_exact(p) for p in probe_points(heis1, heis1.origin(), 0.3, 1)]
    rep = check_collinear(heis1, t, probes=probes)
    assert rep.verdict
    assert rep.defect[0] <= 1e-9


def test_check_collinear_exact_triple_default_probes(heis1):
    X = heis1.to_exact(heis1.point([1.0, 0.0], 0.0))
    Y = heis1.to_exact(heis1.point([0.0, 1.0], 0.0))
    t = collinear_triple_from_ratio(heis1, X, Y, Fraction(1, 2), Fraction(1, 2))
    rep = check_collinear(heis1, t)
    assert rep.metadata["probe_count"] == 16
    assert rep.verdict and rep.defect[0] <= 1e-9
    T = heis1.left_translation(heis1.to_exact(heis1.point([0.2, -0.1], 0.05)))
    assert geometric_affinity_check(heis1, T, [t]).verdict


def test_reversed_collinear_impossible_heisenberg(heis1):
    X = heis1.point([1.0, 0.0], 0.0)
    Y = heis1.point([0.0, 1.0], 0.0)
    Z = heisenberg_ratio_closed_form(heis1, X, Y, 0.5, 0.5)
    best = reversed_collinear_search(heis1, X, Y, Z, resolution=12)
    assert best > 1e-3


def _scalar_reversed_search(M, X, Y, Z, probes, grid_lo=1.01, grid_hi=4.0, resolution=50):
    """The search as it ran before batches: one probe at a time, with the early exit."""
    sg = M.scale_group
    alphas = np.linspace(grid_lo, grid_hi, resolution)
    best = float("inf")
    for a in alphas:
        sa = sg.scale(float(a))
        for b in alphas:
            sb = sg.scale(float(b))
            sc = sg.scale(1.0 / (float(a) * float(b)))
            worst = 0.0
            for p in probes:
                moved = M.dilate(Y, sb, M.dilate(X, sa, M.dilate(Z, sc, p)))
                worst = max(worst, M.distance(moved, p))
                if worst >= best:
                    break
            best = min(best, worst)
    return best


@pytest.mark.parametrize("n", [1, 2])
def test_reversed_collinear_search_equals_the_scalar_loop(n):
    M = HeisenbergModel(n)
    for seed in range(5):
        rng = np.random.default_rng(seed)
        X, Y = rng.uniform(-1.0, 1.0, (2, M.coordinate_dim))
        probes = probe_points(M, X, M.closeness_budget(), seed)
        for eps, mu in ((0.5, 0.5), (0.3, 0.7)):
            Z = heisenberg_ratio_closed_form(M, X, Y, eps, mu)
            best = reversed_collinear_search(M, X, Y, Z, resolution=24, probes=probes)
            assert best == _scalar_reversed_search(M, X, Y, Z, probes, resolution=24)


def test_reversed_collinear_search_on_exact_probes(heis1):
    X = heis1.point([1.0, 0.0], 0.0)
    Y = heis1.point([0.0, 1.0], 0.0)
    eX, eY, eZ = (heis1.to_exact(p) for p in
                  (X, Y, heisenberg_ratio_closed_form(heis1, X, Y, 0.5, 0.5)))
    probes = probe_points(heis1, eX, heis1.closeness_budget())
    assert all(type(p) is ExactPoint for p in probes)
    # the values the one-probe-at-a-time search gave
    for lo, hi, resolution, value in ((1.01, 4.0, 3, 0.1589918406173096),
                                      (0.3, 3.0, 4, 0.6869698851913195)):
        best = reversed_collinear_search(heis1, eX, eY, eZ, lo, hi, resolution, probes)
        assert best == value
        assert best == _scalar_reversed_search(heis1, eX, eY, eZ, probes, lo, hi, resolution)


def test_reversed_collinear_search_needs_an_exponent(heis1):
    # no exponent pair would leave the exact search at inf, "reversal is impossible"
    X = heis1.point([1.0, 0.0], 0.0)
    Y = heis1.point([0.0, 1.0], 0.0)
    points = (X, Y, heisenberg_ratio_closed_form(heis1, X, Y, 0.5, 0.5))
    for X, Y, Z in (points, [heis1.to_exact(p) for p in points]):
        probes = probe_points(heis1, X, heis1.closeness_budget())
        for resolution in (0, -1):
            with pytest.raises(ValueError, match="reversed_collinear_search needs a resolution"):
                reversed_collinear_search(heis1, X, Y, Z, resolution=resolution, probes=probes)


def test_reversed_collinear_search_makes_one_distance_call_per_exponent(heis1, monkeypatch):
    X = heis1.point([1.0, 0.0], 0.0)
    Y = heis1.point([0.0, 1.0], 0.0)
    Z = heisenberg_ratio_closed_form(heis1, X, Y, 0.5, 0.5)
    probes = probe_points(heis1, X, heis1.closeness_budget())
    rows = []
    distance = heis1.distance
    monkeypatch.setattr(heis1, "distance", lambda p, q: rows.append(len(q)) or distance(p, q))
    reversed_collinear_search(heis1, X, Y, Z, resolution=7, probes=probes)
    # one call per exponent a', over every (b', probe) row
    assert rows == [7 * 16] * 7


# --- diagnostics ---------------------------------------------------------------------

def test_barycentric_zero_on_euclid(euclid2):
    rng = np.random.default_rng(8)
    for _ in range(30):
        x, y = rng.uniform(-1, 1, (2, 2))
        eps = PR.scale(float(rng.uniform(0.05, 0.95)))
        assert barycentric_defect(euclid2, x, y, eps) < 1e-12


def test_barycentric_defect_keeps_an_exact_scale_exact(euclid2):
    # 1 - eps of a Fraction scale stays a Fraction, so the exact Euclidean
    # defect is 0.0, not the roundoff of a float 1 - eps
    (x, y), (eps,), exact = exactify(euclid2, [np.array([0.1, 0.2]), np.array([0.7, -0.3])],
                                     [PR.scale(0.3)])
    assert exact and isinstance(eps.value, Fraction)
    assert barycentric_defect(euclid2, x, y, eps) == 0.0


def test_barycentric_sqrt2_on_heisenberg(heis1):
    got = barycentric_defect(heis1, heis1.identity(),
                             heis1.point([0.0, 0.0], 1.0), HALF)
    assert got == pytest.approx(math.sqrt(2.0), abs=1e-12)


def test_collinearity_defect_euclid(euclid1, euclid2):
    assert collinearity_defect(euclid1, np.array([0.0]), np.array([1.0]),
                               HALF) == pytest.approx(0.0, abs=1e-12)
    rng = np.random.default_rng(9)
    for _ in range(20):
        u, v = rng.uniform(-1, 1, (2, 2))
        eps = PR.scale(float(rng.uniform(0.1, 0.9)))
        assert collinearity_defect(euclid2, u, v, eps) < 1e-12


def test_collinearity_defect_heisenberg_vertical(heis1):
    got = collinearity_defect(heis1, heis1.identity(),
                              heis1.point([0.0, 0.0], 1.0), HALF)
    assert got > 0.5
    assert got == pytest.approx(3.0 - math.sqrt(5.0), abs=1e-12)


def test_distance_estimates_tight_euclid(euclid1):
    l1, l2, ok = distance_estimates_check(euclid1, np.array([0.0]),
                                          np.array([1.0]), HALF, HALF)
    assert ok
    assert l1 == pytest.approx(1.0 / 3.0, abs=1e-11)
    bound1 = 0.5 / (1 - 0.25) * 0.5
    assert abs(l1 - bound1) < 1e-11  # the first inequality is tight here


def test_distance_estimates_equal_points(euclid2):
    x = np.array([0.2, 0.1])
    l1, l2, ok = distance_estimates_check(euclid2, x, x.copy(), HALF, HALF)
    assert ok and l1 <= 1e-12 and l2 <= 1e-12


def test_distance_estimates_heisenberg_sweep(heis1):
    rng = np.random.default_rng(10)
    for i in range(50):
        pts = heis1.sample_ball(heis1.origin(), 0.2, 2, np.random.default_rng(i))
        e = PR.scale(float(rng.uniform(0.15, 0.85)))
        m = PR.scale(float(rng.uniform(0.15, 0.85)))
        _, _, ok = distance_estimates_check(heis1, pts[0], pts[1], e, m)
        assert ok


def _envelopes_at(S, x, y, eps, mu, w):
    """The envelope triple of distance_estimates_check, at a given base point w."""
    q = eps.nu * mu.nu
    lhs1, lhs2 = S.distance(x, w), S.distance(y, w)
    bound1 = eps.nu / (1.0 - q) * S.distance(x, S.dilate(y, mu, x))
    bound2 = 1.0 / (1.0 - q) * S.distance(y, S.dilate(x, eps, y))
    ok = (lhs1 <= bound1 * (1.0 + ENVELOPE_SLACK) + ENVELOPE_ABS_SLACK
          and lhs2 <= bound2 * (1.0 + ENVELOPE_SLACK) + ENVELOPE_ABS_SLACK)
    return lhs1, lhs2, ok


def test_distance_estimates_match_the_menelaos_point():
    # the envelopes read the base point of the bare paired iteration, which
    # is menelaos_iterate's w bit for bit
    from conftest import conical_models
    rng = np.random.default_rng(18)
    for model in conical_models():
        for i in range(10):
            x, y = model.sample_ball(model.origin(), 0.2, 2, np.random.default_rng(i))
            if isinstance(model, DyadicBoundaryModel):
                e, m = (DP.scale(int(k)) for k in rng.integers(1, 4, 2))
            else:
                e, m = (PR.scale(float(v)) for v in rng.uniform(0.15, 0.85, 2))
            w = menelaos_iterate(model, x, e, y, m).w
            lhs1, lhs2, verdict = distance_estimates_check(model, x, y, e, m)
            assert verdict.rule == "within_envelopes"
            assert repr((lhs1, lhs2, verdict.passed)) == repr(_envelopes_at(model, x, y, e, m, w))


@pytest.mark.parametrize("make", [lambda: HeisenbergModel(1),
                                  lambda: CarnotModel(3, *engel_structure_constants())],
                         ids=["H(1)", "Engel"])
def test_distance_estimates_skip_the_menelaos_diagnostics(make):
    # no probe draw and no step distances: the four distances of the two
    # envelopes, whatever the number of steps; an instance wrapper sees every
    # step of the walk, two dilatations and one gap a step
    model = make()
    x, y = model.sample_ball(model.origin(), 0.2, 2, np.random.default_rng(3))
    calls = _counted(model, ("sample_ball", "distance", "dilate", "coordinate_gap"))
    steps = []
    for e, m in ((0.2, 0.3), (0.85, 0.9)):
        eps, mu = PR.scale(e), PR.scale(m)
        n = menelaos_iterate(make(), x, eps, y, mu).iterations
        calls.clear()
        distance_estimates_check(model, x, y, eps, mu)
        assert calls == {"distance": 4, "dilate": 2 * n + 2, "coordinate_gap": n + 1}
        steps.append(n)
    assert steps[0] < steps[1]


# --- the counterexample ---------------------------------------------------------------

def test_counterexample_is_not_a_translation(cxheis):
    Y = cxheis.point(1.0 + 0.0j, 1.0)
    rep = counterexample_check(cxheis, 0.5, Y, flip=True)
    assert rep.verdict
    assert rep.defect[0] > 1e-6


def test_counterexample_control_is_a_translation(cxheis):
    Y = cxheis.point(1.0 + 0.0j, 1.0)
    rep = counterexample_check(cxheis, 0.5, Y, flip=False)
    assert rep.verdict
    assert rep.defect[0] == 0.0


def test_counterexample_neutral_argument_control(cxheis):
    # with Y the neutral element and eps mu = 1 the composite is the identity
    rep = counterexample_check(cxheis, 0.5, cxheis.identity(), flip=False)
    assert rep.defect[0] == 0.0
    # with eps mu = -1 it is the dilatation of coefficient -1, not a translation
    rep2 = counterexample_check(cxheis, 0.5, cxheis.identity(), flip=True)
    assert rep2.defect[0] > 1e-6


# --- geometric affinity ------------------------------------------------------------------

def test_geometric_affinity_linear_map(euclid2):
    M = np.array([[1.0, 0.5], [-0.25, 2.0]])
    T = lambda p: M @ p + np.array([0.1, -0.2])
    triples = [collinear_triple_from_ratio(euclid2, np.array([0.0, 0.1]),
                                           np.array([0.4, -0.2]), 0.5, 0.25),
               collinear_triple_from_ratio(euclid2, np.array([0.2, 0.0]),
                                           np.array([-0.1, 0.3]), 0.75, 0.5)]
    rep = geometric_affinity_check(euclid2, T, triples)
    assert rep.verdict
    assert rep.metadata["commutation_pass"]


def test_geometric_affinity_left_translation_heisenberg(heis1):
    w = heis1.to_exact(heis1.point([0.2, -0.1], 0.05))
    T = heis1.left_translation(w)
    X = heis1.to_exact(heis1.point([0.3, 0.1], 0.0))
    Y = heis1.to_exact(heis1.point([-0.1, 0.25], 0.02))
    t = collinear_triple_from_ratio(heis1, X, Y, Fraction(1, 2), Fraction(1, 4))
    probes = [heis1.to_exact(p) for p in probe_points(heis1, heis1.origin(), 0.3, 2)]
    rep = geometric_affinity_check(heis1, T, [t], probes=probes)
    assert rep.verdict
    assert rep.defect[0] <= 1e-9


def test_geometric_affinity_cubic_fails_both_ways(euclid2):
    T = lambda p: p + p ** 3
    triples = [collinear_triple_from_ratio(euclid2, np.array([0.1, 0.6]),
                                           np.array([0.9, -0.4]), 0.5, 0.25)]
    rep = geometric_affinity_check(euclid2, T, triples)
    assert not rep.verdict
    assert rep.defect[0] > 1e-3
    assert not rep.metadata["commutation_pass"]  # equivalence witnessed


# --- the sum/difference swap ----------------------------------------------------------------

def test_sum_equals_swapped_difference_on_linear_structures():
    from conftest import conical_models
    rng = np.random.default_rng(11)
    for model in conical_models():
        if model.name.startswith("dyadic"):
            x, u, v = model.point(6), model.point(27), model.point(90)
            eps = model.scale_group.scale(2)
        else:
            dim = model.coordinate_dim
            x, u, v = (model.to_exact(rng.uniform(-0.3, 0.3, dim)) for _ in range(3))
            eps = model.to_exact_scale(model.scale_group.contraction(2))
        lhs = approx_sum(model, x, eps, u, v)
        rhs = approx_difference(model, u, eps, x, v)
        assert model.coordinate_gap(lhs, rhs) <= 1e-9, model.name
