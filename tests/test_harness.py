"""The axiom-certification harness across the shipped models."""

import math

import numpy as np
import pytest

from dilatation_lab.config import EXACT_IDENTITY_TOL, LIMIT_TOL
from dilatation_lab.core.harness import AXIOMS, verify_all_axioms, verify_axiom
from dilatation_lab.core.scales import POSITIVE_REALS as PR
from dilatation_lab.core.structure import Ball, DilatationStructure, vector_sample_ball
from dilatation_lab.models import EuclideanModel, ExactPoint, PullbackModel

GRID = range(2, 13)


def test_euclid_a1_defect_identically_zero(euclid2):
    rep = verify_axiom(euclid2, "A1", Ball(euclid2.origin(), 0.2),
                       PR.grid(GRID), sample_count=16, seed=1)
    assert rep.verdict
    assert max(rep.defect) == 0.0
    assert rep.metadata["arithmetic"] == "exact"


def test_unknown_axiom_rejected(euclid2):
    with pytest.raises(ValueError):
        verify_axiom(euclid2, "A7", Ball(euclid2.origin(), 0.2), PR.grid(GRID))


@pytest.mark.parametrize("radius", [math.nan, math.inf, 0.0, -0.2])
def test_a_ball_needs_a_positive_finite_radius(euclid2, radius):
    # a NaN radius compares False with 0, so it once slipped through to the
    # sampler: 60 halvings on Euclid-2d, a bare ValueError on dyadic words
    with pytest.raises(ValueError, match="positive and finite"):
        Ball(euclid2.origin(), radius)


@pytest.mark.parametrize("axiom", AXIOMS)
def test_verify_axiom_needs_two_samples_and_two_scales(euclid2, axiom):
    # one sample pairs only with itself, and one scale shows no trend
    region = Ball(euclid2.origin(), 0.2)
    with pytest.raises(ValueError, match="at least 2 samples"):
        verify_axiom(euclid2, axiom, region, PR.grid([2, 3]), sample_count=1)
    for ks in ([], [2]):
        with pytest.raises(ValueError, match="at least 2 scales"):
            verify_axiom(euclid2, axiom, region, PR.grid(ks), sample_count=4)


def test_report_shape_and_metadata(heis1):
    region = Ball(heis1.origin(), 0.2)
    rep = verify_axiom(heis1, "A2", region, heis1.scale_group.grid(GRID),
                       sample_count=8, seed=3)
    assert len(rep.defect) == len(rep.eps_grid) == len(list(GRID))
    assert rep.metadata["model"] == "heisenberg-1"
    assert rep.metadata["seed"] == 3
    assert rep.verdict


def test_heisenberg_a4_cauchy_rate(heis1):
    rep = verify_axiom(heis1, "A4", Ball(heis1.origin(), 0.2),
                       heis1.scale_group.grid(GRID), sample_count=16, seed=7,
                       reference="cauchy")
    assert rep.verdict
    assert rep.fitted_rate >= 0.9
    # genuine first-order decay, not flat roundoff
    assert rep.defect[0] > 100 * rep.defect[-1]


def test_complex_heisenberg_passes_all(cxheis):
    region = Ball(cxheis.origin(), 0.2)
    reports = verify_all_axioms(cxheis, region, cxheis.scale_group.grid(GRID),
                                sample_count=12, seed=5)
    assert all(r.verdict for r in reports.values())


def test_dyadic_passes_all(dyadic):
    region = Ball(dyadic.origin(), 0.5)
    reports = verify_all_axioms(dyadic, region, dyadic.scale_group.grid(GRID),
                                sample_count=12, seed=5)
    assert all(r.verdict for r in reports.values())


def test_pullback_a123_pass_and_a4_decreases(cubic_pullback):
    region = Ball(cubic_pullback.origin(), 0.05)
    grid = cubic_pullback.scale_group.grid(GRID)
    for ax in ("A1", "A2", "A3"):
        rep = verify_axiom(cubic_pullback, ax, region, grid, sample_count=12, seed=9)
        assert rep.verdict, (ax, rep.defect)
        assert rep.metadata["arithmetic"] == "float"
    rep4 = verify_axiom(cubic_pullback, "A4", region, grid, sample_count=12, seed=9)
    assert rep4.metadata["reference"] == "cauchy"
    assert rep4.verdict
    drops = [a >= b for a, b in zip(rep4.defect, rep4.defect[1:])]
    assert all(drops)


def test_exact_reference_used_for_group_models(heis1):
    rep = verify_axiom(heis1, "A4", Ball(heis1.origin(), 0.2),
                       heis1.scale_group.grid(GRID), sample_count=8, seed=2)
    assert rep.metadata["reference"] == "exact"
    assert max(rep.defect) == 0.0


def test_reference_modes_are_auto_and_cauchy(heis1):
    region, grid = Ball(heis1.origin(), 0.2), heis1.scale_group.grid(GRID)
    rep = verify_axiom(heis1, "A4", region, grid, sample_count=4, reference="cauchy")
    assert rep.metadata["reference"] == "cauchy"
    with pytest.raises(ValueError):
        verify_axiom(heis1, "A4", region, grid, sample_count=4, reference="exact")


@pytest.mark.parametrize("axiom", [a for a in AXIOMS if a != "A4"])
def test_cauchy_reference_is_refused_outside_a4(heis1, axiom):
    # only A4 has a cauchy mode: elsewhere the setting would do nothing
    region, grid = Ball(heis1.origin(), 0.2), heis1.scale_group.grid(GRID)
    with pytest.raises(ValueError, match="applies to A4 only"):
        verify_axiom(heis1, axiom, region, grid, sample_count=4, reference="cauchy")


def test_engel_float_cone_property_passes_at_its_tolerance(engel):
    # the Engel group has an exact tangent but the cone property runs in
    # floats: roundoff grows as mu shrinks and breaks the decay rule, yet
    # every defect stays within the identity tolerance, where it must pass
    grid = engel.scale_group.grid(GRID)
    for seed in range(10):
        rep = verify_axiom(engel, "ConeProperty", Ball(engel.origin(), 0.5), grid,
                           sample_count=64, seed=seed)
        assert rep.metadata["arithmetic"] == "float"
        assert rep.metadata["tolerance"] == EXACT_IDENTITY_TOL
        assert max(rep.defect) <= EXACT_IDENTITY_TOL
        assert rep.verdict, seed


def test_only_identity_sweeps_pass_on_defects_within_tolerance(euclid2, monkeypatch):
    # the same rising run of defects, scaled to sit within each tolerance:
    # the identity A2 holds at every scale, the limit A3 shows no decay
    from dilatation_lab.core import harness
    rising = [0.0] * 8 + [0.02, 0.1, 0.5]
    grid = PR.grid(GRID)
    region = Ball(euclid2.origin(), 0.2)
    for which, tol, expected in (("A2", EXACT_IDENTITY_TOL, True), ("A3", LIMIT_TOL, False)):
        monkeypatch.setattr(harness, f"_{which.lower()}_defects",
                            lambda *args, tol=tol: [d * tol for d in rising])
        rep = verify_axiom(euclid2, which, region, grid, sample_count=4)
        assert rep.metadata["tolerance"] == tol
        assert rep.verdict is expected, which


def test_metric_pullback_a2_verdict_depends_on_grid_depth():
    # on the metric pullback the A2 defects decay like nu^2, but A2 stays an
    # identity sweep at EXACT_IDENTITY_TOL (README, Verdicts): a limit tolerance
    # would loosen A2 on every conical model.  So a shallow grid fails where a
    # deep one passes, each defect of the shallow one above the tolerance
    model = PullbackModel(EuclideanModel(2), "cubic", "metric")
    shallow, deep = (verify_axiom(model, "A2", Ball(model.origin(), 0.025), PR.grid(range(2, k)),
                                  sample_count=4, seed=0) for k in (7, 13))
    assert shallow.metadata["tolerance"] == deep.metadata["tolerance"] == EXACT_IDENTITY_TOL
    assert not shallow.verdict and shallow.defect[-1] > EXACT_IDENTITY_TOL
    # a failed identity sweep records within, the rule it tried last
    assert (shallow.metadata["rule"], shallow.metadata["broke_at"]) == ("within", 0)
    assert deep.metadata["rule"] == "converges" and deep.metadata["broke_at"] is None
    assert deep.verdict and deep.defect[-1] <= EXACT_IDENTITY_TOL
    # each halving of the scale divides the defect by about 4 until roundoff shows
    d = deep.defect
    assert all(3.5 < a / b < 4.5 for a, b in zip(d[:8], d[1:8]))


def test_axiom0_inclusion_on_conical_models():
    from conftest import conical_models
    for model in conical_models():
        grid = model.scale_group.grid(GRID)
        rep = verify_axiom(model, "Axiom0", Ball(model.origin(), 0.2), grid,
                           sample_count=8, seed=11)
        assert rep.verdict, model.name
        assert max(rep.defect) == 0.0


def test_axiom0_cubic_pullback_is_a_documented_failure():
    # expected failure: the harness samples B(x, nu(eps)) under the paper's
    # A > 1 normalisation, while the pullback declares A = radius / 2 = 0.25;
    # pulled back, the targets stay inside the chart ball but land about
    # 0.42 from x, so each scale reports a defect of about 0.1735
    pull = PullbackModel(EuclideanModel(2))
    rep = verify_axiom(pull, "Axiom0", Ball(pull.origin(), 0.05), PR.grid(GRID),
                       sample_count=8, seed=0)
    assert not rep.verdict
    assert all(0.1 < d for d in rep.defect)
    # a caught DomainViolation would score exactly A
    assert max(rep.defect) < pull.domain_radius_A


def test_axiom0_metric_pullback_is_a_documented_failure():
    # expected failure, as above: A = 0.25 is below the normalisation 1 < A,
    # and the chart ball of radius 0.5 cannot hold the pulled-back ball of
    # radius about 1.  This transport finds a point outside the chart in its
    # distance, not in its dilatation, and that scores A like any other exit;
    # the largest defects, about 0.374, come from points that stay inside
    pull = PullbackModel(EuclideanModel(2), "cubic", "metric")
    for sample_count in (8, 64):
        rep = verify_axiom(pull, "Axiom0", Ball(pull.origin(), 0.05), PR.grid(GRID),
                           sample_count=sample_count, seed=0)
        assert not rep.verdict
        assert all(0.37 < d < 0.38 for d in rep.defect)


def test_composition_identity_all_models():
    # d(dilate(x, eps, dilate(x, mu, y)), dilate(x, eps mu, y)) stays at
    # roundoff relative to 1 + d(x, y) on every shipped model
    from conftest import conical_models
    rng = np.random.default_rng(13)
    for model in conical_models():
        grid = model.scale_group.grid([2, 5])
        eps, mu = grid[0], grid[1]
        pts = model.sample_ball(model.origin(), 0.3, 8, rng)
        for x in pts[:3]:
            for y in pts:
                lhs = model.dilate(x, eps, model.dilate(x, mu, y))
                rhs = model.dilate(x, eps * mu, y)
                bound = 1e-9 * (1.0 + model.distance(x, y))
                assert model.coordinate_gap(lhs, rhs) <= bound, model.name


def test_exact_a1_and_a4_construct_few_exact_points(engel, euclid2, heis1, cxheis, monkeypatch):
    # A1 evaluates its eps-independent terms once, exact A4 shares delta^x_eps u
    # between the composite and the closed form and takes delta^x_eps v from
    # the next row, and equal exact points are at distance 0.0 without a
    # product; an exact dilate builds one point, not three, so every model
    # below makes the same count
    init = ExactPoint.__init__
    made = [0]

    def counting(self, *args, **kwargs):
        made[0] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(ExactPoint, "__init__", counting)
    for model in (engel, euclid2, heis1, cxheis):
        for axiom, ceiling in (("A1", 8_865), ("A4", 8_448)):
            made[0] = 0
            verify_axiom(model, axiom, Ball(model.origin(), 0.5), PR.grid(GRID), 64, seed=0)
            assert made[0] <= ceiling, (model.name, axiom)


# each sweep below reads a pair (u, v) only through delta^x_eps u and
# delta^x_eps v, and v is the next row's u: per row and scale, A3 and
# ConeProperty dilate once and A4 twice (the images, then the composite); A3
# and cauchy A4 have one scale more, the reference row
SWEEP_DILATES = {
    "heis1-A3": ("heis1", "A3", "auto", 1, True),
    "heis1-A4-cauchy": ("heis1", "A4", "cauchy", 2, True),
    "heis1-ConeProperty": ("heis1", "ConeProperty", "auto", 1, True),
    "heis1-A4-exact": ("heis1", "A4", "auto", 2, False),
    "dyadic-A3": ("dyadic", "A3", "auto", 1, False),
    "dyadic-A4-exact": ("dyadic", "A4", "auto", 2, False),
    "dyadic-A4-cauchy": ("dyadic", "A4", "cauchy", 2, False),
    "dyadic-ConeProperty": ("dyadic", "ConeProperty", "auto", 1, False),
}


@pytest.mark.parametrize("case", list(SWEEP_DILATES))
def test_sweeps_dilate_each_row_once_per_image(case, request, monkeypatch):
    fixture, axiom, reference, per_scale, batched = SWEEP_DILATES[case]
    S = request.getfixturevalue(fixture)
    grid, samples = S.scale_group.grid(range(2, 8)), 5
    rows_per_call = []
    dilate = S.dilate
    monkeypatch.setattr(S, "dilate", lambda x, eps, y: rows_per_call.append(
        len(y) if np.ndim(y) == 2 else 1) or dilate(x, eps, y))
    rep = verify_axiom(S, axiom, Ball(S.origin(), 0.5), grid, samples, seed=0,
                       reference=reference)
    scales = len(grid) + (axiom == "A3" or rep.metadata["reference"] == "cauchy")
    rows = 3 * samples
    assert len(rows_per_call) == per_scale * scales * (1 if batched else rows)
    assert sum(rows_per_call) == per_scale * scales * rows


# A1 dilates each row once at the unit scale, once per distinct scale value of
# the grid and of {eps mu} (k = 2..14 for k = 2..12 and mu = 2^-2, 13 values)
# and, per grid scale, twice more and once per base: 24 (1 + 13) + 11 (2 * 24
# + 3) = 897 exact rows on 3 bases x 8 samples, 1 + 13 + 3 * 11 = 47 batched
# calls (1,137 and 57 when every scale evaluated delta^x_{eps mu} y afresh)
@pytest.mark.parametrize("fixture, samples, calls", [
    ("engel", 8, 897), ("engel", 2, 249), ("cubic_pullback", 8, 47)])
def test_a1_dilates_each_row_once_per_scale_value(fixture, samples, calls, request,
                                                   monkeypatch):
    S = request.getfixturevalue(fixture)
    made = []
    dilate = S.dilate
    monkeypatch.setattr(S, "dilate", lambda x, eps, y: made.append(eps) or dilate(x, eps, y))
    radius = 0.05 if fixture == "cubic_pullback" else 0.2
    rep = verify_axiom(S, "A1", Ball(S.origin(), radius), PR.grid(GRID), samples, seed=0)
    assert rep.metadata["arithmetic"] == ("float" if fixture == "cubic_pullback" else "exact")
    assert len(made) == calls


# --- the smallest input the harness accepts still rejects a broken structure --

class _Plane(DilatationStructure):
    """R^2 in floats with linear dilatations and the Euclidean distance, which
    passes every sweep; each subclass below breaks one axiom."""

    name = "plane"
    scale_group = PR

    def factor(self, eps):
        return eps.value

    def distance(self, p, q):
        return np.linalg.norm(p - q, axis=-1)

    def dilate(self, x, eps, y):
        return x + self.factor(eps) * (y - x)

    def tangent_distance(self, x, u, v):
        return self.distance(u, v)

    def origin(self):
        return np.zeros(2)

    def sample_ball(self, center, radius, count, rng):
        return vector_sample_ball(self, center, radius, count, rng)


class _NotAGroupAction(_Plane):
    """A1: delta_eps delta_mu is not delta_{eps mu}."""

    def factor(self, eps):
        return 2 * eps.value / (1 + eps.value)


class _InhomogeneousDistance(_Plane):
    """A2: d(x, delta^x_eps y) is not nu(eps) d(x, y)."""

    def distance(self, p, q):
        d = super().distance(p, q)
        return d + d * d


class _TurningDilatations(_Plane):
    """A3: dilatations turn by the angle log eps, so under the l1 distance the
    rescaled distances never settle; they still form a group action."""

    def distance(self, p, q):
        return np.abs(p - q).sum(axis=-1)

    def dilate(self, x, eps, y):
        c, s = math.cos(math.log(eps.value)), math.sin(math.log(eps.value))
        return x + eps.value * ((y - x) @ np.array([[c, s], [-s, c]]))


class _DriftingDilatations(_Plane):
    """A4: delta^x_eps moves by (1 - eps) c, so the difference composite
    drifts like c / eps and does not settle."""

    def dilate(self, x, eps, y):
        return super().dilate(x, eps, y) + (1 - eps.value) * np.array([1.0, 0.0])


class _OvercontractingDilatations(_Plane):
    """Axiom0: delta_eps contracts by nu(eps)^2, so delta^x_{eps^-1} pulls
    B(x, nu(eps)) back far outside B(x, A)."""

    def factor(self, eps):
        return eps.value ** 2


class _InhomogeneousTangent(_Plane):
    """ConeProperty: the tangent distance is not homogeneous."""

    def tangent_distance(self, x, u, v):
        d = self.distance(u, v)
        return d + d * d


MUTANTS = {"A1": _NotAGroupAction, "A2": _InhomogeneousDistance, "A3": _TurningDilatations,
           "A4": _DriftingDilatations, "Axiom0": _OvercontractingDilatations,
           "ConeProperty": _InhomogeneousTangent}


@pytest.mark.parametrize("axiom", AXIOMS)
def test_a_mutant_fails_its_sweep_at_two_samples_and_two_scales(axiom):
    # two samples give one pair of distinct points; one sample would give
    # only (p, p), at distance 0 under every mutant's distance
    grid = PR.grid([2, 3])
    for S, passes in ((_Plane(), True), (MUTANTS[axiom](), False)):
        rep = verify_axiom(S, axiom, Ball(S.origin(), 0.05), grid, sample_count=2, seed=0)
        assert rep.verdict is passes, (type(S).__name__, rep.defect)
