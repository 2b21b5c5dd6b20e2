"""Optional capabilities are methods: a structure has one exactly when it defines it."""

import ast
import hashlib
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import dilatation_lab
from dilatation_lab.core import harness
from dilatation_lab.core.harness import verify_axiom
from dilatation_lab.core.scales import POSITIVE_REALS as PR
from dilatation_lab.core.structure import Ball, DilatationStructure, exactify
from dilatation_lab.emergent import (
    LIMIT_OPS, InducedStructure, inflin_scan, tangent_limit, tangent_space)
from dilatation_lab.models import (
    CarnotModel, ComplexHeisenbergModel, DyadicBoundaryModel, EuclideanModel,
    HeisenbergModel, PullbackModel, engel_structure_constants,
    heisenberg_structure_constants)
from dilatation_lab.models.base import GroupModel

from conftest import blas_kernel

PACKAGE = Path(dilatation_lab.__file__).parent
OPTIONAL = ("to_exact", "to_exact_scale", "exact_difference_after", "tangent_sum",
            "tangent_difference", "tangent_inverse", "tangent_distance", "barycentric_pair")
FLAG = re.compile(r"has_exact_\w*|supports_exact_\w*")


def _pullback(transport):
    return PullbackModel(EuclideanModel(2), "cubic", transport)


def _induced(base):
    return InducedStructure(base, base.origin(), PR.scale(0.5))


def _engel():
    return CarnotModel(3, *engel_structure_constants())


def _tangent(build, x):
    return lambda: tangent_space(build(), np.array(x))


# the tangents' anchors: Euclid-2d, H(1) at e and off it, Engel off e, and the
# cubic pullback
TANGENTS = {"tangent-euclidean-2d": (lambda: EuclideanModel(2), [0.05, -0.03]),
            "tangent-heisenberg-1": (lambda: HeisenbergModel(1), [0.0, 0.0, 0.0]),
            "tangent-heisenberg-1-off": (lambda: HeisenbergModel(1), [0.1, -0.05, 0.02]),
            "tangent-engel-off": (_engel, [0.1, -0.05, 0.02, 0.01]),
            "tangent-pullback": (lambda: _pullback("dilatation"), [0.05, -0.03])}


# the verdict, reference mode and arithmetic of each sweep on a conical
# model at seed 0, 4 samples and the grid k = 2..12; A4-cauchy is A4 run
# with reference="cauchy"
CONICAL = {
    "A1": ("pass", None, "exact"),
    "A2": ("pass", None, "float"),
    "A3": ("pass", None, "float"),
    "A4": ("pass", "exact", "exact"),
    "A4-cauchy": ("pass", "cauchy", "float"),
    "Axiom0": ("pass", None, "float"),
    "ConeProperty": ("pass", "exact", "float"),
}
FLOAT_A1 = {"A1": ("pass", None, "float")}
CAUCHY_A4 = {"A4": ("pass", "cauchy", "float")}
# a documented failure: these structures declare A = 0.25, below the paper's 1 < A
AXIOM0_FAILS = {"Axiom0": ("fail", None, "float")}
# a structure without closed forms: A4 takes cauchy gaps and the cone estimated
# distances, exact where the structure has exact arithmetic
ESTIMATED = {**CAUCHY_A4, "ConeProperty": ("pass", "estimated", "exact")}
FLOAT_ESTIMATED = {**FLOAT_A1, **CAUCHY_A4, "ConeProperty": ("pass", "estimated", "float")}

# each structure, its sampling radius, its row of sweeps and whether
# tangent_limit's reference is a closed form
CASES = {
    "euclidean-2d": (lambda: EuclideanModel(2), 0.5, CONICAL, True),
    "heisenberg-1": (lambda: HeisenbergModel(1), 0.5, CONICAL, True),
    "engel": (_engel, 0.5, CONICAL, True),
    "complex-heisenberg": (ComplexHeisenbergModel, 0.5, CONICAL, True),
    "dyadic-64": (lambda: DyadicBoundaryModel(64), 0.5, CONICAL, True),
    "pullback-dilatation": (lambda: _pullback("dilatation"), 0.05,
                            {**CONICAL, **FLOAT_A1, **CAUCHY_A4, **AXIOM0_FAILS}, True),
    "pullback-metric": (lambda: _pullback("metric"), 0.05,
                        {**CONICAL, **FLOAT_A1, **CAUCHY_A4, **AXIOM0_FAILS}, True),
    "induced-heisenberg": (lambda: _induced(HeisenbergModel(1)), 0.5,
                           {**CONICAL, **ESTIMATED}, False),
    "induced-pullback": (lambda: _induced(_pullback("dilatation")), 0.05,
                         {**CONICAL, **FLOAT_ESTIMATED, **AXIOM0_FAILS}, False),
    # the paper's tangent (T_x X, d^x, delta-hat^x) is a conical group: every
    # axiom holds, the pullback's A = 0.25 aside, which its tangent inherits
    **{case: (_tangent(build, x), 0.5, {**CONICAL, **ESTIMATED}, False)
       for case, (build, x) in TANGENTS.items() if case != "tangent-pullback"},
    "tangent-pullback": (_tangent(*TANGENTS["tangent-pullback"]), 0.05,
                         {**CONICAL, **FLOAT_ESTIMATED, **AXIOM0_FAILS}, False),
}


# sha256 over each sweep's verdict and the float.hex of its defects, in the
# order of the table: the sweeps must give these reports bit for bit
REPORT_DIGESTS = {
    "euclidean-2d": "a1d6c74691ecd88a95ed6a5c3a5fdd30152b7f3b388bd04758c687f233aca642",
    "heisenberg-1": "a1d6c74691ecd88a95ed6a5c3a5fdd30152b7f3b388bd04758c687f233aca642",
    "engel": "a1d6c74691ecd88a95ed6a5c3a5fdd30152b7f3b388bd04758c687f233aca642",
    "complex-heisenberg": "a1d6c74691ecd88a95ed6a5c3a5fdd30152b7f3b388bd04758c687f233aca642",
    "dyadic-64": "75935ff69169bfa39df4e452ef2d029fdbe487b2c0156b9715629c0b5216fbfe",
    "pullback-dilatation": "83ac880e8d03f751a8e933b3d69821035bf25ceb4976c4a1179c5f902e06d0ab",
    "pullback-metric": "bd9330487687677df124e37cab8641840ecfe586c8690d22fed6db89f3714555",
    "induced-heisenberg": "621daf47338b5425be41decd328b4fc3aa800337e9ea901ff988cd49485de851",
    "induced-pullback": "17fa5d576f32a982021d880530581683d5b9351660398812c83e3591a39e175f",
    # the tangents of H(1) at e and of Engel off e report what H(1) induced at
    # its origin does, bit for bit
    "tangent-euclidean-2d": "194bfb2a7686b9015996fcf0b502afd2b9cd4ffe9f6586376e5a12fe3201bb46",
    "tangent-heisenberg-1": "621daf47338b5425be41decd328b4fc3aa800337e9ea901ff988cd49485de851",
    "tangent-heisenberg-1-off": "17b9236b723aeb0c534a1d102817fa9bce2c3f0c8fff2b7d90668e3635d755ba",
    "tangent-engel-off": "621daf47338b5425be41decd328b4fc3aa800337e9ea901ff988cd49485de851",
    "tangent-pullback": "24b62b5605c77947b5d8ce42403e30b01884f891b99c8ee461d6dca36c79964d",
}


# every structure of the table and a plain CarnotModel with H(2)'s brackets,
# whose float product is the generic pair-by-pair one
POINT_LAWS = {**{case: (build, radius) for case, (build, radius, *_) in CASES.items()},
              "carnot-h2": (lambda: CarnotModel(2, *heisenberg_structure_constants(2)), 0.5)}


def _same_point(a, b):
    return np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b


@pytest.mark.parametrize("case", list(POINT_LAWS))
def test_a_point_is_at_distance_zero_from_itself(case):
    # and on a group, the product of a point's inverse with the point is
    # the identity, bit for bit
    build, radius = POINT_LAWS[case]
    S = build()

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def check(seed):
        rng = np.random.default_rng(seed)
        for p in S.sample_ball(S.origin(), radius, 12, rng):
            assert S.distance(p, p) == 0.0
            if isinstance(S, GroupModel):
                assert _same_point(S.group_product(S.group_inverse(p), p), S.identity())

    check()


@pytest.mark.parametrize("case", list(CASES))
def test_capability_table(case):
    build, radius, sweeps, closed_tangent = CASES[case]
    S = build()
    region, grid = Ball(S.origin(), radius), S.scale_group.grid(range(2, 13))
    digest = hashlib.sha256()
    for sweep, expected in sweeps.items():
        axiom, _, reference = sweep.partition("-")
        rep = verify_axiom(S, axiom, region, grid, 4, seed=0, reference=reference or "auto")
        meta = rep.metadata
        assert ("pass" if rep.verdict else "fail", meta["reference"],
                meta["arithmetic"]) == expected, sweep
        # a limit sweep's rule is converges; an identity sweep falls back to within
        assert meta["rule"] in ("converges", "within"), sweep
        assert (meta["broke_at"] is None) is rep.verdict, sweep
        digest.update(f"{sweep} {rep.verdict} {[d.hex() for d in rep.defect]}\n".encode())
    assert digest.hexdigest() == REPORT_DIGESTS[case], (
        f"the sweep reports of {case} are not the recorded ones, bit for bit; if no change "
        f"to the lab meant to move them, a possible cause is the BLAS kernel, "
        f"{blas_kernel()}, rounding float dots other than the kernel they were recorded "
        f"under (see the probes in tests/test_batch.py)")
    grid = S.scale_group.grid(range(2, 7))
    _, x, u, v = S.sample_ball(S.origin(), S.closeness_budget(), 4, np.random.default_rng(0))
    for which in LIMIT_OPS:
        _, report = tangent_limit(S, x, u, v, which, grid)
        assert report.metadata["exact_reference"] is closed_tangent, which


def _scan_points(case):
    """The tangent of a case and seed-0 points x, y, z in a box a fifth of its
    sampling radius around the anchor."""
    build, radius, *_ = CASES[case]
    T = build()
    x = T.origin()
    return T, x + np.random.default_rng(0).uniform(-radius / 5, radius / 5, (3, len(x)))


@pytest.mark.parametrize("case", [case for case in TANGENTS if case != "tangent-pullback"])
def test_the_tangent_of_an_exact_structure_is_exactly_linear(case):
    # the tangent is a conical group, a linear structure: inflin_scan reads its
    # Lin / eps^2 in exact arithmetic as 0.0 at every scale
    T, (x, y, z) = _scan_points(case)
    rep = inflin_scan(T, x, y, z, T.scale_group.grid(range(2, 13)))
    assert rep.verdict and rep.defect == [0.0] * 11


def test_the_pullback_tangents_float_linearity_defect_is_roundoff():
    # the cubic pullback's tangent is Euclidean space read through the chart,
    # linear too, but float only: its Lin / eps^2 fails dies_out (1.8e-12 at
    # 2^-9) because every raw Lin is roundoff, within one unit in the last
    # place of the largest coordinate, divided by eps^2; the base's own scan at
    # the same points is a finding, decaying from 6e-7, and passes
    T, (x, y, z) = _scan_points("tangent-pullback")
    grid = T.scale_group.grid(range(2, 13))
    rep = inflin_scan(T, x, y, z, grid)
    assert not rep.verdict and rep.metadata["rule"] == "dies_out"
    assert 0.0 < max(rep.defect) < 1e-11
    ulp = np.spacing(np.abs([x, y, z]).max())
    assert all(d * eps.nu ** 2 <= ulp for d, eps in zip(rep.defect, grid))
    base = inflin_scan(T.base, x, y, z, grid)
    assert base.verdict and base.defect[0] > 1e-7


# off the identity the float harness fails conical groups by roundoff, not by a
# finding: cancelling x inside (delta^x_eps u)^-1 delta^x_eps v leaves about
# 1e-17 in the top layer, which the gauge's root reads as a distance of about
# 2e-6 on Engel (a cube root) and 6e-9 on H(1) (the Cygan fourth root), and
# A2, A3 and the cone divide it by the scale.  Each row: Ball(c, 0.5) with
# c = default_rng(100 + s).uniform(-0.3, 0.3, dim), 8 samples, seed s, k = 2..12;
# the sweeps that fail in floats, every other axiom passing
OFF_IDENTITY_FLOAT_FAILS = {
    "heisenberg-1": [{"ConeProperty"}, {"ConeProperty"}, set()],
    "engel": [{"A2", "A3", "ConeProperty"}] * 3,
}
# the worst defect of the same rows, exactified, through the harness's own
# defect functions: 0.0 on H(1); on Engel the float roots of the exact gauge
# round, 2^-54 and 1.5 * 2^-52, far inside every tolerance
OFF_IDENTITY_EXACT_WORST = {
    "heisenberg-1": {"A2": 0.0, "A3": 0.0, "ConeProperty": 0.0},
    "engel": {"A2": 2.0 ** -54, "A3": 1.5 * 2.0 ** -52, "ConeProperty": 1.5 * 2.0 ** -52},
}


@pytest.mark.parametrize("case", list(OFF_IDENTITY_FLOAT_FAILS))
def test_off_identity_float_failures_are_roundoff(case):
    S = CASES[case][0]()
    grid = S.scale_group.grid(range(2, 13))
    worst = dict.fromkeys(OFF_IDENTITY_EXACT_WORST[case], 0.0)
    for seed, float_fails in enumerate(OFF_IDENTITY_FLOAT_FAILS[case]):
        center = np.random.default_rng(100 + seed).uniform(-0.3, 0.3, S.dim)
        region = Ball(center, 0.5)
        assert {axiom for axiom in harness.AXIOMS
                if not verify_axiom(S, axiom, region, grid, 8, seed).verdict} == float_fails
        # verify_axiom's rows, in exact arithmetic
        pts = S.sample_ball(center, 0.5, 8, np.random.default_rng(seed))
        (center, *pts), exact_grid, exact = exactify(S, [center, *pts], grid)
        bases = [center, pts[1], pts[2]]
        assert exact
        for axiom, defects in (
                ("A2", harness._a2_defects(S, bases, pts, exact_grid)),
                ("A3", harness._a3_defects(S, bases, pts, exact_grid)),
                ("ConeProperty", harness._cone_defects(S, bases, pts, exact_grid, True))):
            worst[axiom] = max(worst[axiom], *defects)
    assert worst == OFF_IDENTITY_EXACT_WORST[case]


def _names(path):
    """Every identifier of a module, and every string that could be one."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, ast.arg):
            yield node.arg
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value


def test_no_capability_flag_beside_the_methods():
    # a flag would declare a second time what defining the method declares
    found = {str(path.relative_to(PACKAGE)): flags
             for path in sorted(PACKAGE.rglob("*.py"))
             for flags in [sorted({n for n in _names(path) if FLAG.fullmatch(n)})] if flags}
    assert found == {}
    # and no stub on the interface makes every structure look capable
    assert [name for name in OPTIONAL if hasattr(DilatationStructure, name)] == []
