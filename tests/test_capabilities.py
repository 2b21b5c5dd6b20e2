"""Optional capabilities are methods: a structure has one exactly when it defines it."""

import ast
import hashlib
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import dilatation_lab
from dilatation_lab.core.harness import verify_axiom
from dilatation_lab.core.scales import POSITIVE_REALS as PR
from dilatation_lab.core.structure import Ball, DilatationStructure
from dilatation_lab.emergent import LIMIT_OPS, InducedStructure, tangent_limit
from dilatation_lab.models import (
    CarnotModel, ComplexHeisenbergModel, DyadicBoundaryModel, EuclideanModel,
    HeisenbergModel, PullbackModel, engel_structure_constants,
    heisenberg_structure_constants)
from dilatation_lab.models.base import GroupModel

from conftest import blas_kernel

PACKAGE = Path(dilatation_lab.__file__).parent
OPTIONAL = ("to_exact", "to_exact_scale", "exact_difference", "tangent_sum",
            "tangent_difference", "tangent_inverse", "tangent_distance", "barycentric_pair")
FLAG = re.compile(r"has_exact_\w*|supports_exact_\w*")


def _pullback(transport):
    return PullbackModel(EuclideanModel(2), "cubic", transport)


def _induced(base):
    return InducedStructure(base, base.origin(), PR.scale(0.5))


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

# each structure, its sampling radius, its row of sweeps and whether
# tangent_limit's reference is a closed form
CASES = {
    "euclidean-2d": (lambda: EuclideanModel(2), 0.5, CONICAL, True),
    "heisenberg-1": (lambda: HeisenbergModel(1), 0.5, CONICAL, True),
    "engel": (lambda: CarnotModel(3, *engel_structure_constants()), 0.5, CONICAL, True),
    "complex-heisenberg": (ComplexHeisenbergModel, 0.5, CONICAL, True),
    "dyadic-64": (lambda: DyadicBoundaryModel(64), 0.5, CONICAL, True),
    "pullback-dilatation": (lambda: _pullback("dilatation"), 0.05,
                            {**CONICAL, **FLOAT_A1, **CAUCHY_A4, **AXIOM0_FAILS}, True),
    "pullback-metric": (lambda: _pullback("metric"), 0.05,
                        {**CONICAL, **FLOAT_A1, **CAUCHY_A4, **AXIOM0_FAILS}, True),
    "induced-heisenberg": (lambda: _induced(HeisenbergModel(1)), 0.5,
                           {**CONICAL, **CAUCHY_A4,
                            "ConeProperty": ("pass", "estimated", "exact")}, False),
    "induced-pullback": (lambda: _induced(_pullback("dilatation")), 0.05,
                         {**CONICAL, **FLOAT_A1, **CAUCHY_A4, **AXIOM0_FAILS,
                          "ConeProperty": ("pass", "estimated", "float")}, False),
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
