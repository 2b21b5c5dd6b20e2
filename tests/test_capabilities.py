"""Optional capabilities are methods: a structure has one exactly when it defines it."""

import ast
import re
from pathlib import Path

import numpy as np
import pytest

import dilatation_lab
from dilatation_lab.core.harness import verify_axiom
from dilatation_lab.core.scales import POSITIVE_REALS as PR
from dilatation_lab.core.structure import Ball, DilatationStructure
from dilatation_lab.emergent import LIMIT_OPS, InducedStructure, tangent_limit
from dilatation_lab.models import (
    CarnotModel, ComplexHeisenbergModel, DyadicBoundaryModel, EuclideanModel,
    HeisenbergModel, PullbackModel, engel_structure_constants)

PACKAGE = Path(dilatation_lab.__file__).parent
OPTIONAL = ("to_exact", "to_exact_scale", "exact_difference", "tangent_sum",
            "tangent_difference", "tangent_inverse", "tangent_distance", "barycentric_pair")
FLAG = re.compile(r"has_exact_\w*|supports_exact_\w*")


def _pullback(transport):
    return PullbackModel(EuclideanModel(2), "cubic", transport)


def _induced(base):
    return InducedStructure(base, base.origin(), PR.scale(0.5))


# each structure, and (A1 arithmetic, A4 reference, ConeProperty reference,
# whether tangent_limit's reference is a closed form)
CASES = {
    "euclidean-2d": (lambda: EuclideanModel(2), ("exact", "exact", "exact", True)),
    "heisenberg-1": (lambda: HeisenbergModel(1), ("exact", "exact", "exact", True)),
    "engel": (lambda: CarnotModel(3, *engel_structure_constants()),
              ("exact", "exact", "exact", True)),
    "complex-heisenberg": (ComplexHeisenbergModel, ("exact", "exact", "exact", True)),
    "dyadic-64": (lambda: DyadicBoundaryModel(64), ("exact", "exact", "exact", True)),
    "pullback-dilatation": (lambda: _pullback("dilatation"), ("float", "cauchy", "exact", True)),
    "pullback-metric": (lambda: _pullback("metric"), ("float", "cauchy", "exact", True)),
    "induced-heisenberg": (lambda: _induced(HeisenbergModel(1)),
                           ("exact", "cauchy", "estimated", False)),
    "induced-pullback": (lambda: _induced(_pullback("dilatation")),
                         ("float", "cauchy", "estimated", False)),
}


@pytest.mark.parametrize("case", list(CASES))
def test_capability_table(case):
    build, (a1, a4, cone, closed_tangent) = CASES[case]
    S = build()
    grid = S.scale_group.grid(range(2, 7))
    radius = S.closeness_budget()
    meta = {ax: verify_axiom(S, ax, Ball(S.origin(), radius), grid, 4, seed=0).metadata
            for ax in ("A1", "A4", "ConeProperty")}
    assert meta["A1"]["arithmetic"] == a1
    assert meta["A4"]["reference"] == a4
    assert meta["ConeProperty"]["reference"] == cone
    _, x, u, v = S.sample_ball(S.origin(), radius, 4, np.random.default_rng(0))
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
