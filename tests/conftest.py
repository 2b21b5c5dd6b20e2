import numpy as np
import pytest
from hypothesis import settings

from dilatation_lab.models import (
    CarnotModel, ComplexHeisenbergModel, DyadicBoundaryModel, EuclideanModel,
    HeisenbergModel, PullbackModel, engel_structure_constants,
    heisenberg_structure_constants)

# a step-3 algebra with a fractional constant, so the exact kernel's common
# bracket denominator is 2: [e0, e1] = e2, [e0, e2] = e3, [e1, e2] = e4 / 2
STEP3_HALF = ([2, 1, 2], [[0, 1, 2, 1.0], [0, 2, 3, 1.0], [1, 2, 4, 0.5]])


@pytest.fixture(scope="session")
def euclid1():
    return EuclideanModel(1)


@pytest.fixture(scope="session")
def euclid2():
    return EuclideanModel(2)


@pytest.fixture(scope="session")
def heis1():
    return HeisenbergModel(1)


@pytest.fixture(scope="session")
def heis2():
    return HeisenbergModel(2)


@pytest.fixture(scope="session")
def engel():
    layers, brackets = engel_structure_constants()
    return CarnotModel(3, layers, brackets)


@pytest.fixture(scope="session")
def carnot_h1():
    layers, brackets = heisenberg_structure_constants(1)
    return CarnotModel(2, layers, brackets)


@pytest.fixture(scope="session")
def cxheis():
    return ComplexHeisenbergModel()


@pytest.fixture(scope="session")
def dyadic():
    return DyadicBoundaryModel(64)


@pytest.fixture(scope="session")
def cubic_pullback():
    return PullbackModel(EuclideanModel(2), "cubic", "dilatation")


@pytest.fixture(scope="session")
def metric_pullback_1d():
    return PullbackModel(EuclideanModel(1), "cubic", "metric")


def conical_models():
    """The six conical models shipped with the lab, built fresh."""
    layers, brackets = engel_structure_constants()
    return [
        EuclideanModel(2),
        HeisenbergModel(1),
        HeisenbergModel(2),
        CarnotModel(3, layers, brackets),
        ComplexHeisenbergModel(),
        DyadicBoundaryModel(64),
    ]


def pt(model, *coords):
    if isinstance(model, DyadicBoundaryModel):
        return model.point(coords[0])
    return np.asarray(coords, dtype=float)


# hypothesis draws the same examples on every run, so Tier-1 results repeat
settings.register_profile("tier1", derandomize=True)
settings.load_profile("tier1")


def blas_kernel():
    """The BLAS numpy was built with, and its configuration where it reports one."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return f"{blas.get('name')} {blas.get('version')} ({blas.get('openblas configuration')})"
