"""Concrete dilatation structures and their JSON factory."""

from __future__ import annotations

import inspect

from dilatation_lab.errors import ModelError
from dilatation_lab.models.base import ExactPoint, GroupModel
from dilatation_lab.models.carnot import (
    CarnotModel, engel_structure_constants, heisenberg_structure_constants)
from dilatation_lab.models.complexheis import ComplexHeisenbergModel
from dilatation_lab.models.dyadic import (
    DyadicBoundaryModel, DyadicPoint, identity_isometries, w_dilatation,
    w_smoothness_defect, xor_mask_isometries)
from dilatation_lab.models.euclidean import EuclideanModel
from dilatation_lab.models.heisenberg import HeisenbergModel
from dilatation_lab.models.pullback import CubicChart, PullbackModel

_KINDS = {
    "euclidean": EuclideanModel,
    "heisenberg": HeisenbergModel,
    "carnot": CarnotModel,
    "dyadic": DyadicBoundaryModel,
    "complex_heisenberg": ComplexHeisenbergModel,
    "pullback": PullbackModel,
}


def from_json(desc: dict):
    """Build a model from its JSON description.

    Besides ``model``, a description's fields are the keyword arguments of
    the kind's constructor: a parameter without a default is a required
    field, and no other field is accepted.  A pullback's ``base`` is itself
    a description; every other value goes to the constructor as it is, and
    the constructor validates it.
    """
    if not isinstance(desc, dict) or "model" not in desc:
        raise ModelError(f"model description must be an object with a 'model' field, got {desc!r}")
    kind = desc["model"]
    if not isinstance(kind, str) or kind not in _KINDS:
        raise ModelError(f"unknown model kind {kind!r}")
    cls = _KINDS[kind]
    fields = inspect.signature(cls).parameters
    args = {name: value for name, value in desc.items() if name != "model"}
    if extra := set(args) - set(fields):
        raise ModelError(f"unknown fields for model {kind!r}: {sorted(extra)}")
    for name, param in fields.items():
        if param.default is param.empty and name not in args:
            raise ModelError(f"model {kind!r} is missing required field {name!r}")
    if "base" in args:
        args["base"] = from_json(args["base"])
    try:
        return cls(**args)
    except (KeyError, TypeError, ValueError, OverflowError) as bad:
        raise ModelError(f"invalid model description for {kind!r}: {bad}") from None


__all__ = [
    "CarnotModel", "ComplexHeisenbergModel", "CubicChart", "DyadicBoundaryModel",
    "DyadicPoint", "EuclideanModel", "ExactPoint", "GroupModel", "HeisenbergModel",
    "PullbackModel", "engel_structure_constants",
    "from_json", "heisenberg_structure_constants", "identity_isometries",
    "w_dilatation", "w_smoothness_defect", "xor_mask_isometries",
]
