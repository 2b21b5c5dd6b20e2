"""Concrete dilatation structures and their JSON factory."""

from __future__ import annotations

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

_KNOWN_FIELDS = {
    "euclidean": {"model", "n", "p"},
    "heisenberg": {"model", "n"},
    "carnot": {"model", "step", "layers", "brackets"},
    "dyadic": {"model", "precision"},
    "complex_heisenberg": {"model"},
    "pullback": {"model", "base", "chart", "transport"},
}


def from_json(desc: dict):
    """Build a model from its JSON description; unknown fields are rejected."""
    if not isinstance(desc, dict) or "model" not in desc:
        raise ModelError(f"model description must be an object with a 'model' field, got {desc!r}")
    kind = desc["model"]
    if not isinstance(kind, str) or kind not in _KNOWN_FIELDS:
        raise ModelError(f"unknown model kind {kind!r}")
    extra = set(desc) - _KNOWN_FIELDS[kind]
    if extra:
        raise ModelError(f"unknown fields for model {kind!r}: {sorted(extra)}")
    try:
        if kind == "euclidean":
            return EuclideanModel(int(desc["n"]), float(desc.get("p", 2.0)))
        if kind == "heisenberg":
            return HeisenbergModel(int(desc["n"]))
        if kind == "carnot":
            return CarnotModel(int(desc["step"]), desc["layers"], desc["brackets"])
        if kind == "dyadic":
            return DyadicBoundaryModel(int(desc.get("precision", 64)))
        if kind == "complex_heisenberg":
            return ComplexHeisenbergModel()
        base = from_json(desc["base"])
        return PullbackModel(base, desc.get("chart", "cubic"),
                             desc.get("transport", "dilatation"))
    except KeyError as missing:
        raise ModelError(f"model {kind!r} is missing required field {missing}") from None
    except (TypeError, ValueError) as bad:
        raise ModelError(f"invalid model description for {kind!r}: {bad}") from None


__all__ = [
    "CarnotModel", "ComplexHeisenbergModel", "CubicChart", "DyadicBoundaryModel",
    "DyadicPoint", "EuclideanModel", "ExactPoint", "GroupModel", "HeisenbergModel",
    "PullbackModel", "engel_structure_constants",
    "from_json", "heisenberg_structure_constants", "identity_isometries",
    "w_dilatation", "w_smoothness_defect", "xor_mask_isometries",
]
