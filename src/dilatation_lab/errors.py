"""Exception types shared across the lab."""


class DilatationLabError(Exception):
    """Base class for all lab-specific errors."""


class DomainViolation(DilatationLabError):
    """A point left the domain of the dilatation asked to move it, or a scale
    lies outside the domain of an operation (``core.scales.contraction``)."""


class NonConvergent(DilatationLabError):
    """A scale sweep failed its Cauchy/monotonicity acceptance rule."""


class MaxIterExceeded(DilatationLabError):
    """A fixed-point iteration ran out of its iteration budget."""


class PrecisionExhausted(DilatationLabError):
    """An exact dyadic construction would need digits beyond the configured precision."""


class ModelError(DilatationLabError):
    """A model description is structurally invalid."""


class ConfigError(DilatationLabError):
    """An experiment configuration failed validation."""
