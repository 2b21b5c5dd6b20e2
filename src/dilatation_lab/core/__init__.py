"""Core abstractions: scale groups, structures, operators, harness."""

from dilatation_lab.core.scales import (
    COMPLEX_UNITS, DYADIC_POWERS, POSITIVE_REALS,
    ComplexUnits, DyadicPowers, PositiveReals, Scale, ScaleGroup)
from dilatation_lab.core.reports import (
    ConvergenceReport, fit_loglog_rate, make_report, nonincreasing)
from dilatation_lab.core.structure import (
    Ball, DilatationStructure, approx_difference, approx_inverse, approx_sum,
    estimate_dx, rescaled_distance, vector_sample_ball)
from dilatation_lab.core.harness import (
    AXIOMS, verify_all_axioms, verify_axiom)

__all__ = [
    "AXIOMS", "Ball", "COMPLEX_UNITS", "ComplexUnits",
    "ConvergenceReport", "DYADIC_POWERS", "DilatationStructure", "DyadicPowers",
    "POSITIVE_REALS", "PositiveReals", "Scale", "ScaleGroup",
    "approx_difference", "approx_inverse", "approx_sum", "estimate_dx",
    "fit_loglog_rate", "make_report", "nonincreasing", "rescaled_distance",
    "vector_sample_ball", "verify_all_axioms", "verify_axiom",
]
