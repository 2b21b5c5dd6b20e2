"""Tolerances and grid defaults used by the harness, the sweeps and the CLI.

All numeric acceptance rules in the lab are pinned here so that every entry
point (tests, CLI, library calls) agrees on what "passes" means.
"""

# residual of identities that hold exactly, on unit-scale data
EXACT_IDENTITY_TOL = 1e-9
# stopping rule for fixed-point iterations
FIXED_POINT_TOL = 1e-12
# random sample size for sup-over-compacts approximations
SAMPLE_COUNT = 64
# a defect sequence counts as non-increasing if each entry is at most
# JITTER_FACTOR times the previous one
JITTER_FACTOR = 1.5
# limit extrapolation requires successive Cauchy increments to shrink
# by at least this factor
CAUCHY_SHRINK = 1.3
# defects at or below this floor are treated as numerically zero
DEFECT_FLOOR = 1e-12
# iteration budget for contractions
MAX_ITER = 10_000


def default_ks() -> list[int]:
    """Exponents k of the default scale grid eps = 2^-k."""
    return list(range(2, 13))
