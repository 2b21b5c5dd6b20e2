"""Every threshold that decides a verdict, a warning or a raised error.

Every entry point (tests, CLI, library calls) reads its acceptance rules
here, so all agree on what "passes" means.  Equal values that mean different
things keep separate names; sampling radii and model constants stay put.
"""

EXACT_IDENTITY_TOL = 1e-9         # identities that hold exactly, on unit-scale data
LIMIT_TOL = 1e-6                  # limits read off a finite grid: A3, estimated tangent distances
CAUCHY_DIFFERENCE_TOL = 1e-2      # A4 without closed forms: gap to one refinement deeper
DERIVATIVE_TOL = 1e-4             # final residual of a derivative estimate
MENELAOS_PROBE_TOL = 1e-8         # Menelaos probe defect the CLI verdict and the warning accept
COUNTEREXAMPLE_SEPARATION = 1e-6  # the C x R composite must miss the translation by more
ENVELOPE_SLACK = 1e-9             # relative slack of the Menelaos distance envelopes
ENVELOPE_ABS_SLACK = 1e-15        # and their absolute slack, for envelopes that vanish
JITTER_FACTOR = 1.5               # growth allowed per entry, times the grid's ratio in contracting
DECAY_FACTOR = 0.1                # dying out: the last value below this times the first
DEFECT_FLOOR = 1e-12              # defects at or below this count as zero
TOLERANCE_FLOOR_FRACTION = 0.01   # so do harness defects below this fraction of the tolerance
FIXED_POINT_TOL = 1e-12           # stopping rule for fixed-point iterations
MAX_ITER = 10_000                 # iteration budget for contractions
RATE_FLOOR_FACTOR = 1e-5          # Menelaos rates read only above this times max(1, start distance)
CHART_BALL_SLACK = 1e-12          # roundoff a point may lie past a chart ball's radius
JACOBI_TOL = 1e-12                # largest Jacobi residual of declared Carnot brackets
SAMPLE_COUNT = 64                 # random sample size for sup-over-compacts approximations
MIN_PAIRED_SAMPLES = 2            # sweeps pairing each sample with the next; one pairs with itself


def default_ks() -> list[int]:
    """Exponents k of the default scale grid eps = 2^-k."""
    return list(range(2, 13))
