"""Convergence reports: the record type every sweep in the lab produces."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from dilatation_lab.config import CAUCHY_SHRINK, DECAY_FACTOR, DEFECT_FLOOR, JITTER_FACTOR
from dilatation_lab.core.scales import Scale, decreasing


def fit_loglog_rate(nus, defects) -> float:
    """Least-squares slope of log(defect) against log(nu).

    Entries at or below the floor are dropped; with fewer than two usable
    points the sequence is numerically flat and the rate is reported as 0.
    """
    xs, ys = [], []
    for nu, d in zip(nus, defects):
        if d > DEFECT_FLOOR:
            xs.append(math.log(nu))
            ys.append(math.log(d))
    if len(xs) < 2:
        return 0.0
    n = len(xs)
    mx = sum(xs) / n
    my = sum(ys) / n
    sxx = sum((x - mx) ** 2 for x in xs)
    if sxx == 0.0:
        return 0.0
    sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    return sxy / sxx


def sup(values, axis=None):
    """The largest of the values and 0.0, the sup behind every sampled verdict:
    NaN when any value is NaN, and a ValueError on an empty sample.

    That is the lab's one NaN rule: a NaN residual is the worst value, so it
    fails every verdict built on it, wherever it falls.  It is also its one
    emptiness rule: a sup over no values would pass any verdict.  An iterable
    is scanned from 0.0 up to its first NaN; an array reduces with
    ``np.maximum``, over ``axis``, or to a float over the whole array when
    ``axis`` is None.  Along an axis each sup's sample is that axis, so only an
    empty axis raises: a batch of no rows gives an empty array of sups.
    """
    if isinstance(values, np.ndarray):
        if values.size if axis is None else values.shape[axis]:
            # + 0.0 turns a largest -0.0 into the 0.0 an iterable reports
            out = np.maximum.reduce(values, axis=axis, initial=0.0) + 0.0
            return float(out) if axis is None else out
    else:
        worst, count = 0.0, 0
        for count, d in enumerate(values, 1):
            if not d <= worst:
                if math.isnan(d):
                    return math.nan
                worst = d
        if count:
            return worst
    raise ValueError("an empty sample certifies nothing")


def nonincreasing(defects, floor: float = DEFECT_FLOOR) -> bool:
    """True if the sequence never grows by more than the jitter factor; a NaN fails it.

    Values at or below the floor are treated as zero, so roundoff wiggle in
    an exactly-satisfied identity does not fail the check.
    """
    prev = math.inf
    for d in defects:
        d = 0.0 if d <= floor else d
        if not d <= JITTER_FACTOR * max(prev, floor):
            return False
        prev = d
    return True


def settles(increments) -> bool:
    """True if each increment above the floor is at most the one before it (inf for
    the first) over CAUCHY_SHRINK, plus the floor; a NaN never settles."""
    return all(b <= DEFECT_FLOOR or b <= a / CAUCHY_SHRINK + DEFECT_FLOOR
               for a, b in zip([math.inf, *increments], increments))


def dies_out(values) -> bool:
    """True if the sequence is non-increasing and ends below DECAY_FACTOR times
    its first value; a sequence starting at or below the floor need only stay flat."""
    ok = nonincreasing(values)
    if values[0] > DEFECT_FLOOR:
        ok = ok and values[-1] < DECAY_FACTOR * values[0]
    return ok


@dataclass(frozen=True)
class ConvergenceReport:
    """Defect-versus-scale record of one sweep.

    eps_grid is strictly decreasing in nu; defect has one entry per grid
    scale; fitted_rate is the log-log slope of defect against nu; verdict is
    the sweep's pass/fail decision; metadata carries model name, seed, the
    quantity swept and any sweep-specific extras.
    """

    eps_grid: list[Scale]
    defect: list[float]
    fitted_rate: float
    verdict: bool
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        if len(self.eps_grid) != len(self.defect):
            raise ValueError("defect list must match the scale grid in length")
        decreasing(self.eps_grid)

    @property
    def nus(self) -> list[float]:
        return [e.nu for e in self.eps_grid]

    @property
    def final_defect(self) -> float:
        return self.defect[-1]


def make_report(eps_grid, defects, verdict, metadata) -> ConvergenceReport:
    rate = fit_loglog_rate([e.nu for e in eps_grid], defects)
    return ConvergenceReport(list(eps_grid), list(defects), rate, bool(verdict), dict(metadata))
