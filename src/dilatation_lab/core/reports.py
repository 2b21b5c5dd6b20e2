"""Convergence reports, the record every sweep produces, and the rules of its verdict."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from dilatation_lab.config import DECAY_FACTOR, DEFECT_FLOOR, JITTER_FACTOR
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


@dataclass(frozen=True)
class Verdict:
    """A named rule's decision, truthy exactly when it passed (README, Verdicts)."""

    passed: bool
    rule: str
    tolerance: float | None = None
    broke_at: int | None = None

    def __bool__(self):
        return self.passed


def _first_break(rule, checks, tolerance=None) -> Verdict:
    """The verdict on one check per value, broken at the first that fails."""
    broke = next((i for i, ok in enumerate(checks) if not ok), None)
    return Verdict(broke is None, rule, tolerance, broke)


def _trend(values, floor, last_ok=True) -> list:
    """Per value: within the jitter factor of the one before; the last also last_ok."""
    zeroed = [0.0 if d <= floor else d for d in values]
    checks = [d <= JITTER_FACTOR * max(prev, floor) for prev, d in zip([math.inf, *zeroed], zeroed)]
    return [*checks[:-1], *(ok and last_ok for ok in checks[-1:])]


def nonincreasing(defects) -> Verdict:
    """No value grows by more than the jitter factor; a NaN fails.  Values at or below
    DEFECT_FLOOR count as zero, so roundoff wiggle in an exact identity does not fail."""
    return _first_break("nonincreasing", _trend(defects, DEFECT_FLOOR))


def contracts(increments, nus) -> Verdict:
    """The increments of a limit read off the grid of these nus shrink as a first-order
    limit's do: from index max(1, n // 2) on, each is at most the one before times
    JITTER_FACTOR * nus[i] / nus[i - 1], plus the floor.  The first half is not judged,
    so one rise on a coarse grid start does not decide; a NaN anywhere fails."""
    start = max(1, len(increments) // 2)
    return _first_break("contracts", [
        b <= JITTER_FACTOR * nus[i] / nus[i - 1] * a + DEFECT_FLOOR if i >= start
        else not math.isnan(b)
        for i, (a, b) in enumerate(zip([math.inf, *increments], increments))])


def dies_out(values) -> Verdict:
    """Non-increasing and ending below DECAY_FACTOR times the first value; a
    sequence starting at or below the floor need only stay flat."""
    return _first_break("dies_out", _trend(values, DEFECT_FLOOR, values[0] <= DEFECT_FLOOR
                                           or values[-1] < DECAY_FACTOR * values[0]))


def converges(values, tol: float, floor: float = DEFECT_FLOOR) -> Verdict:
    """Non-increasing above the floor, and the last value within tol."""
    return _first_break("converges", _trend(values, floor, values[-1] <= tol), tol)


def within(values, tol: float) -> Verdict:
    """Every value within tol, so sup(values) <= tol: a NaN fails, an empty sup raises."""
    return _first_break("within", [v <= tol for v in values] or sup(values), tol)


def beyond(values, tol: float) -> Verdict:
    """Every value above tol: a NaN fails, an empty sup raises."""
    return _first_break("beyond", [v > tol for v in values] or sup(values), tol)


def within_envelopes(values, bounds, slack: float, abs_slack: float) -> Verdict:
    """Each value at most its bound times 1 + slack, plus abs_slack; as ``within``."""
    return _first_break("within_envelopes", [v <= b * (1.0 + slack) + abs_slack
                                             for v, b in zip(values, bounds)] or sup(values), slack)


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


def make_report(eps_grid, defects, verdict: Verdict, metadata) -> ConvergenceReport:
    """A sweep's report; its metadata records the verdict's rule, tolerance and broke_at."""
    if not isinstance(verdict, Verdict):
        raise TypeError(f"a verdict comes from a named rule, not {verdict!r}")
    rate = fit_loglog_rate([e.nu for e in eps_grid], defects)
    metadata = {**metadata, "rule": verdict.rule, "broke_at": verdict.broke_at}
    if verdict.tolerance is not None:
        metadata["tolerance"] = verdict.tolerance
    return ConvergenceReport(list(eps_grid), list(defects), rate, verdict.passed, metadata)
