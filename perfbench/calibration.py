"""Speed of the machine, measured beside the workload.

The benchmark runs on a shared host whose speed drifts by tens of percent
over minutes as other tenants' load comes and goes; the same pass of the
same seed has taken 1.9 s and 3.1 s within three minutes, every op slowing
alike.  To compare two commits run at different moments, the runner
interleaves a fixed reference task with the ops and scales each time by how
fast the reference ran beside it.  The reference tasks are the benchmark's
own code, so no change to the library alters them:

* ``kernel`` mixes what the library's hot paths do in process: exact
  rational arithmetic on object arrays, rationals built from floats and
  multiplied out, and scalar float arithmetic in the interpreter;
* the reference process (this file run as a script) starts an interpreter,
  imports numpy and runs the kernel, as a ``dilatation-lab run`` process or
  a fresh set-up does.

A speed factor is the reference task's nominal time over its median time
since the last reading.  A time multiplied by it is in seconds of a
reference machine on which the kernel takes ``KERNEL_S`` and the reference
process ``PROCESS_S``; when the host slows down, the reference slows with
the ops and the product stays put.  Wall and CPU times get factors of their
own, because CPU time is the less trustworthy of the two here: while the
host holds a virtual CPU back, the time can be charged to the process that
was running, so that a single-threaded child has read 1.4 s of CPU for 1 s
of wall time.

Run as ``python perfbench/calibration.py`` it is the reference process.
"""

from __future__ import annotations

import math
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

# nominal times of the reference machine
KERNEL_S = 1e-3
PROCESS_S = 0.25
# kernel calls in one reference process
PROCESS_KERNEL_CALLS = 50
WARMUP_CALLS = 20

_STEPS = [Fraction(2 * i + 1, 2 * i + 3) for i in range(8)]
_FLOATS = [Fraction(x) for x in (0.1372, -0.0915, 0.1841, -0.0533, 0.0297, -0.1618)]


def kernel() -> Fraction:
    """About a millisecond of fixed work, in three parts of similar length."""
    a = np.array([Fraction(1, 3), Fraction(-2, 7), Fraction(5, 11)], dtype=object)
    b = np.array([Fraction(3, 5), Fraction(1, 9), Fraction(-4, 13)], dtype=object)
    for q in _STEPS:
        a = (a * q + b) * Fraction(1, 2)
        b = b - a * q
    s = 0.0
    for i in range(1, 2400):
        s += math.sqrt(i) * 0.5 - s / i
    x, y, z = _FLOATS[:3]
    for i in range(6):
        x, y, z = x * y + z, y * z - x * Fraction(1, 2), (z + x) * _FLOATS[3 + i % 3]
    return a[0] + x + Fraction(s).limit_denominator(10)


def run_kernel() -> float:
    """Run the kernel; return its CPU time."""
    c0 = time.process_time()
    kernel()
    return time.process_time() - c0


def run_reference_process() -> float:
    """Run the reference process to its end; return its CPU time."""
    proc = subprocess.Popen([sys.executable, str(Path(__file__).resolve())],
                            stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise subprocess.CalledProcessError(proc.returncode, proc.args)
    return usage.ru_utime + usage.ru_stime


@dataclass(frozen=True)
class Speed:
    """Speed factors of the machine for wall time and for CPU time."""

    wall: float
    cpu: float


# the factor of a pass that is not calibrated (the traced pass)
UNCALIBRATED = Speed(1.0, 1.0)


class Calibrator:
    """Runs a reference task beside the timed work and turns its times since
    the last reading into speed factors."""

    def __init__(self, task, nominal_s: float, share: float):
        self.task = task
        self.nominal_s = nominal_s
        self.share = share
        self.debt = 0.0
        self.times: list[tuple[float, float]] = []

    @classmethod
    def in_process(cls) -> "Calibrator":
        """The kernel, for a tenth of the time of the work it calibrates."""
        for _ in range(WARMUP_CALLS):
            kernel()
        return cls(run_kernel, KERNEL_S, 0.1)

    @classmethod
    def process(cls) -> "Calibrator":
        """The reference process, for a quarter of the time of the work."""
        return cls(run_reference_process, PROCESS_S, 0.25)

    def run(self):
        t0 = time.perf_counter()
        cpu = self.task()
        dt = time.perf_counter() - t0
        self.times.append((dt, cpu))
        self.debt -= dt

    def repay(self, busy_s: float):
        """Run the task for ``share`` of ``busy_s`` seconds of timed work."""
        self.debt += self.share * busy_s
        while self.debt > 0:
            self.run()

    def speed(self) -> Speed:
        """Nominal over median task time since the last reading, for wall
        and CPU time; runs the task once if it has not run since."""
        if not self.times:
            self.run()
        times, self.times = self.times, []
        return Speed(self.nominal_s / statistics.median(w for w, _ in times),
                     self.nominal_s / statistics.median(c for _, c in times))


if __name__ == "__main__":
    for _ in range(PROCESS_KERNEL_CALLS):
        kernel()
