"""The speed factors that put the benchmark's times in reference seconds.

Run with ``python -m pytest perfbench/tests -q`` from the repository root.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from calibration import Calibrator, kernel, run_reference_process  # noqa: E402


def sleeper(seconds, cpu_s):
    def task():
        time.sleep(seconds)
        return cpu_s
    return task


def test_factor_is_nominal_over_median_task_time():
    cal = Calibrator(sleeper(0.01, 0.005), nominal_s=0.02, share=0.5)
    speed = cal.speed()
    assert 0.0 < speed.wall <= 2.0
    assert speed.cpu == 4.0


def test_repay_runs_the_task_for_its_share_of_the_work():
    cal = Calibrator(sleeper(0.01, 0.001), nominal_s=0.01, share=0.5)
    cal.repay(0.2)
    walls = [w for w, _ in cal.times]
    assert sum(walls[:-1]) < 0.1 <= sum(walls)
    cal.speed()
    assert cal.times == []


def test_reference_tasks_run():
    kernel()
    assert run_reference_process() > 0
