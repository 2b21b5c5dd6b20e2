"""The ``cli-runs`` workload: fresh ``dilatation-lab run`` processes.

Each op starts one interpreter on one config, waits for it, and keeps its
exit code, CSV bytes, latency, CPU time and peak memory.  The config list is
the four shipped configs plus the benchmark's own, which cover the commands
the shipped ones leave out.  This module imports nothing from the library:
the parent process only starts child processes and waits for them.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from seeding import derive_seed

HERE = Path(__file__).resolve().parent

# commands whose config takes a seed; ``--seed`` on any other command is
# rejected by the CLI's validation as an unknown field
SEEDED_COMMANDS = {"axioms", "barycentric", "affinemap", "counterexample"}

# at this seed every config runs as written, and its CSV must match the
# digest recorded in expected_sha256.json
DEFAULT_SEED = 0

# exit code 0 is the verdict every config should reach.  Left translation is
# affine on a group model, but the command evaluates it in floating point
# and the Cygan fourth root lifts the roundoff past the 1e-9 tolerance, so
# today it exits 2.  That outcome is reported as a known defect, apart from
# unexpected failures; a fix turns it into a pass with no change here.
KNOWN_DEFECTS = {"affinemap_heisenberg_left_translation": 2}

USER_ENTRY = "import sys; from dilatation_lab.cli import main; sys.exit(main())"


@dataclass
class Invocation:
    name: str
    config: Path
    seed: int | None


@dataclass
class CliResult:
    code: int
    csv: bytes
    latency_s: float
    cpu_s: float
    maxrss_kb: int
    stderr: str


def config_paths(root: Path) -> list[Path]:
    return sorted((root / "configs").glob("*.json")) + sorted((HERE / "configs").glob("*.json"))


def plan(root: Path, seed: int) -> list[Invocation]:
    """The invocation list: every config once, seeded configs reseeded."""
    out = []
    for path in config_paths(root):
        command = json.loads(path.read_text())["command"]
        run_seed = None
        if command in SEEDED_COMMANDS and seed != DEFAULT_SEED:
            run_seed = derive_seed(seed, "cli-runs", path.stem) % 2**31
        out.append(Invocation(path.stem, path, run_seed))
    return out


def invoke(inv: Invocation, out_csv: Path, env: dict, traced_to: Path | None = None):
    """Run one config in a fresh interpreter and wait for it."""
    args = ["run", str(inv.config), "--out", str(out_csv), "--quiet"]
    if inv.seed is not None:
        args += ["--seed", str(inv.seed)]
    if traced_to is None:
        argv = [sys.executable, "-c", USER_ENTRY, *args]
    else:
        argv = [sys.executable, str(HERE / "cli_child.py"), str(traced_to), *args]
    if out_csv.exists():
        out_csv.unlink()
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE)
    try:
        err = proc.stderr.read()
    finally:
        proc.stderr.close()
    _, status, usage = os.wait4(proc.pid, 0)
    latency = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    csv = out_csv.read_bytes() if out_csv.exists() else b""
    return t0, CliResult(proc.returncode, csv, latency, usage.ru_utime + usage.ru_stime,
                         usage.ru_maxrss, err.decode(errors="replace"))


def is_known_defect(inv: Invocation, res: CliResult) -> bool:
    return res.code != 0 and res.code == KNOWN_DEFECTS.get(inv.name)


def load_expected_digests() -> dict:
    return json.loads((HERE / "expected_sha256.json").read_text())


class CliChecker:
    """Per-invocation checks: exit code, byte-identical reruns and, at the
    default seed, the recorded digest of each CSV."""

    def __init__(self, seed: int):
        self.digests = load_expected_digests() if seed == DEFAULT_SEED else {}
        self.first: dict[str, bytes] = {}

    def check(self, inv: Invocation, res: CliResult) -> str | None:
        if res.code != 0 and not is_known_defect(inv, res):
            return f"exit code {res.code}, expected 0: {res.stderr.strip()[-300:]}"
        previous = self.first.setdefault(inv.name, res.csv)
        if res.csv != previous:
            return "CSV differs from the first invocation of the same config"
        want = self.digests.get(inv.name)
        if want is not None and hashlib.sha256(res.csv).hexdigest() != want:
            return "CSV digest differs from the one recorded for this config"
        return None
