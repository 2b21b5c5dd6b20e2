"""Benchmark of dilatation-lab: four workloads, end-to-end and per-layer metrics.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from its
``src`` directory.  Workloads:

* ``exact-axioms``       every axiom on the six conical models (exact A1/A4);
* ``float-sweeps``       float-only sample loops (pullback, cauchy A4, search);
* ``fixed-point-chains`` Menelaos fixed points and tangent limits, one point
                         at a time;
* ``cli-runs``           fresh ``dilatation-lab run`` processes.

Each workload is a fixed list of operations built from ``--seed``.  A pass
runs the list once, one operation at a time (a closed loop with one client),
then checks every output.  Passes repeat until ``--seconds`` have elapsed
(at least three).  A fixed kernel runs between the ops and gives each pass
a speed factor (see ``calibration.py``); ``wall_s`` and ``cpu_s`` are the
median over passes of the pass's time times its factor, which removes the
drift in speed of a shared host.  The median pass in plain seconds is
printed beside them.  Set-up time is the median over several fresh
interpreters, started between passes, each scaled by the factor measured
right after it.

With ``--trace 0`` the last line of output is a JSON object with the
end-to-end metrics; with ``--trace 1`` the same passes run untraced, then
one more pass runs with every layer traced, and the JSON object carries the
per-layer metrics.  Lines before it are a human-readable report: the
environment, every metric with its unit, the failure share and, for
``cli-runs``, the latency median and tail.  Spans are written to
``.perfbench_out/`` in the checkout.  ``--size smoke`` shrinks every pass to
a minimum, for the benchmark's own test.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import warnings
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

from calibration import UNCALIBRATED, Calibrator, Speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("exact-axioms", "float-sweeps", "fixed-point-chains", "cli-runs")
# at least three passes give a median; two still let cli-runs compare reruns
MIN_PASSES = {"full": 3, "smoke": 2}
SETUP_PROBES = 7
CHILD_TIMEOUT_S = 120


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


@dataclass
class Pass:
    """One pass over the op list: per-op wall and CPU times, failed checks,
    and the speed factor of the machine during the pass."""

    op_wall: list[float]
    op_cpu: list[float]
    failures: list[str]
    maxrss_kb: int
    known_defects: list[str] = field(default_factory=list)
    spawns: list[float] = field(default_factory=list)
    speed: Speed = UNCALIBRATED

    @property
    def wall_s(self) -> float:
        return sum(self.op_wall)

    @property
    def cpu_s(self) -> float:
        return sum(self.op_cpu)


def calibrated_median(passes: list[Pass], clock: str) -> float:
    """Median over passes of the pass's ``wall`` or ``cpu`` time in
    reference seconds."""
    return statistics.median(getattr(p, clock + "_s") * getattr(p.speed, clock)
                             for p in passes)


# ---------------------------------------------------------------------------
# environment and set-up
# ---------------------------------------------------------------------------

def load_spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise BenchError(f"{path.name} is missing")
    return json.loads(path.read_text())


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    target = ROOT / ".git" / ref[5:]
    if target.is_file():
        return target.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def environment() -> dict:
    src_lines = sum(len(p.read_text().splitlines())
                    for p in (ROOT / "src").rglob("*.py"))
    return {"python": platform.python_version(), "numpy": metadata.version("numpy"),
            "nproc": os.cpu_count(), "git_sha": git_sha(), "src_lines": src_lines}


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("DILATATION_LAB_THREADS", None)
    return env


class SetupProbes:
    """Set-up, import and interpreter-start times in fresh interpreters.

    Probes run between passes, so their median samples the whole run
    rather than one moment of a machine whose speed drifts; the reference
    process runs right after each probe and gives it a speed factor.
    """

    def __init__(self, workload: str, seed: int, size: str):
        self.argv = [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed), size]
        self.calibrator = Calibrator.process()
        self.samples: list[dict] = []

    def probe(self):
        if len(self.samples) >= SETUP_PROBES:
            return
        t0 = time.perf_counter()
        proc = subprocess.run(self.argv, env=child_env(), capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            raise BenchError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        sample = json.loads(proc.stdout.strip().splitlines()[-1])
        sample["interpreter_s"] = sample.pop("first_statement") - t0
        sample["setup_ref_s"] = sample["setup_s"] * self.calibrator.speed().wall
        self.samples.append(sample)

    def medians(self) -> dict:
        """Median of each reading: ``setup_ref_s`` in reference seconds,
        the others in plain seconds."""
        while len(self.samples) < SETUP_PROBES:
            self.probe()
        return {k: statistics.median(s[k] for s in self.samples) for k in self.samples[0]}


def closed_loop(run_pass, seconds: float, min_passes: int, probes: SetupProbes) -> list[Pass]:
    passes = []
    deadline = time.perf_counter() + seconds
    while len(passes) < min_passes or time.perf_counter() < deadline:
        passes.append(run_pass())
        probes.probe()
    return passes


# ---------------------------------------------------------------------------
# in-process workloads
# ---------------------------------------------------------------------------

def inprocess_pass(workload, tracer=None, calibrator=None) -> Pass:
    from workloads import KnownDefect

    outputs, op_wall, op_cpu = [], [], []
    for i, op in enumerate(workload.ops):
        if tracer is not None:
            tracer.op_id = i
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            outputs.append((True, op.call()))
        except Exception as err:  # a raising op is a failed op, not a crash
            outputs.append((False, err))
        op_wall.append(time.perf_counter() - t0)
        op_cpu.append(time.process_time() - c0)
        if calibrator is not None:
            calibrator.repay(op_wall[-1])
    failures, known = [], []
    for op, (ok, out) in zip(workload.ops, outputs):
        try:
            msg = op.check(out) if ok else f"raised {type(out).__name__}: {out}"
        except Exception as err:
            msg = f"check raised {type(err).__name__}: {err}"
        if msg:
            (known if isinstance(msg, KnownDefect) else failures).append(f"{op.name}: {msg}")
    return Pass(op_wall, op_cpu, failures, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                known, speed=calibrator.speed() if calibrator else UNCALIBRATED)


def run_inprocess(name: str, seed: int, seconds: float, trace: bool, size: str,
                  probes: SetupProbes):
    import workloads
    from layers import Spans, layer_metrics
    from tracer import Tracer

    # menelaos_iterate warns when a float linearity spot check looks
    # nonlinear; the benchmark judges the verdicts instead
    warnings.filterwarnings("ignore", message=".*looks nonlinear near the inputs")
    workload = workloads.IN_PROCESS[name](seed, size)
    calibrator = Calibrator.in_process()
    passes = closed_loop(lambda: inprocess_pass(workload, calibrator=calibrator),
                         seconds, MIN_PASSES[size], probes)
    if not trace:
        return passes, None
    tracer = Tracer().install(workload.models)
    try:
        traced = inprocess_pass(workload, tracer)
    finally:
        tracer.uninstall()
    OUT.mkdir(exist_ok=True)
    tracer.save(OUT / f"spans-{name}-seed{seed}.npz")
    layer = layer_metrics(Spans([tracer.record()]), workload.reversed_budget)
    return passes + [traced], (layer, traced)


# ---------------------------------------------------------------------------
# cli-runs
# ---------------------------------------------------------------------------

def run_cli(seed: int, seconds: float, trace: bool, size: str, probes: SetupProbes):
    import cli_ops

    invocations = cli_ops.plan(ROOT, seed)
    checker = cli_ops.CliChecker(seed)
    env = child_env()
    work = OUT / f"cli-runs-seed{seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    span_dir = OUT / f"spans-cli-runs-seed{seed}"

    calibrator = Calibrator.process()

    def one_pass(traced: bool = False) -> Pass:
        results, starts, op_cpu = [], [], []
        for k, inv in enumerate(invocations):
            spans = span_dir / f"{k:02d}-{inv.name}.npz" if traced else None
            c0 = time.process_time()
            spawn, res = cli_ops.invoke(inv, work / f"{inv.name}.csv", env, spans)
            op_cpu.append(time.process_time() - c0 + res.cpu_s)
            starts.append(spawn)
            results.append(res)
            if not traced:
                calibrator.repay(res.latency_s)
        pairs = list(zip(invocations, results))
        failures = [f"{inv.name}: {msg}" for inv, res in pairs if (msg := checker.check(inv, res))]
        known = [f"{inv.name}: exit code {res.code}, expected 0"
                 for inv, res in pairs if cli_ops.is_known_defect(inv, res)]
        return Pass([r.latency_s for r in results], op_cpu, failures,
                    max(r.maxrss_kb for r in results), known, starts,
                    speed=UNCALIBRATED if traced else calibrator.speed())

    try:
        passes = closed_loop(one_pass, seconds, MIN_PASSES[size], probes)
        if not trace:
            return passes, None
        import numpy as np
        from layers import Spans, layer_metrics

        shutil.rmtree(span_dir, ignore_errors=True)
        span_dir.mkdir(parents=True)
        traced = one_pass(traced=True)
        files = sorted(span_dir.glob("*.npz"))
        records = [dict(np.load(f)) for f in files]
        spans = Spans(records)
        layer = layer_metrics(spans, 0)
        firsts = [int(dict(zip(r["count_names"], r["count_values"]))["cli.first_statement_ns"])
                  for r in records]
        layer["cli.interpreter_s"] = sum(f / 1e9 - s for f, s in zip(firsts, traced.spawns))
        layer["cli.import_s"] = spans.counts.get("cli.import_ns", 0) / 1e9
        layer["cli.from_json_s"] = spans.total_s("cli.from_json")
        layer["cli.run_s"] = spans.total_s("cli.run")
        layer["cli.render_s"] = spans.total_s("cli.render")
        return passes + [traced], (layer, traced)
    finally:
        shutil.rmtree(work, ignore_errors=True)


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

def tail(latencies: list[float]):
    """Latency at the highest percentile with at least ten samples beyond it."""
    n = len(latencies)
    pct = 100 * (n - 10) // n
    if pct <= 50:
        return None, None  # too few samples for a tail beyond the median
    return sorted(latencies)[n - 11], pct


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    args = parser.parse_args(argv)

    try:
        if not (ROOT / "src" / "dilatation_lab" / "__init__.py").is_file():
            raise BenchError("no dilatation_lab sources under src/ in this checkout")
        spec = load_spec()
        sys.path[:0] = [str(HERE), str(ROOT / "src")]
        env = environment()
        print("environment: " + " ".join(f"{k}={v}" for k, v in env.items()))
        probes = SetupProbes(args.workload, args.seed, args.size)
        if args.workload == "cli-runs":
            passes, traced = run_cli(args.seed, args.seconds, bool(args.trace), args.size,
                                     probes)
        else:
            passes, traced = run_inprocess(args.workload, args.seed, args.seconds,
                                           bool(args.trace), args.size, probes)
        setup = probes.medians()
    except (BenchError, subprocess.SubprocessError, OSError) as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 2

    timed = passes if traced is None else passes[:-1]
    attempted = sum(len(p.op_wall) for p in passes)
    failures = [f for p in passes for f in p.failures]
    known = [k for p in passes for k in p.known_defects]
    median_pass = statistics.median(p.wall_s for p in timed)
    # wall, CPU and set-up times in reference seconds; peak memory in
    # process: this process's peak; for cli-runs: the largest child's
    e2e = {"wall_s": calibrated_median(timed, "wall"),
           "cpu_s": calibrated_median(timed, "cpu"),
           "peak_rss_mb": max(p.maxrss_kb for p in timed) / 1024.0,
           "setup_s": setup["setup_ref_s"]}

    print(f"workload={args.workload} seed={args.seed} passes={len(timed)} "
          f"ops_per_pass={len(timed[0].op_wall)} size={args.size}")
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for name, value in e2e.items():
        print(f"  {name:<14} {value:.6g} {units[name]}")
    print(f"  {'failed_share':<14} {(len(failures) + len(known)) / attempted:.6g} ratio "
          f"({len(failures)} failed, {len(known)} known defect, {attempted} attempted)")
    print(f"  {'median pass':<14} {median_pass:.6g} s (plain seconds; median speed factor "
          f"{statistics.median(p.speed.wall for p in timed):.4g}, set-up {setup['setup_s']:.6g} s)")
    if args.workload == "cli-runs":
        latencies = [x for p in timed for x in p.op_wall]
        value, pct = tail(latencies)
        print(f"  {'run_p50_s':<14} {statistics.median(latencies):.6g} s "
              f"(n={len(latencies)} invocations)")
        if value is not None:
            print(f"  {'run_tail_s':<14} {value:.6g} s (p{pct}, n={len(latencies)})")
    for k in sorted(set(known)):
        print(f"KNOWN DEFECT {k} ({known.count(k)} times)")
    for f in failures[:10]:
        print(f"FAILED {f}")

    if traced is None:
        chosen = {m["name"]: e2e[m["name"]] for m in spec["end_to_end"]}
    else:
        layer, traced_pass = traced
        if args.workload != "cli-runs":
            layer.update({"cli.interpreter_s": setup["interpreter_s"],
                          "cli.import_s": setup["import_s"], "cli.from_json_s": 0.0,
                          "cli.run_s": 0.0, "cli.render_s": 0.0})
        layer["trace.overhead_share"] = traced_pass.wall_s / median_pass - 1.0
        harness = layer["core.harness.A1.total_s"] + layer["core.harness.A4.total_s"]
        print(f"traced pass: {traced_pass.wall_s:.6g} s, of which A1 and A4 with their "
              f"children {harness / traced_pass.wall_s:.1%}")
        print("per-layer metrics (one traced pass):")
        for name in sorted(layer):
            print(f"  {name:<52} {layer[name]:.6g} {units.get(name, '?')}")
        missing = [m["name"] for m in spec["per_layer"] if m["name"] not in layer]
        if missing:
            print(f"perfbench: per-layer metrics not measured: {missing}", file=sys.stderr)
            return 2
        chosen = {m["name"]: layer[m["name"]] for m in spec["per_layer"]}
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures),
                      "metrics": {k: {"value": v, "unit": units[k]} for k, v in chosen.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
