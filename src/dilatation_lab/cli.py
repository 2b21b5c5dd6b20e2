"""Reproducible experiment runner.

Reads a JSON config describing a model and a command, runs the matching
harness operation, and writes a CSV report with a fixed schema: one header
row, data rows, then '#'-prefixed metadata lines carrying the model name,
seed, verdict, tool version and the config hash.  Identical configs produce
byte-identical files.  Exit codes: 0 when the verdict passes, 2 when it
fails, 1 on configuration or execution errors.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys

import numpy as np

from dilatation_lab import __version__
from dilatation_lab.config import (
    EXACT_IDENTITY_TOL, MAX_ITER, MENELAOS_PROBE_TOL, SAMPLE_COUNT, default_ks)
from dilatation_lab.errors import (
    ConfigError, DilatationLabError, DomainViolation, MaxIterExceeded,
    ModelError, NonConvergent, PrecisionExhausted)
from dilatation_lab.core.harness import AXIOMS, verify_axiom
from dilatation_lab.core.structure import Ball, exactify
from dilatation_lab import models as model_factory
from dilatation_lab.emergent import check_affine_map, inflin_scan, tangent_limit
from dilatation_lab.affine import (
    banach_oracle, barycentric_defect, counterexample_check,
    heisenberg_ratio_closed_form, menelaos_iterate, probe_points, ratio_point)

_COMMON_FIELDS = {"model", "command"}

_COMMAND_FIELDS = {
    "axioms": {"which", "seed", "ks", "sample_count"},
    "tangent": {"which", "x", "u", "v", "ks"},
    "menelaos": {"x", "y", "eps", "mu", "max_iter"},
    "ratio": {"x", "y", "eps", "mu", "N"},
    "linscan": {"x", "y", "z", "ks"},
    "barycentric": {"eps", "x", "y", "seed", "sample_count"},
    "counterexample": {"eps", "Y", "seed"},
    "affinemap": {"map", "seed", "sample_count", "ks"},
}


def _config_hash(config: dict) -> str:
    canon = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def _validate(config: dict) -> str:
    if not isinstance(config, dict):
        raise ConfigError("config must be a JSON object")
    command = config.get("command")
    if command not in _COMMAND_FIELDS:
        raise ConfigError(f"unknown or missing command {command!r}; "
                          f"expected one of {sorted(_COMMAND_FIELDS)}")
    if "model" not in config:
        raise ConfigError("config must declare a model")
    allowed = _COMMON_FIELDS | _COMMAND_FIELDS[command]
    unknown = set(config) - allowed
    if unknown:
        raise ConfigError(f"unknown fields for command {command!r}: {sorted(unknown)}")
    randomized = {"axioms", "affinemap", "counterexample"}
    if command in randomized and "seed" not in config:
        raise ConfigError(f"command {command!r} runs a randomized sweep: seed is mandatory")
    if command == "barycentric" and "x" not in config and "seed" not in config:
        raise ConfigError("barycentric without explicit points is randomized: seed is mandatory")
    return command


def _grid(model, config, default=None):
    ks = config.get("ks", default if default is not None else default_ks())
    if (not isinstance(ks, list) or len(ks) < 2
            or any(not isinstance(k, int) for k in ks)):
        raise ConfigError(f"ks must be a list of at least two integers, got {ks!r}")
    return model.scale_group.grid(ks)


def _seeded_pairs(model, config) -> list:
    """sample_count seeded pairs from the ball of radius closeness_budget() at the origin."""
    rng = np.random.default_rng(int(config["seed"]))
    count = int(config.get("sample_count", 16))
    pts = model.sample_ball(model.origin(), model.closeness_budget(), 2 * count, rng)
    return list(zip(pts[:count], pts[count:]))


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


class CsvReport:
    """Column-schema CSV with '#'-prefixed trailing metadata rows."""

    def __init__(self, columns: list[str]):
        self.columns = columns
        self.rows: list[list] = []
        self.meta: dict[str, str] = {}

    def add(self, *row):
        if len(row) != len(self.columns):
            raise ValueError("row width does not match the declared columns")
        self.rows.append(list(row))

    def render(self) -> str:
        lines = [",".join(self.columns)]
        lines += [",".join(_fmt(c) for c in row) for row in self.rows]
        lines += [f"# {key}={val}" for key, val in self.meta.items()]
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# command implementations: each returns (report: CsvReport, verdict: bool)
# ---------------------------------------------------------------------------

def _cmd_axioms(model, config):
    which = config.get("which", "all")
    names = list(AXIOMS) if which == "all" else [which]
    for name in names:
        if name not in AXIOMS:
            raise ConfigError(f"unknown axiom {name!r}")
    region = Ball(model.origin(), model.closeness_budget())
    grid = _grid(model, config)
    seed = int(config["seed"])
    sample_count = int(config.get("sample_count", SAMPLE_COUNT))
    out = CsvReport(["axiom", "nu", "defect", "pass"])
    all_ok = True
    for name in names:
        rep = verify_axiom(model, name, region, grid, sample_count=sample_count, seed=seed)
        all_ok = all_ok and rep.verdict
        for nu, defect in zip(rep.nus, rep.defect):
            out.add(name, nu, defect, "pass" if rep.verdict else "fail")
    out.meta["seed"] = str(seed)
    return out, all_ok


def _cmd_tangent(model, config):
    which = config.get("which", "sum")
    x = model.point_from_json(config["x"])
    u = model.point_from_json(config["u"])
    v = model.point_from_json(config["v"]) if which != "inverse" else None
    grid = _grid(model, config)
    limit, rep = tangent_limit(model, x, u, v, which, grid)
    out = CsvReport(["nu", "defect"])
    for nu, defect in zip(rep.nus, rep.defect):
        out.add(nu, defect)
    out.meta["limit"] = " ".join(_fmt(c) for c in model.point_to_list(limit))
    return out, rep.verdict


def _cmd_menelaos(model, config):
    x = model.point_from_json(config["x"])
    y = model.point_from_json(config["y"])
    eps = model.scale_group.scale(config["eps"])
    mu = model.scale_group.scale(config["mu"])
    result = menelaos_iterate(model, x, eps, y, mu,
                              max_iter=int(config.get("max_iter", MAX_ITER)))
    coords = model.point_to_list(result.w)
    out = CsvReport(["iterations", "residual", "contraction_rate", "probe_defect"]
                    + [f"w{i}" for i in range(len(coords))])
    out.add(result.iterations, result.residual, result.contraction_rate,
            result.probe_defect, *coords)
    return out, result.probe_defect <= MENELAOS_PROBE_TOL


def _cmd_ratio(model, config):
    x = model.point_from_json(config["x"])
    y = model.point_from_json(config["y"])
    eps = model.scale_group.scale(config["eps"])
    mu = model.scale_group.scale(config["mu"])
    N = int(config.get("N", 64))
    answers = {
        "iteration": menelaos_iterate(model, x, eps, y, mu).w,
        "banach": banach_oracle(model, x, eps, y, mu, x),
        "hg": ratio_point(model, x, y, eps, mu, N),
    }
    if isinstance(model, model_factory.HeisenbergModel):
        answers["closed_form"] = heisenberg_ratio_closed_form(
            model, x, y, eps.value, mu.value)
    names = list(answers)
    out = CsvReport(["oracle_a", "oracle_b", "disagreement"])
    worst = 0.0
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            d = model.coordinate_gap(answers[a], answers[b])
            worst = max(worst, d)
            out.add(a, b, d)
    out.meta["max_disagreement"] = repr(worst)
    return out, worst <= EXACT_IDENTITY_TOL


def _cmd_linscan(model, config):
    x = model.point_from_json(config["x"])
    y = model.point_from_json(config["y"])
    z = model.point_from_json(config["z"])
    grid = _grid(model, config, default=list(range(3, 11)))
    rep = inflin_scan(model, x, y, z, grid)
    out = CsvReport(["nu", "lin_over_eps_sq"])
    for nu, val in zip(rep.nus, rep.defect):
        out.add(nu, val)
    return out, rep.verdict


def _cmd_barycentric(model, config):
    eps = model.scale_group.scale(config["eps"])
    out = CsvReport(["sample", "defect"])
    defects = []
    if "x" in config:
        pairs = [(model.point_from_json(config["x"]), model.point_from_json(config["y"]))]
    else:
        pairs = _seeded_pairs(model, config)
    for i, (x, y) in enumerate(pairs):
        d = barycentric_defect(model, x, y, eps)
        defects.append(d)
        out.add(i, d)
    return out, max(defects) <= EXACT_IDENTITY_TOL


def _cmd_counterexample(model, config):
    if not isinstance(model, model_factory.ComplexHeisenbergModel):
        raise ConfigError("the counterexample command needs the complex_heisenberg model")
    eps = float(config.get("eps", 0.5))
    Y = model.point_from_json(config.get("Y", [1.0, 0.0, 1.0]))
    seed = int(config["seed"])
    probes = probe_points(model, model.identity(), 1.0, seed)
    flipped = counterexample_check(model, eps, Y, probes, flip=True)
    control = counterexample_check(model, eps, Y, probes, flip=False)
    out = CsvReport(["case", "defect", "pass"])
    out.add("eps_mu_minus_one", flipped.defect[0], "pass" if flipped.verdict else "fail")
    out.add("eps_mu_plus_one", control.defect[0], "pass" if control.verdict else "fail")
    return out, flipped.verdict and control.verdict


def _make_map(model, desc):
    kind = desc["type"]
    if kind == "linear":
        matrix = np.asarray(desc["matrix"], dtype=float)
        offset = np.asarray(desc.get("offset", np.zeros(matrix.shape[0])), dtype=float)
        return lambda p: matrix @ p + offset
    if kind == "left_translation":
        if not isinstance(model, model_factory.GroupModel):
            raise ConfigError(f"a left_translation map needs a group model, not {model.name}")
        return model.left_translation(model.to_exact(model.point_from_json(desc["point"])))
    if kind == "componentwise_cubic":
        return model_factory.CubicChart().forward
    raise ConfigError(f"unknown map type {kind!r}")


def _cmd_affinemap(model, config):
    desc = config["map"]
    if not isinstance(desc, dict) or "type" not in desc:
        raise ConfigError("map must be an object with a 'type' field")
    T = _make_map(model, desc)
    samples = _seeded_pairs(model, config)
    grid = _grid(model, config, default=[1, 2, 3, 4])
    if desc["type"] == "left_translation":
        # a left translation is affine on a group model, so its commutation
        # defect is evaluated exactly: in floats the Cygan fourth root lifts
        # coordinate roundoff past the tolerance
        pts, grid, _ = exactify(model, [p for pair in samples for p in pair], grid)
        samples = list(zip(pts[::2], pts[1::2]))
    rep = check_affine_map(model, T, samples, grid)
    out = CsvReport(["nu", "defect"])
    for nu, defect in zip(rep.nus, rep.defect):
        out.add(nu, defect)
    out.meta["lipschitz_estimate"] = repr(rep.metadata["lipschitz_estimate"])
    return out, rep.verdict


_COMMANDS = {
    "axioms": _cmd_axioms,
    "tangent": _cmd_tangent,
    "menelaos": _cmd_menelaos,
    "ratio": _cmd_ratio,
    "linscan": _cmd_linscan,
    "barycentric": _cmd_barycentric,
    "counterexample": _cmd_counterexample,
    "affinemap": _cmd_affinemap,
}


def run(config_path: str, out_path: str | None = None, seed_override: int | None = None,
        quiet: bool = False) -> int:
    """Execute one experiment config; returns the process exit code."""
    try:
        with open(config_path) as fh:
            config = json.load(fh)
    except OSError as err:
        print(f"error: cannot read config: {err}", file=sys.stderr)
        return 1
    except json.JSONDecodeError as err:
        print(f"error: malformed JSON config: {err}", file=sys.stderr)
        return 1

    try:
        if seed_override is not None:
            config["seed"] = int(seed_override)
        command = _validate(config)
        model = model_factory.from_json(config["model"])
        report, verdict = _COMMANDS[command](model, config)
    except (ConfigError, ModelError, ValueError, KeyError, TypeError) as err:
        # bad parameter values surface as validation failures, not tracebacks
        print(f"error: {err!r}", file=sys.stderr)
        return 1
    except (NonConvergent, DomainViolation, MaxIterExceeded, PrecisionExhausted) as err:
        # legitimate negative findings: report them as data, exit as failure
        report = CsvReport(["finding"])
        report.add(f"{type(err).__name__}: {err}")
        verdict = False
        command = config.get("command", "?")
    except DilatationLabError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1

    report.meta["model"] = config["model"].get("model", "?") if isinstance(
        config.get("model"), dict) else "?"
    report.meta["command"] = command
    report.meta["verdict"] = "pass" if verdict else "fail"
    report.meta["version"] = __version__
    report.meta["config_sha256"] = _config_hash(config)
    text = report.render()

    if out_path:
        with open(out_path, "w", newline="") as fh:
            fh.write(text)
        if not quiet:
            print(f"{command}: {'pass' if verdict else 'fail'} -> {out_path}")
    elif not quiet:
        sys.stdout.write(text)
    return 0 if verdict else 2


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="dilatation-lab",
        description="numerical experiments on dilatation structures")
    sub = parser.add_subparsers(dest="verb", required=True)
    runner = sub.add_parser("run", help="execute a JSON experiment config")
    runner.add_argument("config", help="path to the experiment JSON")
    runner.add_argument("--out", default=None, help="write the CSV report here")
    runner.add_argument("--seed", type=int, default=None, help="override the config seed")
    runner.add_argument("--quiet", action="store_true", help="suppress the summary line")
    args = parser.parse_args(argv)
    return run(args.config, args.out, args.seed, args.quiet)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
