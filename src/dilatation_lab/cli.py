"""Reproducible experiment runner.

Reads a JSON config describing a model and a command, runs the matching
harness operation, and writes a CSV report with a fixed schema: one header
row, data rows, then '#'-prefixed metadata lines carrying the model name,
seed, verdict, tool version and the config hash.  Identical configs produce
byte-identical files.  Exit codes: 0 when the verdict passes, 2 when it
fails, 1 on configuration or model errors; any other exception propagates.

A command's handler declares its config fields as keyword parameters after
``model``, which a model class annotation may restrict; a parameter without
a default is a required field.  Each value, given or default, is parsed once
by the ``_PARSERS`` entry of its field name before the handler runs.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import inspect
import io
import json
import sys
from itertools import combinations

import numpy as np

from dilatation_lab import __version__
from dilatation_lab.config import (
    EXACT_IDENTITY_TOL, MAX_ITER, MENELAOS_PROBE_TOL, MIN_PAIRED_SAMPLES, SAMPLE_COUNT, default_ks)
from dilatation_lab.errors import (
    ConfigError, DomainViolation, MaxIterExceeded, ModelError, NonConvergent,
    PrecisionExhausted)
from dilatation_lab.core.harness import AXIOMS, verify_axiom
from dilatation_lab.core.reports import sup, within
from dilatation_lab.core.scales import contraction
from dilatation_lab.core.structure import Ball, exactify
from dilatation_lab import models as model_factory
from dilatation_lab.models.base import is_integer, is_real, real_array
from dilatation_lab.emergent import (
    LIMIT_OPS, check_affine_map, inflin_scan, tangent_limit)
from dilatation_lab.affine import (
    banach_oracle, barycentric_defect, counterexample_check,
    heisenberg_ratio_closed_form, menelaos_iterate, probe_points, ratio_point)


def _config_hash(config: dict) -> str:
    canon = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


# field parsers, keyed by field name: each takes (model, value)

def _at_least(least):
    def parse(model, value):
        if not is_integer(value):
            raise ValueError(f"must be an integer, got {value!r}")
        if value < least:
            raise ValueError(f"must be at least {least}, got {value!r}")
        return int(value)
    return parse


def _contraction(model, value):
    eps = model.scale_group.scale(value)
    contraction("the command", eps)
    return eps


def _grid(model, ks):
    if (not isinstance(ks, (list, tuple)) or len(ks) < 2
            or any(not is_integer(k) or k < 1 for k in ks)
            or any(a >= b for a, b in zip(ks, ks[1:]))):
        raise ValueError(f"ks must be a strictly increasing list of at least two "
                         f"positive integers, got {ks!r}")
    grid = model.scale_group.grid(ks)
    contraction("the grid ks", *grid)  # 2^-k is 0.0 from k = 1075
    return grid


# each map type's fields besides "type"
_MAP_FIELDS = {"linear": {"matrix", "offset"}, "left_translation": {"point"},
               "componentwise_cubic": set()}


def _map(model, desc):
    """A map description as a callable; a left translation is marked exact."""
    if not isinstance(desc, dict):
        raise ValueError("map must be an object with a 'type' field")
    kind = desc.get("type")
    if not isinstance(kind, str) or kind not in _MAP_FIELDS:
        raise ValueError(f"unknown map type {kind!r}")
    if extra := set(desc) - {"type"} - _MAP_FIELDS[kind]:
        raise ValueError(f"unknown fields for a {kind} map: {sorted(extra)}")
    shape = np.shape(model.origin())
    if kind in ("linear", "componentwise_cubic") and len(shape) != 1:
        raise ValueError(f"a {kind} map needs coordinate points, not those of {model.name}")
    if kind == "linear":
        matrix = real_array(desc["matrix"])
        offset = real_array(desc.get("offset", np.zeros(shape)))
        if matrix.shape != shape * 2 or offset.shape != shape:
            raise ValueError(f"a linear map on {model.name} needs a {shape[0]}x{shape[0]} "
                             f"matrix and an offset of length {shape[0]}")
        return lambda p: matrix @ p + offset
    if kind == "left_translation":
        if not isinstance(model, model_factory.GroupModel):
            raise ConfigError(f"a left_translation map needs a group model, not {model.name}")
        (w,), _, exact = exactify(model, [model.point_from_json(desc["point"])], [])
        T = model.left_translation(w)
        T.exact = exact
        return T
    return model_factory.CubicChart().forward


_PARSERS = {
    **dict.fromkeys(("x", "y", "z", "u", "v", "Y"), lambda model, obj: model.point_from_json(obj)),
    **dict.fromkeys(("eps", "mu"), _contraction),
    "seed": _at_least(0),
    **dict.fromkeys(("sample_count", "N"), _at_least(1)),
    "max_iter": _at_least(0),
    "ks": _grid,
    "map": _map,
}


def _parameters(handler) -> dict:
    return dict(inspect.signature(handler, eval_str=True).parameters)


def _parse(config: dict):
    """The command's handler, its model and its keyword arguments."""
    command = config.get("command")
    if not isinstance(command, str) or command not in _COMMANDS:
        raise ConfigError(f"unknown or missing command {command!r}; "
                          f"expected one of {sorted(_COMMANDS)}")
    handler = _COMMANDS[command]
    fields = _parameters(handler)
    if unknown := set(config) - {"command"} - set(fields):
        raise ConfigError(f"unknown fields for command {command!r}: {sorted(unknown)}")
    model = model_factory.from_json(config.get("model"))
    need = fields.pop("model").annotation
    if need is not inspect.Parameter.empty and not isinstance(model, need):
        raise ConfigError(f"command {command!r} needs a {need.__name__}, not {model.name}")
    args = {}
    for name, param in fields.items():
        value = config.get(name, param.default)
        if value is param.empty:
            raise ConfigError(f"command {command!r} needs the field {name!r}")
        if value is None and name not in config:
            continue  # an optional field left out
        try:
            args[name] = _PARSERS[name](model, value) if name in _PARSERS else value
        except (ValueError, TypeError, KeyError, OverflowError, DomainViolation) as err:
            raise ConfigError(f"bad value for {name!r}: {err!r}") from None
    return handler, model, args


def _seeded_pairs(model, seed: int, count: int) -> list:
    """count seeded pairs from the ball of radius closeness_budget() at the origin."""
    rng = np.random.default_rng(seed)
    pts = model.sample_ball(model.origin(), model.closeness_budget(), 2 * count, rng)
    return list(zip(pts[:count], pts[count:]))


def _fmt(value) -> str:
    return repr(value) if isinstance(value, float) else str(value)


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
        text = io.StringIO()
        writer = csv.writer(text, lineterminator="\n")
        writer.writerow(self.columns)
        writer.writerows([_fmt(c) for c in row] for row in self.rows)
        text.writelines(f"# {key}={val}\n" for key, val in self.meta.items())
        return text.getvalue()


def _per_scale(rep, column: str = "defect") -> CsvReport:
    """One "nu, value" row per scale of a sweep report."""
    out = CsvReport(["nu", column])
    for nu, value in zip(rep.nus, rep.defect):
        out.add(nu, value)
    return out


# command implementations: each returns (report: CsvReport, verdict), the verdict truthy on a pass

def _cmd_axioms(model, *, seed, which="all", ks=default_ks(), sample_count=SAMPLE_COUNT):
    if which != "all" and which not in AXIOMS:
        raise ConfigError(f"unknown axiom {which!r}")
    if sample_count < MIN_PAIRED_SAMPLES:
        raise ConfigError(f"axioms needs a sample_count of at least {MIN_PAIRED_SAMPLES}")
    region = Ball(model.origin(), model.closeness_budget())
    out = CsvReport(["axiom", "nu", "defect", "pass"])
    all_ok = True
    for name in AXIOMS if which == "all" else [which]:
        rep = verify_axiom(model, name, region, ks, sample_count=sample_count, seed=seed)
        all_ok = all_ok and rep.verdict
        for nu, defect in zip(rep.nus, rep.defect):
            out.add(name, nu, defect, "pass" if rep.verdict else "fail")
    out.meta["seed"] = str(seed)
    return out, all_ok


def _cmd_tangent(model, *, x, u, v=None, which="sum", ks=default_ks()):
    if not isinstance(which, str) or which not in LIMIT_OPS:
        raise ConfigError(f"which must be one of {sorted(LIMIT_OPS)}, got {which!r}")
    if which != "inverse" and v is None:
        raise ConfigError(f"the tangent {which} needs a second point v")
    limit, rep = tangent_limit(model, x, u, v, which, ks)
    out = _per_scale(rep)
    out.meta["limit"] = " ".join(_fmt(c) for c in model.point_to_list(limit))
    return out, rep.verdict


def _cmd_menelaos(model, *, x, y, eps, mu, max_iter=MAX_ITER):
    result = menelaos_iterate(model, x, eps, y, mu, max_iter=max_iter)
    coords = model.point_to_list(result.w)
    out = CsvReport(["iterations", "residual", "contraction_rate", "probe_defect"]
                    + [f"w{i}" for i in range(len(coords))])
    out.add(result.iterations, result.residual, result.contraction_rate,
            result.probe_defect, *coords)
    return out, within([result.probe_defect], MENELAOS_PROBE_TOL)


def _cmd_ratio(model: model_factory.GroupModel, *, x, y, eps, mu, N=64):
    answers = {
        "iteration": menelaos_iterate(model, x, eps, y, mu).w,
        "banach": banach_oracle(model, x, eps, y, mu, x),
        "hg": ratio_point(model, x, y, eps, mu, N),
    }
    if isinstance(model, model_factory.HeisenbergModel):
        answers["closed_form"] = heisenberg_ratio_closed_form(
            model, x, y, eps.value, mu.value)
    out = CsvReport(["oracle_a", "oracle_b", "disagreement"])
    for a, b in combinations(answers, 2):
        out.add(a, b, model.coordinate_gap(answers[a], answers[b]))
    disagreements = [d for _, _, d in out.rows]
    out.meta["max_disagreement"] = repr(sup(disagreements))
    return out, within(disagreements, EXACT_IDENTITY_TOL)


def _cmd_linscan(model, *, x, y, z, ks=tuple(range(3, 11))):
    rep = inflin_scan(model, x, y, z, ks)
    return _per_scale(rep, "lin_over_eps_sq"), rep.verdict


def _cmd_barycentric(model, *, eps, x=None, y=None, seed=None, sample_count=16):
    if (x is None) != (y is None):
        raise ConfigError("barycentric takes both points x and y, or neither")
    if x is None and seed is None:
        raise ConfigError("barycentric without explicit points is randomized: seed is mandatory")
    pairs = [(x, y)] if x is not None else _seeded_pairs(model, seed, sample_count)
    defects = [barycentric_defect(model, p, q, eps) for p, q in pairs]
    out = CsvReport(["sample", "defect"])
    for i, d in enumerate(defects):
        out.add(i, d)
    return out, within(defects, EXACT_IDENTITY_TOL)


def _cmd_counterexample(model: model_factory.ComplexHeisenbergModel, *, seed, eps=0.5,
                        Y=(1.0, 0.0, 1.0)):
    if not (is_real(eps.value) and 0 < eps.value < 1):
        raise ConfigError(f"counterexample needs a real eps in (0, 1), got {eps.value!r}")
    probes = probe_points(model, model.identity(), 1.0, seed)
    flipped = counterexample_check(model, eps.value, Y, probes, flip=True)
    control = counterexample_check(model, eps.value, Y, probes, flip=False)
    out = CsvReport(["case", "defect", "pass"])
    out.add("eps_mu_minus_one", flipped.defect[0], "pass" if flipped.verdict else "fail")
    out.add("eps_mu_plus_one", control.defect[0], "pass" if control.verdict else "fail")
    return out, flipped.verdict and control.verdict


def _cmd_affinemap(model, *, map, seed, sample_count=16, ks=(1, 2, 3, 4)):
    samples = _seeded_pairs(model, seed, sample_count)
    if getattr(map, "exact", False):
        # a left translation is affine on a group model, so its commutation
        # defect is evaluated exactly: in floats the Cygan fourth root lifts
        # coordinate roundoff past the tolerance
        pts, ks, _ = exactify(model, [p for pair in samples for p in pair], ks)
        samples = list(zip(pts[::2], pts[1::2]))
    rep = check_affine_map(model, map, samples, ks)
    out = _per_scale(rep)
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

# each command's config fields besides model and command, read off its handler
_COMMAND_FIELDS = {name: set(_parameters(handler)) - {"model"}
                   for name, handler in _COMMANDS.items()}


def run(config_path: str, out_path: str | None = None, seed_override: int | None = None,
        quiet: bool = False) -> int:
    """Execute one experiment config; returns the process exit code."""
    try:
        with open(config_path) as fh:
            config = json.load(fh)
    except (OSError, json.JSONDecodeError) as err:
        print(f"error: cannot read a JSON config: {err}", file=sys.stderr)
        return 1

    try:
        if not isinstance(config, dict):
            raise ConfigError("config must be a JSON object")
        if seed_override is not None:
            config["seed"] = int(seed_override)
        handler, model, args = _parse(config)
        report, verdict = handler(model, **args)
    except (ConfigError, ModelError) as err:
        print(f"error: {err!r}", file=sys.stderr)
        return 1
    except (NonConvergent, DomainViolation, MaxIterExceeded, PrecisionExhausted) as err:
        # legitimate negative findings: report them as data, exit as failure
        report = CsvReport(["finding"])
        report.add(f"{type(err).__name__}: {err}")
        verdict = False

    command = config["command"]
    report.meta.update(model=config["model"]["model"], command=command,
                       verdict="pass" if verdict else "fail", version=__version__,
                       config_sha256=_config_hash(config))
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
