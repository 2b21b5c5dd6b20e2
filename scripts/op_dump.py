"""Dump every benchmark op's output, bit for bit, one line per op.

Usage:
    python scripts/op_dump.py SEED [SEED ...] > dump.txt

For each seed and each in-process workload of ``perfbench/workloads.py``
(``exact-axioms``, ``float-sweeps``, ``fixed-point-chains``, at full size)
it runs every op once and prints

    seed<TAB>workload<TAB>op name<TAB>verdict<TAB>output

where the verdict is the op's own check (``pass``, ``known: ...`` or
``fail: ...``) and the output lists every value the op returned: floats as
``float.hex()``, so that a changed last bit shows, exact rationals as
``n/d``, and reports with their scales, defects, fitted rate, verdict and
metadata.  Then it runs each config of the ``cli-runs`` workload once through
``cli.run``, in this process and into a temporary directory, at the default
seed, and each seeded config again at every other seed as the workload
reseeds it, and prints

    seed<TAB>cli-runs<TAB>config name<TAB>exit code<TAB>CSV sha256

Before those, for each seed, it reads the tangent spaces (``tangent_space``)
of five structures at 20 seeded draws of an anchor x and points u, v, y each,
one without closed forms among them, and prints

    seed<TAB>tangent<TAB>structure#draw<TAB>operation<TAB>output

for ``sum(u, v)``, ``difference(u, v)``, ``inverse(u)``, ``distance(u, v)``
and ``dilate(u, eps, y)``, at a seeded scale eps.  It then reads
``estimate_dx(S, x, u, v, grid)``, grid k = 2..12, on six structures at 20
seeded draws of x, u, v each, and prints

    seed<TAB>estimate_dx<TAB>structure#draw<TAB>estimate or the error class raised

It reads ``pansu_derivative(S, S, f, x, u, grid)``, grid k = 3..10, for the
identity on Euclid-2d and on H(1) and for the cubic chart map t + t^3 on
Euclid-2d, at 10 seeded draws of x, u in [-0.3, 0.3] each, and prints

    seed<TAB>pansu<TAB>map#draw<TAB>the derivative value q or the error class raised

Last, it reads the single-point float primitives ``group_product``,
``ambient_dilate``, ``dilate``, ``distance``, ``homogeneous_norm`` and
``coordinate_gap`` of six group models (Euclid-2d, H(1), H(2), Engel, C x R
and a generic Carnot group with a fractional constant) at 20 seeded draws of
x, y each, coordinates of magnitude 1e-9 to 1e3 with signed zeros among them,
under a real scale, and on C x R a complex one too, and ``ambient_dilate`` and
``dilate`` under a per-row scale of four seeded real values that are not powers
of two (drawn from a second generator, so the other draws stay as they were),
and prints

    seed<TAB>primitives<TAB>model#draw<TAB>operation<TAB>output

and their exact counterparts, on the same models and draws turned exact:
``group_product``, ``distance``, ``homogeneous_norm``, and ``ambient_dilate``
and ``dilate`` at the exact scales 1, 2^-k (k seeded in 1..12), 3/7, 5/2 and
-2/3, printing each output's ``repr`` (a point's reduced numerators and
denominator, a float's shortest round trip) as

    seed<TAB>exact<TAB>model#draw<TAB>operation<TAB>output

Then it runs the exact sweeps that no workload centres off the identity: exact
A1 and exact-mode A4 on the five coordinate models (Euclid-2d, H(1), H(2),
Engel and C x R), each at 3 seeded regions of radius 0.2 whose centres fill the
box [-0.3, 0.3], 8 samples and the grid k = 2..12, and A1 on the induced
structure of H(1) at a seeded x and scale 2^-3, and prints each report, its
defects as hex, as

    seed<TAB>exact-sweeps<TAB>structure#draw<TAB>axiom<TAB>report

Then it runs the single-point loops ``menelaos_iterate``, ``banach_oracle``
(started at x) and ``distance_estimates_check``, the ratio point
``ratio_point(x, y, eps, mu)`` and the truncated product ``g_map`` of y at
eps mu (its point and ``truncation_bound``, N = 64) on that generic Carnot
group with a fractional constant, which no workload or config builds, at 20
seeded draws of x, y in the box [-0.3, 0.3] and real scales eps, mu in
[0.15, 0.85], and prints each result with its floats as hex as

    seed<TAB>loops<TAB>model#draw<TAB>operation<TAB>output

and whether ``menelaos_iterate`` warns that a structure looks nonlinear, on the
cubic pullback and the six conical models (Euclid-2d, H(1), H(2), Engel, C x R
and the dyadic words), at 20 seeded draws of x, y with coordinates in
[-0.05, 0.05] (dyadic words in the ball of radius 2^-5) and real scales eps, mu
in [0.15, 0.85] (dyadic ones 2^-1 or 2^-2), as

    seed<TAB>menelaos-warning<TAB>structure#draw<TAB>warned or silent<TAB>probe defect

with the probe defect as hex, or the error class the call raised.

Dumps of two source trees compare with ``diff``.

The library is imported from the ``src`` directory next to this script, and
the workloads from its ``perfbench`` directory, which is only read: no
bytecode is written there.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import sys
import tempfile
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np

sys.dont_write_bytecode = True
ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from dilatation_lab import affine, cli  # noqa: E402
from dilatation_lab.core.harness import verify_axiom  # noqa: E402
from dilatation_lab.core.scales import RowScale, Scale  # noqa: E402
from dilatation_lab.core.structure import Ball, DilatationStructure, estimate_dx  # noqa: E402
from dilatation_lab.emergent import (  # noqa: E402
    InducedStructure, pansu_derivative, tangent_space)
from dilatation_lab.errors import NonlinearityWarning  # noqa: E402
from dilatation_lab.models import (  # noqa: E402
    CarnotModel, ComplexHeisenbergModel, CubicChart, DyadicBoundaryModel, EuclideanModel,
    HeisenbergModel, PullbackModel, engel_structure_constants)
from dilatation_lab.models.base import ExactPoint  # noqa: E402
import cli_ops  # noqa: E402
import workloads  # noqa: E402


def flat(value) -> str:
    """Every value in ``value``, floats as hex, in a fixed order."""
    if value is None or isinstance(value, (bool, int, str)):
        return repr(value)
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, complex):
        return f"({value.real.hex()}, {value.imag.hex()}j)"
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, (np.ndarray, np.generic)):
        return flat(value.tolist())
    if isinstance(value, ExactPoint):
        return "exact[" + ", ".join(flat(Fraction(n, value.den)) for n in value.num) + "]"
    if isinstance(value, Scale):
        return f"scale({flat(value.value)})"
    if isinstance(value, DilatationStructure):
        return value.name
    if isinstance(value, dict):
        return "{" + ", ".join(f"{k}: {flat(v)}" for k, v in value.items()) + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(map(flat, value)) + "]"
    if dataclasses.is_dataclass(value):
        return type(value).__name__ + flat({f.name: getattr(value, f.name)
                                            for f in dataclasses.fields(value)})
    if isinstance(value, BaseException):
        return f"raised {type(value).__name__}: {value}"
    return repr(value)


def verdict(op, ok: bool, out) -> str:
    try:
        msg = op.check(out) if ok else f"raised {type(out).__name__}: {out}"
    except Exception as err:
        msg = f"check raised {type(err).__name__}: {err}"
    if not msg:
        return "pass"
    return ("known: " if isinstance(msg, workloads.KnownDefect) else "fail: ") + msg


def dump(seed: int):
    for name, build in workloads.IN_PROCESS.items():
        for op in build(seed).ops:
            try:
                ok, out = True, op.call()
            except Exception as err:  # a raising op is dumped, as the bench counts it
                ok, out = False, err
            print(seed, name, op.name, verdict(op, ok, out), flat(out), sep="\t")


DRAWS = 20


def tangent_structures() -> dict:
    """Each structure whose tangent the dump reads, and the half-width of the box
    its draws fill; the induced pullback has no closed forms, so its tangent
    operations are limits along the default grid."""
    pull = PullbackModel(EuclideanModel(2))
    return {"euclidean-2d": (EuclideanModel(2), 0.3),
            "heisenberg-1": (HeisenbergModel(1), 0.3),
            "engel": (CarnotModel(3, *engel_structure_constants()), 0.3),
            "pullback-cubic": (pull, 0.05),
            "induced-pullback": (InducedStructure(pull, pull.origin(),
                                                  pull.scale_group.scale(0.5)), 0.02)}


def dump_tangent(seed: int):
    for name, (S, box) in tangent_structures().items():
        rng = np.random.default_rng(seed)
        for i in range(DRAWS):
            x, u, v, y = rng.uniform(-box, box, (4, len(S.origin())))
            eps = S.scale_group.scale(float(rng.uniform(0.1, 0.9)))
            T = tangent_space(S, x)
            ops = {"sum": lambda: T.sum(u, v), "difference": lambda: T.difference(u, v),
                   "inverse": lambda: T.inverse(u), "distance": lambda: T.distance(u, v),
                   "dilate": lambda: T.dilate(u, eps, y)}
            for op, call in ops.items():
                try:
                    out = call()
                except Exception as err:  # a raising operation is dumped too
                    out = err
                print(seed, "tangent", f"{name}#{i}", op, flat(out), sep="\t")


def estimate_structures() -> dict:
    """Each structure whose ``estimate_dx`` the dump reads: the group models have
    exact arithmetic, the metric pullback has floats only."""
    return {"euclidean-2d": EuclideanModel(2), "heisenberg-1": HeisenbergModel(1),
            "heisenberg-2": HeisenbergModel(2),
            "engel": CarnotModel(3, *engel_structure_constants()),
            "cxr": ComplexHeisenbergModel(),
            "pullback-metric": PullbackModel(EuclideanModel(2), transport="metric")}


def dump_estimate_dx(seed: int):
    for name, S in estimate_structures().items():
        rng = np.random.default_rng(seed)
        grid = S.scale_group.grid(range(2, 13))
        for i in range(DRAWS):
            x, u, v = rng.uniform(-0.2, 0.2, (3, len(S.origin())))
            try:
                out = flat(estimate_dx(S, x, u, v, grid)[0])
            except Exception as err:  # the class only: its message quotes the values
                out = f"raised {type(err).__name__}"
            print(seed, "estimate_dx", f"{name}#{i}", out, sep="\t")


PANSU_DRAWS = 10


def pansu_maps() -> dict:
    """Each map whose derivative the dump reads, with its structure: f is opaque
    to ``pansu_derivative``, so its candidates run in floats."""
    return {"identity-euclidean-2d": (EuclideanModel(2), lambda p: p),
            "identity-heisenberg-1": (HeisenbergModel(1), lambda p: p),
            "cubic-euclidean-2d": (EuclideanModel(2), CubicChart().forward)}


def dump_pansu(seed: int):
    for name, (S, f) in pansu_maps().items():
        rng = np.random.default_rng(seed)
        grid = S.scale_group.grid(range(3, 11))
        for i in range(PANSU_DRAWS):
            x, u = rng.uniform(-0.3, 0.3, (2, len(S.origin())))
            try:
                out = flat(pansu_derivative(S, S, f, x, u, grid)[0])
            except Exception as err:  # the class only: its message quotes the values
                out = f"raised {type(err).__name__}"
            print(seed, "pansu", f"{name}#{i}", out, sep="\t")


def primitive_models() -> dict:
    """The group models whose single-point primitives the dump reads."""
    return {"euclidean-2d": EuclideanModel(2), "heisenberg-1": HeisenbergModel(1),
            "heisenberg-2": HeisenbergModel(2),
            "engel": CarnotModel(3, *engel_structure_constants()),
            "cxr": ComplexHeisenbergModel(),
            "carnot-step3-2x1x2": CarnotModel(3, [2, 1, 2], [[0, 1, 2, 1.0], [0, 2, 3, 1.0],
                                                               [1, 2, 4, 0.5]])}


def signed_point(rng, dim: int) -> np.ndarray:
    """Coordinates of either sign and magnitude 1e-9 to 1e3, about one in five a signed zero."""
    p = rng.choice([-1.0, 1.0], dim) * 10.0 ** rng.uniform(-9.0, 3.0, dim)
    zeros = rng.random(dim) < 0.2
    p[zeros] = rng.choice([0.0, -0.0], int(zeros.sum()))
    return p


def row_values(rng) -> list:
    """Four seeded real scales in [0.05, 4), none a power of two (mantissa 1/2)."""
    return [v for v in rng.uniform(0.05, 4.0, 16).tolist() if math.frexp(v)[0] != 0.5][:4]


def dump_primitives(seed: int):
    for name, M in primitive_models().items():
        rng, rows = np.random.default_rng(seed), np.random.default_rng([seed, 1])
        for i in range(DRAWS):
            x, y = signed_point(rng, M.coordinate_dim), signed_point(rng, M.coordinate_dim)
            sg = M.scale_group
            scales = {"": sg.scale(float(rng.uniform(0.05, 4.0)))}
            if isinstance(M, ComplexHeisenbergModel):
                scales["@complex"] = sg.scale(complex(*rng.uniform(-2.0, 2.0, 2)))
            scales["@rows"] = RowScale.of([sg.scale(v) for v in row_values(rows)])
            ops = {"group_product": lambda: M.group_product(x, y),
                   "distance": lambda: M.distance(x, y),
                   "homogeneous_norm": lambda: M.homogeneous_norm(x),
                   "coordinate_gap": lambda: M.coordinate_gap(x, y)}
            for tag, eps in scales.items():
                ops["ambient_dilate" + tag] = lambda eps=eps: M.ambient_dilate(eps, x)
                ops["dilate" + tag] = lambda eps=eps: M.dilate(x, eps, y)
            for op, call in ops.items():
                print(seed, "primitives", f"{name}#{i}", op, flat(call()), sep="\t")


def dump_exact_primitives(seed: int):
    for name, M in primitive_models().items():
        rng = np.random.default_rng(seed)
        for i in range(DRAWS):
            x, y = (M.to_exact(signed_point(rng, M.coordinate_dim)) for _ in range(2))
            halving = Fraction(1, 2 ** int(rng.integers(1, 13)))
            ops = {"group_product": lambda: M.group_product(x, y),
                   "distance": lambda: M.distance(x, y),
                   "homogeneous_norm": lambda: M.homogeneous_norm(x)}
            for value in (Fraction(1), halving, Fraction(3, 7), Fraction(5, 2), Fraction(-2, 3)):
                eps = Scale(M.scale_group, value)
                ops[f"ambient_dilate@{value}"] = lambda eps=eps: M.ambient_dilate(eps, x)
                ops[f"dilate@{value}"] = lambda eps=eps: M.dilate(x, eps, y)
            for op, call in ops.items():
                print(seed, "exact", f"{name}#{i}", op, repr(call()), sep="\t")


SWEEP_DRAWS = 3


def sweep_structures() -> dict:
    """The coordinate models whose exact sweeps the dump reads off the identity."""
    models = primitive_models()
    return {name: models[name] for name in ("euclidean-2d", "heisenberg-1", "heisenberg-2",
                                             "engel", "cxr")}


def dump_exact_sweeps(seed: int):
    sweeps = [(name, S, axiom) for name, S in sweep_structures().items() for axiom in ("A1", "A4")]
    H = HeisenbergModel(1)
    x = np.random.default_rng([seed, 2]).uniform(-0.3, 0.3, 3)
    sweeps.append(("induced-heisenberg-1", InducedStructure(H, x, H.scale_group.contraction(3)),
                   "A1"))
    for name, S, axiom in sweeps:
        rng = np.random.default_rng(seed)
        for i in range(SWEEP_DRAWS):
            region = Ball(rng.uniform(-0.3, 0.3, len(S.origin())), 0.2)
            rep = verify_axiom(S, axiom, region, S.scale_group.grid(range(2, 13)), 8, seed=i)
            print(seed, "exact-sweeps", f"{name}#{i}", axiom, flat(rep), sep="\t")


def dump_loops(seed: int):
    name = "carnot-step3-2x1x2"
    M = primitive_models()[name]
    rng = np.random.default_rng(seed)
    for i in range(DRAWS):
        x, y = rng.uniform(-0.3, 0.3, (2, M.coordinate_dim))
        eps, mu = (M.scale_group.scale(float(v)) for v in rng.uniform(0.15, 0.85, 2))
        ops = {"menelaos_iterate": lambda: affine.menelaos_iterate(M, x, eps, y, mu),
               "banach_oracle": lambda: affine.banach_oracle(M, x, eps, y, mu, x),
               "distance_estimates_check":
                   lambda: affine.distance_estimates_check(M, x, y, eps, mu),
               "ratio_point": lambda: affine.ratio_point(M, x, y, eps, mu),
               "g_map": lambda: affine.g_map(M, eps * mu, y, 64)}
        for op, call in ops.items():
            try:
                out = call()
            except Exception as err:  # a raising loop is dumped too
                out = err
            print(seed, "loops", f"{name}#{i}", op, flat(out), sep="\t")


def warning_structures() -> dict:
    """The cubic pullback, which is not linear, and the six conical models."""
    models = primitive_models()
    return {"pullback-cubic": PullbackModel(EuclideanModel(2)),
            **{name: models[name] for name in ("euclidean-2d", "heisenberg-1", "heisenberg-2",
                                                "engel", "cxr")},
            "dyadic-64": DyadicBoundaryModel(64)}


def menelaos_draw(S, rng):
    """x, y near the origin and contracting scales eps, mu, seeded."""
    if isinstance(S, DyadicBoundaryModel):
        x, y = (S.point(int(t) << 5) for t in rng.integers(0, 1 << 59, 2))
        return x, y, *(S.scale_group.scale(int(k)) for k in rng.integers(1, 3, 2))
    x, y = rng.uniform(-0.05, 0.05, (2, len(S.origin())))
    return x, y, *(S.scale_group.scale(float(v)) for v in rng.uniform(0.15, 0.85, 2))


def dump_menelaos_warning(seed: int):
    for name, S in warning_structures().items():
        rng = np.random.default_rng(seed)
        for i in range(DRAWS):
            x, y, eps, mu = menelaos_draw(S, rng)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                try:
                    res = affine.menelaos_iterate(S, x, eps, y, mu)
                except Exception as err:  # the class only: its message quotes the values
                    out = f"raised {type(err).__name__}"
                else:
                    out = ("warned" if caught else "silent") + "\t" + flat(res.probe_defect)
            print(seed, "menelaos-warning", f"{name}#{i}", out, sep="\t")


def dump_cli(seed: int):
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "report.csv"
        for inv in cli_ops.plan(ROOT, seed):
            if seed != cli_ops.DEFAULT_SEED and inv.seed is None:
                continue  # an unseeded config runs as at the default seed
            code = cli.run(str(inv.config), str(out), inv.seed, quiet=True)
            digest = hashlib.sha256(out.read_bytes()).hexdigest() if out.exists() else "-"
            out.unlink(missing_ok=True)
            print(seed, "cli-runs", inv.name, code, digest, sep="\t")


def main(argv: list[str]) -> int:
    if not argv:
        print("usage: python scripts/op_dump.py SEED [SEED ...]", file=sys.stderr)
        return 2
    # menelaos_iterate warns when its probe defect fails the CLI's rule; the
    # benchmark ignores it, and so does the dump outside its own section
    warnings.filterwarnings("ignore", category=NonlinearityWarning)
    seeds = [int(seed) for seed in argv]
    for seed in seeds:
        dump(seed)
        dump_tangent(seed)
        dump_estimate_dx(seed)
        dump_pansu(seed)
        dump_primitives(seed)
        dump_exact_primitives(seed)
        dump_exact_sweeps(seed)
        dump_loops(seed)
        dump_menelaos_warning(seed)
    for seed in [cli_ops.DEFAULT_SEED, *(s for s in seeds if s != cli_ops.DEFAULT_SEED)]:
        dump_cli(seed)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
