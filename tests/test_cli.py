"""The experiment runner: configs, CSV schema, exit codes, determinism."""

import csv
import hashlib
import json
import re
from pathlib import Path

import pytest

from dilatation_lab import cli
from dilatation_lab.cli import _COMMAND_FIELDS, main, run

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def write_config(tmp_path, name, config):
    path = tmp_path / name
    path.write_text(json.dumps(config))
    return str(path)


def read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [l.split(",") for l in lines[1:] if not l.startswith("#")]
    meta = dict(l[2:].split("=", 1) for l in lines if l.startswith("# "))
    return header, rows, meta


def test_axioms_command_euclid(tmp_path):
    cfg = write_config(tmp_path, "c.json", {
        "model": {"model": "euclidean", "n": 2},
        "command": "axioms", "which": "A4", "seed": 7,
        "ks": [2, 3, 4, 5, 6], "sample_count": 8,
    })
    out = tmp_path / "out.csv"
    assert run(cfg, str(out), quiet=True) == 0
    header, rows, meta = read_csv(out)
    assert header == ["axiom", "nu", "defect", "pass"]
    assert len(rows) == 5
    assert all(r[0] == "A4" and r[3] == "pass" for r in rows)
    assert meta["verdict"] == "pass"
    assert meta["model"] == "euclidean"
    assert len(meta["config_sha256"]) == 64


def test_menelaos_command_heisenberg(tmp_path):
    cfg = write_config(tmp_path, "c.json", {
        "model": {"model": "heisenberg", "n": 1},
        "command": "menelaos",
        "x": [1.0, 0.0, 0.0], "y": [0.0, 1.0, 0.0], "eps": 0.5, "mu": 0.5,
    })
    out = tmp_path / "m.csv"
    assert run(cfg, str(out), quiet=True) == 0
    header, rows, meta = read_csv(out)
    assert header[:4] == ["iterations", "residual", "contraction_rate", "probe_defect"]
    w = [float(v) for v in rows[0][4:]]
    assert abs(w[0] - 2 / 3) < 1e-9 and abs(w[1] - 1 / 3) < 1e-9
    assert abs(w[2] - 1 / 15) < 1e-9


def test_ratio_command_cross_validates(tmp_path):
    cfg = write_config(tmp_path, "c.json", {
        "model": {"model": "heisenberg", "n": 1},
        "command": "ratio",
        "x": [1.0, 0.0, 0.0], "y": [0.0, 1.0, 0.0], "eps": 0.5, "mu": 0.5, "N": 64,
    })
    out = tmp_path / "r.csv"
    assert run(cfg, str(out), quiet=True) == 0
    header, rows, meta = read_csv(out)
    assert header == ["oracle_a", "oracle_b", "disagreement"]
    assert len(rows) == 6  # four oracles pairwise
    assert float(meta["max_disagreement"]) <= 1e-9


def test_linscan_command_pullback(tmp_path):
    cfg = write_config(tmp_path, "c.json", {
        "model": {"model": "pullback", "base": {"model": "euclidean", "n": 2},
                  "chart": "cubic"},
        "command": "linscan",
        "x": [0.0, 0.0], "y": [0.2, 0.0], "z": [0.0, 0.2],
        "ks": [3, 4, 5, 6, 7, 8, 9, 10],
    })
    out = tmp_path / "l.csv"
    assert run(cfg, str(out), quiet=True) == 0
    header, rows, _ = read_csv(out)
    assert header == ["nu", "lin_over_eps_sq"]
    vals = [float(r[1]) for r in rows]
    assert vals[-1] < 0.1 * vals[0]


def test_barycentric_command_euclid_zero(tmp_path):
    cfg = write_config(tmp_path, "c.json", {
        "model": {"model": "euclidean", "n": 2},
        "command": "barycentric", "eps": 0.5, "seed": 3, "sample_count": 8,
    })
    out = tmp_path / "b.csv"
    assert run(cfg, str(out), quiet=True) == 0
    _, rows, _ = read_csv(out)
    assert all(float(r[1]) <= 1e-12 for r in rows)


def test_barycentric_command_heisenberg_fails(tmp_path):
    cfg = write_config(tmp_path, "c.json", {
        "model": {"model": "heisenberg", "n": 1},
        "command": "barycentric", "eps": 0.5,
        "x": [0.0, 0.0, 0.0], "y": [0.0, 0.0, 1.0],
    })
    out = tmp_path / "b.csv"
    assert run(cfg, str(out), quiet=True) == 2
    _, rows, meta = read_csv(out)
    assert meta["verdict"] == "fail"
    assert abs(float(rows[0][1]) - 2 ** 0.5) < 1e-9


def test_counterexample_command(tmp_path):
    cfg = write_config(tmp_path, "c.json", {
        "model": {"model": "complex_heisenberg"},
        "command": "counterexample", "eps": 0.5, "Y": [1.0, 0.0, 1.0], "seed": 5,
    })
    out = tmp_path / "x.csv"
    assert run(cfg, str(out), quiet=True) == 0
    _, rows, _ = read_csv(out)
    by_case = {r[0]: float(r[1]) for r in rows}
    assert by_case["eps_mu_minus_one"] > 1e-6
    assert by_case["eps_mu_plus_one"] <= 1e-9


def test_affinemap_command(tmp_path):
    cfg = write_config(tmp_path, "c.json", {
        "model": {"model": "euclidean", "n": 2},
        "command": "affinemap", "seed": 11,
        "map": {"type": "linear", "matrix": [[1.0, 2.0], [0.0, 1.0]],
                "offset": [0.5, -0.5]},
    })
    assert run(cfg, str(tmp_path / "a.csv"), quiet=True) == 0
    bad = write_config(tmp_path, "bad.json", {
        "model": {"model": "euclidean", "n": 2},
        "command": "affinemap", "seed": 11,
        "map": {"type": "componentwise_cubic"},
    })
    assert run(bad, str(tmp_path / "a2.csv"), quiet=True) == 2


def test_affinemap_left_translation_heisenberg_is_exact(tmp_path):
    cfg = write_config(tmp_path, "c.json", {
        "model": {"model": "heisenberg", "n": 1},
        "command": "affinemap", "seed": 17, "sample_count": 16,
        "map": {"type": "left_translation", "point": [0.3, -0.2, 0.1]},
    })
    out = tmp_path / "t.csv"
    assert run(cfg, str(out), quiet=True) == 0
    _, rows, meta = read_csv(out)
    assert [float(r[1]) for r in rows] == [0.0] * 4
    assert meta["lipschitz_estimate"] == "1.0"


def test_affinemap_left_translation_needs_a_group_model(tmp_path, capsys):
    cfg = write_config(tmp_path, "c.json", {
        "model": {"model": "pullback", "base": {"model": "euclidean", "n": 2}},
        "command": "affinemap", "seed": 17,
        "map": {"type": "left_translation", "point": [0.1, 0.0]},
    })
    out = tmp_path / "t.csv"
    assert run(cfg, str(out), quiet=True) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "ConfigError" in err and "left_translation" in err and "Traceback" not in err
    assert not out.exists()


def test_tangent_command(tmp_path):
    cfg = write_config(tmp_path, "c.json", {
        "model": {"model": "euclidean", "n": 1},
        "command": "tangent", "which": "sum",
        "x": [0.0], "u": [2.0], "v": [3.0],
    })
    out = tmp_path / "t.csv"
    assert run(cfg, str(out), quiet=True) == 0
    _, _, meta = read_csv(out)
    assert abs(float(meta["limit"]) - 5.0) < 1e-12


def test_unknown_field_rejected(tmp_path):
    cfg = write_config(tmp_path, "c.json", {
        "model": {"model": "euclidean", "n": 2},
        "command": "axioms", "seed": 1, "bogus": True,
    })
    assert run(cfg, quiet=True) == 1
    # the fields the runner no longer takes: a verdict tolerance, a stopping
    # rule, a sampling radius and center, and an output path
    valid = {
        "axioms": {"seed": 1, "ks": [2, 3], "sample_count": 2},
        "menelaos": {"x": [0.0, 0.0], "y": [1.0, 0.0], "eps": 0.5, "mu": 0.5},
        "ratio": {"x": [0.0, 0.0], "y": [1.0, 0.0], "eps": 0.5, "mu": 0.5},
        "barycentric": {"eps": 0.5, "seed": 1, "sample_count": 2},
        "affinemap": {"seed": 1, "sample_count": 2,
                      "map": {"type": "linear", "matrix": [[1.0, 0.0], [0.0, 1.0]]}},
    }
    deleted = [("axioms", "tolerance", 1.0), ("barycentric", "tolerance", 1.0),
               ("affinemap", "tolerance", 1.0), ("menelaos", "tol", 1e-3),
               ("ratio", "tol", 1e-3), ("axioms", "radius", 0.1),
               ("barycentric", "radius", 0.1), ("affinemap", "radius", 0.1),
               ("axioms", "center", [0.0, 0.0]), ("menelaos", "output", "o.csv")]
    for command, field, value in deleted:
        config = {"model": {"model": "euclidean", "n": 2}, "command": command,
                  **valid[command]}
        assert run(write_config(tmp_path, "ok.json", config), quiet=True) == 0
        config[field] = value
        assert run(write_config(tmp_path, "c.json", config), quiet=True) == 1, field
    assert not (tmp_path / "o.csv").exists()
    # a seed override is a seed field, which only seeded commands take
    config = {"model": {"model": "euclidean", "n": 2}, "command": "menelaos",
              **valid["menelaos"]}
    assert run(write_config(tmp_path, "m.json", config), seed_override=3, quiet=True) == 1


def test_readme_lists_each_commands_fields():
    rows = re.findall(r"^\| `(\w+)` \| ([^|]*) \|", README.read_text(), re.MULTILINE)
    documented = {command: set(re.findall(r"`(\w+)`", fields)) for command, fields in rows
                  if command in _COMMAND_FIELDS}
    assert documented == _COMMAND_FIELDS


def test_missing_seed_rejected_for_randomized(tmp_path):
    cfg = write_config(tmp_path, "c.json", {
        "model": {"model": "euclidean", "n": 2},
        "command": "axioms",
    })
    assert run(cfg, quiet=True) == 1


def test_malformed_json_is_an_error(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert run(str(path), quiet=True) == 1


def test_bad_parameter_values_are_errors(tmp_path):
    # a float scale on the dyadic group is a validation failure, exit 1
    cfg = write_config(tmp_path, "c.json", {
        "model": {"model": "dyadic", "precision": 64},
        "command": "menelaos", "x": 1, "y": 3, "eps": 0.5, "mu": 0.5,
    })
    assert run(cfg, quiet=True) == 1
    missing = write_config(tmp_path, "m.json", {
        "model": {"model": "euclidean", "n": 1},
        "command": "menelaos", "x": [0.0], "eps": 0.5, "mu": 0.5,
    })
    assert run(missing, quiet=True) == 1


def test_a_negative_iteration_budget_is_a_config_error(tmp_path, capsys):
    # max_iter = -3 ran, and exited 2 with "no convergence after -3 iterations"
    config = {"model": {"model": "euclidean", "n": 1}, "command": "menelaos",
              "x": [0.0], "y": [1.0], "eps": 0.5, "mu": 0.5}
    assert run(write_config(tmp_path, "c.json", {**config, "max_iter": -3}), quiet=True) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "ConfigError" in err and "max_iter" in err
    # a budget of 0 is valid: coincident points converge in 0 steps
    coincident = {**config, "y": [0.0], "max_iter": 0}
    assert run(write_config(tmp_path, "z.json", coincident), quiet=True) == 0


def test_bad_model_is_an_error(tmp_path):
    cfg = write_config(tmp_path, "c.json", {
        "model": {"model": "carnot", "step": 9, "layers": [1], "brackets": []},
        "command": "menelaos", "x": [0.0], "y": [1.0], "eps": 0.5, "mu": 0.5,
    })
    assert run(cfg, quiet=True) == 1


# json writes inf as Infinity and nan as NaN, which Python's json reads back,
# and an integer of 401 digits as it is, which no float holds; 2^-k is 0.0
# from k = 1075, which no scale grid can use
CARNOT = {"model": "carnot", "step": 2, "layers": [2, 1], "brackets": [[0, 1, 2, 1.0]]}
H1, EUCLID = {"model": "heisenberg", "n": 1}, {"model": "euclidean", "n": 2}
PULLBACK = {"model": "pullback", "base": EUCLID, "chart": "cubic"}
MENELAOS = {"command": "menelaos", "x": [0.0] * 3, "y": [1.0, 0.0, 0.0], "eps": 0.5, "mu": 0.5}
LINSCAN = {"command": "linscan", "x": [0.0, 0.0], "y": [0.2, 0.0], "z": [0.0, 0.2]}
TANGENT = {"command": "tangent", "which": "sum", "x": [0.0] * 3, "u": [0.1, 0.05, 0.0],
           "v": [-0.05, 0.1, 0.01]}
AXIOMS = {"command": "axioms", "which": "A1", "seed": 7, "sample_count": 4}
NAN, INF = float("nan"), float("inf")
UNUSABLE_NUMBERS = {
    "bracket-inf": ({"model": {**CARNOT, "brackets": [[0, 1, 2, INF]]}, **MENELAOS},
                    "not a finite real number"),
    "bracket-huge": ({"model": {**CARNOT, "brackets": [[0, 1, 2, 10 ** 400]]}, **MENELAOS},
                     "int too large to convert to float"),
    "x-huge": ({"model": CARNOT, **MENELAOS, "x": [10 ** 400, 0, 0]},
               "int too large to convert to float"),
    "eps-huge": ({"model": CARNOT, **MENELAOS, "eps": 10 ** 400},
                 "scale must be a finite positive real, got 1000"),
    "menelaos-x-nan": ({"model": H1, **MENELAOS, "x": [NAN, 0.0, 0.0]},
                       "expected finite real numbers"),
    "linscan-x-nan": ({"model": H1, **LINSCAN, "x": [NAN, 0.0, 0.0], "y": [0.0, 1.0, 0.0],
                       "z": [0.0, 0.0, 1.0]}, "expected finite real numbers"),
    "barycentric-x-nan": ({"model": EUCLID, "command": "barycentric", "eps": 0.3,
                           "x": [NAN, 0.0], "y": [0.5, 0.5]}, "expected finite real numbers"),
    "affinemap-matrix-inf": ({"model": EUCLID, "command": "affinemap", "seed": 13,
                              "map": {"type": "linear", "matrix": [[INF, 1.0], [0.0, 1.0]]}},
                             "expected finite real numbers"),
    "axioms-ks-underflow": ({"model": EUCLID, **AXIOMS, "ks": [2, 1100]}, "got nu=0.0"),
    "axioms-ks-zero": ({"model": EUCLID, **AXIOMS, "ks": [1075, 1076]}, "got nu=0.0"),
    "tangent-ks-underflow": ({"model": H1, **TANGENT, "ks": [2, 1100]}, "got nu=0.0"),
    "linscan-ks-underflow": ({"model": PULLBACK, **LINSCAN, "ks": [3, 1100]}, "got nu=0.0"),
}


@pytest.mark.parametrize("case", UNUSABLE_NUMBERS)
def test_a_number_no_float_holds_is_a_one_line_error(tmp_path, capsys, case):
    config, message = UNUSABLE_NUMBERS[case]
    cfg = write_config(tmp_path, "c.json", config)
    assert main(["run", cfg, "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert message in err and "Traceback" not in err


def test_seed_override_changes_hash(tmp_path):
    cfg = write_config(tmp_path, "c.json", {
        "model": {"model": "euclidean", "n": 2},
        "command": "axioms", "which": "A1", "seed": 1, "ks": [2, 3, 4, 5],
        "sample_count": 4,
    })
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run(cfg, str(a), seed_override=1, quiet=True) == 0
    assert run(cfg, str(b), seed_override=2, quiet=True) == 0
    ha = read_csv(a)[2]["config_sha256"]
    hb = read_csv(b)[2]["config_sha256"]
    assert ha != hb


def test_byte_identical_reruns(tmp_path):
    cfg = write_config(tmp_path, "c.json", {
        "model": {"model": "heisenberg", "n": 1},
        "command": "axioms", "which": "all", "seed": 7,
        "ks": [2, 3, 4, 5, 6, 7], "sample_count": 8,
    })
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run(cfg, str(a), quiet=True) == 0
    assert run(cfg, str(b), quiet=True) == 0
    assert a.read_bytes() == b.read_bytes()


def test_negative_finding_reported_as_rows(tmp_path):
    # a stalled iteration is data, not a crash: rows plus exit 2
    cfg = write_config(tmp_path, "c.json", {
        "model": {"model": "euclidean", "n": 1},
        "command": "menelaos", "x": [0.0], "y": [50.0],
        "eps": 0.9, "mu": 0.9, "max_iter": 3,
    })
    out = tmp_path / "n.csv"
    assert run(cfg, str(out), quiet=True) == 2
    header, rows, meta = read_csv(out)
    assert header == ["finding"]
    assert "MaxIterExceeded" in rows[0][0]
    assert meta["verdict"] == "fail"


def test_main_entry_point(tmp_path, capsys):
    cfg = write_config(tmp_path, "c.json", {
        "model": {"model": "euclidean", "n": 1},
        "command": "menelaos", "x": [0.0], "y": [1.0], "eps": 0.5, "mu": 0.5,
    })
    out = tmp_path / "m.csv"
    code = main(["run", cfg, "--out", str(out), "--quiet"])
    assert code == 0
    assert out.exists()


def test_threads_env_validation(tmp_path, monkeypatch):
    # the runner is sequential and reads no thread setting: any value is ignored
    cfg = write_config(tmp_path, "c.json", {
        "model": {"model": "euclidean", "n": 1},
        "command": "menelaos", "x": [0.0], "y": [1.0], "eps": 0.5, "mu": 0.5,
    })
    monkeypatch.delenv("DILATATION_LAB_THREADS", raising=False)
    plain = tmp_path / "plain.csv"
    assert run(cfg, str(plain), quiet=True) == 0
    for value in ("zebra", "0", "4"):
        monkeypatch.setenv("DILATATION_LAB_THREADS", value)
        out = tmp_path / f"threads-{value}.csv"
        assert run(cfg, str(out), quiet=True) == 0
        assert out.read_bytes() == plain.read_bytes()


def test_shipped_configs_write_their_recorded_csv_bytes(tmp_path):
    # every shipped config passes, and each CSV with a recorded digest matches it
    digests = json.loads((ROOT / "perfbench" / "expected_sha256.json").read_text())
    paths = sorted((ROOT / "configs").glob("*.json")) + sorted(
        (ROOT / "perfbench" / "configs").glob("*.json"))
    assert len(paths) == 9 and set(digests) <= {p.stem for p in paths}
    for path in paths:
        out = tmp_path / f"{path.stem}.csv"
        assert run(str(path), str(out), quiet=True) == 0, path.name
        if path.stem in digests:
            assert hashlib.sha256(out.read_bytes()).hexdigest() == digests[path.stem], path.name


def test_internal_errors_propagate(tmp_path, monkeypatch):
    # only config and model errors exit 1; a bug inside a command is a traceback
    def broken(*args, **kwargs):
        raise ValueError("internal failure")

    monkeypatch.setattr(cli, "verify_axiom", broken)
    cfg = write_config(tmp_path, "c.json", {
        "model": {"model": "euclidean", "n": 2},
        "command": "axioms", "which": "A1", "seed": 1, "ks": [2, 3], "sample_count": 2,
    })
    with pytest.raises(ValueError, match="internal failure"):
        run(cfg, quiet=True)


@pytest.mark.parametrize("config", [
    {"command": "axioms", "seed": 1, "ks": [3, 2]},
    {"command": "axioms", "seed": 1, "sample_count": 0},
    {"command": "axioms", "seed": 1, "sample_count": 1},
    {"command": "ratio", "x": [0.0, 0.0], "y": [1.0, 0.0], "eps": 0.5, "mu": 0.5, "N": 0},
    {"command": "menelaos", "x": [0.0, 0.0], "y": [1.0, 0.0], "eps": "0.5", "mu": 0.5},
    {"command": "linscan", "x": [0.0, 0.0], "y": [0.2, 0.0], "z": [0.0, 0.2], "ks": [-1, 2]},
    {"command": "tangent", "which": "product", "x": [0.0, 0.0], "u": [1.0, 0.0],
     "v": [0.0, 1.0]},
    {"command": "tangent", "x": [0.0, 0.0], "u": [1.0, 0.0]},
    {"command": "barycentric", "eps": 0.5, "x": [0.0, 0.0], "seed": 1},
    {"command": "affinemap", "seed": 1,
     "map": {"type": "linear", "matrix": [[1.0, 0.0, 0.0]] * 3}},
    {"command": "affinemap", "seed": 1, "map": {"type": "rotation"}},
    {"command": "counterexample", "seed": 1},
    {"model": {"model": "pullback", "base": {"model": "euclidean", "n": 2}},
     "command": "ratio", "x": [0.0, 0.0], "y": [0.2, 0.0], "eps": 0.5, "mu": 0.5},
    {"command": "axioms", "seed": 1, "sample_count": 2.5},
    {"command": "axioms", "seed": 1, "sample_count": "16"},
    {"command": "axioms", "seed": True},
    {"command": "axioms", "seed": 1.9},
    {"command": "axioms", "seed": 1, "ks": [2, 3.0]},
    {"command": "axioms", "seed": 1, "ks": [True, 2]},
    {"command": "ratio", "x": [0.0, 0.0], "y": [1.0, 0.0], "eps": 0.5, "mu": 0.5, "N": 8.5},
    {"command": "menelaos", "x": [0.0, 0.0], "y": [1.0, 0.0], "eps": 0.5, "mu": 0.5,
     "max_iter": 100.0},
    {"command": "menelaos", "x": [0.0, 0.0], "y": [1.0, 0.0], "eps": 1.5, "mu": 0.5},
    {"command": "ratio", "x": [0.0, 0.0], "y": [1.0, 0.0], "eps": 0.5, "mu": 1.0},
    {"model": {"model": "dyadic"}, "command": "barycentric", "eps": 0, "seed": 1},
    {"model": {"model": "complex_heisenberg"}, "command": "counterexample", "seed": 1,
     "eps": 2.0},
    {"model": {"model": "complex_heisenberg"}, "command": "counterexample", "seed": 1,
     "eps": -0.5},
    {"command": "menelaos", "x": ["0.1", "0"], "y": [1.0, 0.0], "eps": 0.5, "mu": 0.5},
    {"command": "menelaos", "x": [True, 0.0], "y": [1.0, 0.0], "eps": 0.5, "mu": 0.5},
    {"model": {"model": "dyadic"}, "command": "barycentric", "eps": 1, "x": True, "y": 3},
    {"command": "affinemap", "seed": 1,
     "map": {"type": "linear", "matrix": [["1", 0.0], [0.0, 1.0]]}},
    {"command": "affinemap", "seed": 1,
     "map": {"type": "linear", "matrix": [[1.0, 0.0], [0.0, 1.0]], "offset": [False, 0.0]}},
    {"model": {"model": "dyadic"}, "command": "barycentric", "eps": True, "seed": 1},
    {"command": "affinemap", "seed": 1,
     "map": {"type": "linear", "matrix": [[2.0, 1.0], [0.0, 1.0]], "ofset": [0.5, -0.25]}},
    {"command": "affinemap", "seed": 1,
     "map": {"type": "componentwise_cubic", "matrix": [[1.0, 0.0], [0.0, 1.0]]}},
    {"model": {"model": "heisenberg", "n": 1}, "command": "affinemap", "seed": 1,
     "map": {"type": "left_translation", "point": [0.1, 0.0, 0.0], "offset": [0.0, 0.0, 0.0]}},
])
def test_bad_values_exit_one_with_a_one_line_error(tmp_path, capsys, config):
    cfg = write_config(tmp_path, "c.json", {"model": {"model": "euclidean", "n": 2}, **config})
    assert run(cfg, quiet=True) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "ConfigError" in err


def test_a_finding_is_one_csv_field(tmp_path):
    # the NonConvergent message lists the increments, commas and all
    cfg = write_config(tmp_path, "c.json", {
        "model": {"model": "heisenberg", "n": 1}, "command": "tangent", "which": "sum",
        "x": [0.1, 0.2, 0.05], "u": [0.3, -0.1, 0.2], "v": [-0.2, 0.25, 0.1],
        "ks": list(range(2, 31))})
    out = tmp_path / "r.csv"
    assert run(cfg, str(out), quiet=True) == 2
    rows = [row for row in csv.reader(out.open(newline="")) if not row[0].startswith("#")]
    assert rows[0] == ["finding"]
    assert len(rows) == 2 and len(rows[1]) == 1
    assert rows[1][0].startswith("NonConvergent: ") and rows[1][0].count(",") > 1


def test_required_fields_are_the_parameters_without_defaults():
    required = {name: {field for field, param in cli._parameters(handler).items()
                       if param.default is param.empty} - {"model"}
                for name, handler in cli._COMMANDS.items()}
    assert required == {
        "axioms": {"seed"}, "tangent": {"x", "u"}, "menelaos": {"x", "y", "eps", "mu"},
        "ratio": {"x", "y", "eps", "mu"}, "linscan": {"x", "y", "z"}, "barycentric": {"eps"},
        "counterexample": {"seed"}, "affinemap": {"map", "seed"}}
    assert sum(len(fields) for fields in _COMMAND_FIELDS.values()) == 35
