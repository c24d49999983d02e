"""Command-line interface: exit codes, outputs, determinism."""
import dataclasses
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import pytest

import singmin
import singmin.cli
from singmin.cli import main
from singmin.surfaces import sphere_patch


def run(args):
    return main(list(args))


def test_prove_single_theorem_passes(tmp_path, capsys):
    rc = run(["prove", "--theorem", "3", "--json", str(tmp_path / "rep.json")])
    out = capsys.readouterr().out
    assert rc == 0
    assert "theorem-3" in out and "[pass]" in out
    doc = json.loads((tmp_path / "rep.json").read_text())
    assert doc["status"] == "pass"
    assert len(doc["reports"]) == 1
    record = doc["reports"][0]["checkpoints"][0]
    assert set(record) == {"name", "mode", "status", "computed", "expected", "factor", "flags", "note"}


def test_prove_filter_runs_one_chain(capsys):
    rc = run(["prove", "--theorem", "2"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "theorem-2" in out and "theorem-1" not in out


def test_prove_unknown_theorem_is_usage_error(capsys):
    assert run(["prove", "--theorem", "9"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: argument --theorem: invalid choice") and err.count("\n") == 1


# the last flag of each command that takes a value
VALUE_FLAG = {"prove": "--json", "residual": "--out", "curvature": "--out",
              "catenary": "--out", "extrude": "--out"}


@pytest.mark.parametrize(
    "make_args",
    [
        lambda command: [command, "--patch", "torus"],
        lambda command: [command, "--nu", "x"],
        lambda command: [command, "--frobnicate"],
        lambda command: [command, VALUE_FLAG[command]],
        lambda command: [],
    ],
    ids=["bad-choice", "bad-int", "unknown-flag", "flag-without-value", "no-command"],
)
@pytest.mark.parametrize("command", list(VALUE_FLAG))
def test_argparse_rejection_is_one_error_line(tmp_path, monkeypatch, capsys, command, make_args):
    monkeypatch.chdir(tmp_path)
    assert run(make_args(command)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert not list(tmp_path.iterdir())


def test_help_prints_usage_and_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["residual", "--help"])
    assert exc.value.code == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("usage: singmin residual") and captured.err == ""


@pytest.mark.parametrize(
    "args,rc",
    [
        (["residual", "--patch", "sphere", "--r", "1", "--alpha", "-2", "--expect-pass"], 0),
        (["residual", "--patch", "sphere", "--r", "1", "--alpha", "-1", "--expect-pass"], 1),
        (["residual", "--patch", "plane", "--alpha", "3.7", "--expect-pass"], 0),
        (["residual", "--patch", "cylinder", "--r", "1", "--alpha", "-1", "--expect-pass"], 0),
    ],
)
def test_residual_expectations(tmp_path, monkeypatch, args, rc):
    monkeypatch.chdir(tmp_path)
    assert run(args + ["--out", "g"]) == rc
    assert (tmp_path / "g.json").exists()
    assert (tmp_path / "g.csv").exists()


def test_residual_csv_columns(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    run(["residual", "--patch", "plane", "--alpha", "1", "--nu", "3", "--nv", "3", "--out", "g"])
    header = (tmp_path / "g.csv").read_text().splitlines()[0]
    assert header == "u,v,x,y,z,H,K,k1,k2,residual"


def test_catenary_outputs(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    rc = run(["catenary", "--alpha", "1", "--y0", "1", "--smax", "0.5", "--out", "t"])
    assert rc == 0
    doc = json.loads((tmp_path / "t.json").read_text())
    assert doc["termination"] == "reached-smax"
    assert (tmp_path / "t.csv").read_text().startswith("s,x,y,theta,J")


def test_catenary_alpha_zero_rejected(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run(["catenary", "--alpha", "0"]) == 2
    assert "error" in capsys.readouterr().err


def test_extrude_writes_mesh_and_report(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    rc = run(["extrude", "--alpha", "-1", "--y0", "1", "--smax", "1", "--out", "e",
              "--nu", "10", "--nv", "4"])
    assert rc == 0
    obj = (tmp_path / "e.obj").read_text()
    assert obj.count("v ") == 40
    assert obj.count("f ") == 2 * 9 * 3
    doc = json.loads((tmp_path / "e.json").read_text())
    assert float(doc["max_K"]) < 1e-10 and float(doc["min_K"]) > -1e-10
    assert float(doc["max_abs_residual"]) < 1e-6


def test_extrude_tilted_ruling_rejected(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run(["extrude", "--alpha", "-1", "--v", "0,0,1", "--a", "0,0,1"]) == 2


def test_curvature_table(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    rc = run(["curvature", "--patch", "sphere", "--r", "2", "--nu", "8", "--nv", "8", "--out", "c"])
    assert rc == 0
    lines = (tmp_path / "c.csv").read_text().splitlines()
    assert lines[0] == "u,v,E,F,G,L,M,N,H,K,k1,k2"
    row = lines[1].split(",")
    H, K = float(row[8]), float(row[9])
    assert abs(abs(H) - 1.0) < 1e-9 and abs(K - 0.25) < 1e-9
    doc = json.loads((tmp_path / "c.json").read_text())
    assert float(doc["fd_max_deviation"]) < 1e-4


def test_curvature_fd_deviation_scales_quadratically(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    devs = {}
    for name, h in (("c1", 1e-3), ("c2", 5e-4)):
        run(["curvature", "--patch", "sphere", "--nu", "4", "--nv", "4",
             "--fd-h", str(h), "--out", name])
        devs[name] = float(json.loads((tmp_path / f"{name}.json").read_text())["fd_max_deviation"])
    assert 3.5 <= devs["c1"] / devs["c2"] <= 4.5


def test_outputs_are_byte_deterministic(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run(["catenary", "--alpha", "1", "--smax", "0.5", "--step", "0.01", "--out", "t"]) == 0
    cases = [
        (["extrude", "--alpha", "1", "--smax", "0.5", "--nu", "6", "--nv", "3"],
         (".obj", ".json", ".csv")),
        (["residual", "--patch", "cylinder", "--alpha", "-1", "--nu", "9", "--nv", "7"],
         (".json", ".csv")),
        (["curvature", "--patch", "sphere", "--r", "1.5", "--nu", "9", "--nv", "7"],
         (".json", ".csv")),
        (["catenary", "--alpha", "-1.5", "--y0", "0.7", "--smax", "3"], (".json", ".csv")),
        (["extrude", "--traj", "t.json", "--nu", "9", "--nv", "3"], (".obj", ".json", ".csv")),
    ]
    for n, (args, suffixes) in enumerate(cases):
        assert run([*args, "--out", f"a{n}"]) == 0
        assert run([*args, "--out", f"b{n}"]) == 0
        for ext in suffixes:
            assert (tmp_path / f"a{n}{ext}").read_bytes() == (tmp_path / f"b{n}{ext}").read_bytes()


def test_prove_json_is_byte_deterministic(tmp_path):
    assert run(["prove", "--json", str(tmp_path / "a.json")]) == 0
    assert run(["prove", "--json", str(tmp_path / "b.json")]) == 0
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_config_file_defaults_and_flag_override(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# a sphere run\n\nalpha = -2\nnu = 7\nnv = 7\n")
    rc = run(["--config", str(cfg), "residual", "--patch", "sphere", "--expect-pass", "--out", "g"])
    assert rc == 0
    doc = json.loads((tmp_path / "g.json").read_text())
    assert doc["grid"] == [7, 7]
    # flag overrides the config value
    rc = run(["--config", str(cfg), "residual", "--patch", "sphere", "--alpha", "-1",
              "--expect-pass", "--out", "h"])
    assert rc == 1


def test_config_key_set_twice_takes_the_last_value(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.cfg").write_text("alpha = 1\nalpha = 2\n")
    assert run(["--config", "run.cfg", "catenary", "--smax", "0.01", "--out", "t"]) == 0
    assert json.loads((tmp_path / "t.json").read_text())["alpha"] == "2"


def test_config_unknown_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("frobnicate = 1\n")
    assert run(["--config", str(cfg), "prove", "--theorem", "3"]) == 2
    assert "unknown key" in capsys.readouterr().err


@pytest.mark.parametrize(
    "line,message",
    [
        ("nu 7", "expected key = value"),
        ("t_range = 1,x", "bad value for 't_range': could not convert string to float: 'x'"),
        ("center = 1,2,x", "bad value for 'center': could not convert string to float: 'x'"),
    ],
)
def test_config_malformed_line_is_one_error_line(tmp_path, capsys, line, message):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(line + "\n")
    assert run(["--config", str(cfg), "residual", "--alpha", "-2", "--out", str(tmp_path / "g")]) == 2
    assert capsys.readouterr().err == f"error: {cfg}:1: {message}\n"


@pytest.mark.parametrize("command", ["residual", "catenary", "extrude"])
def test_missing_alpha_is_usage_error(tmp_path, capsys, command):
    assert run([command, "--out", str(tmp_path / "g")]) == 2
    assert capsys.readouterr().err == "error: alpha is required (flag --alpha or config key)\n"
    assert not list(tmp_path.iterdir())


def test_config_switch_is_applied(tmp_path, monkeypatch, capsys):
    # a sphere is not a solution at alpha = 5, so expect_pass must fail the run
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("expect_pass = true\n")
    args = ["residual", "--patch", "sphere", "--alpha", "5", "--nu", "10", "--nv", "10"]
    assert run(["--config", str(cfg), *args, "--out", "g"]) == 1
    cfg.write_text("expect_pass = false\n")
    assert run(["--config", str(cfg), *args, "--out", "h"]) == 0


@pytest.mark.parametrize(
    "line",
    ["expect_pass = yes", "nu = many", "patch = torus",
     "r = nan", "alpha = inf", "threshold = nan", "fd_h = nan", "center = 0,inf,0",
     "t_range = 1,1", "t_range = 1,-1"],
)
def test_config_bad_value_rejected(tmp_path, capsys, line):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(line + "\n")
    rc = run(["--config", str(cfg), "residual", "--alpha", "-2", "--out", str(tmp_path / "g")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "bad value" in err and err.count("\n") == 1


@pytest.mark.parametrize(
    "args",
    [
        ["--alpha", "nan"],
        ["--alpha", "1", "--step", "nan"],
        ["--alpha", "1", "--smax", "inf"],
        ["--alpha", "1", "--y0", "nan"],
    ],
)
def test_catenary_non_finite_input_is_usage_error(tmp_path, capsys, args):
    rc = run(["catenary", *args, "--out", str(tmp_path / "t")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "must be finite" in err and err.count("\n") == 1
    assert not (tmp_path / "t.json").exists()


@pytest.mark.parametrize("command", ["catenary", "extrude"])
@pytest.mark.parametrize(
    "smax,step",
    # smax / step is inf; then finite, but a 300-digit step count
    [("1e300", "1e-300"), ("1e200", "1e-100")],
    ids=["inf", "finite"],
)
def test_step_count_overflow_is_usage_error(tmp_path, monkeypatch, capsys, command, smax, step):
    # validation must stop the run: a march this long would fill the memory
    monkeypatch.setattr(singmin.cli, "integrate", lambda *a: pytest.fail("integrate was called"))
    args = [command, "--alpha", "1", "--smax", smax, "--step", step]
    rc = run([*args, "--out", str(tmp_path / "t")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "smax / step" in err and err.count("\n") == 1
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize(
    "curve",
    [["--alpha", "1100", "--y0", "2", "--smax", "0.01"],
     ["--alpha", "-200", "--y0", "0.02", "--step", "1e-4", "--smax", "0.001"]],
    ids=["alpha-1100", "alpha-minus-200"],
)
def test_first_integral_overflow_is_written_as_inf(tmp_path, monkeypatch, capsys, curve):
    monkeypatch.chdir(tmp_path)
    assert run(["catenary", *curve, "--out", "t"]) == 0
    rows = (tmp_path / "t.csv").read_text().splitlines()[1:]
    assert rows and all(row.split(",")[4] == "inf" for row in rows)
    assert run(["extrude", "--traj", "t.json", "--nu", "6", "--nv", "3", "--out", "e"]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("command", ["catenary", "extrude"])
@pytest.mark.parametrize(
    "curve,message",
    [(["--alpha", "1e308", "--smax", "0.01"], "integration diverged at s = 0.002"),
     # the first step either way drops below y_min, or is longer than smax:
     # one state, no curve to write
     (["--alpha", "-2", "--y0", "0.00101", "--ymin", "1e-3"],
      "trajectory has fewer than two states (got 1)"),
     (["--alpha", "1.3", "--smax", "5e-3", "--step", "1e-2"],
      "trajectory has fewer than two states (got 1)")],
    ids=["diverging", "one-state", "smax-below-step"],
)
def test_curve_that_cannot_be_integrated_is_usage_error(tmp_path, monkeypatch, capsys, command,
                                                        curve, message):
    monkeypatch.chdir(tmp_path)
    assert run([command, *curve]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {message}\n"
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize(
    "args,name",
    [(["extrude", "--alpha", "1", "--smax", "2", "--v", "1e308,1e308,0", "--nu", "3", "--nv", "3"],
      "v"),
     (["residual", "--alpha", "-2", "--a", "1e308,1e308,0"], "a"),
     (["residual", "--alpha", "-2", "--patch", "cylinder", "--axis", "1e308,1e308,0"], "axis")],
    ids=["v", "a", "axis"],
)
def test_huge_vector_is_one_error_line(tmp_path, args, name):
    # |v|^2 overflows to inf; numpy must not print its overflow warning first
    env = {**os.environ, "PYTHONPATH": str(Path(singmin.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-m", "singmin", *args], cwd=tmp_path, env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 2
    assert proc.stderr == f"error: {name} must be a unit vector (|{name}| = inf)\n"
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize(
    "args",
    [["residual", "--alpha", "-2", "--out", ""], ["catenary", "--alpha", "1", "--out", "/"]],
    ids=["residual-empty", "catenary-root"],
)
def test_out_prefix_without_a_name_is_usage_error(tmp_path, monkeypatch, capsys, args):
    monkeypatch.chdir(tmp_path)
    assert run(args) == 2
    err = capsys.readouterr().err
    expected = f"argument --out: expected a path prefix ending in a name, got {args[-1]!r}"
    assert err == f"error: {expected}\n"
    assert not list(tmp_path.iterdir())


# a short run of each writing command, and the suffixes of what it writes
WRITES = {
    "residual": (["residual", "--alpha", "-2", "--nu", "5", "--nv", "5"], (".csv", ".json")),
    "curvature": (["curvature", "--nu", "5", "--nv", "5"], (".csv", ".json")),
    "catenary": (["catenary", "--alpha", "1", "--smax", "0.1"], (".csv", ".json")),
    "extrude": (["extrude", "--alpha", "-1", "--smax", "0.5", "--nu", "5", "--nv", "3"],
                (".csv", ".json", ".obj")),
}


@pytest.mark.parametrize("command", list(WRITES))
def test_dotted_out_prefix_keeps_every_part(tmp_path, monkeypatch, command):
    # each suffix is appended to the prefix, so sweep.1 and sweep.2 write apart
    args, suffixes = WRITES[command]
    monkeypatch.chdir(tmp_path)
    for prefix in ("sweep.1", "sweep.2"):
        assert run([*args, "--out", prefix]) == 0
    names = sorted(prefix + suffix for prefix in ("sweep.1", "sweep.2") for suffix in suffixes)
    assert sorted(p.name for p in tmp_path.iterdir()) == names


def test_config_out_without_a_name_is_usage_error(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "c.cfg").write_text("out =\n")
    assert run(["--config", "c.cfg", "residual", "--alpha", "-2"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "bad value for 'out'" in err and err.count("\n") == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.cfg"]


def _points(*rows, termination="reached-smax") -> str:
    """A trajectory file whose states are ``rows`` of (s, x, y, theta), each with J = 1."""
    return json.dumps({"alpha": "1", "step": "0.01", "termination": termination,
                       "points": [[*row, "1"] for row in rows]})


@pytest.mark.parametrize(
    "text,message",
    [
        ("{not json", "is malformed"),
        ('{"alpha": "1", "step": "0.01", "termination": "reached-smax"}', "no 'points' key"),
        ('{"points": [[0, 0, 1, 0, 1], [0.01, 0.01, 1, 0, 1]], "step": "0.01",'
         ' "termination": "reached-smax"}', "no 'alpha' key"),
        ('{"points": [[0, 0, 1, 0, 1], [0.01, 0.01, 1, 0, 1]], "alpha": "1",'
         ' "termination": "reached-smax"}', "no 'step' key"),
        ('{"points": [[0, 0, 1, 0], [0.01, 0.01, 1, 0]], "alpha": "1", "step": "0.01",'
         ' "termination": "reached-smax"}', "is malformed"),
        (_points(("0", "0", "1", "0"), ("0.01", "nan", "1", "0")), "NaN or inf in state 1"),
        (_points(("0", "0", "1", "inf"), ("0.01", "0.01", "1", "0")), "NaN or inf in state 0"),
        (_points(("0", "0", "1", "0"), ("0.01", None, "1", "0")), "NaN or inf in state 1"),
        (_points(("0", "0", "1", "0"), ("0.01", "0.01", "-0.5", "0")), "y <= 0 in state 1"),
        (_points(("0", "0", "0", "0"), ("0.01", "0.01", "1", "0")), "y <= 0 in state 0"),
        (_points(("0", "0", "1", "0"), ("0.01", "0.01", "1", "0"), termination="gave-up"),
         "unknown termination 'gave-up'"),
        (_points(("0", "0", "1", "0"), ("0.01", "0.01", "1", "0"), termination=None),
         "unknown termination None"),
        (_points(("0", "0", "1", "0")), "has fewer than two states"),
        (_points(), "has fewer than two states"),
        (_points(("0", "0", "1", "0"), ("0.01", "0.01", "1", "0")).replace('"alpha": "1"',
                                                                          '"alpha": "nan"'),
         "needs a finite alpha and a finite positive step"),
        (_points(("0", "0", "1", "0"), ("0.01", "0.01", "1", "0")).replace('"alpha": "1"',
                                                                          '"alpha": "0"'),
         "has alpha = 0, which is excluded"),
    ],
    ids=["bad-json", "no-points", "no-alpha", "no-step", "short-row", "nan-x", "inf-theta",
         "null-x", "negative-y", "zero-y", "unknown-termination", "null-termination",
         "one-state", "no-state", "nan-alpha", "zero-alpha"],
)
def test_extrude_malformed_trajectory_is_usage_error(tmp_path, capsys, text, message):
    traj = tmp_path / "t.json"
    traj.write_text(text)
    rc = run(["extrude", "--traj", str(traj), "--out", str(tmp_path / "e")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err and err.count("\n") == 1
    assert str(traj) in err


@pytest.mark.parametrize(
    "args",
    [
        ["residual", "--patch", "sphere", "--r", "nan", "--alpha", "-2", "--expect-pass"],
        ["residual", "--patch", "sphere", "--center", "inf,0,1", "--alpha", "-2", "--expect-pass"],
        ["residual", "--patch", "sphere", "--alpha", "-2", "--threshold", "nan", "--expect-pass"],
        ["residual", "--patch", "plane", "--alpha", "inf"],
        ["residual", "--patch", "cylinder", "--axis", "nan,0,0", "--alpha", "-1"],
        ["curvature", "--patch", "sphere", "--r", "nan"],
        ["curvature", "--patch", "cylinder", "--r", "inf"],
        ["curvature", "--patch", "sphere", "--fd-h", "nan"],
        ["curvature", "--patch", "sphere", "--fd-h", "inf"],
        ["extrude", "--alpha", "1", "--smax", "0.5", "--v", "0,nan,0"],
        ["extrude", "--alpha", "1", "--smax", "0.5", "--t-range=-inf,1"],
    ],
)
def test_non_finite_surface_flag_is_usage_error(tmp_path, args):
    out = tmp_path / "g"
    assert run([*args, "--nu", "5", "--nv", "5", "--out", str(out)]) == 2
    assert not out.with_suffix(".json").exists()


def test_expect_pass_fails_on_a_nan_residual(tmp_path, monkeypatch):
    real = singmin.cli.grid_report

    def nan_residual(*args):
        return {**real(*args), "max_abs_residual": float("nan")}

    monkeypatch.setattr(singmin.cli, "grid_report", nan_residual)
    args = ["residual", "--patch", "sphere", "--alpha", "-2", "--nu", "5", "--nv", "5"]
    assert run([*args, "--expect-pass", "--out", str(tmp_path / "g")]) == 1


@pytest.mark.parametrize("args", [["--patch", "sphere", "--fd-h", "10"],
                                  ["--patch", "plane", "--nu", "2", "--nv", "2"]])
def test_curvature_without_any_fitting_stencil_is_usage_error(tmp_path, capsys, args):
    rc = run(["curvature", "--nu", "5", "--nv", "5", *args, "--out", str(tmp_path / "c")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "stencil" in err and err.count("\n") == 1
    assert not (tmp_path / "c.json").exists()


@pytest.mark.parametrize("args", [
    # |du x dv|^2 overflows: the samples once passed with H = K = 0
    ["residual", "--patch", "sphere", "--alpha", "1", "--r", "1e80", "--expect-pass"],
    ["curvature", "--patch", "sphere", "--r", "1e80"],
    # |du x dv|^2 underflows below the smallest normal float: the samples
    # once passed with max|residual| = 0.0269 at 1e-80 and 3.3e-11 at 1e-78
    ["residual", "--patch", "sphere", "--alpha", "-2", "--r", "1e-80", "--expect-pass"],
    ["residual", "--patch", "sphere", "--alpha", "-2", "--r", "1e-78", "--expect-pass"],
    # u + h == u: the differences were 0 / 0
    ["curvature", "--patch", "sphere", "--fd-h", "1e-300"],
])
def test_unusable_floats_are_one_error_line(tmp_path, capsys, args):
    assert run([*args, "--nu", "4", "--nv", "4", "--out", str(tmp_path / "g")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not list(tmp_path.iterdir())


GRID = ["--nu", "6", "--nv", "3"]


@pytest.mark.parametrize(
    "args,flag,value,rc",
    [
        (["extrude", "--alpha", "1", "--smax", "0.5", *GRID], "--t-range", "-2,2", 0),
        (["extrude", "--alpha", "1", "--smax", "0.5", *GRID], "--t-range", "-inf,1", 2),
        (["extrude", "--smax", "0.5", *GRID], "--alpha", "-1e0", 0),
        (["extrude", "--alpha", "1", "--smax", "0.5", *GRID], "--v", "-0,1,0", 0),
        (["curvature", "--patch", "sphere", *GRID], "--fd-h", "-1e-3", 2),
        (["curvature", "--patch", "sphere", *GRID], "--center", "-.5,0,0", 0),
        (["residual", "--patch", "sphere", *GRID], "--alpha", "-2e0", 0),
        (["residual", "--patch", "plane", "--alpha", "1", *GRID], "--a", "-0.6,0,0.8", 0),
        (["catenary", "--alpha", "1", "--smax", "0.5"], "--theta0", "-1e-1", 0),
    ],
    ids=["extrude-t-range", "extrude-t-range-inf", "extrude-alpha", "extrude-v", "curvature-fd-h",
         "curvature-center", "residual-alpha", "residual-a", "catenary-theta0"],
)
def test_negative_flag_value_parses_as_the_equals_form(tmp_path, capsys, args, flag, value, rc):
    def outcome(tag, flag_args):
        code = run([*args, *flag_args, "--out", str(tmp_path / tag)])
        captured = capsys.readouterr()
        files = {p.suffix: p.read_bytes() for p in tmp_path.glob(f"{tag}.*")}
        return code, captured.out, captured.err, files

    spaced = outcome("a", [flag, value])
    assert spaced[0] == rc
    assert spaced == outcome("b", [f"{flag}={value}"])


@pytest.mark.parametrize("h", ["-10", "0"])
def test_curvature_non_positive_step_is_usage_error(tmp_path, capsys, h):
    rc = run(["curvature", "--nu", "5", "--nv", "5", f"--fd-h={h}", "--out", str(tmp_path / "c")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: finite-difference step must be positive") and err.count("\n") == 1
    assert not (tmp_path / "c.json").exists()


@pytest.mark.parametrize(
    "curve,termination",
    [
        (["--alpha", "1.3", "--y0", "1", "--smax", "2"], "reached-smax"),
        (["--alpha", "-1.5", "--y0", "0.7", "--smax", "10"], "hit-y-min"),
    ],
)
def test_extrude_from_a_written_trajectory_matches_inline(tmp_path, monkeypatch, capsys,
                                                          curve, termination):
    monkeypatch.chdir(tmp_path)
    curve = [*curve, "--step", "1e-3"]
    grid = ["--nu", "40", "--nv", "5"]
    assert run(["catenary", *curve, "--out", "t"]) == 0
    capsys.readouterr()
    assert run(["extrude", "--traj", "t.json", *grid, "--out", "a"]) == 0
    from_file = capsys.readouterr()
    assert run(["extrude", *curve, *grid, "--out", "b"]) == 0
    assert capsys.readouterr() == from_file
    assert from_file.out.endswith(f" {termination}\n") and from_file.err == ""
    for ext in (".obj", ".csv", ".json"):
        assert (tmp_path / f"a{ext}").read_bytes() == (tmp_path / f"b{ext}").read_bytes()


@pytest.mark.parametrize(
    "edit,message",
    [
        (lambda pts: pts, None),
        (lambda pts: pts[:20] + pts[21:], "is not sampled at its step"),
        (lambda pts: pts[:20] + [pts[21], pts[20]] + pts[22:], "do not increase"),
    ],
    ids=["as-written", "gap-doubled", "rows-swapped"],
)
def test_extrude_trajectory_must_have_a_uniform_step(tmp_path, capsys, edit, message):
    traj = tmp_path / "t"
    assert run(["catenary", "--alpha", "1", "--smax", "0.5", "--step", "0.01", "--out", str(traj)]) == 0
    doc = json.loads(traj.with_suffix(".json").read_text())
    doc["points"] = edit(doc["points"])
    traj.with_suffix(".json").write_text(json.dumps(doc))
    capsys.readouterr()
    rc = run(["extrude", "--traj", str(traj.with_suffix(".json")), "--nu", "6", "--nv", "3",
              "--out", str(tmp_path / "e")])
    err = capsys.readouterr().err
    if message is None:
        assert rc == 0 and err == ""
    else:
        assert rc == 2
        assert err.startswith("error: ") and message in err and err.count("\n") == 1
        assert not (tmp_path / "e.json").exists()


def _count_curve_reads(monkeypatch):
    """Record each call of the CLI's curve integrator and trajectory loader."""
    calls = []
    for name in ("integrate", "load_trajectory_json"):
        real = getattr(singmin.cli, name)

        def recorded(*args, _name=name, _real=real, **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(singmin.cli, name, recorded)
    return calls


@pytest.mark.parametrize(
    "args",
    [
        ["curvature", "--nu", "-1", "--nv", "5"],
        ["curvature", "--nu", "5", "--nv", "1"],
        ["residual", "--alpha", "-2", "--nu", "-1", "--nv", "5"],
        ["extrude", "--alpha", "1", "--smax", "0.5", "--nu", "6", "--nv", "-3"],
        ["extrude", "--traj", "no-such-trajectory.json", "--nu", "6", "--nv", "-3"],
    ],
)
def test_grid_size_below_two_is_usage_error(tmp_path, monkeypatch, capsys, args):
    curve_reads = _count_curve_reads(monkeypatch)
    rc = run([*args, "--out", str(tmp_path / "g")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: grid dimensions must be >= 2") and err.count("\n") == 1
    assert not list(tmp_path.iterdir())
    assert curve_reads == []


@pytest.mark.parametrize(
    "args",
    [
        ["residual", "--alpha", "-2"],
        ["curvature"],
        ["extrude", "--alpha", "1", "--smax", "0.5"],
        ["extrude", "--traj", "no-such-trajectory.json"],
    ],
)
def test_grid_above_the_sample_bound_is_usage_error(tmp_path, monkeypatch, capsys, args):
    # 10^10 samples: the bound must fire before any array is allocated, and
    # extrude must not integrate or load its curve first
    curve_reads = _count_curve_reads(monkeypatch)
    rc = run([*args, "--nu", "100000", "--nv", "100000", "--out", str(tmp_path / "g")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: a grid has at most 2000000 samples, got 100000x100000")
    assert err.count("\n") == 1
    assert not list(tmp_path.iterdir())
    assert curve_reads == []


def _pole_patch(lat_lo):
    """A sphere chart whose last latitude row is the pole, where it degenerates."""
    return lambda args: dataclasses.replace(sphere_patch(r=1.0), u_range=(lat_lo, math.pi / 2))


@pytest.mark.parametrize("command", [["residual", "--alpha", "-2", "--expect-pass"], ["curvature"]])
def test_grid_with_degenerate_rows_succeeds_on_its_valid_samples(tmp_path, monkeypatch, capsys,
                                                                 command):
    monkeypatch.setattr(singmin.cli, "_make_patch", _pole_patch(0.5))
    assert run([*command, "--nu", "5", "--nv", "4", "--out", str(tmp_path / "g")]) == 0
    assert capsys.readouterr().err == ""
    doc = json.loads((tmp_path / "g.json").read_text())
    assert doc["rejected_samples"] == {"degenerate_metric": 4, "inconsistent_curvature": 0}
    assert len((tmp_path / "g.csv").read_text().splitlines()) == 1 + 16


# 20 samples in one row block, and 4,900 over two
@pytest.mark.parametrize("nu,nv", [(5, 4), (70, 70)])
@pytest.mark.parametrize("command", [["residual", "--alpha", "-2"], ["curvature"]])
def test_grid_with_every_sample_rejected_is_usage_error(tmp_path, monkeypatch, capsys, command,
                                                       nu, nv):
    monkeypatch.setattr(singmin.cli, "_make_patch", _pole_patch(math.pi / 2))
    assert run([*command, "--nu", str(nu), "--nv", str(nv), "--out", str(tmp_path / "g")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: no valid sample among {nu * nv}: ") and err.count("\n") == 1
    assert f"degenerate_metric={nu * nv}, inconsistent_curvature=0" in err
    assert not list(tmp_path.iterdir())


def test_grid_below_the_plane_in_every_block_is_usage_error(tmp_path, capsys):
    # the sphere's top touches the plane z = 0 from below, so all 4,900
    # samples of both row blocks are outside the halfspace; the directory
    # made for the output goes too
    args = ["residual", "--patch", "sphere", "--r", "1.3", "--center=0,0,-1.3", "--alpha", "-2",
            "--nu", "70", "--nv", "70", "--out", str(tmp_path / "new" / "g")]
    assert run(args) == 2
    assert capsys.readouterr().err == (
        "error: no valid sample among 4900: halfspace_violations=4900, "
        "degenerate_metric=0, inconsistent_curvature=0\n"
    )
    assert not list(tmp_path.iterdir())


def test_mean_of_finite_residuals_does_not_overflow(tmp_path, capsys):
    # every |residual| is finite, but their sum is not
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["residual", "--alpha", "1e308", "--nu", "3", "--nv", "3",
                    "--out", str(tmp_path / "g")]) == 0
    assert capsys.readouterr().err == ""
    doc = json.loads((tmp_path / "g.json").read_text())
    mean, top = float(doc["mean_abs_residual"]), float(doc["max_abs_residual"])
    assert math.isfinite(mean) and mean <= top


@pytest.mark.parametrize(
    "make_args",
    [
        lambda d: ["prove", "--theorem", "3", "--json", str(d)],
        lambda d: ["residual", "--alpha", "-2", "--nu", "5", "--nv", "5",
                   "--out", str(d / "file" / "g")],
        lambda d: ["extrude", "--traj", str(d), "--out", str(d / "e")],
        lambda d: ["--config", str(d), "residual", "--alpha", "-2", "--out", str(d / "g")],
        lambda d: ["extrude", "--traj", str(d / "missing.json"), "--out", str(d / "e")],
        lambda d: ["--config", str(d / "missing.cfg"), "residual", "--alpha", "-2",
                   "--out", str(d / "g")],
        lambda d: ["--config", str(d / "utf16.cfg"), "prove", "--theorem", "3"],
    ],
    ids=["prove-json-dir", "residual-out-under-file", "extrude-traj-dir", "config-dir",
         "extrude-traj-missing", "config-missing", "config-not-utf8"],
)
def test_unusable_path_is_usage_error(tmp_path, capsys, make_args):
    (tmp_path / "file").write_text("")
    (tmp_path / "utf16.cfg").write_bytes(b"\xff\xfenu = 3\n")
    assert run(make_args(tmp_path)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(tmp_path) in err


@pytest.mark.parametrize("t_range", ["1,1", "1,-1", "-1e308,1e308"])
def test_extrude_t_range_must_increase(tmp_path, capsys, t_range):
    out = tmp_path / "e"
    args = ["extrude", "--alpha", "1", "--smax", "0.5", "--nu", "3", "--nv", "3",
            "--t-range", t_range, "--out", str(out)]
    assert run(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "expected lo < hi" in err and err.count("\n") == 1
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize(
    "args,message",
    [
        (["extrude", "--alpha", "1", "--t-range", "1,x"],
         "argument --t-range: could not convert string to float: 'x'"),
        (["residual", "--alpha", "1", "--center", "1,2,x"],
         "argument --center: could not convert string to float: 'x'"),
        (["extrude", "--alpha", "1", "--t-range", "1"], "argument --t-range: expected lo,hi — got '1'"),
        (["residual", "--alpha", "1", "--center", "1,2"],
         "argument --center: expected x,y,z — got '1,2'"),
    ],
    ids=["t-range-bad-float", "center-bad-float", "t-range-one-value", "center-two-values"],
)
def test_malformed_comma_separated_flag_is_one_error_line(tmp_path, capsys, args, message):
    assert run([*args, "--out", str(tmp_path / "g")]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not list(tmp_path.iterdir())


def test_cylinder_axis_along_z_is_usage_error(tmp_path, capsys):
    args = ["residual", "--patch", "cylinder", "--axis", "0,0,1", "--alpha", "-1"]
    assert run([*args, "--out", str(tmp_path / "g")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cylinder axis (0, 0, 1) ") and err.count("\n") == 1
    assert "up" not in err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("alpha,rc", [("-1", 2), ("1e0", 0), ("1.3", 2)])
def test_extrude_traj_alpha_must_match_the_file(tmp_path, monkeypatch, capsys, alpha, rc):
    monkeypatch.chdir(tmp_path)
    assert run(["catenary", "--alpha", "1", "--y0", "1", "--smax", "0.5", "--out", "t"]) == 0
    capsys.readouterr()
    assert run(["extrude", "--traj", "t.json", "--alpha", alpha, "--nu", "6", "--nv", "3",
                "--out", "e"]) == rc
    err = capsys.readouterr().err
    if rc:
        expected = f"alpha {float(alpha):.17g} does not match alpha 1 of trajectory file t.json"
        assert err == f"error: {expected}\n"
        assert not (tmp_path / "e.obj").exists()
    else:
        assert err == ""


def test_extrude_traj_alpha_round_trips_through_the_file(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    curve = ["--alpha", "1.3", "--y0", "1", "--smax", "0.5"]
    assert run(["catenary", *curve, "--out", "t"]) == 0
    assert run(["extrude", "--traj", "t.json", "--alpha", "1.3", "--nu", "6", "--nv", "3",
                "--out", "e"]) == 0


@pytest.mark.parametrize(
    "curve",
    [["--y0", "5"], ["--x0", "1"], ["--theta0", "0.1"],
     # the default value, given explicitly, is rejected too
     ["--step", "1e-3"],
     ["--smax", "99"], ["--ymin", "0.01"],
     # an abbreviation argparse accepts for --smax
     ["--sm", "99"]],
    ids=["y0", "x0", "theta0", "step", "smax", "ymin", "smax-abbreviated"],
)
def test_extrude_traj_rejects_a_curve_flag(tmp_path, monkeypatch, capsys, curve):
    monkeypatch.chdir(tmp_path)
    assert run(["catenary", "--alpha", "1", "--smax", "0.5", "--out", "t"]) == 0
    capsys.readouterr()
    assert run(["extrude", "--traj", "t.json", *curve, "--nu", "6", "--nv", "3",
                "--out", "e"]) == 2
    err = capsys.readouterr().err
    name = {"--sm": "smax"}.get(curve[0], curve[0][2:])
    expected = (f"curve value {name} = {float(curve[1]):.17g} cannot be used with --traj: "
                "the trajectory file t.json fixes the curve")
    assert err == f"error: {expected}\n"
    assert not list(tmp_path.glob("e.*"))


def test_extrude_traj_rejects_a_curve_config_key(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run(["catenary", "--alpha", "1", "--smax", "0.5", "--out", "t"]) == 0
    capsys.readouterr()
    (tmp_path / "run.cfg").write_text("step = 7\n")
    assert run(["--config", "run.cfg", "extrude", "--traj", "t.json", "--nu", "6", "--nv", "3",
                "--out", "e"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: curve value step = 7 ") and err.count("\n") == 1
    assert not list(tmp_path.glob("e.*"))


@pytest.mark.parametrize("command", [["residual", "--alpha", "-2"], ["curvature"],
                                     ["extrude", "--alpha", "1", "--smax", "2"]],
                         ids=lambda command: command[0])
def test_grid_command_memory_does_not_grow_with_the_grid(tmp_path, command):
    # jets, curvature, residual, FD oracle and text go one row block at a
    # time; of the whole grid only the |residual| vector, 8 bytes a sample,
    # is kept
    peaks = {}
    for n in (100, 300):
        out = tmp_path / f"g{n}"
        tracemalloc.start()
        try:
            assert run([*command, "--nu", str(n), "--nv", str(n), "--out", str(out)]) == 0
            peaks[n] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(out.with_suffix(".csv").read_text().splitlines()) == n * n + 1
    assert peaks[300] <= 2 * peaks[100], peaks
