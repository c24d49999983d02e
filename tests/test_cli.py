"""Command-line interface: exit codes, outputs, determinism."""
import dataclasses
import json
import math

import pytest

import singmin.cli
from singmin.cli import main
from singmin.surfaces import sphere_patch


def run(args):
    return main(list(args))


def exit_code(args):
    """Exit code of a run, including argparse's SystemExit for a bad flag."""
    try:
        return run(args)
    except SystemExit as exc:
        return exc.code


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


def test_prove_unknown_theorem_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        run(["prove", "--theorem", "9"])
    assert exc.value.code == 2


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
    cfg.write_text("alpha = -2\nnu = 7\nnv = 7\n")
    rc = run(["--config", str(cfg), "residual", "--patch", "sphere", "--expect-pass", "--out", "g"])
    assert rc == 0
    doc = json.loads((tmp_path / "g.json").read_text())
    assert doc["grid"] == [7, 7]
    # flag overrides the config value
    rc = run(["--config", str(cfg), "residual", "--patch", "sphere", "--alpha", "-1",
              "--expect-pass", "--out", "h"])
    assert rc == 1


def test_config_unknown_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("frobnicate = 1\n")
    assert run(["--config", str(cfg), "prove", "--theorem", "3"]) == 2
    assert "unknown key" in capsys.readouterr().err


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
    ],
    ids=["bad-json", "no-points", "no-alpha", "no-step", "short-row", "nan-x", "inf-theta",
         "null-x", "negative-y", "zero-y", "unknown-termination", "null-termination"],
)
def test_extrude_malformed_trajectory_is_usage_error(tmp_path, capsys, text, message):
    traj = tmp_path / "t.json"
    traj.write_text(text)
    rc = run(["extrude", "--traj", str(traj), "--out", str(tmp_path / "e")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err and err.count("\n") == 1


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
    assert exit_code([*args, "--nu", "5", "--nv", "5", "--out", str(out)]) == 2
    assert not out.with_suffix(".json").exists()


def test_expect_pass_fails_on_a_nan_residual(tmp_path, monkeypatch):
    real = singmin.cli.grid_report
    monkeypatch.setattr(
        singmin.cli, "grid_report",
        lambda *a: dataclasses.replace(real(*a), max_abs_residual=float("nan")),
    )
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
        code = exit_code([*args, *flag_args, "--out", str(tmp_path / tag)])
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


@pytest.mark.parametrize(
    "args",
    [
        ["curvature", "--nu", "-1", "--nv", "5"],
        ["curvature", "--nu", "5", "--nv", "1"],
        ["residual", "--alpha", "-2", "--nu", "-1", "--nv", "5"],
        ["extrude", "--alpha", "1", "--smax", "0.5", "--nu", "6", "--nv", "-3"],
    ],
)
def test_grid_size_below_two_is_usage_error(tmp_path, capsys, args):
    rc = run([*args, "--out", str(tmp_path / "g")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: grid dimensions must be >= 2") and err.count("\n") == 1
    assert not list(tmp_path.iterdir())


def _pole_patch(lat_lo):
    """A sphere chart whose last latitude row is the pole, where it degenerates."""
    return lambda args: sphere_patch(r=1.0, lat_range=(lat_lo, math.pi / 2))


@pytest.mark.parametrize("command", [["residual", "--alpha", "-2", "--expect-pass"], ["curvature"]])
def test_grid_with_degenerate_rows_succeeds_on_its_valid_samples(tmp_path, monkeypatch, capsys,
                                                                 command):
    monkeypatch.setattr(singmin.cli, "_make_patch", _pole_patch(0.5))
    assert run([*command, "--nu", "5", "--nv", "4", "--out", str(tmp_path / "g")]) == 0
    assert capsys.readouterr().err == ""
    doc = json.loads((tmp_path / "g.json").read_text())
    assert doc["rejected_samples"] == {"degenerate_metric": 4, "inconsistent_curvature": 0}
    assert len((tmp_path / "g.csv").read_text().splitlines()) == 1 + 16


@pytest.mark.parametrize("command", [["residual", "--alpha", "-2"], ["curvature"]])
def test_grid_with_every_sample_rejected_is_usage_error(tmp_path, monkeypatch, capsys, command):
    monkeypatch.setattr(singmin.cli, "_make_patch", _pole_patch(math.pi / 2))
    assert run([*command, "--nu", "5", "--nv", "4", "--out", str(tmp_path / "g")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: no valid sample among 20: ") and err.count("\n") == 1
    assert "degenerate_metric=20, inconsistent_curvature=0" in err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize(
    "make_args",
    [
        lambda d: ["prove", "--theorem", "3", "--json", str(d)],
        lambda d: ["residual", "--alpha", "-2", "--nu", "5", "--nv", "5",
                   "--out", str(d / "file" / "g")],
        lambda d: ["extrude", "--traj", str(d), "--out", str(d / "e")],
        lambda d: ["--config", str(d), "residual", "--alpha", "-2", "--out", str(d / "g")],
    ],
    ids=["prove-json-dir", "residual-out-under-file", "extrude-traj-dir", "config-dir"],
)
def test_unusable_path_is_usage_error(tmp_path, capsys, make_args):
    (tmp_path / "file").write_text("")
    assert run(make_args(tmp_path)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("t_range", ["1,1", "1,-1"])
def test_extrude_t_range_must_increase(tmp_path, capsys, t_range):
    out = tmp_path / "e"
    args = ["extrude", "--alpha", "1", "--smax", "0.5", "--nu", "3", "--nv", "3",
            "--t-range", t_range, "--out", str(out)]
    assert exit_code(args) == 2
    assert "expected lo < hi" in capsys.readouterr().err
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
