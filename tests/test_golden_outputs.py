"""Every CLI output of a fixed argv set matches ``tests/golden_outputs.json``:
the exit code and the sha256 of stdout and of every file written.

The set is README's CLI examples (so the README and the golden cannot drift
apart) plus ``EXTRA_CASES``.  The test never writes the golden;
``tests/regen_golden_outputs.py`` is the one way to regenerate it.  A
failure names each case and file whose hash differs, so the file's name
points to the layer to look at.
"""
import contextlib
import hashlib
import io
import json
import os
import platform
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import singmin
from singmin.cli import main

GOLDEN_PATH = Path(__file__).with_name("golden_outputs.json")


def _readme_cli_examples() -> list[str]:
    """The ``singmin`` lines of the sh block under README's ``## CLI``."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("\n## CLI\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.startswith("singmin ")]


#: beyond README's examples: curvature on the other two patches, a plane and
#: a cylinder off the coordinate axes, a catenary that ends at y-min,
#: extrude --traj on README's traj.json, and tables that span more than one
#: 4,096-row block of the writers (grids of 10,000 and 6,400 rows, 20,001
#: states, and an OBJ of 5,000 vertices and 4,851 quads), and a grid whose
#: first two blocks lie wholly below the singular plane (7,900 halfspace
#: violations, 2,100 valid samples)
EXTRA_CASES = [
    "singmin curvature --patch plane --out curv",
    "singmin curvature --patch cylinder --out curv",
    "singmin residual --patch plane --a 0.6,0,0.8 --alpha -1 --out grid",
    "singmin curvature --patch cylinder --r 0.8 --axis 0.6,0.8,0 --out curv",
    "singmin catenary --alpha -2 --y0 1 --smax 10 --ymin 0.2 --out traj",
    "singmin catenary --alpha 1 --y0 1 --smax 2 --out traj"
    " && singmin extrude --traj traj.json --out rex",
    "singmin residual --patch sphere --alpha -2 --nu 100 --nv 100 --out grid",
    "singmin curvature --patch sphere --nu 80 --nv 80 --out curv",
    "singmin catenary --alpha 1 --y0 1 --smax 10 --out traj",
    "singmin extrude --alpha 1 --y0 1 --smax 2 --nu 100 --nv 50 --out ext",
    "singmin residual --patch sphere --r 1.3 --center=0,0,-1.2 --alpha -2 --nu 100 --nv 100"
    " --out grid",
]

CASES = [line.split("#")[0].strip() for line in _readme_cli_examples()] + EXTRA_CASES


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def record(case: str, workdir: Path) -> dict:
    """Run one case in the empty ``workdir`` as a shell runs its line: the
    ``&&``-joined commands in order, up to the first nonzero exit."""
    stdout = io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(stdout):
            for command in case.split(" && "):
                code = main(shlex.split(command)[1:])
                if code:
                    break
    finally:
        os.chdir(cwd)
    return {
        "exit": code,
        "stdout": _sha256(stdout.getvalue().encode()),
        "files": {p.name: _sha256(p.read_bytes()) for p in sorted(Path(workdir).iterdir())},
    }


def record_all(root) -> dict:
    """Every case's record, each case in its own new directory under ``root``."""
    records = {}
    for n, case in enumerate(CASES):
        workdir = Path(root) / str(n)
        workdir.mkdir()
        records[case] = record(case, workdir)
    return records


def assert_matches_golden(live: dict) -> None:
    """Fail with one line per case and exit code, stdout or output file whose
    hash differs from the golden."""
    golden = json.loads(GOLDEN_PATH.read_text())
    lines = []
    for case, got in live.items():
        want = golden[case]
        lines += [f"{case}: {key}" for key in ("exit", "stdout") if got[key] != want[key]]
        names = sorted(set(got["files"]) | set(want["files"]))
        lines += [f"{case}: {name}" for name in names
                  if got["files"].get(name) != want["files"].get(name)]
    assert not lines, "hash differs from the golden:\n" + "\n".join(lines)


def test_readme_lists_cli_examples():
    # an empty list would leave README's examples out of CASES unnoticed
    assert _readme_cli_examples()


def test_golden_lists_every_case_in_order():
    assert list(json.loads(GOLDEN_PATH.read_text())) == CASES


@pytest.mark.parametrize("case", CASES)
def test_case_matches_the_golden(tmp_path, case):
    assert_matches_golden({case: record(case, tmp_path)})


def _simd_dispatch_features() -> str:
    """The SIMD targets above its baseline that numpy dispatches to on this
    host, space separated; empty when there are none."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath as umath
    return " ".join(f for f in umath.__cpu_dispatch__ if umath.__cpu_features__.get(f))


def _environment_cases():
    # Prescott needs only SSE3, which every x86_64 CPU has
    yield pytest.param(
        "OPENBLAS_CORETYPE", "Prescott", id="openblas-prescott",
        marks=pytest.mark.skipif(platform.machine() != "x86_64",
                                 reason="Prescott is an x86_64 OpenBLAS kernel"))
    # numpy's SIMD loops cut back to its baseline
    features = _simd_dispatch_features()
    yield pytest.param(
        "NPY_DISABLE_CPU_FEATURES", features, id="numpy-simd-baseline",
        marks=pytest.mark.skipif(not features, reason="numpy dispatches no SIMD target here"))
    # str hashes follow the seed, and so does the order a set of strings iterates in
    yield pytest.param("PYTHONHASHSEED", "4242", id="hash-seed-4242")


@pytest.mark.parametrize("variable,value", _environment_cases())
def test_outputs_do_not_depend_on_the_environment(tmp_path, variable, value):
    # the variable is set for the child interpreter alone
    path = [str(Path(singmin.__file__).parents[1]), str(Path(__file__).parent)]
    env = {**os.environ, variable: value, "PYTHONPATH": os.pathsep.join(path)}
    script = ("import json, sys; from test_golden_outputs import record_all; "
              "print(json.dumps(record_all(sys.argv[1])))")
    child = subprocess.run([sys.executable, "-c", script, str(tmp_path)], env=env,
                           capture_output=True, text=True, timeout=120)
    assert child.returncode == 0, child.stderr
    assert_matches_golden(json.loads(child.stdout))
