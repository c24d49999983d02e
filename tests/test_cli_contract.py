"""The CLI contract as a property: hostile flag values never break it.

Each example builds an argv for one numeric command, with some of its values
moved to a config file, and runs ``cli.main`` in-process.  The exit code is
0, 1 or 2.  Exit 2 is exactly one ``error:`` line on stderr and no output
file; exit 1 is one line naming the failed check; exit 0 leaves stderr empty
and prints only finite numbers.  No exception ever leaves ``main``.  A numpy
``RuntimeWarning`` reaches stderr in a real run, so a recorded warning counts
as a line of stderr here.
"""
import contextlib
import io
import math
import random
import re
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import given, note, settings, strategies as st

from singmin.cli import main

EXTREME = ("1e308", "-1e308", "1e200", "1e-300", "-0")
INVALID = ("nan", "inf", "-inf", "", "x")


def kinds(plain, extreme=lambda x: x, invalid=INVALID):
    """A flag's values: valid ones a user would type, the text of a given
    extreme value, and ones the flag must refuse."""
    return {"plain": plain, "extreme": extreme, "invalid": invalid}


def vector(*plain):
    """Three numbers; an extreme vector has the extreme value in every
    component."""
    return kinds(plain, lambda x: f"{x},{x},{x}",
                 INVALID + ("1,0", "0,0,1,0", "0,,1", "nan,0,1", "0,inf,1"))


# a grid is at most 5x5, and a curve takes at most about ten steps a direction
SIDE = kinds(("3", "4", "5"), lambda x: "2", ("1", "0", "-1", "", "x", "2.5"))
PATCH = {"patch": kinds(("plane", "sphere", "cylinder"), lambda x: "sphere", ("", "torus")),
         "r": kinds(("1", "0.5", "2")), "center": vector("0,0,0", "0,0,1", "1,-2,0.5"),
         "axis": vector("1,0,0", "0,1,0", "0.6,0.8,0"), "a": vector("0,0,1", "0.6,0,0.8"),
         "nu": SIDE, "nv": SIDE}
ALPHA = kinds(("1", "-1", "2", "-2", "0.5"))
CURVE = {"alpha": ALPHA, "y0": kinds(("1", "2", "0.5")), "x0": kinds(("0", "1", "-1")),
         "theta0": kinds(("0", "0.5", "-0.5")), "ymin": kinds(("1e-3", "0.1")),
         "smax": kinds(("0.5", "1")), "step": kinds(("0.1", "0.25"))}
FLAGS = {
    "residual": {**PATCH, "alpha": ALPHA, "threshold": kinds(("1e-9", "1")),
                 "expect-pass": kinds(("true", "false"), lambda x: "true", ("yes",))},
    "curvature": {**PATCH, "fd-h": kinds(("1e-3", "0.1"))},
    "catenary": CURVE,
    "extrude": {**CURVE, "v": vector("0,1,0", "1,0,0"), "a": vector("0,0,1"),
                "t-range": kinds(("-1,1", "0,2"), lambda x: f"0,{x}", INVALID + ("1", "0,1,2", "1,1")),
                "nu": SIDE, "nv": SIDE},
}
# never left out, so that no run takes a default grid or curve length
REQUIRED = {"alpha", "nu", "nv", "smax", "step"}
# a flag is left out, or gets a plain or the extreme value, in the ratio 1:2:1
KIND = ("absent", "plain", "plain", "extreme")
FORM = ("--{name}\0{value}", "--{name}={value}", "config")


def invocation(rng: random.Random, command: str) -> tuple[list[str], str]:
    """(argv, config text) for one run of ``command``.  Each flag is left out
    or gets a plain value or the run's one extreme value, and in one run of
    five one flag gets an invalid value instead.  A value goes on the
    command line (as ``--flag value`` or ``--flag=value``) or in the config
    file."""
    argv, config = [command], []
    flags = FLAGS[command]
    extreme = rng.choice(EXTREME)
    spoiled = rng.choice(sorted(flags) + [None] * 4 * len(flags))
    for name, values in flags.items():
        kind = "invalid" if name == spoiled else rng.choice(KIND)
        if kind == "absent":
            if name not in REQUIRED:
                continue
            kind = "plain"
        value = values["extreme"](extreme) if kind == "extreme" else rng.choice(values[kind])
        form = rng.choice(FORM)
        if form == "config":
            config.append(f"{name.replace('-', '_')} = {value}")
        elif name == "expect-pass" and value in ("true", "false"):
            argv += ["--expect-pass"] if value == "true" else []
        else:
            argv += form.format(name=name, value=value).split("\0")
    return argv, "\n".join(config)


def run(argv: list[str], config: str) -> tuple[int, str, list[str], list[Path]]:
    """Run ``main`` in a fresh directory: the exit code, stdout, the lines of
    stderr (recorded warnings last) and the files written under ``--out``."""
    with tempfile.TemporaryDirectory() as tmp:
        out_dir = Path(tmp) / "out"
        if config:
            (Path(tmp) / "run.cfg").write_text(config + "\n")
            argv = ["--config", str(Path(tmp) / "run.cfg"), *argv]
        stdout, stderr = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            warnings.simplefilter("always")
            rc = main([*argv, "--out", str(out_dir / "o")])
        lines = stderr.getvalue().splitlines()
        lines += [f"{w.category.__name__}: {w.message} ({w.filename}:{w.lineno})" for w in caught]
        return rc, stdout.getvalue(), lines, sorted(out_dir.rglob("*"))


def summary_numbers(text: str) -> list[float]:
    """Every token of a summary line that reads as a float."""
    found = []
    for token in re.split(r"[\s=,\[\]]+", text):
        with contextlib.suppress(ValueError):
            found.append(float(token))
    return found


# examples per command: a command whose breaks need a rarer mix of values
# gets more (about 2 ms an example on a 2-vCPU VM)
EXAMPLES = {"catenary": 200, "curvature": 400, "extrude": 600, "residual": 400}


@pytest.mark.parametrize("command", sorted(FLAGS))
def test_hostile_values_keep_the_cli_contract(command):
    # each example is one random argv: hypothesis supplies the seed, so that
    # its mutator, which copies one drawn value over another, does not spend
    # most examples on near-copies of earlier ones
    @given(rng=st.randoms(use_true_random=True))
    @settings(derandomize=True, max_examples=EXAMPLES[command], deadline=None)
    def check(rng):
        argv, config = invocation(rng, command)
        note(f"argv: {argv}\nconfig: {config!r}")
        rc, out, err, written = run(argv, config)
        assert rc in (0, 1, 2)
        if rc == 2:
            assert len(err) == 1 and err[0].startswith("error: "), err
            assert written == []
        elif rc == 1:
            assert len(err) == 1 and not err[0].startswith("error: "), err
        else:
            assert err == []
            assert all(math.isfinite(x) for x in summary_numbers(out)), out

    check()
