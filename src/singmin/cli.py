"""Command-line entry point.

Subcommands: ``prove`` (run the exact checkpoint chains), ``residual``
(defining-identity residual on a grid), ``curvature`` (per-sample curvature
table plus finite-difference cross-check), ``catenary`` (integrate a
generating curve), ``extrude`` (build and export a cylindrical surface).

Exit codes: 0 success / all checks pass, 1 assertion failure, 2 usage or
parameter error, an input or output path that cannot be used included.
Grid commands skip and count rejected samples and judge the valid ones; a
grid with no valid sample exits 2.  Outputs are byte-deterministic for fixed
inputs, and are written under temporary names that take their own only when
the command gets through, so a run that exits 2 leaves no output file.
"""
from __future__ import annotations

import argparse
import contextlib
import math
import os
import re
import sys
from collections.abc import Iterator
from functools import partial
from pathlib import Path
from typing import TextIO

from .catenary import (
    CatenaryParams,
    CatenaryState,
    integrate,
    load_trajectory_json,
    to_extrusion,
    trajectory_blocks,
)
from .errors import ParameterError
from .proofs import THEOREMS, reports_to_json, run_all
from .surfaces import (
    RESIDUAL_TOL_ANALYTIC,
    curvature_report,
    cylinder_patch,
    grid_csv,
    grid_json,
    grid_report,
    obj_mesh,
    plane_patch,
    sphere_patch,
)
from .surfaces.export import blocks, fmt
from .surfaces.patches import check_grid_size

PATCH_KINDS = ("plane", "sphere", "cylinder")


def _finite(text: str) -> float:
    """A float flag value; NaN and inf are usage errors."""
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


# argparse names the type in its "invalid float value" message
_finite.__name__ = "float"


class _Parser(argparse.ArgumentParser):
    """An argument parser that reads a value starting with a minus sign as a
    value, so ``--t-range -2,2`` and ``--fd-h -1e-3`` parse as the ``=`` form,
    and that raises ParameterError where argparse would print its usage and
    exit, so every rejected value is one ``error:`` line from ``main``.

    argparse takes only plain negative numbers such as ``-2`` or ``-0.5`` for
    values; any other token that starts with ``-`` is read as a flag.  No flag
    of this CLI starts with a digit, a dot, ``inf`` or ``nan``.  Subcommand
    parsers are built from the same class.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(?:\.?\d|inf|nan)", re.IGNORECASE)

    def error(self, message: str):
        raise ParameterError(message)


def _out_prefix(text: str) -> Path:
    """An output path prefix; each output suffix is appended to its final name."""
    path = Path(text)
    if not path.name:
        raise argparse.ArgumentTypeError(f"expected a path prefix ending in a name, got {text!r}")
    return path


def _floats(text: str, form: str) -> tuple[float, ...]:
    """Comma-separated finite floats, as many as ``form`` (such as ``x,y,z``)
    names; a bad float is a usage error that quotes it."""
    parts = text.split(",")
    if len(parts) != form.count(",") + 1:
        raise argparse.ArgumentTypeError(f"expected {form} — got {text!r}")
    try:
        return tuple(_finite(p) for p in parts)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _vec(text: str) -> tuple[float, float, float]:
    return _floats(text, "x,y,z")  # type: ignore[return-value]


def _pair(text: str) -> tuple[float, float]:
    lo, hi = _floats(text, "lo,hi")
    if not lo < hi:
        raise argparse.ArgumentTypeError(f"expected lo < hi — got {text!r}")
    return lo, hi


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="singmin",
        description="Exact proof replay and numeric lab for "
        "alpha-singular minimal surfaces.",
    )
    parser.add_argument(
        "--config",
        type=Path,
        default=None,
        help="key = value file supplying defaults; a key's last line wins; flags override",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prove", help="run the exact checkpoint chains")
    p.add_argument("--theorem", type=int, choices=(1, 2, 3), default=None)
    p.add_argument("--json", type=Path, default=None, help="write the report document here")

    def patch_flags(q: argparse.ArgumentParser) -> None:
        q.add_argument("--patch", choices=PATCH_KINDS, default="sphere")
        q.add_argument("--r", type=_finite, default=1.0, help="radius")
        q.add_argument("--center", type=_vec, default=(0.0, 0.0, 0.0))
        q.add_argument("--axis", type=_vec, default=(1.0, 0.0, 0.0), help="cylinder axis")
        q.add_argument("--a", type=_vec, default=(0.0, 0.0, 1.0), help="reference direction")
        q.add_argument("--nu", type=int, default=50)
        q.add_argument("--nv", type=int, default=50)
        q.add_argument("--out", type=_out_prefix, default=Path("grid"), help="output path prefix")

    def curve_flags(q: argparse.ArgumentParser, smax: float) -> None:
        # a curve value that no flag or config key sets stays None, so
        # extrude can reject one given with --traj; _integrate_from_args
        # takes the others from curve_defaults
        q.add_argument("--y0", type=float, default=None)
        q.add_argument("--x0", type=float, default=None)
        q.add_argument("--theta0", type=float, default=None)
        q.add_argument("--step", type=float, default=None)
        q.add_argument("--smax", type=float, default=None)
        q.add_argument("--ymin", type=float, default=None)
        q.set_defaults(curve_defaults={
            "y0": 1.0, "x0": 0.0, "theta0": 0.0, "step": 1e-3, "smax": smax, "ymin": 1e-3,
        })

    q = sub.add_parser("residual", help="defining-identity residual on a grid")
    patch_flags(q)
    q.add_argument("--alpha", type=_finite, default=None)
    q.add_argument("--expect-pass", action="store_true",
                   help="exit 1 unless max |residual| is below the threshold")
    q.add_argument("--threshold", type=_finite, default=RESIDUAL_TOL_ANALYTIC,
                   help="pass threshold for max |residual|")

    q = sub.add_parser("curvature", help="curvature table and FD cross-check")
    patch_flags(q)
    q.add_argument("--fd-h", type=_finite, default=1e-3, help="finite-difference step")

    q = sub.add_parser("catenary", help="integrate a generating curve")
    q.add_argument("--alpha", type=float, default=None)
    curve_flags(q, smax=10.0)
    q.add_argument("--out", type=_out_prefix, default=Path("trajectory"))

    q = sub.add_parser("extrude", help="extrude a generating curve to a surface")
    q.add_argument("--alpha", type=_finite, default=None)
    q.add_argument("--traj", type=Path, default=None,
                   help="polyline JSON from the catenary command instead of "
                        "inline integration")
    curve_flags(q, smax=2.0)
    q.add_argument("--v", type=_vec, default=(0.0, 1.0, 0.0), help="ruling direction")
    q.add_argument("--a", type=_vec, default=(0.0, 0.0, 1.0), help="reference direction")
    q.add_argument("--t-range", type=_pair, default=(-1.0, 1.0))
    q.add_argument("--nu", type=int, default=50)
    q.add_argument("--nv", type=int, default=10)
    q.add_argument("--out", type=_out_prefix, default=Path("extrusion"))

    return parser


def _config_value(action: argparse.Action, text: str):
    """Parse one config value as the action's flag would parse it."""
    if isinstance(action, argparse._StoreTrueAction):
        if text.lower() not in ("true", "false"):
            raise ValueError("expected true or false")
        return text.lower() == "true"
    value = action.type(text) if action.type is not None else text
    if action.choices is not None and value not in action.choices:
        raise ValueError(f"expected one of {', '.join(map(str, action.choices))}")
    return value


def _load_config(parser: argparse.ArgumentParser, argv: list[str]) -> None:
    """Apply a key = value config file as parser defaults; flags override.

    Unknown keys and values the flag would not accept are rejected (exit 2
    via ParameterError); switches take ``true`` or ``false``.
    """
    probe = _Parser(add_help=False)
    probe.add_argument("--config", type=Path, default=None)
    known, _ = probe.parse_known_args(argv)
    if known.config is None:
        return
    path = known.config
    if not path.exists():
        raise ParameterError(f"config file {path} does not exist")
    actions: dict[str, list] = {}
    for action_parser in parser._subparsers._group_actions[0].choices.values():  # type: ignore[union-attr]
        for action in action_parser._actions:
            if not isinstance(action, argparse._HelpAction):
                actions.setdefault(action.dest, []).append((action_parser, action))
    try:
        text = path.read_text()
    except UnicodeDecodeError as exc:
        raise ParameterError(f"config file {path} is not UTF-8 text: {exc}") from None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ParameterError(f"{path}:{line_no}: expected key = value")
        key, _, value = line.partition("=")
        key = key.strip().replace("-", "_")
        if key not in actions:
            raise ParameterError(f"{path}:{line_no}: unknown key {key!r}")
        for action_parser, action in actions[key]:
            try:
                parsed = _config_value(action, value.strip())
            except (ValueError, TypeError, argparse.ArgumentTypeError) as exc:
                raise ParameterError(f"{path}:{line_no}: bad value for {key!r}: {exc}") from None
            action_parser.set_defaults(**{key: parsed})


def _make_patch(args: argparse.Namespace):
    if args.patch == "plane":
        return plane_patch(a=args.a)
    if args.patch == "sphere":
        return sphere_patch(r=args.r, center=args.center)
    return cylinder_patch(r=args.r, axis=args.axis, center=args.center)


@contextlib.contextmanager
def _outputs(prefix: Path, *suffixes: str) -> Iterator[list[TextIO]]:
    """Files named ``prefix`` with each suffix appended to its name, opened
    for writing.  They are written under temporary names in the same
    directory and take their own names only when the block ends without an
    exception; otherwise they, and any directory made for them, are removed,
    so a run that fails part way leaves no file."""
    paths = [Path(f"{prefix}{suffix}") for suffix in suffixes]
    parent = paths[0].parent
    made = [d for d in (parent, *parent.parents) if not d.exists()]
    temps = [path.with_name(f".{path.name}.partial") for path in paths]
    handles: list[TextIO] = []
    try:
        parent.mkdir(parents=True, exist_ok=True)
        for temp in temps:
            handles.append(temp.open("w"))
        yield handles
        for fh in handles:
            fh.close()
        for temp, path in zip(temps, paths):
            os.replace(temp, path)
    finally:
        for fh, temp in zip(handles, temps):
            fh.close()
            temp.unlink(missing_ok=True)
        for d in made:
            if d.exists() and not any(d.iterdir()):
                d.rmdir()


def _table_writer(fh: TextIO):
    """The ``emit`` of a grid report that writes each table block to ``fh`` as CSV."""
    return lambda table, start: fh.write(grid_csv(table, start))


def cmd_prove(args: argparse.Namespace) -> int:
    if args.theorem is None:
        reports = run_all()
    else:
        reports = [THEOREMS[args.theorem]()]
    for rep in reports:
        print(rep.to_text())
    if args.json is not None:
        with _outputs(args.json, "") as (doc,):
            doc.write(reports_to_json(reports) + "\n")
    return 0 if all(r.passed for r in reports) else 1


def cmd_residual(args: argparse.Namespace) -> int:
    patch = _make_patch(args)
    with _outputs(args.out, ".csv", ".json") as (csv, doc):
        summary = grid_report(patch, args.alpha, args.a, args.nu, args.nv, _table_writer(csv))
        doc.write(grid_json(summary))
    max_res = summary["max_abs_residual"]
    print(
        f"{patch.name}: alpha={fmt(args.alpha)} max|residual|={fmt(max_res)} "
        f"threshold={fmt(args.threshold)} violations={summary['halfspace_violations']}"
    )
    # written so that a NaN residual fails the expectation
    if args.expect_pass and not max_res <= args.threshold:
        print("expectation failed: residual above threshold", file=sys.stderr)
        return 1
    return 0


def cmd_curvature(args: argparse.Namespace) -> int:
    patch = _make_patch(args)
    with _outputs(args.out, ".csv", ".json") as (csv, doc):
        summary = curvature_report(patch, args.nu, args.nv, args.fd_h, _table_writer(csv))
        doc.write(grid_json(summary))
    print(f"{patch.name}: fd max deviation {fmt(summary['fd_max_deviation'])} "
          f"at h={fmt(args.fd_h)}")
    return 0


def _curve_values(args: argparse.Namespace) -> dict[str, float]:
    """The curve values a flag or a config key set."""
    return {
        name: getattr(args, name)
        for name in args.curve_defaults
        if getattr(args, name) is not None
    }


def _integrate_from_args(args: argparse.Namespace):
    c = {**args.curve_defaults, **_curve_values(args)}
    params = CatenaryParams(alpha=args.alpha, step=c["step"], smax=c["smax"], y_min=c["ymin"])
    init = CatenaryState(s=0.0, x=c["x0"], y=c["y0"], theta=c["theta0"])
    return integrate(init, params)


def cmd_catenary(args: argparse.Namespace) -> int:
    traj = _integrate_from_args(args)
    with _outputs(args.out, ".csv", ".json") as (csv, doc):
        for csv_text, json_text in trajectory_blocks(traj):
            csv.write(csv_text)
            doc.write(json_text)
    print(
        f"alpha={fmt(args.alpha)}: {len(traj.states)} states, "
        f"s in [{fmt(traj.s_range[0])}, {fmt(traj.s_range[1])}], {traj.termination}"
    )
    return 0


def cmd_extrude(args: argparse.Namespace) -> int:
    # a bad grid is refused before the curve is read or integrated
    check_grid_size(args.nu, args.nv)
    if args.traj is not None:
        given = _curve_values(args)
        if given:
            name, value = next(iter(given.items()))
            raise ParameterError(
                f"curve value {name} = {fmt(value)} cannot be used with --traj: "
                f"the trajectory file {args.traj} fixes the curve"
            )
        traj = load_trajectory_json(args.traj)
        if args.alpha is None:
            args.alpha = traj.alpha
        elif args.alpha != traj.alpha:
            raise ParameterError(
                f"alpha {fmt(args.alpha)} does not match alpha {fmt(traj.alpha)} "
                f"of trajectory file {args.traj}"
            )
    else:
        traj = _integrate_from_args(args)
    patch = to_extrusion(traj, v=args.v, a=args.a, t_range=args.t_range)
    with _outputs(args.out, ".csv", ".json", ".obj") as (csv, doc, obj):
        summary = grid_report(patch, args.alpha, args.a, args.nu, args.nv, _table_writer(csv))
        doc.write(grid_json(summary))
        obj.writelines(blocks(partial(obj_mesh, patch, args.nu, args.nv)))
    max_abs_k = max(abs(summary["min_K"]), abs(summary["max_K"]))
    print(
        f"extrusion: alpha={fmt(args.alpha)} max|residual|={fmt(summary['max_abs_residual'])} "
        f"max|K|={fmt(max_abs_k)} {traj.termination}"
    )
    return 0


_COMMANDS = {
    "prove": cmd_prove,
    "residual": cmd_residual,
    "curvature": cmd_curvature,
    "catenary": cmd_catenary,
    "extrude": cmd_extrude,
}


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        _load_config(parser, argv)
        args = parser.parse_args(argv)
        # alpha is required unless extrude --traj reads it from the file
        if getattr(args, "alpha", 0.0) is None and getattr(args, "traj", None) is None:
            raise ParameterError("alpha is required (flag --alpha or config key)")
        return _COMMANDS[args.command](args)
    except (ParameterError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
