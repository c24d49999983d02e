"""Command-line entry point.

Subcommands: ``prove`` (run the exact checkpoint chains), ``residual``
(defining-identity residual on a grid), ``curvature`` (per-sample curvature
table plus finite-difference cross-check), ``catenary`` (integrate a
generating curve), ``extrude`` (build and export a cylindrical surface).

Exit codes: 0 success / all checks pass, 1 assertion failure, 2 usage or
parameter error, an input or output path that cannot be used included.
Grid commands skip and count rejected samples and judge the valid ones; a
grid with no valid sample exits 2.  Outputs are byte-deterministic for fixed
inputs.
"""
from __future__ import annotations

import argparse
import json
import math
import re
import sys
from pathlib import Path

from .catenary import (
    CatenaryParams,
    CatenaryState,
    integrate,
    load_trajectory_json,
    to_extrusion,
    trajectory_csv,
    trajectory_json,
)
from .errors import ParameterError
from .proofs import THEOREMS, reports_to_json, run_all
from .surfaces import (
    builtin_patch,
    curvature_csv,
    default_residual_tol,
    fd_jet_oracle,
    grid_csv,
    grid_json,
    grid_report,
    jet_deviation,
    obj_mesh,
    valid_curvature,
)
from .surfaces.export import fmt

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
    value, so ``--t-range -2,2`` and ``--fd-h -1e-3`` parse as the ``=`` form.

    argparse takes only plain negative numbers such as ``-2`` or ``-0.5`` for
    values; any other token that starts with ``-`` is read as a flag.  No flag
    of this CLI starts with a digit, a dot, ``inf`` or ``nan``.  Subcommand
    parsers are built from the same class.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(?:\.?\d|inf|nan)", re.IGNORECASE)


def _vec(text: str) -> tuple[float, float, float]:
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"expected x,y,z — got {text!r}")
    try:
        return tuple(_finite(p) for p in parts)  # type: ignore[return-value]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _pair(text: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected lo,hi — got {text!r}")
    lo, hi = _finite(parts[0]), _finite(parts[1])
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
        help="key = value file supplying defaults; flags override",
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
        q.add_argument("--out", type=Path, default=Path("grid"), help="output path prefix")

    q = sub.add_parser("residual", help="defining-identity residual on a grid")
    patch_flags(q)
    q.add_argument("--alpha", type=_finite, default=None)
    q.add_argument("--expect-pass", action="store_true",
                   help="exit 1 unless max |residual| is below the threshold")
    q.add_argument("--threshold", type=_finite, default=None,
                   help="override the per-patch default pass threshold")

    q = sub.add_parser("curvature", help="curvature table and FD cross-check")
    patch_flags(q)
    q.add_argument("--fd-h", type=_finite, default=1e-3, help="finite-difference step")

    q = sub.add_parser("catenary", help="integrate a generating curve")
    q.add_argument("--alpha", type=float, default=None)
    q.add_argument("--y0", type=float, default=1.0)
    q.add_argument("--x0", type=float, default=0.0)
    q.add_argument("--theta0", type=float, default=0.0)
    q.add_argument("--step", type=float, default=1e-3)
    q.add_argument("--smax", type=float, default=10.0)
    q.add_argument("--ymin", type=float, default=1e-3)
    q.add_argument("--out", type=Path, default=Path("trajectory"))

    q = sub.add_parser("extrude", help="extrude a generating curve to a surface")
    q.add_argument("--alpha", type=_finite, default=None)
    q.add_argument("--traj", type=Path, default=None,
                   help="polyline JSON from the catenary command instead of "
                        "inline integration")
    q.add_argument("--y0", type=float, default=1.0)
    q.add_argument("--x0", type=float, default=0.0)
    q.add_argument("--theta0", type=float, default=0.0)
    q.add_argument("--step", type=float, default=1e-3)
    q.add_argument("--smax", type=float, default=2.0)
    q.add_argument("--ymin", type=float, default=1e-3)
    q.add_argument("--v", type=_vec, default=(0.0, 1.0, 0.0), help="ruling direction")
    q.add_argument("--a", type=_vec, default=(0.0, 0.0, 1.0), help="reference direction")
    q.add_argument("--t-range", type=_pair, default=(-1.0, 1.0))
    q.add_argument("--nu", type=int, default=50)
    q.add_argument("--nv", type=int, default=10)
    q.add_argument("--out", type=Path, default=Path("extrusion"))

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


def _load_config(parser: argparse.ArgumentParser, argv: list[str]) -> list[str]:
    """Apply a key = value config file as parser defaults; flags override.

    Unknown keys and values the flag would not accept are rejected (exit 2
    via ParameterError); switches take ``true`` or ``false``.
    """
    probe = _Parser(add_help=False)
    probe.add_argument("--config", type=Path, default=None)
    known, _ = probe.parse_known_args(argv)
    if known.config is None:
        return argv
    path = known.config
    if not path.exists():
        raise ParameterError(f"config file {path} does not exist")
    actions: dict[str, list] = {}
    for action_parser in parser._subparsers._group_actions[0].choices.values():  # type: ignore[union-attr]
        for action in action_parser._actions:
            if not isinstance(action, argparse._HelpAction):
                actions.setdefault(action.dest, []).append((action_parser, action))
    for line_no, raw in enumerate(path.read_text().splitlines(), start=1):
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
    return argv


def _make_patch(args: argparse.Namespace):
    if args.patch == "plane":
        return builtin_patch("plane", a=args.a)
    if args.patch == "sphere":
        return builtin_patch("sphere", r=args.r, center=args.center)
    return builtin_patch("cylinder", r=args.r, axis=args.axis, center=args.center)


def _write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def cmd_prove(args: argparse.Namespace) -> int:
    if args.theorem is None:
        reports = run_all()
    else:
        reports = [THEOREMS[args.theorem]()]
    for rep in reports:
        print(rep.to_text())
    if args.json is not None:
        _write(args.json, reports_to_json(reports) + "\n")
    return 0 if all(r.passed for r in reports) else 1


def cmd_residual(args: argparse.Namespace) -> int:
    patch = _make_patch(args)
    report = grid_report(patch, args.alpha, args.a, args.nu, args.nv)
    _write(args.out.with_suffix(".json"), grid_json(report))
    _write(args.out.with_suffix(".csv"), grid_csv(report))
    threshold = args.threshold if args.threshold is not None else default_residual_tol(patch)
    print(
        f"{patch.name}: alpha={fmt(args.alpha)} max|residual|={fmt(report.max_abs_residual)} "
        f"threshold={fmt(threshold)} violations={report.halfspace_violations}"
    )
    # written so that a NaN residual fails the expectation
    if args.expect_pass and not report.max_abs_residual <= threshold:
        print("expectation failed: residual above threshold", file=sys.stderr)
        return 1
    return 0


def cmd_curvature(args: argparse.Namespace) -> int:
    patch = _make_patch(args)
    h = args.fd_h
    if h <= 0.0:
        raise ParameterError(f"finite-difference step must be positive, got {h}")

    u, v = patch.grid(args.nu, args.nv)
    jet = patch.jet(u, v)
    keep, s, _, rejected = valid_curvature(jet)
    fits = (
        keep
        & patch.contains(u - h, v - h)
        & patch.contains(u + h, v + h)
        & patch.contains(u + h, v - h)
        & patch.contains(u - h, v + h)
    )
    if not fits.any():
        raise ParameterError(
            f"no sample's finite-difference stencil at h={fmt(h)} fits inside the patch domain"
        )
    max_dev = jet_deviation(fd_jet_oracle(patch, u[fits], v[fits], h), jet[fits])
    _write(args.out.with_suffix(".csv"), curvature_csv(u[keep], v[keep], s))
    summary = {
        "schema_version": 1,
        "patch": patch.name,
        "fd_h": fmt(h),
        "fd_max_deviation": fmt(max_dev),
        "grid": [args.nu, args.nv],
        "rejected_samples": rejected,
    }
    _write(args.out.with_suffix(".json"), json.dumps(summary, indent=2, sort_keys=True) + "\n")
    print(f"{patch.name}: fd max deviation {fmt(max_dev)} at h={fmt(h)}")
    return 0


def _integrate_from_args(args: argparse.Namespace):
    params = CatenaryParams(
        alpha=args.alpha, step=args.step, smax=args.smax, y_min=args.ymin
    )
    init = CatenaryState(s=0.0, x=args.x0, y=args.y0, theta=args.theta0)
    return integrate(init, params)


def cmd_catenary(args: argparse.Namespace) -> int:
    traj = _integrate_from_args(args)
    _write(args.out.with_suffix(".csv"), trajectory_csv(traj))
    _write(args.out.with_suffix(".json"), trajectory_json(traj))
    print(
        f"alpha={fmt(args.alpha)}: {len(traj.states)} states, "
        f"s in [{fmt(traj.s_range[0])}, {fmt(traj.s_range[1])}], {traj.termination}"
    )
    return 0


def cmd_extrude(args: argparse.Namespace) -> int:
    if args.traj is not None:
        traj = load_trajectory_json(args.traj)
        if args.alpha is None:
            args.alpha = traj.alpha
        elif args.alpha != traj.alpha:
            raise ParameterError(
                f"alpha {fmt(args.alpha)} does not match alpha {fmt(traj.alpha)} "
                f"of trajectory file {args.traj}"
            )
    else:
        if args.alpha is None:
            raise ParameterError("alpha is required (flag --alpha or config key)")
        traj = _integrate_from_args(args)
    patch = to_extrusion(traj, v=args.v, a=args.a, t_range=args.t_range)
    report = grid_report(patch, args.alpha, args.a, args.nu, args.nv)
    _write(args.out.with_suffix(".obj"), obj_mesh(patch, args.nu, args.nv))
    _write(args.out.with_suffix(".json"), grid_json(report))
    _write(args.out.with_suffix(".csv"), grid_csv(report))
    max_abs_k = max(abs(report.min_K), abs(report.max_K))
    print(
        f"extrusion: alpha={fmt(args.alpha)} max|residual|={fmt(report.max_abs_residual)} "
        f"max|K|={fmt(max_abs_k)} {patch.metadata['termination']}"
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
        if getattr(args, "alpha", 0.0) is None and args.command != "extrude":
            raise ParameterError("alpha is required (flag --alpha or config key)")
        return _COMMANDS[args.command](args)
    except (ParameterError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
