"""Trajectory CSV and polyline JSON, byte-deterministic, and the one JSON reader."""
from __future__ import annotations

import json
import math
from collections.abc import Iterator
from pathlib import Path

import numpy as np

from ..errors import ParameterError
from ..surfaces.export import ROW_BLOCK, fmt, table_csv
from ..surfaces.jets import reject_first
from .ode import TERM_SMAX, TERM_YMIN, Trajectory, first_integral

TRAJECTORY_CSV_COLUMNS = ("s", "x", "y", "theta", "J")
# how far, in steps, a loaded trajectory's node may lie from s0 + k*step;
# files the catenary command writes are within about 1e-12
UNIFORM_STEP_TOL = 1e-6


def trajectory_csv(traj: Trajectory, start: int) -> str:
    """Rows ``start`` to ``start + ROW_BLOCK`` of the trajectory's CSV, under
    the header line in the block at 0."""
    states = traj.states[start:start + ROW_BLOCK]
    j = [first_integral(y, theta, traj.alpha) for y, theta in states[:, 2:].tolist()]
    return table_csv(TRAJECTORY_CSV_COLUMNS, [*states.T, j], start)


def trajectory_json(traj: Trajectory, csv: str, start: int) -> str:
    """The block of the ``json.dumps(doc, indent=2, sort_keys=True)`` text of
    the trajectory that holds the rows of ``csv``, the ``trajectory_csv``
    block at ``start``: the document's head comes with the block at 0 and its
    tail with the last block."""
    if start == 0:
        csv = csv.split("\n", 1)[1]  # past the header line
    # a block is rows of numbers, each ending in a line end; the line ends
    # become NULs first, since the text between two rows holds a comma
    rows = csv[:-1].replace("\n", "\0").replace(",", '",\n      "')
    text = '    [\n      "' + rows.replace("\0", '"\n    ],\n    [\n      "') + '"\n    ]'
    doc = {
        "schema_version": 1,
        "alpha": fmt(traj.alpha),
        "step": fmt(traj.step),
        "termination": traj.termination,
        "columns": list(TRAJECTORY_CSV_COLUMNS),
        "points": None,
    }
    head, tail = json.dumps(doc, indent=2, sort_keys=True).split('"points": null')
    if start == 0:
        text = head + '"points": [\n' + text
    if start + ROW_BLOCK < len(traj.states):
        return text + ",\n"
    return text + "\n  ]" + tail + "\n"  # the last row takes no comma


def trajectory_blocks(traj: Trajectory) -> Iterator[tuple[str, str]]:
    """The CSV and the JSON text of each ``ROW_BLOCK`` of states; the JSON
    block rewrites the CSV block, so each value is formatted once."""
    for start in range(0, len(traj.states), ROW_BLOCK):
        csv = trajectory_csv(traj, start)
        yield csv, trajectory_json(traj, csv, start)


def load_trajectory_json(path: Path) -> Trajectory:
    """The trajectory a ``trajectory_json`` file holds; ParameterError on its first fault."""
    if not path.exists():
        raise ParameterError(f"trajectory file {path} does not exist")
    try:
        doc = json.loads(path.read_text())
        points = np.array(doc["points"], dtype=float)
        if len(points) and points.shape[1:] != (len(TRAJECTORY_CSV_COLUMNS),):
            raise ValueError(f"'points' has shape {points.shape}, not (n, 5)")
        alpha = float(doc["alpha"])
        step = float(doc["step"])
        termination = doc["termination"]
    except KeyError as exc:
        raise ParameterError(f"trajectory file {path} has no {exc} key") from None
    except (ValueError, TypeError) as exc:
        raise ParameterError(f"trajectory file {path} is malformed: {exc}") from None
    if len(points) < 2:
        raise ParameterError(
            f"trajectory file {path} has fewer than two states (got {len(points)})"
        )
    traj = Trajectory(
        alpha=alpha, states=np.ascontiguousarray(points[..., :4]), step=step,
        termination=termination,
    )
    if not (math.isfinite(alpha) and math.isfinite(step) and step > 0.0):
        raise ParameterError(
            f"trajectory file {path} needs a finite alpha and a finite positive step"
        )
    if alpha == 0.0:
        raise ParameterError(f"trajectory file {path} has alpha = 0, which is excluded")
    states = traj.states
    reject_first(
        ~np.isfinite(states).all(axis=1),
        lambda k: ParameterError(f"trajectory file {path} has a NaN or inf in state {k}"),
    )
    reject_first(
        states[:, 2] <= 0.0,
        lambda k: ParameterError(f"trajectory file {path} has y <= 0 in state {k}"),
    )
    if termination not in (TERM_SMAX, TERM_YMIN):
        raise ParameterError(f"trajectory file {path} has unknown termination {termination!r}")
    # dense_state finds a node from the uniform step: node k must sit at s0 + k*step
    s = states[:, 0]
    if not (np.diff(s) > 0.0).all():
        raise ParameterError(f"trajectory file {path} has s values that do not increase")
    reject_first(
        ~(np.abs(s - (s[0] + np.arange(len(s)) * step)) <= UNIFORM_STEP_TOL * step),
        lambda k: ParameterError(
            f"trajectory file {path} is not sampled at its step {fmt(step)}: "
            f"state {k} lies at s = {fmt(s[k])}"
        ),
    )
    return traj
