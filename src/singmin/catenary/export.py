"""Trajectory serialization (CSV and polyline JSON), byte-deterministic."""
from __future__ import annotations

import json

from ..surfaces.export import fmt, table_csv
from .ode import Trajectory

TRAJECTORY_CSV_COLUMNS = ("s", "x", "y", "theta", "J")


def trajectory_csv(traj: Trajectory) -> str:
    return table_csv(TRAJECTORY_CSV_COLUMNS, traj.text_columns)


def trajectory_json(traj: Trajectory) -> str:
    doc = {
        "schema_version": 1,
        "alpha": fmt(traj.alpha),
        "step": fmt(traj.step),
        "termination": traj.termination,
        "columns": list(TRAJECTORY_CSV_COLUMNS),
        "points": list(map(list, zip(*(c.tolist() for c in traj.text_columns)))),
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"
