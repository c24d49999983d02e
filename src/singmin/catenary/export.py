"""Trajectory serialization (CSV and polyline JSON), byte-deterministic."""
from __future__ import annotations

import json

from ..surfaces.export import fmt
from .ode import Trajectory, first_integral

TRAJECTORY_CSV_COLUMNS = ("s", "x", "y", "theta", "J")


def trajectory_csv(traj: Trajectory) -> str:
    lines = [",".join(TRAJECTORY_CSV_COLUMNS)]
    for st in traj.states:
        j = first_integral(st, traj.alpha)
        lines.append(",".join(fmt(v) for v in (st.s, st.x, st.y, st.theta, j)))
    return "\n".join(lines) + "\n"


def trajectory_json(traj: Trajectory) -> str:
    doc = {
        "schema_version": 1,
        "alpha": fmt(traj.alpha),
        "step": fmt(traj.step),
        "termination": traj.termination,
        "columns": list(TRAJECTORY_CSV_COLUMNS),
        "points": [
            [fmt(st.s), fmt(st.x), fmt(st.y), fmt(st.theta), fmt(first_integral(st, traj.alpha))]
            for st in traj.states
        ],
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"
