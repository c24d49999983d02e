"""Planar generating-curve integration and extrusion to cylindrical patches."""
from .export import (
    TRAJECTORY_CSV_COLUMNS,
    load_trajectory_json,
    trajectory_blocks,
    trajectory_csv,
    trajectory_json,
)
from .extrude import dense_state, to_extrusion
from .ode import (
    TERM_SMAX,
    TERM_YMIN,
    CatenaryParams,
    CatenaryState,
    Trajectory,
    first_integral,
    integrate,
)

__all__ = [
    "CatenaryParams",
    "CatenaryState",
    "TERM_SMAX",
    "TERM_YMIN",
    "TRAJECTORY_CSV_COLUMNS",
    "Trajectory",
    "dense_state",
    "first_integral",
    "integrate",
    "load_trajectory_json",
    "to_extrusion",
    "trajectory_blocks",
    "trajectory_csv",
    "trajectory_json",
]
