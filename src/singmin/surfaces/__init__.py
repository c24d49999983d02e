"""Numeric differential geometry of parametric surface patches."""
from .export import CURVATURE_CSV_COLUMNS, curvature_csv, grid_csv, grid_json, obj_mesh
from .fd import fd_jet_oracle, jet_deviation, stencil_fits
from .jets import (
    CurvatureSample,
    Jet2Vec3,
    curvature_sample,
    degenerate_metric,
    dot,
    inconsistent_curvature,
    valid_curvature,
)
from .patches import SurfacePatch, cylinder_patch, plane_patch, sphere_patch
from .residual import (
    GRID_CSV_COLUMNS,
    RESIDUAL_TOL_ANALYTIC,
    GridReport,
    grid_report,
    smr_residual,
)

__all__ = [
    "CURVATURE_CSV_COLUMNS",
    "CurvatureSample",
    "GRID_CSV_COLUMNS",
    "GridReport",
    "Jet2Vec3",
    "RESIDUAL_TOL_ANALYTIC",
    "SurfacePatch",
    "curvature_csv",
    "curvature_sample",
    "cylinder_patch",
    "degenerate_metric",
    "dot",
    "fd_jet_oracle",
    "grid_csv",
    "grid_json",
    "grid_report",
    "inconsistent_curvature",
    "jet_deviation",
    "obj_mesh",
    "plane_patch",
    "smr_residual",
    "sphere_patch",
    "stencil_fits",
    "valid_curvature",
]
