"""Numeric differential geometry of parametric surface patches."""
from .export import CURVATURE_CSV_COLUMNS, curvature_csv, grid_csv, grid_json, obj_mesh
from .fd import fd_jet_oracle, jet_deviation
from .jets import (
    CurvatureSample,
    FundamentalForms,
    Jet2Vec3,
    curvature_sample,
    dot,
    fundamental_forms,
    in_sample_order,
    shape_data,
)
from .patches import (
    SurfacePatch,
    builtin_patch,
    cylinder_patch,
    plane_patch,
    sphere_patch,
    swap_parameters,
)
from .residual import (
    GRID_CSV_COLUMNS,
    RESIDUAL_TOL_ANALYTIC,
    RESIDUAL_TOL_ODE,
    GridReport,
    default_residual_tol,
    grid_report,
    smr_residual,
)

__all__ = [
    "CURVATURE_CSV_COLUMNS",
    "CurvatureSample",
    "FundamentalForms",
    "GRID_CSV_COLUMNS",
    "GridReport",
    "Jet2Vec3",
    "RESIDUAL_TOL_ANALYTIC",
    "RESIDUAL_TOL_ODE",
    "SurfacePatch",
    "builtin_patch",
    "curvature_csv",
    "curvature_sample",
    "cylinder_patch",
    "default_residual_tol",
    "dot",
    "fd_jet_oracle",
    "fundamental_forms",
    "grid_csv",
    "grid_json",
    "grid_report",
    "in_sample_order",
    "jet_deviation",
    "obj_mesh",
    "plane_patch",
    "shape_data",
    "smr_residual",
    "sphere_patch",
    "swap_parameters",
]
