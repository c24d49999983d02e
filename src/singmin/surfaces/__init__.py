"""Numeric differential geometry of parametric surface patches."""
from .export import grid_csv, grid_json, obj_mesh
from .fd import curvature_report, fd_jet_oracle, jet_deviation, stencil_fits
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
from .residual import RESIDUAL_TOL_ANALYTIC, grid_report, smr_residual

__all__ = [
    "CurvatureSample",
    "Jet2Vec3",
    "RESIDUAL_TOL_ANALYTIC",
    "SurfacePatch",
    "curvature_report",
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
