"""Residual of the defining curvature identity on grids.

The residual is reported in the polynomial form ``H*<Phi,a> - alpha*<N,a>``
(not divided by the height), which keeps it finite near the singular plane
and makes its absolute value invariant under flipping the chart orientation.
"""
from __future__ import annotations

import numpy as np

from ..errors import HalfspaceViolation, ParameterError
from .jets import CurvatureSample, dot, reject_first, valid_curvature
from .patches import SurfacePatch, unit_vec

#: default pass threshold for max |residual| on the analytic patches
RESIDUAL_TOL_ANALYTIC = 1e-9


def smr_residual(sample: CurvatureSample, alpha: float, a):
    """H*<Phi,a> - alpha*<N,a> at the sample's points; requires a finite
    alpha and every point strictly above the plane."""
    if not np.isfinite(alpha):
        raise ParameterError(f"alpha must be finite, got {alpha}")
    a = unit_vec(a, "a")
    height = dot(sample.point, a)
    reject_first(
        height <= 0.0,
        lambda i: HalfspaceViolation(
            f"<pos, a> = {np.ravel(height)[i]:.6g} is not positive"
        ),
    )
    return sample.H * height - alpha * dot(sample.normal, a)


def grid_report(patch: SurfacePatch, alpha: float, a, nu: int, nv: int) -> tuple[dict, dict]:
    """The residual on a uniform (nu x nv) grid over the domain, as a summary
    (the grid JSON document) and a table (each CSV column name, in header
    order, mapped to a 1-D array over the valid samples).

    Samples that ``valid_curvature`` rejects are skipped and counted by
    reason; statistics cover valid samples only.
    """
    u, v = patch.grid(nu, nv)
    unit = unit_vec(a, "a")
    keep, sample, violations, rejected = valid_curvature(patch.jet(u, v), unit)
    res = smr_residual(sample, alpha, a)
    abs_res = np.abs(res)
    x, y, z = sample.point.T
    table = {"u": u[keep], "v": v[keep], "x": x, "y": y, "z": z, "H": sample.H, "K": sample.K,
             "k1": sample.k1, "k2": sample.k2, "residual": res}
    summary = {
        "schema_version": 1,
        "patch": patch.name,
        "alpha": float(alpha),
        "direction": unit.tolist(),
        "grid": [nu, nv],
        "max_abs_residual": float(abs_res.max()),
        "mean_abs_residual": float(abs_res.mean()),
        "min_K": float(sample.K.min()),
        "max_K": float(sample.K.max()),
        "min_H": float(sample.H.min()),
        "max_H": float(sample.H.max()),
        "halfspace_violations": violations,
        # rejected samples inside the halfspace, by ``jets.REJECTION_REASONS``
        "rejected_samples": rejected,
        "valid_samples": len(res),
    }
    return summary, table
