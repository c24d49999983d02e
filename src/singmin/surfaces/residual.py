"""Residual of the defining curvature identity on grids.

The residual is reported in the polynomial form ``H*<Phi,a> - alpha*<N,a>``
(not divided by the height), which keeps it finite near the singular plane
and makes its absolute value invariant under flipping the chart orientation.
"""
from __future__ import annotations

import numpy as np

from ..errors import HalfspaceViolation, ParameterError
from .jets import CurvatureSample, dot, reject_first
from .patches import SurfacePatch, scan_grid, unit_vec

#: default pass threshold for max |residual| on the analytic patches
RESIDUAL_TOL_ANALYTIC = 1e-9


def smr_residual(sample: CurvatureSample, alpha: float, a):
    """H*<Phi,a> - alpha*<N,a> at the sample's points; requires a finite
    alpha, every point strictly above the plane, and a residual that does
    not overflow."""
    if not np.isfinite(alpha):
        raise ParameterError(f"alpha must be finite, got {alpha}")
    a = unit_vec(a, "a")
    with np.errstate(over="ignore", invalid="ignore"):
        height = dot(sample.point, a)
        res = sample.H * height - alpha * dot(sample.normal, a)
    reject_first(
        height <= 0.0,
        lambda i: HalfspaceViolation(
            f"<pos, a> = {np.ravel(height)[i]:.6g} is not positive"
        ),
    )
    reject_first(
        ~np.isfinite(res),
        lambda i: ParameterError(
            f"residual H*<x,a> - alpha*<N,a> overflows at H = "
            f"{np.ravel(sample.H)[i]:.6g}, <x,a> = {np.ravel(height)[i]:.6g}"
        ),
    )
    return res


def _mean_abs(abs_res: np.ndarray, top: float) -> float:
    """``np.mean`` of the |residual| vector, whose largest value is ``top``;
    when the sum of finite values overflows, the mean of the values scaled by
    ``top``, times ``top``."""
    with np.errstate(over="ignore"):
        mean = np.mean(abs_res)
    if np.isinf(mean) and np.isfinite(top):
        mean = top * np.mean(abs_res / top)
    return float(mean)


def grid_report(patch: SurfacePatch, alpha: float, a, nu: int, nv: int, emit) -> dict:
    """The residual on a uniform (nu x nv) grid over the domain, inside the
    halfspace ``<x, a> > 0``: ``patches.scan_grid`` emits each row block's
    table ``u,v,x,y,z,H,K,k1,k2`` and ``residual`` over its valid samples,
    and this returns the summary (the grid JSON document).

    Statistics cover the valid samples only.  Of the whole grid only the
    |residual| vector is kept, for its mean.
    """
    abs_res = None
    valid = 0
    ranges = []  # min K, max K, min H, max H of each block with a valid sample

    def columns(u, v, jet, keep, sample):
        nonlocal abs_res, valid
        if abs_res is None:  # allocated once the grid is known to be valid
            abs_res = np.empty(nu * nv)
        res = smr_residual(sample, alpha, a)
        abs_res[valid:valid + len(res)] = np.abs(res)
        valid += len(res)
        if len(res):
            ranges.append([sample.K.min(), sample.K.max(), sample.H.min(), sample.H.max()])
        x, y, z = sample.point.T
        return {"x": x, "y": y, "z": z, "H": sample.H, "K": sample.K, "k1": sample.k1,
                "k2": sample.k2, "residual": res}

    summary = scan_grid(patch, nu, nv, a, columns, emit)
    abs_res = abs_res[:valid]
    top = float(abs_res.max())
    min_k, _, min_h, _ = np.min(ranges, axis=0).tolist()
    _, max_k, _, max_h = np.max(ranges, axis=0).tolist()
    return {
        **summary,
        "alpha": float(alpha),
        "max_abs_residual": top,
        "mean_abs_residual": _mean_abs(abs_res, top),
        "min_K": min_k,
        "max_K": max_k,
        "min_H": min_h,
        "max_H": max_h,
        "valid_samples": valid,
    }
