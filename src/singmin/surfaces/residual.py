"""Residual of the defining curvature identity on grids.

The residual is reported in the polynomial form ``H*<Phi,a> - alpha*<N,a>``
(not divided by the height), which keeps it finite near the singular plane
and makes its absolute value invariant under flipping the chart orientation.
"""
from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from ..errors import HalfspaceViolation, ParameterError
from .jets import CurvatureSample, dot, reject_first, valid_curvature
from .patches import SurfacePatch, unit_vec

#: default pass threshold for max |residual| on the analytic patches
RESIDUAL_TOL_ANALYTIC = 1e-9

#: columns of ``GridReport.samples``, which is also the CSV row layout
GRID_CSV_COLUMNS = ("u", "v", "x", "y", "z", "H", "K", "k1", "k2", "residual")


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


@dataclass(frozen=True)
class GridReport:
    patch: str
    alpha: float
    direction: tuple[float, float, float]
    #: ``[nu, nv]``
    grid: list[int]
    max_abs_residual: float
    mean_abs_residual: float
    min_K: float
    max_K: float
    min_H: float
    max_H: float
    halfspace_violations: int
    #: rejected samples inside the halfspace, by ``jets.REJECTION_REASONS``
    rejected_samples: dict[str, int]
    #: one row per valid sample, row-major, in ``GRID_CSV_COLUMNS`` order
    samples: np.ndarray = field(repr=False, compare=False)

    def to_dict(self) -> dict:
        doc = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "samples"}
        return {"schema_version": 1, **doc, "valid_samples": len(self.samples)}


def grid_report(
    patch: SurfacePatch, alpha: float, a, nu: int, nv: int
) -> GridReport:
    """Evaluate the residual on a uniform (nu x nv) grid over the domain.

    Samples that ``valid_curvature`` rejects are skipped and counted by
    reason; statistics cover valid samples only.
    """
    u, v = patch.grid(nu, nv)
    unit = unit_vec(a, "a")
    keep, sample, violations, rejected = valid_curvature(patch.jet(u, v), unit)
    res = smr_residual(sample, alpha, a)
    abs_res = np.abs(res)
    rows = np.column_stack(
        (u[keep], v[keep], sample.point, sample.H, sample.K, sample.k1, sample.k2, res)
    )
    return GridReport(
        patch=patch.name,
        alpha=float(alpha),
        direction=tuple(float(x) for x in unit),
        grid=[nu, nv],
        max_abs_residual=float(abs_res.max()),
        mean_abs_residual=float(abs_res.mean()),
        min_K=float(sample.K.min()),
        max_K=float(sample.K.max()),
        min_H=float(sample.H.min()),
        max_H=float(sample.H.max()),
        halfspace_violations=violations,
        rejected_samples=rejected,
        samples=rows,
    )
