"""Finite-difference jet oracle.

Independent cross-check for analytic jets: central differences built from
position evaluations only, second-order accurate in the step.
"""
from __future__ import annotations

import numpy as np

from ..errors import ParameterError
from .jets import Jet2Vec3, reject_first
from .patches import SurfacePatch, broadcast_uv


def stencil_fits(patch: SurfacePatch, u, v, h: float):
    """Mask of the samples whose whole finite-difference stencil at step h
    lies in the patch domain; a step that is not positive is a ParameterError.

    The domain is a rectangle, so the two opposite corners ``(u-h, v-h)`` and
    ``(u+h, v+h)`` decide all nine stencil points.
    """
    if h <= 0.0:
        raise ParameterError(f"finite-difference step must be positive, got {h}")
    return patch.contains(u - h, v - h) & patch.contains(u + h, v + h)


def fd_jet_oracle(patch: SurfacePatch, u, v, h: float) -> Jet2Vec3:
    u, v = broadcast_uv(u, v)
    reject_first(
        ~stencil_fits(patch, u, v, h),
        lambda k: ParameterError(
            f"finite-difference stencil at h={h} around sample "
            f"({u.flat[k]:.6g}, {v.flat[k]:.6g}) leaves the patch domain"
        ),
    )
    p = patch.position
    c = p(u, v)
    pu = p(u + h, v)
    mu = p(u - h, v)
    pv = p(u, v + h)
    mv = p(u, v - h)
    pp = p(u + h, v + h)
    pm = p(u + h, v - h)
    mp = p(u - h, v + h)
    mm = p(u - h, v - h)
    return Jet2Vec3(
        value=c,
        du=(pu - mu) / (2.0 * h),
        dv=(pv - mv) / (2.0 * h),
        duu=(pu - 2.0 * c + mu) / (h * h),
        duv=(pp - pm - mp + mm) / (4.0 * h * h),
        dvv=(pv - 2.0 * c + mv) / (h * h),
    )


def jet_deviation(a: Jet2Vec3, b: Jet2Vec3) -> float:
    """Max-norm distance between two jets over all derivative slots and all
    samples of the batch; a NaN in any slot gives NaN."""
    slots = ("du", "dv", "duu", "duv", "dvv")
    return float(np.max([np.max(np.abs(getattr(a, s) - getattr(b, s))) for s in slots]))
