"""Finite-difference jet oracle.

Independent cross-check for analytic jets: central differences built from
position evaluations only, second-order accurate in the step.
"""
from __future__ import annotations

import numpy as np

from ..errors import ParameterError
from .jets import Jet2Vec3, reject_first
from .patches import SurfacePatch, broadcast_uv


def fd_jet_oracle(patch: SurfacePatch, u, v, h: float) -> Jet2Vec3:
    if h <= 0.0:
        raise ParameterError(f"finite-difference step must be positive, got {h}")
    u, v = broadcast_uv(u, v)
    offsets = [(du, dv) for du in (-h, 0.0, h) for dv in (-h, 0.0, h)]
    outside = np.stack(
        [~patch.contains(u + du, v + dv) for du, dv in offsets], axis=-1
    )

    def stencil_error(k: int) -> ParameterError:
        du, dv = offsets[k % len(offsets)]
        cu = u.flat[k // len(offsets)] + du
        cv = v.flat[k // len(offsets)] + dv
        return ParameterError(
            f"stencil point ({cu:.6g}, {cv:.6g}) is outside the patch domain"
        )

    reject_first(outside, stencil_error)
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
