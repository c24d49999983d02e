"""Finite-difference jet oracle and the curvature grid report.

Independent cross-check for analytic jets: central differences built from
position evaluations only, second-order accurate in the step.
"""
from __future__ import annotations

import numpy as np

from ..errors import ParameterError
from .export import fmt
from .jets import Jet2Vec3, reject_first
from .patches import SurfacePatch, broadcast_uv, scan_grid


def stencil_fits(patch: SurfacePatch, u, v, h: float):
    """Mask of the samples whose whole finite-difference stencil at step h
    lies in the patch domain.  A step that is not positive is a
    ParameterError, and so is one too small to move some sample: the
    differences would divide 0 by 0 (or by an underflowed ``h*h``).

    The domain is a rectangle, so the two opposite corners ``(u-h, v-h)`` and
    ``(u+h, v+h)`` decide all nine stencil points.
    """
    if h <= 0.0:
        raise ParameterError(f"finite-difference step must be positive, got {h}")
    u, v = broadcast_uv(u, v)
    reject_first(
        (u - h == u) | (u + h == u) | (v - h == v) | (v + h == v),
        lambda k: ParameterError(
            f"finite-difference step h={h} does not move sample "
            f"({u.flat[k]:.6g}, {v.flat[k]:.6g}): some stencil point equals it"
        ),
    )
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
        duu=((pu - c) - (c - mu)) / (h * h),
        duv=(pp - pm - mp + mm) / (4.0 * h * h),
        dvv=((pv - c) - (c - mv)) / (h * h),
    )


def jet_deviation(a: Jet2Vec3, b: Jet2Vec3) -> float:
    """Max-norm distance between two jets over all derivative slots and all
    samples of the batch; a NaN in any slot gives NaN."""
    slots = ("du", "dv", "duu", "duv", "dvv")
    return float(np.max([np.max(np.abs(getattr(a, s) - getattr(b, s))) for s in slots]))


def curvature_report(patch: SurfacePatch, nu: int, nv: int, h: float, emit) -> dict:
    """Curvature on a uniform (nu x nv) grid over the domain, cross-checked
    against the finite-difference jet at step h: ``patches.scan_grid`` emits
    each row block's table ``u,v,E,F,G,L,M,N,H,K,k1,k2`` over its valid
    samples, and this returns the summary (the shapes of
    ``residual.grid_report``).

    The deviation covers the valid samples whose stencil fits the domain,
    and a grid with none is a ParameterError.
    """
    deviations = []

    def columns(u, v, jet, keep, sample):
        fits = stencil_fits(patch, u, v, h) & keep
        if fits.any():
            deviations.append(jet_deviation(fd_jet_oracle(patch, u[fits], v[fits], h), jet[fits]))
        return {name: getattr(sample, name) for name in "E F G L M N H K k1 k2".split()}

    summary = scan_grid(patch, nu, nv, None, columns, emit)
    if not deviations:
        raise ParameterError(
            f"no sample's finite-difference stencil at h={fmt(h)} fits inside the patch domain"
        )
    return {**summary, "fd_h": float(h), "fd_max_deviation": float(np.max(deviations))}
