"""Built-in surface patches with analytic jets, and the row-block scan of
their sample grids behind the grid commands."""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..errors import HalfspaceViolation, ParameterError
from .export import ROW_BLOCK
from .jets import REJECTION_REASONS, Jet2Vec3, dot, valid_curvature

UNIT_TOL = 1e-9

# Most samples one grid may have.  A grid command works one row block at a
# time, so its peak RSS is about 36 MB whatever the grid, plus 8 bytes per
# sample for the |residual| vector of residual and extrude: at this bound
# residual peaks at 50.5 MB and curvature at 35.6 MB, and each command runs
# for about 6 s (measured at 250,000, 1,000,000 and 2,000,000 samples on
# CPython 3.11, 2-vCPU Xeon VM).
MAX_SAMPLES = 2 * 10**6

_ZERO3 = np.zeros(3)
#: the z direction; a cylinder's angle is measured from the plane orthogonal to it
_UP = np.array([0.0, 0.0, 1.0])


def check_grid_size(nu: int, nv: int) -> None:
    """Refuse an (nu x nv) grid below 2 per side or above ``MAX_SAMPLES``."""
    if nu < 2 or nv < 2:
        raise ParameterError(f"grid dimensions must be >= 2, got {nu}x{nv}")
    if nu * nv > MAX_SAMPLES:
        raise ParameterError(
            f"a grid has at most {MAX_SAMPLES} samples, got {nu}x{nv} = {nu * nv}"
        )


def as_vec(v, name: str = "vector") -> np.ndarray:
    arr = np.asarray(v, dtype=float)
    if arr.shape != (3,):
        raise ParameterError(f"{name} must be a 3-vector, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ParameterError(f"{name} must be finite, got {arr.tolist()}")
    return arr


def unit_vec(v, name: str = "direction") -> np.ndarray:
    arr = as_vec(v, name)
    with np.errstate(over="ignore"):  # a huge component gives |v| = inf, refused below
        n = np.sqrt(dot(arr, arr))
    if not abs(n - 1.0) <= UNIT_TOL:
        raise ParameterError(f"{name} must be a unit vector (|{name}| = {n:.12g})")
    return arr / n


def perp_unit(a: np.ndarray) -> np.ndarray:
    """Deterministic unit vector orthogonal to a."""
    basis = np.eye(3)
    idx = int(np.argmin(np.abs(dot(basis, a))))
    e = basis[idx] - dot(basis[idx], a) * a
    return e / np.sqrt(dot(e, e))


def broadcast_uv(u, v) -> tuple[np.ndarray, np.ndarray]:
    """Sample coordinates as float arrays of one broadcast batch shape."""
    return np.broadcast_arrays(np.asarray(u, dtype=float), np.asarray(v, dtype=float))


def _const(vec: np.ndarray, shape: tuple) -> np.ndarray:
    """A constant vector field over the batch shape (read-only view)."""
    return np.broadcast_to(vec, shape + (3,))


@dataclass(frozen=True)
class SurfacePatch:
    """A name, a rectangular domain and a chart.

    ``chart(u, v)`` takes broadcastable ``u, v`` arrays and returns the
    positions, of shape ``broadcast(u, v).shape + (3,)``, and a function of
    no arguments that returns the partials ``(du, dv, duu, duv, dvv)`` of the
    same shape.  So a jet's ``value`` and a position come from one formula,
    and a position costs no derivative.  The chart should describe an
    immersion on its domain; ``jets.degenerate_metric`` flags the samples
    where it does not, and grid evaluations skip them.
    """

    name: str
    u_range: tuple[float, float]
    v_range: tuple[float, float]
    chart: Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, Callable[[], tuple]]]

    def jet(self, u, v) -> Jet2Vec3:
        value, partials = self.chart(u, v)
        return Jet2Vec3(value, *partials())

    def position(self, u, v) -> np.ndarray:
        return self.chart(u, v)[0]

    def contains(self, u, v):
        return (
            (self.u_range[0] <= u)
            & (u <= self.u_range[1])
            & (self.v_range[0] <= v)
            & (v <= self.v_range[1])
        )

    def grid(self, nu: int, nv: int, start: int, stop: int) -> tuple[np.ndarray, np.ndarray]:
        """Flat ``(u, v)`` arrays of samples ``start`` up to ``stop`` (or the
        end) of the uniform (nu x nv) grid over the domain, row-major: u
        varies slowest."""
        check_grid_size(nu, nv)
        us = np.linspace(self.u_range[0], self.u_range[1], nu)
        vs = np.linspace(self.v_range[0], self.v_range[1], nv)
        k = np.arange(start, min(stop, nu * nv))
        return us[k // nv], vs[k % nv]


def scan_grid(patch: SurfacePatch, nu: int, nv: int, a, columns, emit) -> dict:
    """Walk the uniform (nu x nv) grid over the domain one ``ROW_BLOCK`` of
    samples at a time: ``patch.jet``, then ``valid_curvature`` (inside the
    halfspace ``<x, a> > 0`` unless ``a`` is None), then the report's own
    ``columns(u, v, jet, keep, sample)``, whose table columns after ``u`` and
    ``v``, over the valid samples, go to ``emit(table, start)``, ``start``
    being the block's first grid sample.

    A grid with no valid sample is refused after the last block, with every
    rejection count on one line.  Returns the summary keys the grid reports
    share, with the direction and ``halfspace_violations`` if ``a`` is given.
    """
    check_grid_size(nu, nv)
    unit = None if a is None else unit_vec(a, "a")
    counts = np.zeros(3, dtype=int)
    for start in range(0, nu * nv, ROW_BLOCK):
        u, v = patch.grid(nu, nv, start, start + ROW_BLOCK)
        jet = patch.jet(u, v)
        keep, sample, rejected = valid_curvature(jet, unit)
        counts += rejected
        emit({"u": u[keep], "v": v[keep], **columns(u, v, jet, keep, sample)}, start)
    if counts.sum() == nu * nv:
        error = HalfspaceViolation if counts[0] == nu * nv else ParameterError
        names = ("halfspace_violations",) + REJECTION_REASONS
        raise error(f"no valid sample among {nu * nv}: "
                    + ", ".join(f"{name}={n}" for name, n in zip(names, counts)))
    summary = {"schema_version": 1, "patch": patch.name, "grid": [nu, nv],
               # rejected samples inside the halfspace, by ``jets.REJECTION_REASONS``
               "rejected_samples": dict(zip(REJECTION_REASONS, counts[1:].tolist()))}
    if unit is not None:
        summary.update(direction=unit.tolist(), halfspace_violations=int(counts[0]))
    return summary


def cylindrical_patch(name: str, curve, ruling: np.ndarray, u_range, v_range) -> SurfacePatch:
    """Cylindrical surface Phi(u, v) = gamma(u) + v*ruling over a curve.

    ``curve(u)`` returns gamma as a ``(..., 3)`` array over the shape of u,
    and a function of no arguments that returns ``(gamma', gamma'')`` of that
    shape; the jet has ``dv = ruling`` and ``duv = dvv = 0``.
    """

    def chart(u, v):
        u, v = broadcast_uv(u, v)
        gamma, derivatives = curve(u)

        def partials():
            d_u, d_uu = derivatives()
            zero = _const(_ZERO3, u.shape)
            return d_u, _const(ruling, u.shape), d_uu, zero, zero

        return gamma + v[..., None] * ruling, partials

    return SurfacePatch(name=name, u_range=u_range, v_range=v_range, chart=chart)


def plane_patch(a=(0.0, 0.0, 1.0)) -> SurfacePatch:
    """Plane containing the direction a: Phi(u, v) = u*a + v*e with e _|_ a,
    over u in [0.5, 1.5] and v in [-1, 1].

    The height over the singular plane is the u coordinate, so the domain
    stays inside the open halfspace.
    """
    a = unit_vec(a, "a")

    def line(u):
        return u[..., None] * a, lambda: (_const(a, u.shape), _const(_ZERO3, u.shape))

    return cylindrical_patch("plane", line, perp_unit(a), (0.5, 1.5), (-1.0, 1.0))


def sphere_patch(r: float = 1.0, center=(0.0, 0.0, 0.0)) -> SurfacePatch:
    """Sphere chart by latitude u in [0.1, 1.45] (from the equator toward +z)
    and longitude v in [0, 2*pi].

    The latitude band covers the upper hemisphere while staying clear of the
    pole (where the chart degenerates) and of the equator.
    """
    if not 0.0 < r < math.inf:
        raise ParameterError(f"sphere radius must be positive and finite, got {r}")
    center = as_vec(center, "center")

    def chart(u, v):
        u, v = broadcast_uv(u, v)
        cu, su = np.cos(u), np.sin(u)
        cv, sv = np.cos(v), np.sin(v)
        radial = np.stack([cu * cv, cu * sv, su], axis=-1)

        def partials():
            zero = np.zeros(u.shape)
            d_u = np.stack([-su * cv, -su * sv, cu], axis=-1)
            d_v = np.stack([-cu * sv, cu * cv, zero], axis=-1)
            d_uv = np.stack([su * sv, -su * cv, zero], axis=-1)
            d_vv = np.stack([-cu * cv, -cu * sv, zero], axis=-1)
            return r * d_u, r * d_v, -r * radial, r * d_uv, r * d_vv

        return center + r * radial, partials

    return SurfacePatch(
        name="sphere",
        u_range=(0.1, 1.45),
        v_range=(0.0, 2.0 * np.pi),
        chart=chart,
    )


def cylinder_patch(
    r: float = 1.0, axis=(1.0, 0.0, 0.0), center=(0.0, 0.0, 0.0)
) -> SurfacePatch:
    """Circular cylinder chart by angle u in [0.1, pi - 0.1], measured from
    the plane z = const through the center toward +z, and axial coordinate v
    in [-1, 1]; the axis must not be parallel to z."""
    if not 0.0 < r < math.inf:
        raise ParameterError(f"cylinder radius must be positive and finite, got {r}")
    axis = unit_vec(axis, "axis")
    center = as_vec(center, "center")
    n2 = _UP - dot(_UP, axis) * axis
    norm = np.sqrt(dot(n2, n2))
    if norm < 1e-12:
        shown = ", ".join(f"{x:.6g}" for x in axis)
        raise ParameterError(
            f"cylinder axis ({shown}) is parallel to the fixed z direction (0, 0, 1)"
        )
    n2 = n2 / norm
    n1 = np.cross(n2, axis)

    def circle(u):
        cu, su = np.cos(u)[..., None], np.sin(u)[..., None]
        radial = cu * n1 + su * n2
        return center + r * radial, lambda: (r * (-su * n1 + cu * n2), -r * radial)

    return cylindrical_patch("cylinder", circle, axis, (0.1, np.pi - 0.1), (-1.0, 1.0))
