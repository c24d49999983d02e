"""Built-in surface patches with analytic jets."""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..errors import ParameterError
from .jets import Jet2Vec3, dot

UNIT_TOL = 1e-9

# Most samples one grid may have.  A grid command's peak RSS grows by about
# 0.8 KB per sample (curvature with its FD oracle; residual 0.3 KB, extrude
# 0.35 KB, now that tables are written one row block at a time; measured at
# 90,000 and 250,000 samples on CPython 3.11), so the bound keeps a run under
# about 2 GB.
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
    """A name, a rectangular domain and an evaluator producing exact jets.

    The evaluator takes broadcastable ``u, v`` arrays and returns a jet whose
    fields have shape ``broadcast(u, v).shape + (3,)``.  It should describe an
    immersion on its domain; ``jets.degenerate_metric`` flags the samples
    where it does not, and grid evaluations skip them.
    """

    name: str
    u_range: tuple[float, float]
    v_range: tuple[float, float]
    evaluator: Callable[[np.ndarray, np.ndarray], Jet2Vec3]

    def jet(self, u, v) -> Jet2Vec3:
        return self.evaluator(u, v)

    def position(self, u, v) -> np.ndarray:
        return self.evaluator(u, v).value

    def contains(self, u, v):
        return (
            (self.u_range[0] <= u)
            & (u <= self.u_range[1])
            & (self.v_range[0] <= v)
            & (v <= self.v_range[1])
        )

    def grid(self, nu: int, nv: int) -> tuple[np.ndarray, np.ndarray]:
        """Flat ``(u, v)`` arrays of the uniform (nu x nv) grid over the
        domain, row-major: u varies slowest."""
        check_grid_size(nu, nv)
        us = np.linspace(self.u_range[0], self.u_range[1], nu)
        vs = np.linspace(self.v_range[0], self.v_range[1], nv)
        return np.repeat(us, nv), np.tile(vs, nu)


def plane_patch(a=(0.0, 0.0, 1.0)) -> SurfacePatch:
    """Plane containing the direction a: Phi(u, v) = u*a + v*e with e _|_ a,
    over u in [0.5, 1.5] and v in [-1, 1].

    The height over the singular plane is the u coordinate, so the domain
    stays inside the open halfspace.
    """
    a = unit_vec(a, "a")
    e = perp_unit(a)

    def ev(u, v) -> Jet2Vec3:
        u, v = broadcast_uv(u, v)
        zero = _const(_ZERO3, u.shape)
        return Jet2Vec3(
            value=u[..., None] * a + v[..., None] * e,
            du=_const(a, u.shape),
            dv=_const(e, u.shape),
            duu=zero,
            duv=zero,
            dvv=zero,
        )

    return SurfacePatch(
        name="plane",
        u_range=(0.5, 1.5),
        v_range=(-1.0, 1.0),
        evaluator=ev,
    )


def sphere_patch(r: float = 1.0, center=(0.0, 0.0, 0.0)) -> SurfacePatch:
    """Sphere chart by latitude u in [0.1, 1.45] (from the equator toward +z)
    and longitude v in [0, 2*pi].

    The latitude band covers the upper hemisphere while staying clear of the
    pole (where the chart degenerates) and of the equator.
    """
    if not 0.0 < r < math.inf:
        raise ParameterError(f"sphere radius must be positive and finite, got {r}")
    center = as_vec(center, "center")

    def ev(u, v) -> Jet2Vec3:
        u, v = broadcast_uv(u, v)
        cu, su = np.cos(u), np.sin(u)
        cv, sv = np.cos(v), np.sin(v)
        zero = np.zeros(u.shape)
        radial = np.stack([cu * cv, cu * sv, su], axis=-1)
        d_u = np.stack([-su * cv, -su * sv, cu], axis=-1)
        d_v = np.stack([-cu * sv, cu * cv, zero], axis=-1)
        d_uv = np.stack([su * sv, -su * cv, zero], axis=-1)
        d_vv = np.stack([-cu * cv, -cu * sv, zero], axis=-1)
        return Jet2Vec3(
            value=center + r * radial,
            du=r * d_u,
            dv=r * d_v,
            duu=-r * radial,
            duv=r * d_uv,
            dvv=r * d_vv,
        )

    return SurfacePatch(
        name="sphere",
        u_range=(0.1, 1.45),
        v_range=(0.0, 2.0 * np.pi),
        evaluator=ev,
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

    def ev(u, v) -> Jet2Vec3:
        u, v = broadcast_uv(u, v)
        cu, su = np.cos(u)[..., None], np.sin(u)[..., None]
        radial = cu * n1 + su * n2
        d_ang = -su * n1 + cu * n2
        zero = _const(_ZERO3, u.shape)
        return Jet2Vec3(
            value=center + r * radial + v[..., None] * axis,
            du=r * d_ang,
            dv=_const(axis, u.shape),
            duu=-r * radial,
            duv=zero,
            dvv=zero,
        )

    return SurfacePatch(
        name="cylinder",
        u_range=(0.1, np.pi - 0.1),
        v_range=(-1.0, 1.0),
        evaluator=ev,
    )
