"""Built-in surface patches with analytic jets."""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..errors import HalfspaceViolation, ParameterError
from .jets import Jet2Vec3

UNIT_TOL = 1e-9

_ZERO3 = np.zeros(3)


def as_vec(v, name: str = "vector") -> np.ndarray:
    arr = np.asarray(v, dtype=float)
    if arr.shape != (3,):
        raise ParameterError(f"{name} must be a 3-vector, got shape {arr.shape}")
    return arr


def unit_vec(v, name: str = "direction") -> np.ndarray:
    arr = as_vec(v, name)
    n = np.linalg.norm(arr)
    if abs(n - 1.0) > UNIT_TOL:
        raise ParameterError(f"{name} must be a unit vector (|{name}| = {n:.12g})")
    return arr / n


def perp_unit(a: np.ndarray) -> np.ndarray:
    """Deterministic unit vector orthogonal to a."""
    basis = np.eye(3)
    idx = int(np.argmin(np.abs(basis @ a)))
    e = basis[idx] - (basis[idx] @ a) * a
    return e / np.linalg.norm(e)


def broadcast_uv(u, v) -> tuple[np.ndarray, np.ndarray]:
    """Sample coordinates as float arrays of one broadcast batch shape."""
    return np.broadcast_arrays(np.asarray(u, dtype=float), np.asarray(v, dtype=float))


def _const(vec: np.ndarray, shape: tuple) -> np.ndarray:
    """A constant vector field over the batch shape (read-only view)."""
    return np.broadcast_to(vec, shape + (3,))


@dataclass(frozen=True)
class SurfacePatch:
    """A named parametric patch over a rectangle, producing exact jets.

    The evaluator takes broadcastable ``u, v`` arrays and returns a jet whose
    fields have shape ``broadcast(u, v).shape + (3,)``.  It should describe an
    immersion on its domain; ``jets.degenerate_metric`` flags the samples
    where it does not, and grid evaluations skip them.
    """

    name: str
    u_range: tuple[float, float]
    v_range: tuple[float, float]
    evaluator: Callable[[np.ndarray, np.ndarray], Jet2Vec3]
    metadata: dict = field(default_factory=dict)

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
        if nu < 2 or nv < 2:
            raise HalfspaceViolation(f"grid dimensions must be >= 2, got {nu}x{nv}")
        us = np.linspace(self.u_range[0], self.u_range[1], nu)
        vs = np.linspace(self.v_range[0], self.v_range[1], nv)
        return np.repeat(us, nv), np.tile(vs, nu)


def swap_parameters(patch: SurfacePatch) -> SurfacePatch:
    """The same surface with (u, v) exchanged; flips the chart orientation."""

    def ev(u, v) -> Jet2Vec3:
        jet = patch.evaluator(v, u)
        return Jet2Vec3(
            value=jet.value,
            du=jet.dv,
            dv=jet.du,
            duu=jet.dvv,
            duv=jet.duv,
            dvv=jet.duu,
        )

    return SurfacePatch(
        name=patch.name + "-swapped",
        u_range=patch.v_range,
        v_range=patch.u_range,
        evaluator=ev,
        metadata=dict(patch.metadata),
    )


def plane_patch(
    a=(0.0, 0.0, 1.0),
    u_range: tuple[float, float] = (0.5, 1.5),
    v_range: tuple[float, float] = (-1.0, 1.0),
) -> SurfacePatch:
    """Plane containing the direction a: Phi(u, v) = u*a + v*e with e _|_ a.

    The height over the singular plane is the u coordinate, so the default
    domain stays inside the open halfspace.
    """
    a = unit_vec(a, "a")
    e = perp_unit(a)
    if u_range[0] <= 0:
        raise ParameterError("plane patch u_range must stay at positive height")

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
        u_range=u_range,
        v_range=v_range,
        evaluator=ev,
        metadata={"kind": "plane", "a": tuple(a)},
    )


def sphere_patch(
    r: float = 1.0,
    center=(0.0, 0.0, 0.0),
    lat_range: tuple[float, float] = (0.1, 1.45),
    lon_range: tuple[float, float] = (0.0, 2.0 * np.pi),
) -> SurfacePatch:
    """Sphere chart by latitude u (from the equator toward +z) and longitude v.

    The default latitude band covers the upper hemisphere while staying clear
    of the pole (where the chart degenerates) and of the equator.
    """
    if r <= 0:
        raise ParameterError(f"sphere radius must be positive, got {r}")
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
        u_range=lat_range,
        v_range=lon_range,
        evaluator=ev,
        metadata={"kind": "sphere", "r": r, "center": tuple(center)},
    )


def cylinder_patch(
    r: float = 1.0,
    axis=(1.0, 0.0, 0.0),
    center=(0.0, 0.0, 0.0),
    angle_range: tuple[float, float] = (0.1, np.pi - 0.1),
    height_range: tuple[float, float] = (-1.0, 1.0),
    up=(0.0, 0.0, 1.0),
) -> SurfacePatch:
    """Circular cylinder chart by angle u (measured from the plane orthogonal
    to ``up``) and axial coordinate v."""
    if r <= 0:
        raise ParameterError(f"cylinder radius must be positive, got {r}")
    axis = unit_vec(axis, "axis")
    center = as_vec(center, "center")
    up = as_vec(up, "up")
    n2 = up - (up @ axis) * axis
    norm = np.linalg.norm(n2)
    if norm < 1e-12:
        raise ParameterError("up direction is parallel to the cylinder axis")
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
        u_range=angle_range,
        v_range=height_range,
        evaluator=ev,
        metadata={"kind": "cylinder", "r": r, "axis": tuple(axis), "center": tuple(center)},
    )


def builtin_patch(kind: str, **params) -> SurfacePatch:
    """Factory over the built-in patches; ``extrusion`` wraps a generating
    trajectory produced by the catenary integrator."""
    if kind == "plane":
        return plane_patch(**params)
    if kind == "sphere":
        return sphere_patch(**params)
    if kind == "cylinder":
        return cylinder_patch(**params)
    if kind == "extrusion":
        from ..catenary.extrude import to_extrusion

        return to_extrusion(**params)
    raise ParameterError(f"unknown patch kind {kind!r}")
