"""Extrusion of a generating trajectory into a cylindrical surface patch.

The patch is ``Phi(s, t) = x(s)*e + y(s)*a + t*v`` with the ruling direction
v orthogonal to a and ``e = a x v`` completing the frame.  Jets come from the
tangent-angle vector field evaluated on dense-output states, never from
differentiating the interpolant, so their accuracy matches the integrator's.
"""
from __future__ import annotations

import numpy as np

from ..errors import ParameterError
from ..surfaces.jets import Jet2Vec3, dot, reject_first
from ..surfaces.patches import SurfacePatch, broadcast_uv, unit_vec
from .ode import Trajectory

EXTRUSION_TILT_TOL = 1e-12


def _hermite(p0, d0, p1, d1, h: float, t):
    t2 = t * t
    t3 = t2 * t
    return (
        (2.0 * t3 - 3.0 * t2 + 1.0) * p0
        + (t3 - 2.0 * t2 + t) * h * d0
        + (-2.0 * t3 + 3.0 * t2) * p1
        + (t3 - t2) * h * d1
    )


def dense_state(traj: Trajectory, s):
    """Cubic-Hermite (x, y, theta) between stored states, with endpoint slopes
    taken from the vector field; ``s`` may be an array of arc lengths."""
    nodes_s, nodes_x, nodes_y, nodes_th = traj.states.T
    s = np.asarray(s, dtype=float)
    s0 = nodes_s[0]
    s1 = nodes_s[-1]
    reject_first(
        ~((s0 <= s) & (s <= s1)),
        lambda k: ParameterError(
            f"s = {np.ravel(s)[k]:.6g} outside trajectory range [{s0:.6g}, {s1:.6g}]"
        ),
    )
    h = traj.step
    # truncation picks the interval from the uniform step, as int() did;
    # searchsorted on the nodes can pick the neighbouring one at a node
    i = np.clip(((s - s0) / h).astype(int), 0, len(nodes_s) - 2)
    j = i + 1
    t = (s - nodes_s[i]) / h
    alpha = traj.alpha
    ca, cb = np.cos(nodes_th[i]), np.cos(nodes_th[j])
    sa, sb = np.sin(nodes_th[i]), np.sin(nodes_th[j])
    x = _hermite(nodes_x[i], ca, nodes_x[j], cb, h, t)
    y = _hermite(nodes_y[i], sa, nodes_y[j], sb, h, t)
    th = _hermite(
        nodes_th[i], alpha * ca / nodes_y[i], nodes_th[j], alpha * cb / nodes_y[j], h, t
    )
    return x, y, th


def to_extrusion(
    trajectory: Trajectory,
    v=(0.0, 1.0, 0.0),
    a=(0.0, 0.0, 1.0),
    t_range: tuple[float, float] = (-1.0, 1.0),
) -> SurfacePatch:
    """Cylindrical patch over the trajectory; requires <v, a> = 0."""
    v = unit_vec(v, "v")
    a = unit_vec(a, "a")
    tilt = float(dot(v, a))
    if abs(tilt) > EXTRUSION_TILT_TOL:
        raise ParameterError(
            f"ruling direction must be orthogonal to a (<v,a> = {tilt:.3e})"
        )
    e = np.cross(a, v)
    alpha = trajectory.alpha

    def ev(s, t) -> Jet2Vec3:
        s, t = broadcast_uv(s, t)
        x, y, th = dense_state(trajectory, s)
        c, sn = np.cos(th), np.sin(th)
        dth = alpha * c / y
        x, y, t, c, sn, dth = (w[..., None] for w in (x, y, t, c, sn, dth))
        zero = np.zeros(s.shape + (3,))
        return Jet2Vec3(
            value=x * e + y * a + t * v,
            du=c * e + sn * a,
            dv=np.broadcast_to(v, zero.shape),
            duu=dth * (-sn * e + c * a),
            duv=zero,
            dvv=zero,
        )

    return SurfacePatch(
        name="extrusion",
        u_range=trajectory.s_range,
        v_range=t_range,
        evaluator=ev,
    )
