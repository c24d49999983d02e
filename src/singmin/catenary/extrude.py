"""Extrusion of a generating trajectory into a cylindrical surface patch.

``Phi(s, t) = x(s)*e + y(s)*a + t*v`` is ``cylindrical_patch`` over the curve
``x*e + y*a``, with the ruling v orthogonal to a and ``e = a x v``.  The
curve's derivatives, like ``dense_state``'s node slopes, come from the vector
field ``_field`` on dense-output states, never from differentiating the
interpolant, so their accuracy matches the integrator's.
"""
from __future__ import annotations

import numpy as np

from ..errors import ParameterError
from ..surfaces.jets import dot, reject_first
from ..surfaces.patches import SurfacePatch, cylindrical_patch, unit_vec
from .ode import Trajectory

EXTRUSION_TILT_TOL = 1e-12


def _field(y, theta, alpha):
    """(x', y', theta') of the generating curve at arrays of (y, theta): the
    vectorized twin of ``ode._f``, which stays scalar for the RK4 loop."""
    c = np.cos(theta)
    return c, np.sin(theta), alpha * c / y


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
    ca, sa, ka = _field(nodes_y[i], nodes_th[i], traj.alpha)
    cb, sb, kb = _field(nodes_y[j], nodes_th[j], traj.alpha)
    x = _hermite(nodes_x[i], ca, nodes_x[j], cb, h, t)
    y = _hermite(nodes_y[i], sa, nodes_y[j], sb, h, t)
    th = _hermite(nodes_th[i], ka, nodes_th[j], kb, h, t)
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

    def curve(s):
        x, y, th = dense_state(trajectory, s)

        def derivatives():
            c, sn, dth = (w[..., None] for w in _field(y, th, trajectory.alpha))
            return c * e + sn * a, dth * (-sn * e + c * a)

        return x[..., None] * e + y[..., None] * a, derivatives

    return cylindrical_patch("extrusion", curve, v, trajectory.s_range, t_range)
