"""Generating-curve integrator in tangent-angle form.

The planar generating curve of a cylindrical example satisfies, in arc
length, ``x' = cos(theta)``, ``y' = sin(theta)``,
``theta' = alpha * cos(theta) / y`` with y the height over the singular
plane.  The tangent-angle form keeps unit speed exact and survives vertical
tangents, which the negative-alpha branches reach.

``J = y^alpha * cos(theta)`` is conserved along exact solutions (differentiate
and substitute the system: the two terms cancel), so its drift measures the
integrator error directly.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from ..errors import ParameterError, SingularBoundaryError
from ..surfaces.export import fmt
from ..surfaces.jets import reject_first

TERM_SMAX = "reached-smax"
TERM_YMIN = "hit-y-min"
# Most RK4 steps a march may take in one direction.  Each state adds about
# 0.17 KB to a catenary run's peak RSS (38 MB for 2e4 states, 67 MB for 2e5
# on CPython 3.11; the trajectory is written one row block at a time), so the
# bound keeps a run under about 0.4 GB.
MAX_STEPS = 10**6


@dataclass(frozen=True)
class CatenaryState:
    """Arc length, position, and tangent angle of the generating curve."""

    s: float
    x: float
    y: float
    theta: float


@dataclass(frozen=True)
class CatenaryParams:
    alpha: float
    step: float = 1e-3
    smax: float = 10.0
    y_min: float = 1e-3

    def __post_init__(self):
        _require_finite(self)
        if self.alpha == 0.0:
            raise ParameterError("alpha = 0 is excluded (plain minimal case)")
        if self.step <= 0.0:
            raise ParameterError(f"step must be positive, got {self.step}")
        if self.smax <= 0.0:
            raise ParameterError(f"smax must be positive, got {self.smax}")
        if self.smax / self.step > MAX_STEPS:
            raise ParameterError(
                f"smax / step must be at most {MAX_STEPS} steps per direction: "
                f"smax={self.smax}, step={self.step}"
            )
        if self.y_min <= 0.0:
            raise ParameterError(f"y_min must be positive, got {self.y_min}")


@dataclass(frozen=True)
class Trajectory:
    """Integration output: ``states`` rows are ``(s, x, y, theta)``, s rising by ``step``.

    At least two states, so that the curve spans an arc-length interval.
    """

    alpha: float
    states: np.ndarray
    step: float
    termination: str

    def __post_init__(self):
        if len(self.states) < 2:
            raise ParameterError(
                f"trajectory has fewer than two states (got {len(self.states)})"
            )
        # read-only, like the frozen record that holds it
        self.states.flags.writeable = False

    @property
    def s_range(self) -> tuple[float, float]:
        return (float(self.states[0, 0]), float(self.states[-1, 0]))


def _require_finite(record) -> None:
    """ParameterError naming the first NaN or infinite field of a dataclass."""
    for f in fields(record):
        value = getattr(record, f.name)
        if not math.isfinite(value):
            raise ParameterError(f"{f.name} must be finite, got {value}")


def first_integral(y: float, theta: float, alpha: float) -> float:
    """``y^alpha * cos(theta)``; infinite, with the sign of cos(theta), where
    the power overflows a float."""
    if y <= 0.0:
        raise SingularBoundaryError(f"first integral needs y > 0, got {y:.6g}")
    try:
        return y ** alpha * math.cos(theta)
    except OverflowError:
        return math.copysign(math.inf, math.cos(theta))


def _f(y: float, theta: float, alpha: float) -> tuple[float, float, float]:
    """(x', y', theta') at (y, theta); the field does not depend on x."""
    if y <= 0.0:
        raise SingularBoundaryError(f"integration stage hit y = {y:.6g}")
    c = math.cos(theta)
    return (c, math.sin(theta), alpha * c / y)


def _march(init: CatenaryState, params: CatenaryParams, sign: float):
    """Fixed-step RK4 march in one direction; returns (flat s, x, y, theta values, hit_y_min)."""
    # a relative tolerance: a whole ratio that rounds just below counts whole
    n_steps = int(math.floor(params.smax / params.step * (1.0 + 1e-12)))
    alpha, step, y_min = params.alpha, params.step, params.y_min
    h = sign * step
    h2, h6 = 0.5 * h, h / 6.0
    out: list[float] = []
    x, y, th = init.x, init.y, init.theta
    for i in range(1, n_steps + 1):
        try:
            dx1, dy1, dt1 = _f(y, th, alpha)
            dx2, dy2, dt2 = _f(y + h2 * dy1, th + h2 * dt1, alpha)
            dx3, dy3, dt3 = _f(y + h2 * dy2, th + h2 * dt2, alpha)
            dx4, dy4, dt4 = _f(y + h * dy3, th + h * dt3, alpha)
        except SingularBoundaryError:
            return out, True
        except ValueError:
            # math.cos of an infinite angle: a stage left the floats
            raise ParameterError(
                f"integration diverged at s = {fmt(init.s + sign * i * step)}"
            ) from None
        y = y + h6 * (dy1 + 2.0 * dy2 + 2.0 * dy3 + dy4)
        if y < y_min:
            return out, True
        x = x + h6 * (dx1 + 2.0 * dx2 + 2.0 * dx3 + dx4)
        th = th + h6 * (dt1 + 2.0 * dt2 + 2.0 * dt3 + dt4)
        out += (init.s + sign * i * step, x, y, th)
    return out, False


def integrate(init: CatenaryState, params: CatenaryParams) -> Trajectory:
    """Classical RK4 in both directions from ``init`` up to +-smax.

    Stops one step early whenever the next state would drop below ``y_min``
    and records the cutoff; deterministic for fixed inputs.  A march that
    leaves the floats is a ParameterError naming the arc length.
    """
    _require_finite(init)
    if init.y <= params.y_min:
        raise ParameterError(
            f"initial height {init.y:.6g} must exceed y_min = {params.y_min:.6g}"
        )
    (fwd, hit_f), (bwd, hit_b) = (_march(init, params, sign) for sign in (1.0, -1.0))
    fwd, bwd = (np.reshape(values, (-1, 4)) for values in (fwd, bwd))
    states = np.concatenate([bwd[::-1], [[init.s, init.x, init.y, init.theta]], fwd])
    reject_first(
        ~np.isfinite(states).all(axis=1),
        lambda k: ParameterError(f"integration diverged at s = {fmt(states[k, 0])}"),
    )
    return Trajectory(
        alpha=params.alpha,
        states=states,
        step=params.step,
        termination=TERM_YMIN if (hit_f or hit_b) else TERM_SMAX,
    )
