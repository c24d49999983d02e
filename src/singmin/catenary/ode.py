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
# 0.25 KB to a catenary run's peak RSS (39 MB for 2e4 states, 83 MB for 2e5 on
# CPython 3.11; the trajectory is written one row block at a time), so the
# bound keeps a run under about 0.5 GB.
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


def _rk4(x: float, y: float, th: float, h: float, alpha: float) -> tuple[float, float, float]:
    k1 = _f(y, th, alpha)
    k2 = _f(y + 0.5 * h * k1[1], th + 0.5 * h * k1[2], alpha)
    k3 = _f(y + 0.5 * h * k2[1], th + 0.5 * h * k2[2], alpha)
    k4 = _f(y + h * k3[1], th + h * k3[2], alpha)
    return (
        x + h / 6.0 * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0]),
        y + h / 6.0 * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1]),
        th + h / 6.0 * (k1[2] + 2.0 * k2[2] + 2.0 * k3[2] + k4[2]),
    )


def _march(init: CatenaryState, params: CatenaryParams, sign: float):
    """Fixed-step march in one direction; returns ((s, x, y, theta) rows, hit_y_min)."""
    # a relative tolerance: a whole ratio that rounds just below counts whole
    n_steps = int(math.floor(params.smax / params.step * (1.0 + 1e-12)))
    out: list[tuple[float, float, float, float]] = []
    x, y, th = init.x, init.y, init.theta
    for i in range(1, n_steps + 1):
        try:
            x1, y1, th1 = _rk4(x, y, th, sign * params.step, params.alpha)
        except SingularBoundaryError:
            return out, True
        except ValueError:
            # math.cos of an infinite angle: a stage left the floats
            raise ParameterError(
                f"integration diverged at s = {fmt(init.s + sign * i * params.step)}"
            ) from None
        if y1 < params.y_min:
            return out, True
        x, y, th = x1, y1, th1
        out.append((init.s + sign * i * params.step, x, y, th))
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
    fwd, hit_f = _march(init, params, +1.0)
    bwd, hit_b = _march(init, params, -1.0)
    states = np.array(bwd[::-1] + [(init.s, init.x, init.y, init.theta)] + fwd, dtype=float)
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
