"""Generating-curve integration: closed forms, invariants, cutoffs."""
import math

import numpy as np
import pytest

from singmin.catenary import (
    TERM_SMAX,
    TERM_YMIN,
    CatenaryParams,
    CatenaryState,
    first_integral,
    integrate,
    trajectory_csv,
)
from singmin.catenary.ode import MAX_STEPS, _f
from singmin.errors import ParameterError, SingularBoundaryError


def first_integrals(traj, alpha):
    """J of every state, by the one formula ``first_integral``."""
    _, _, y, theta = traj.states.T.tolist()
    return [first_integral(yk, tk, alpha) for yk, tk in zip(y, theta)]


class TestVectorField:
    def test_vertical_line_is_straight_for_every_alpha(self):
        state = CatenaryState(s=0.0, x=0.0, y=1.0, theta=math.pi / 2)
        for alpha in (-3.0, -1.0, 1.0, 5.5):
            dx, dy, dth = _f(state.y, state.theta, alpha)
            assert abs(dth) < 1e-15
            assert dy == pytest.approx(1.0)

    def test_catenary_vertex_curvature(self):
        dx, dy, dth = _f(1.0, 0.0, 1.0)
        assert (dx, dy, dth) == (1.0, 0.0, 1.0)

    def test_circle_vertex_curvature(self):
        _, _, dth = _f(1.0, 0.0, -1.0)
        assert dth == -1.0

    def test_singular_boundary(self):
        with pytest.raises(SingularBoundaryError):
            _f(0.0, 0.0, 1.0)


class TestParams:
    def test_alpha_zero_rejected(self):
        with pytest.raises(ParameterError):
            CatenaryParams(alpha=0.0)

    @pytest.mark.parametrize(
        "kw",
        [
            dict(step=0.0),
            dict(smax=-1.0),
            dict(y_min=0.0),
            dict(step=math.nan),
            dict(step=math.inf),
            dict(smax=math.inf),
            dict(smax=math.nan),
            dict(y_min=math.nan),
            dict(y_min=math.inf),
            dict(alpha=math.nan),
            dict(alpha=math.inf),
            dict(alpha=-math.inf),
        ],
    )
    def test_invalid_fields_rejected(self, kw):
        with pytest.raises(ParameterError):
            CatenaryParams(**{"alpha": 1.0, **kw})

    def test_step_count_is_bounded(self):
        # built only: a march this long is not run
        CatenaryParams(alpha=1.0, step=1.0, smax=float(MAX_STEPS))
        with pytest.raises(ParameterError, match="smax / step"):
            CatenaryParams(alpha=1.0, step=1.0, smax=math.nextafter(MAX_STEPS, math.inf))

    @pytest.mark.parametrize("field", ["s", "x", "y", "theta"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_initial_state_must_be_finite(self, field, bad):
        init = {"s": 0.0, "x": 0.0, "y": 1.0, "theta": 0.0, field: bad}
        with pytest.raises(ParameterError, match=f"{field} must be finite"):
            integrate(CatenaryState(**init), CatenaryParams(alpha=1.0, smax=0.1))

    def test_initial_height_must_clear_cutoff(self):
        with pytest.raises(ParameterError):
            integrate(CatenaryState(0, 0, 1e-4, 0), CatenaryParams(alpha=1.0))


class TestClosedForms:
    def test_catenary_matches_cosh(self):
        traj = integrate(
            CatenaryState(0, 0, 1, 0), CatenaryParams(alpha=1.0, step=1e-3, smax=2.0)
        )
        assert traj.termination == TERM_SMAX
        _, x, y, _ = traj.states.T
        assert np.max(np.abs(y - np.cosh(x))) < 1e-8

    def test_circle_stays_on_circle(self):
        traj = integrate(
            CatenaryState(0, 0, 1, 0), CatenaryParams(alpha=-1.0, step=1e-3, smax=2.0)
        )
        _, x, y, _ = traj.states.T
        assert np.max(np.abs(x ** 2 + y ** 2 - 1.0)) < 1e-8

    def test_first_integral_on_catenary(self):
        traj = integrate(
            CatenaryState(0, 0, 1, 0), CatenaryParams(alpha=1.0, step=1e-3, smax=2.0)
        )
        assert max(abs(j - 1.0) for j in first_integrals(traj, 1.0)) < 1e-10

    def test_first_integral_on_circle_away_from_plane(self):
        traj = integrate(
            CatenaryState(0, 0, 1, 0),
            CatenaryParams(alpha=-1.0, step=1e-3, smax=2.0, y_min=0.1),
        )
        assert max(abs(j - 1.0) for j in first_integrals(traj, -1.0)) < 1e-10

    def test_vertical_line_first_integral_vanishes(self):
        traj = integrate(
            CatenaryState(0, 0, 1, math.pi / 2),
            CatenaryParams(alpha=1.0, step=1e-2, smax=1.0),
        )
        assert max(abs(j) for j in first_integrals(traj, 1.0)) < 1e-12

    def test_first_integral_is_infinite_where_the_power_overflows(self):
        assert first_integral(2.0, 0.0, 1100.0) == math.inf
        assert first_integral(2.0, math.pi, 1100.0) == -math.inf
        assert first_integral(0.02, 0.0, -200.0) == math.inf
        # where the power is finite, J is the plain product, bit for bit
        assert first_integral(2.0, 0.3, 1000.0) == 2.0 ** 1000.0 * math.cos(0.3)


class TestIntegratorStructure:
    def test_states_uniformly_spaced(self):
        traj = integrate(
            CatenaryState(0, 0, 1, 0), CatenaryParams(alpha=1.0, step=1e-2, smax=0.5)
        )
        gaps = np.diff(traj.states[:, 0])
        assert (gaps >= 0.0).all()
        assert (np.abs(gaps - 1e-2) < 1e-12).all()
        assert len(traj.states) == 101

    def test_states_are_one_float_array(self):
        traj = integrate(
            CatenaryState(0, 0, 1, 0), CatenaryParams(alpha=1.0, step=1e-2, smax=0.5)
        )
        assert isinstance(traj.states, np.ndarray)
        assert traj.states.shape == (101, 4) and traj.states.dtype == np.float64
        assert traj.states.flags.c_contiguous and not traj.states.flags.writeable
        assert traj.states[50].tolist() == [0.0, 0.0, 1.0, 0.0]
        assert traj.s_range == (-0.5, 0.5)

    @pytest.mark.parametrize("smax, step, n_steps", [(2.3, 1e-4, 23000), (2.3, 1e-3, 2300),
                                                     (0.7, 1e-5, 70000), (2.5, 1.0, 2)])
    def test_march_reaches_smax_when_the_ratio_rounds_below_a_whole_number(self, smax, step,
                                                                            n_steps):
        # 2.3 / 1e-4 and 0.7 / 1e-5 round to just below 23000 and 70000, by more
        # than an absolute 1e-12
        traj = integrate(CatenaryState(0, 0, 1, 0),
                         CatenaryParams(alpha=1.0, step=step, smax=smax))
        assert len(traj.states) == 2 * n_steps + 1
        assert traj.s_range == (-n_steps * step, n_steps * step)

    def test_cutoff_at_y_min(self):
        traj = integrate(
            CatenaryState(0, 0, 0.2, 0),
            CatenaryParams(alpha=-2.0, step=1e-3, smax=2.0, y_min=0.1),
        )
        assert traj.termination == TERM_YMIN
        assert traj.states[:, 2].min() >= 0.1

    def test_step_halving_fourth_order(self):
        def err(alpha, step, closed):
            traj = integrate(
                CatenaryState(0, 0, 1, 0),
                CatenaryParams(alpha=alpha, step=step, smax=2.0, y_min=0.1),
            )
            _, x, y, _ = traj.states.T
            return np.max(np.abs(closed(x, y)))

        for alpha, closed in (
            (1.0, lambda x, y: y - np.cosh(x)),
            (-1.0, lambda x, y: x ** 2 + y ** 2 - 1.0),
        ):
            ratio = err(alpha, 0.04, closed) / err(alpha, 0.02, closed)
            assert 12.0 <= ratio <= 20.0

    def test_reflection_symmetry(self):
        traj = integrate(
            CatenaryState(0, 0, 1, 0), CatenaryParams(alpha=1.0, step=1e-3, smax=1.0)
        )
        mid = len(traj.states) // 2
        _, x, y, theta = traj.states.T
        assert x[mid] == 0.0
        # fwd[i - 1] and bwd[i - 1] are the states i steps either side of mid
        fwd, bwd = slice(mid + 1, None), slice(mid - 1, None, -1)
        assert (np.abs(x[fwd] + x[bwd]) < 1e-12).all()
        assert (np.abs(y[fwd] - y[bwd]) < 1e-12).all()
        assert (np.abs(theta[fwd] + theta[bwd]) < 1e-12).all()

    def test_discrete_curvature_matches_field(self):
        step = 1e-3
        traj = integrate(
            CatenaryState(0, 0, 1, 0), CatenaryParams(alpha=1.0, step=step, smax=0.5)
        )
        _, x, y, theta = traj.states.T.tolist()

        def circum_kappa(p0, p1, p2):
            ax, ay = p1[0] - p0[0], p1[1] - p0[1]
            bx, by = p2[0] - p1[0], p2[1] - p1[1]
            cx, cy = p2[0] - p0[0], p2[1] - p0[1]
            area2 = abs(ax * cy - cx * ay)
            la = math.hypot(ax, ay)
            lb = math.hypot(bx, by)
            lc = math.hypot(cx, cy)
            return 2.0 * area2 / (la * lb * lc)

        worst = max(
            abs(
                circum_kappa((x[i - 1], y[i - 1]), (x[i], y[i]), (x[i + 1], y[i + 1]))
                - abs(math.cos(theta[i]) / y[i])
            )
            for i in range(1, len(x) - 1)
        )
        assert worst < 10.0 * step ** 2


def test_csv_has_first_integral_column():
    traj = integrate(
        CatenaryState(0, 0, 1, 0), CatenaryParams(alpha=1.0, step=1e-2, smax=0.1)
    )
    text = trajectory_csv(traj, 0)
    header, first = text.splitlines()[:2]
    assert header == "s,x,y,theta,J"
    assert len(first.split(",")) == 5


@pytest.mark.parametrize(
    "smax,where",
    # a stage's cos of an infinite angle raises inside the march; a last step
    # that ends on an infinite angle is caught on the finished states
    [(0.01, "s = 0.002"), (1e-3, "s = -0.001")],
    ids=["stage-leaves-the-floats", "last-state-not-finite"],
)
def test_diverging_integration_is_a_parameter_error(smax, where):
    params = CatenaryParams(alpha=1e308, step=1e-3, smax=smax)
    with pytest.raises(ParameterError, match=f"integration diverged at {where}$"):
        integrate(CatenaryState(0, 0, 1, 0), params)
