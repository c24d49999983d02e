"""Extruded cylindrical patches: flatness, residual, parameter checks."""
import math

import numpy as np
import pytest

from singmin.catenary import CatenaryParams, CatenaryState, dense_state, integrate, to_extrusion
from singmin.errors import ParameterError
from singmin.surfaces import cylinder_patch, grid_report

from conftest import collect

A = (0.0, 0.0, 1.0)


def make_traj(alpha, smax=2.0, y0=1.0, y_min=1e-3, step=1e-3):
    return integrate(
        CatenaryState(0.0, 0.0, y0, 0.0),
        CatenaryParams(alpha=alpha, step=step, smax=smax, y_min=y_min),
    )


@pytest.mark.parametrize("alpha,kwargs", [
    (1.0, {}),
    (-1.0, {}),
    (-2.0, dict(smax=0.4, y_min=0.2)),
    (2.0, {}),
])
def test_extruded_patches_are_flat_and_exact(alpha, kwargs):
    patch = to_extrusion(make_traj(alpha, **kwargs))
    rep, _ = collect(grid_report, patch, alpha, A, 50, 10)
    assert max(abs(rep["min_K"]), abs(rep["max_K"])) < 1e-10
    assert rep["max_abs_residual"] < 1e-6


def test_alpha_mismatch_is_detected():
    patch = to_extrusion(make_traj(1.0))
    rep, _ = collect(grid_report, patch, -1.0, A, 30, 5)
    # residual becomes (alpha_true - alpha) * <N, a>, nonzero away from
    # vertical tangents
    assert rep["max_abs_residual"] > 0.5


def test_circle_extrusion_matches_analytic_cylinder():
    traj = make_traj(-1.0, y_min=0.2)
    patch = to_extrusion(traj)
    s = 0.5
    x, y, th = dense_state(traj, s)
    # the generating curve is the unit circle through (0, 1)
    assert x ** 2 + y ** 2 == pytest.approx(1.0, abs=1e-10)
    analytic = cylinder_patch(r=1.0, axis=(0.0, 1.0, 0.0))
    rep_a, _ = collect(grid_report, analytic, -1.0, A, 20, 5)
    rep_x, _ = collect(grid_report, patch, -1.0, A, 20, 5)
    assert rep_x["max_abs_residual"] < 1e-6 and rep_a["max_abs_residual"] < 1e-9
    assert (abs(rep_x["min_H"] - rep_a["min_H"]) < 1e-6
            or abs(rep_x["min_H"] + rep_a["max_H"]) < 1e-6)


def test_dense_state_between_nodes_is_accurate():
    traj = make_traj(1.0, step=1e-2)
    for s in (0.123456, -0.98765, 1.5 + 1e-3 / 3):
        x, y, _ = dense_state(traj, s)
        assert y == pytest.approx(math.cosh(x), abs=1e-7)


def test_dense_state_out_of_range():
    traj = make_traj(1.0, smax=0.5)
    with pytest.raises(ParameterError):
        dense_state(traj, 1.0)


def test_ruling_must_be_orthogonal():
    traj = make_traj(1.0, smax=0.5)
    with pytest.raises(ParameterError):
        to_extrusion(traj, v=A, a=A)
    z = 0.1
    tilted = (0.0, math.sqrt(1.0 - z * z), z)
    with pytest.raises(ParameterError):
        to_extrusion(traj, v=tilted, a=A)


def test_unit_vectors_required():
    traj = make_traj(1.0, smax=0.5)
    with pytest.raises(ParameterError):
        to_extrusion(traj, v=(0.0, 2.0, 0.0), a=A)


def test_jets_follow_the_vector_field():
    traj = make_traj(1.0)
    patch = to_extrusion(traj)
    jet = patch.jet(0.4, 0.2)
    x, y, th = dense_state(traj, 0.4)
    assert np.allclose(jet.du, [-math.cos(th), 0.0, math.sin(th)])
    assert np.allclose(jet.dv, [0.0, 1.0, 0.0])
    dth = math.cos(th) / y
    assert np.allclose(jet.duu, [math.sin(th) * dth, 0.0, math.cos(th) * dth])
    assert np.allclose(jet.duv, 0.0) and np.allclose(jet.dvv, 0.0)
