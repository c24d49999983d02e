"""Residual of the defining identity on the built-in patch catalog."""
from dataclasses import replace

import numpy as np
import pytest

from singmin.errors import HalfspaceViolation, ParameterError
from singmin.surfaces import (
    curvature_sample,
    cylinder_patch,
    grid_report,
    plane_patch,
    smr_residual,
    sphere_patch,
)

A = (0.0, 0.0, 1.0)


@pytest.mark.parametrize("alpha", [-2.0, -1.0, 1.0, 3.7])
def test_plane_is_exact_for_every_alpha(alpha):
    rep, _ = grid_report(plane_patch(), alpha, A, 50, 50)
    assert rep["max_abs_residual"] < 1e-12


def test_sphere_only_at_alpha_minus_two():
    patch = sphere_patch(r=1.0)
    good, _ = grid_report(patch, -2.0, A, 50, 50)
    assert good["max_abs_residual"] < 1e-9
    bad, _ = grid_report(patch, -1.0, A, 50, 50)
    assert bad["max_abs_residual"] > 0.5


def test_cylinder_only_at_alpha_minus_one():
    patch = cylinder_patch(r=1.0)
    good, _ = grid_report(patch, -1.0, A, 50, 50)
    assert good["max_abs_residual"] < 1e-9
    assert abs(good["min_K"]) < 1e-12 and abs(good["max_K"]) < 1e-12
    bad, _ = grid_report(patch, 1.0, A, 50, 50)
    assert bad["max_abs_residual"] >= 1.0


def test_sphere_residual_matches_closed_form():
    # residual = (2 + alpha) * <radial, a> for the unit sphere about the origin
    patch = sphere_patch(r=1.0)
    u, v = 0.8, 0.3
    s = curvature_sample(patch.jet(u, v))
    res = smr_residual(s, -1.0, A)
    assert res == pytest.approx((2.0 - 1.0) * np.sin(u), rel=1e-12)


def test_orientation_flip_invariance():
    for patch in (plane_patch(), sphere_patch(r=1.3), cylinder_patch(r=0.7)):
        # the same surface with (u, v) exchanged, which flips the chart orientation
        def ev(u, v, patch=patch):
            jet = patch.jet(v, u)
            return replace(jet, du=jet.dv, dv=jet.du, duu=jet.dvv, dvv=jet.duu)

        swapped = replace(patch, u_range=patch.v_range, v_range=patch.u_range, evaluator=ev)
        u = 0.5 * (patch.u_range[0] + patch.u_range[1])
        v = 0.5 * (patch.v_range[0] + patch.v_range[1])
        s1 = curvature_sample(patch.jet(u, v))
        s2 = curvature_sample(swapped.jet(v, u))
        assert s2.K == pytest.approx(s1.K, rel=1e-12, abs=1e-12)
        assert s2.H == pytest.approx(-s1.H, rel=1e-12, abs=1e-12)
        r1 = smr_residual(s1, 0.7, A)
        r2 = smr_residual(s2, 0.7, A)
        assert abs(r1) == pytest.approx(abs(r2), rel=1e-12, abs=1e-14)
        assert r1 == pytest.approx(-r2, rel=1e-12, abs=1e-14)


def test_halfspace_violation_raises():
    patch = sphere_patch(r=1.0)
    s = curvature_sample(patch.jet(0.5, 0.5))
    with pytest.raises(HalfspaceViolation):
        smr_residual(s, -2.0, (0.0, 0.0, -1.0))


@pytest.mark.parametrize("alpha", [np.nan, np.inf, -np.inf])
def test_non_finite_alpha_is_rejected(alpha):
    # a NaN alpha would make every residual NaN and an infinite one inf
    s = curvature_sample(sphere_patch(r=1.0).jet(0.5, 0.5))
    with pytest.raises(ParameterError, match="alpha must be finite"):
        smr_residual(s, alpha, A)
    with pytest.raises(ParameterError, match="alpha must be finite"):
        grid_report(sphere_patch(), alpha, A, 5, 5)


def test_grid_counts_violations():
    # direction tilted so part of the sphere band drops below the plane
    patch = replace(sphere_patch(r=1.0), u_range=(0.05, 1.45))
    rep, _ = grid_report(patch, -2.0, (1.0, 0.0, 0.0), 30, 30)
    assert rep["halfspace_violations"] > 0
    assert rep["max_abs_residual"] < 1e-9  # spheres are exact at alpha = -2


def test_grid_all_invalid_raises():
    patch = sphere_patch(r=1.0)
    with pytest.raises(HalfspaceViolation):
        grid_report(patch, -2.0, (0.0, 0.0, -1.0), 10, 10)


def test_grid_dims_validated():
    with pytest.raises(ParameterError) as exc:
        grid_report(sphere_patch(), -2.0, A, 1, 10)
    assert not isinstance(exc.value, HalfspaceViolation)


@pytest.mark.parametrize(
    "make",
    [
        lambda: sphere_patch(r=-1.0),
        lambda: cylinder_patch(r=0.0),
        lambda: plane_patch(a=(0.0, 0.0, 2.0)),
        lambda: cylinder_patch(axis=(1.0, 1.0, 0.0)),
        lambda: sphere_patch(r=np.nan),
        lambda: sphere_patch(r=np.inf),
        lambda: cylinder_patch(r=np.nan),
        lambda: cylinder_patch(r=np.inf),
        lambda: plane_patch(a=(np.nan, 0.0, 1.0)),
        lambda: cylinder_patch(axis=(np.inf, 0.0, 0.0)),
        lambda: sphere_patch(center=(0.0, 0.0, np.inf)),
        lambda: cylinder_patch(center=(np.nan, 0.0, 0.0)),
    ],
    ids=["sphere-r-negative", "cylinder-r-zero", "plane-a-not-unit", "cylinder-axis-not-unit",
         "sphere-r-nan", "sphere-r-inf", "cylinder-r-nan", "cylinder-r-inf", "plane-a-nan",
         "cylinder-axis-inf", "sphere-center-inf", "cylinder-center-nan"],
)
def test_parameter_validation(make):
    with pytest.raises(ParameterError):
        make()


def test_report_dict_schema():
    doc, table = grid_report(plane_patch(), 1.0, A, 5, 5)
    assert doc["schema_version"] == 1
    assert doc["grid"] == [5, 5]
    assert set(doc) >= {
        "patch", "alpha", "direction", "max_abs_residual", "mean_abs_residual",
        "min_K", "max_K", "min_H", "max_H", "halfspace_violations",
    }
    assert list(table) == ["u", "v", "x", "y", "z", "H", "K", "k1", "k2", "residual"]
    assert {c.shape for c in table.values()} == {(doc["valid_samples"],)} == {(25,)}


def test_overflowing_metric_is_never_a_valid_sample():
    # at r = 1e80, |du x dv|^2 and EG overflow; counted as valid, the
    # samples had a zero normal and H = K = 0, so the sphere, which fails
    # the identity at alpha = 1, read max|residual| = 0
    with pytest.raises(ParameterError) as exc:
        grid_report(sphere_patch(r=1e80), 1.0, A, 4, 4)
    assert str(exc.value) == (
        "no valid sample among 16: halfspace_violations=0, "
        "degenerate_metric=16, inconsistent_curvature=0"
    )
