"""The batch path: a grid evaluated in one call equals a loop of single points.

Equality is exact (``==``), not approximate: batching must not move a bit.
"""
from dataclasses import replace

import numpy as np
import pytest

from singmin.catenary import CatenaryParams, CatenaryState, integrate, to_extrusion
from singmin.errors import HalfspaceViolation, ParameterError
from singmin.surfaces import (
    Jet2Vec3,
    SurfacePatch,
    curvature_sample,
    cylinder_patch,
    degenerate_metric,
    dot,
    grid_report,
    inconsistent_curvature,
    plane_patch,
    smr_residual,
    sphere_patch,
)

A = (0.0, 0.0, 1.0)
FIELDS = ("point", "normal", "E", "F", "G", "L", "M", "N", "H", "K", "k1", "k2")


def _extrusion(alpha, termination, **kw):
    params = CatenaryParams(alpha=alpha, step=1e-2, **kw)
    traj = integrate(CatenaryState(0.0, 0.0, 1.0, 0.0), params)
    assert traj.termination == termination
    return to_extrusion(traj)


PATCHES = {
    "plane": lambda: plane_patch(a=(0.6, 0.0, 0.8)),
    "sphere": lambda: sphere_patch(r=1.7, center=(0.3, -0.2, 0.0)),
    "cylinder": lambda: cylinder_patch(r=0.8, axis=(0.6, 0.8, 0.0)),
    "extrusion-smax": lambda: _extrusion(1.0, "reached-smax", smax=1.5),
    "extrusion-ymin": lambda: _extrusion(-2.0, "hit-y-min", smax=10.0, y_min=0.2),
}


def _rows(table):
    """A grid table's rows, as lists of floats."""
    return [list(row) for row in zip(*(column.tolist() for column in table.values()))]


def _rows_of_single_points(patch, alpha, u, v):
    """Grid rows computed one point at a time."""
    rows = []
    for uk, vk in zip(u, v):
        one = curvature_sample(patch.jet(uk, vk))
        expect = (uk, vk, *one.point, one.H, one.K, one.k1, one.k2,
                  smr_residual(one, alpha, A))
        rows.append([float(x) for x in expect])
    return rows


@pytest.mark.parametrize("kind", sorted(PATCHES))
def test_batch_equals_loop_of_single_points(kind):
    patch = PATCHES[kind]()
    alpha = -1.5
    u, v = patch.grid(17, 9)
    batch = curvature_sample(patch.jet(u, v))
    res = smr_residual(batch, alpha, A)
    assert batch.H.shape == (17 * 9,) and batch.point.shape == (17 * 9, 3)
    for k in range(len(u)):
        one = curvature_sample(patch.jet(u[k], v[k]))
        assert np.shape(one.H) == () and one.point.shape == (3,)
        for name in FIELDS:
            assert np.array_equal(getattr(batch, name)[k], getattr(one, name)), (name, k)
        assert res[k] == smr_residual(one, alpha, A)

    _, table = grid_report(patch, alpha, A, 17, 9)
    assert {column.shape for column in table.values()} == {(17 * 9,)}
    assert _rows(table) == _rows_of_single_points(patch, alpha, u, v)


def test_non_immersed_samples_are_skipped_and_counted():
    # the last latitude row sits on the pole, where the chart degenerates
    patch = replace(sphere_patch(r=1.0), u_range=(0.5, np.pi / 2))
    u, v = patch.grid(5, 4)
    assert degenerate_metric(patch.jet(u, v)).tolist() == [False] * 16 + [True] * 4
    rep, table = grid_report(patch, -2.0, A, 5, 4)
    assert rep["rejected_samples"] == {"degenerate_metric": 4, "inconsistent_curvature": 0}
    assert rep["halfspace_violations"] == 0
    assert rep["valid_samples"] == 16
    assert _rows(table) == _rows_of_single_points(patch, -2.0, u[:16], v[:16])


def _shear_patch(d_mid, lam=0.0):
    """dv = (1, d, 0) against du = (1, 0, 0), with d = 1 on row u = 0,
    ``d_mid`` on row u = 0.5 and 0 on row u = 1, where the patch is not
    immersed.  The second fundamental form is ``lam`` times the first, so
    every sample is umbilic."""

    def ev(u, v):
        u, v = np.broadcast_arrays(np.asarray(u, float), np.asarray(v, float))
        d = np.where(u == 0.5, d_mid, np.where(u == 1.0, 0.0, 1.0))
        one, zero = np.ones_like(d), np.zeros_like(d)
        du = np.stack([one, zero, zero], axis=-1)
        dv = np.stack([one, d, zero], axis=-1)

        def normal_part(coef):
            return np.stack([zero, zero, lam * coef], axis=-1)

        return Jet2Vec3(
            value=np.stack([u + v, d * v, one], axis=-1),
            du=du,
            dv=dv,
            duu=normal_part(dot(du, du)),
            duv=normal_part(dot(du, dv)),
            dvv=normal_part(dot(dv, dv)),
        )

    return SurfacePatch("shear", (0.0, 1.0), (0.0, 1.0), ev)


def test_one_immersion_check_keeps_a_near_degenerate_metric():
    # Row u = 0.5 is immersed: |du x dv|^2 = d^2 clears the bound, though
    # EG - F^2 = 3.997e-14 computed from the Gram entries would not.  Only
    # the three samples on row u = 1 are rejected.
    patch = _shear_patch(2.0000005e-07)
    u, v = patch.grid(3, 3)
    jet = patch.jet(u, v)
    assert degenerate_metric(jet).tolist() == [False] * 6 + [True] * 3
    s = curvature_sample(jet[:6])
    assert (s.E * s.G - s.F * s.F)[3] == pytest.approx(3.997e-14, rel=1e-3)
    rep, table = grid_report(patch, 1.0, A, 3, 3)
    assert rep["rejected_samples"] == {"degenerate_metric": 3, "inconsistent_curvature": 0}
    assert _rows(table) == _rows_of_single_points(patch, 1.0, u[:6], v[:6])


def test_inconsistent_curvature_dropped_after_the_curvature_pass():
    # On row u = 0.5 the metric is nearly degenerate and rounding drives the
    # umbilic H^2 - 4K well below zero; row u = 0 is an exact umbilic.
    patch = _shear_patch(1e-06, lam=10.0)
    u, v = patch.grid(3, 3)
    assert inconsistent_curvature(curvature_sample(patch.jet(u[:6], v[:6]))).tolist() == (
        [False] * 3 + [True] * 3
    )
    rep, table = grid_report(patch, 1.0, A, 3, 3)
    assert rep["rejected_samples"] == {"degenerate_metric": 3, "inconsistent_curvature": 3}
    assert rep["valid_samples"] == 3
    assert _rows(table) == _rows_of_single_points(patch, 1.0, u[:3], v[:3])


def test_grid_with_no_valid_sample_reports_every_count():
    # a latitude range of just the pole collapses every sample
    patch = replace(sphere_patch(r=1.0), u_range=(np.pi / 2, np.pi / 2))
    with pytest.raises(ParameterError) as exc:
        grid_report(patch, 1.0, A, 3, 3)
    assert not isinstance(exc.value, HalfspaceViolation)
    assert str(exc.value) == (
        "no valid sample among 9: halfspace_violations=0, "
        "degenerate_metric=9, inconsistent_curvature=0"
    )
    with pytest.raises(HalfspaceViolation) as exc:
        grid_report(patch, 1.0, (0.0, 0.0, -1.0), 3, 3)
    assert str(exc.value) == (
        "no valid sample among 9: halfspace_violations=9, "
        "degenerate_metric=0, inconsistent_curvature=0"
    )


def test_halfspace_violations_counted_on_a_grid_crossing_the_plane():
    patch = replace(sphere_patch(r=1.0), u_range=(0.05, 1.45))
    rep, table = grid_report(patch, -2.0, (1.0, 0.0, 0.0), 30, 30)
    assert rep["halfspace_violations"] == 420
    assert len(table["residual"]) == rep["valid_samples"] == 900 - 420
    rep, _ = grid_report(sphere_patch(r=1.0), -2.0, (0.6, 0.0, 0.8), 37, 23)
    assert rep["halfspace_violations"] == 103
