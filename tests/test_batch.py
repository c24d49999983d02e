"""The batch path: a grid evaluated in one call equals a loop of single points.

Equality is exact (``==``), not approximate: batching must not move a bit.
"""
import numpy as np
import pytest

from singmin.catenary import CatenaryParams, CatenaryState, integrate, to_extrusion
from singmin.errors import DegenerateMetricError
from singmin.surfaces import (
    GRID_CSV_COLUMNS,
    Jet2Vec3,
    SurfacePatch,
    curvature_sample,
    cylinder_patch,
    grid_report,
    plane_patch,
    smr_residual,
    sphere_patch,
    swap_parameters,
)

A = (0.0, 0.0, 1.0)
FIELDS = ("point", "normal", "E", "F", "G", "L", "M", "N", "H", "K", "k1", "k2")


def _extrusion(alpha, **kw):
    params = CatenaryParams(alpha=alpha, step=1e-2, **kw)
    return to_extrusion(integrate(CatenaryState(0.0, 0.0, 1.0, 0.0), params))


PATCHES = {
    "plane": lambda: plane_patch(a=(0.6, 0.0, 0.8)),
    "sphere": lambda: sphere_patch(r=1.7, center=(0.3, -0.2, 0.0)),
    "cylinder": lambda: cylinder_patch(r=0.8, axis=(0.6, 0.8, 0.0)),
    "sphere-swapped": lambda: swap_parameters(sphere_patch(r=1.3)),
    "extrusion-smax": lambda: _extrusion(1.0, smax=1.5),
    "extrusion-ymin": lambda: _extrusion(-2.0, smax=10.0, y_min=0.2),
}


@pytest.mark.parametrize("kind", sorted(PATCHES))
def test_batch_equals_loop_of_single_points(kind):
    patch = PATCHES[kind]()
    if kind == "extrusion-smax":
        assert patch.metadata["termination"] == "reached-smax"
    if kind == "extrusion-ymin":
        assert patch.metadata["termination"] == "hit-y-min"
    alpha = -1.5
    u, v = patch.grid(17, 9)
    batch = curvature_sample(patch.jet(u, v))
    res = smr_residual(batch, batch.point, alpha, A)
    assert batch.H.shape == (17 * 9,) and batch.point.shape == (17 * 9, 3)
    for k in range(len(u)):
        one = curvature_sample(patch.jet(u[k], v[k]))
        assert np.shape(one.H) == () and one.point.shape == (3,)
        for name in FIELDS:
            assert np.array_equal(getattr(batch, name)[k], getattr(one, name)), (name, k)
        assert res[k] == smr_residual(one, one.point, alpha, A)

    rows = grid_report(patch, alpha, A, 17, 9).samples
    assert rows.shape == (17 * 9, len(GRID_CSV_COLUMNS))
    for k, row in enumerate(rows):
        one = curvature_sample(patch.jet(u[k], v[k]))
        expect = (u[k], v[k], *one.point, one.H, one.K, one.k1, one.k2,
                  smr_residual(one, one.point, alpha, A))
        assert row.tolist() == [float(x) for x in expect]


def test_non_immersed_sample_aborts_the_grid():
    # the last latitude row sits on the pole, where the chart degenerates
    patch = sphere_patch(r=1.0, lat_range=(0.5, np.pi / 2))
    with pytest.raises(DegenerateMetricError) as exc:
        grid_report(patch, -2.0, A, 5, 4)
    assert str(exc.value) == "patch 'sphere' is not immersed at (u, v) = (1.5708, 0)"


def _shear_patch():
    """dv = (1, d, 0) against du = (1, 0, 0): row u = 0.5 is immersed but its
    metric is numerically degenerate; row u = 1 is not immersed at all."""

    def ev(u, v):
        u, v = np.broadcast_arrays(np.asarray(u, float), np.asarray(v, float))
        d = np.where(u == 0.5, 2.0000005e-07, np.where(u == 1.0, 0.0, 1.0))
        one, zero = np.ones_like(d), np.zeros_like(d)
        flat = np.stack([zero, zero, zero], axis=-1)
        return Jet2Vec3(
            value=np.stack([u + v, d * v, one], axis=-1),
            du=np.stack([one, zero, zero], axis=-1),
            dv=np.stack([one, d, zero], axis=-1),
            duu=flat,
            duv=flat,
            dvv=flat,
        )

    return SurfacePatch("shear", (0.0, 1.0), (0.0, 1.0), ev)


def test_first_bad_sample_in_row_major_order_wins():
    # A single batch runs the immersion check on every sample before any
    # metric check; the grid must still report the earlier sample's error.
    patch = _shear_patch()
    with pytest.raises(DegenerateMetricError, match="not immersed"):
        curvature_sample(patch.jet(*patch.grid(3, 3)))
    with pytest.raises(DegenerateMetricError) as exc:
        grid_report(patch, 1.0, A, 3, 3)
    assert str(exc.value) == "metric determinant 3.997e-14 is degenerate (E+G=2.000e+00)"


def test_halfspace_violations_counted_on_a_grid_crossing_the_plane():
    patch = sphere_patch(r=1.0, lat_range=(0.05, 1.45))
    rep = grid_report(patch, -2.0, (1.0, 0.0, 0.0), 30, 30)
    assert rep.halfspace_violations == 420
    assert len(rep.samples) == rep.to_dict()["valid_samples"] == 900 - 420
    rep = grid_report(sphere_patch(r=1.0), -2.0, (0.6, 0.0, 0.8), 37, 23)
    assert rep.halfspace_violations == 103
