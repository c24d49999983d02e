"""Fundamental forms and curvature samples on analytic patches."""
from dataclasses import replace

import numpy as np
import pytest

from singmin.surfaces import (
    Jet2Vec3,
    curvature_sample,
    cylinder_patch,
    degenerate_metric,
    inconsistent_curvature,
    sphere_patch,
)


def test_plane_forms():
    d1 = np.array([0.0, 0.0, 1.0])
    d2 = np.array([0.0, 1.0, 0.0])
    jet = Jet2Vec3(
        value=np.zeros(3), du=d1, dv=d2,
        duu=np.zeros(3), duv=np.zeros(3), dvv=np.zeros(3),
    )
    f = curvature_sample(jet)
    assert (f.E, f.F, f.G, f.L, f.M, f.N) == (1.0, 0.0, 1.0, 0.0, 0.0, 0.0)
    assert np.allclose(f.normal, np.cross(d1, d2))


def test_unit_sphere_equator_chart():
    patch = sphere_patch(r=1.0)
    f = curvature_sample(patch.jet(0.0, 0.0))
    assert f.E == pytest.approx(1.0)
    assert f.G == pytest.approx(1.0)
    assert f.F == pytest.approx(0.0, abs=1e-15)
    assert abs(f.L) == pytest.approx(1.0)
    assert abs(f.N) == pytest.approx(1.0)
    assert f.M == pytest.approx(0.0, abs=1e-15)


@pytest.mark.parametrize("r", [0.5, 1.0, 2.0])
def test_cylinder_standard_chart(r):
    patch = cylinder_patch(r=r)
    f = curvature_sample(patch.jet(0.8, 0.3))
    assert f.E == pytest.approx(r * r)
    assert f.G == pytest.approx(1.0)
    assert f.F == pytest.approx(0.0, abs=1e-15)
    assert abs(f.L) == pytest.approx(r)
    assert f.M == pytest.approx(0.0, abs=1e-15)
    assert f.N == pytest.approx(0.0, abs=1e-15)


@pytest.mark.parametrize("r", [0.5, 1.0, 3.0])
def test_sphere_curvatures_sum_convention(r):
    patch = sphere_patch(r=r)
    s = curvature_sample(patch.jet(0.6, 2.0))
    # mean curvature is the sum of the principal curvatures
    assert abs(s.H) == pytest.approx(2.0 / r, rel=1e-12)
    assert s.K == pytest.approx(1.0 / r ** 2, rel=1e-12)
    assert s.k1 == pytest.approx(s.k2, rel=1e-6)


def test_cylinder_curvatures():
    patch = cylinder_patch(r=1.0)
    s = curvature_sample(patch.jet(1.2, -0.4))
    assert s.K == pytest.approx(0.0, abs=1e-14)
    assert abs(s.H) == pytest.approx(1.0, rel=1e-12)
    assert sorted([s.k1, s.k2]) == pytest.approx(sorted([0.0, s.H]), abs=1e-12)


def test_paraboloid_graph_at_origin():
    jet = Jet2Vec3(
        value=np.zeros(3),
        du=np.array([1.0, 0.0, 0.0]),
        dv=np.array([0.0, 1.0, 0.0]),
        duu=np.array([0.0, 0.0, 2.0]),
        duv=np.zeros(3),
        dvv=np.array([0.0, 0.0, 2.0]),
    )
    s = curvature_sample(jet)
    assert s.H == pytest.approx(4.0)
    assert s.K == pytest.approx(4.0)


def test_product_and_sum_identities_on_analytic_patches():
    for patch, uv in (
        (sphere_patch(r=1.7), (0.5, 1.1)),
        (cylinder_patch(r=0.8), (1.0, 0.2)),
    ):
        s = curvature_sample(patch.jet(*uv))
        assert s.k1 * s.k2 == pytest.approx(s.K, rel=1e-12, abs=1e-12)
        assert s.k1 + s.k2 == pytest.approx(s.H, rel=1e-12)
        assert np.linalg.norm(s.normal) == pytest.approx(1.0, rel=1e-13)
        jet = patch.jet(*uv)
        assert abs(jet.du @ s.normal) < 1e-12 * np.linalg.norm(jet.du)
        assert abs(jet.dv @ s.normal) < 1e-12 * np.linalg.norm(jet.dv)


def test_degenerate_metric_rejected():
    d = np.array([1.0, 0.0, 0.0])
    jet = Jet2Vec3(value=np.zeros(3), du=d, dv=2 * d,
                   duu=np.zeros(3), duv=np.zeros(3), dvv=np.zeros(3))
    assert degenerate_metric(jet) == np.True_
    assert degenerate_metric(sphere_patch().jet(0.6, 2.0)) == np.False_


def test_inconsistent_discriminant_rejected():
    # H^2 - 4K below zero, which no real immersion produces
    s = curvature_sample(sphere_patch().jet(0.6, 2.0))
    s = replace(s, H=np.float64(0.0), K=np.float64(1.0))
    assert inconsistent_curvature(s) == np.True_


def test_umbilic_clamp():
    # tiny negative discriminant from rounding is clamped to zero
    e1, e2, e3 = np.eye(3)
    jet = Jet2Vec3(value=np.zeros(3), du=e1, dv=e2,
                   duu=e3, duv=np.zeros(3), dvv=(1.0 + 2e-13) * e3)
    s = curvature_sample(jet)
    assert s.H * s.H - 4.0 * s.K < 0.0
    assert inconsistent_curvature(s) == np.False_
    assert s.k1 == s.k2
    assert s.k1 == pytest.approx(1.0, rel=1e-6)
