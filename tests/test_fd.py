"""Finite-difference oracle vs analytic jets."""
import math
from dataclasses import replace

import numpy as np
import pytest

from singmin.errors import ParameterError
from singmin.surfaces import (
    curvature_report,
    cylinder_patch,
    fd_jet_oracle,
    jet_deviation,
    plane_patch,
    sphere_patch,
)


def test_plane_oracle_is_exact():
    patch = plane_patch()
    for h in (0.3, 1e-2, 1e-4):
        dev = jet_deviation(fd_jet_oracle(patch, 1.0, 0.0, h), patch.jet(1.0, 0.0))
        assert dev < 1e-11


@pytest.mark.parametrize(
    "patch,uv",
    [
        (sphere_patch(r=1.0), (0.7, 1.3)),
        (cylinder_patch(r=1.0), (1.0, 0.2)),
    ],
)
def test_second_order_convergence(patch, uv):
    exact = patch.jet(*uv)
    d1 = jet_deviation(fd_jet_oracle(patch, *uv, 1e-3), exact)
    d2 = jet_deviation(fd_jet_oracle(patch, *uv, 5e-4), exact)
    assert 3.5 <= d1 / d2 <= 4.5


def test_zero_step_rejected():
    with pytest.raises(ParameterError):
        fd_jet_oracle(sphere_patch(), 0.7, 1.3, 0.0)


def test_stencil_outside_domain_rejected():
    patch = sphere_patch()
    with pytest.raises(ParameterError):
        fd_jet_oracle(patch, patch.u_range[0], 1.0, 1e-3)


@pytest.mark.parametrize("slot", ["du", "dv", "duu", "duv", "dvv"])
def test_nan_in_any_slot_gives_nan_deviation(slot):
    patch = sphere_patch()
    exact = patch.jet(0.7, 1.3)
    broken = np.array(getattr(exact, slot), dtype=float)
    broken[1] = np.nan
    assert math.isnan(jet_deviation(replace(exact, **{slot: broken}), exact))
    assert math.isnan(jet_deviation(exact, replace(exact, **{slot: broken})))


@pytest.mark.parametrize("h", [1e-300, 1e-17])
def test_step_that_does_not_move_a_sample_is_rejected(h):
    # 0.7 + h == 0.7, so a difference quotient is 0 / 0 at 1e-300, where
    # h*h underflows, and a silent 0 at 1e-17
    patch = sphere_patch()
    with pytest.raises(ParameterError, match="does not move sample"):
        fd_jet_oracle(patch, 0.7, 1.3, h)
    with pytest.raises(ParameterError, match="does not move sample"):
        curvature_report(patch, 5, 5, h)


def test_curvature_report_table_holds_the_valid_samples():
    # the last latitude row sits on the pole, where the chart degenerates
    patch = replace(sphere_patch(r=1.0), u_range=(0.5, np.pi / 2))
    doc, table = curvature_report(patch, 5, 4, 1e-3)
    assert doc["rejected_samples"] == {"degenerate_metric": 4, "inconsistent_curvature": 0}
    assert list(table) == ["u", "v", "E", "F", "G", "L", "M", "N", "H", "K", "k1", "k2"]
    assert {c.shape for c in table.values()} == {(16,)}
    assert 0.0 < doc["fd_max_deviation"] < 1e-5
