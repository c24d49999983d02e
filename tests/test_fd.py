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
    grid_csv,
    jet_deviation,
    plane_patch,
    sphere_patch,
    stencil_fits,
    valid_curvature,
)
from singmin.surfaces.patches import cylindrical_patch

from conftest import collect


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
        collect(curvature_report, patch, 5, 5, h)


def test_curvature_report_table_holds_the_valid_samples():
    # the last latitude row sits on the pole, where the chart degenerates
    patch = replace(sphere_patch(r=1.0), u_range=(0.5, np.pi / 2))
    doc, table = collect(curvature_report, patch, 5, 4, 1e-3)
    assert doc["rejected_samples"] == {"degenerate_metric": 4, "inconsistent_curvature": 0}
    assert list(table) == ["u", "v", "E", "F", "G", "L", "M", "N", "H", "K", "k1", "k2"]
    assert {c.shape for c in table.values()} == {(16,)}
    assert 0.0 < doc["fd_max_deviation"] < 1e-5


def _flat_then_curved(u):
    """The curve ``(w^3, 0, w^4)``, ``w = max(u - 1.7, 0)``: still, so not
    immersed, up to u = 1.7."""
    w = np.maximum(u - 1.7, 0.0)
    zero = np.zeros(u.shape)
    gamma = np.stack([w ** 3, zero, w ** 4], axis=-1)
    return gamma, lambda: (np.stack([3 * w ** 2, zero, 4 * w ** 3], axis=-1),
                           np.stack([6 * w, zero, 12 * w ** 2], axis=-1))


def test_degenerate_block_beside_a_valid_block():
    # rows 0-58 of the 70x70 grid have u <= 1.7, so the first row block
    # (samples 0-4095) has no valid sample and the second has 770
    patch = cylindrical_patch("flat-then-curved", _flat_then_curved, np.array([0.0, 1.0, 0.0]),
                              (0.0, 2.0), (0.0, 1.0))
    emitted = []
    doc = curvature_report(patch, 70, 70, 1e-3,
                           lambda table, start: emitted.append((start, table)))
    assert [(start, len(table["u"])) for start, table in emitted] == [(0, 0), (4096, 770)]
    # the whole grid as one batch: the valid samples alone
    u, v = patch.grid(70, 70, 0, 4900)
    jet = patch.jet(u, v)
    keep, sample, counts = valid_curvature(jet)
    fits = stencil_fits(patch, u, v, 1e-3) & keep
    assert counts.tolist() == [0, 4130, 0]
    assert doc["rejected_samples"] == {"degenerate_metric": 4130, "inconsistent_curvature": 0}
    assert doc["fd_max_deviation"] == jet_deviation(
        fd_jet_oracle(patch, u[fits], v[fits], 1e-3), jet[fits])
    assert np.array_equal(emitted[1][1]["K"], sample.K)
    text = "".join(grid_csv(table, start) for start, table in emitted)
    assert text.startswith("u,v,E,F,G,L,M,N,H,K,k1,k2\n")
    assert text.count("u,v,") == 1 and text.count("\n") == 771
