"""Acceptance gate: every criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail line
per criterion.
"""
import math
import time

from singmin.catenary import (
    CatenaryParams,
    CatenaryState,
    first_integral,
    integrate,
    to_extrusion,
)
from singmin.proofs import run_theorem1, run_theorem2, run_theorem3
from singmin.proofs.theorem1 import MUTABLE_RULES
from singmin.surfaces import (
    cylinder_patch,
    fd_jet_oracle,
    grid_report,
    jet_deviation,
    plane_patch,
    sphere_patch,
)

A = (0.0, 0.0, 1.0)


def _report(criterion: str, ok: bool, detail: str) -> bool:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} — {detail}")
    return ok


def test_criterion_1_theorem1_replication():
    t0 = time.perf_counter()
    rep = run_theorem1()
    elapsed = time.perf_counter() - t0
    names = {cp.name: cp for cp in rep.checkpoints}
    required = [
        "gamma-closed-form",
        "mu-closed-form",
        "second-derivative-e1e1",
        "second-derivative-e1e2",
        "second-derivative-e2e2",
        "constraint-coeff-u1sq",
        "constraint-coeff-u2sq",
        "constraint-scalar-term",
        "derived-constraint-coeff-u1sq",
        "derived-constraint-coeff-u2sq",
        "derived-constraint-scalar-term",
        "constraint-pair-determinant",
        "branch-alpha-minus-2-remainder",
        "branch-alpha-plus-2-remainder",
        "solved-gradient-sq-e1",
        "solved-gradient-sq-e2",
        "final-curvature-polynomial",
        "flat-branch-u2sq",
        "flat-branch-polynomial",
    ]
    ok = rep.passed and all(n in names and names[n].passed for n in required)
    ok = ok and elapsed < 60.0
    assert _report(
        "criterion-1",
        ok,
        f"theorem-1 chain, {len(rep.checkpoints)} checkpoints exact, {elapsed:.2f}s < 60s",
    )


def test_criterion_2_theorem2_replication():
    t0 = time.perf_counter()
    rep = run_theorem2()
    elapsed = time.perf_counter() - t0
    names = {cp.name: cp for cp in rep.checkpoints}
    required = [
        "second-derivative-e2e2",
        "branch-alpha-minus-2",
        "gradient-sq-e2",
        "final-curvature-polynomial",
    ]
    ok = rep.passed and all(n in names and names[n].passed for n in required)
    ok = ok and elapsed < 10.0
    assert _report(
        "criterion-2", ok, f"theorem-2 chain exact, {elapsed:.2f}s < 10s"
    )


def test_criterion_3_theorem3_replication():
    t0 = time.perf_counter()
    rep = run_theorem3()
    elapsed = time.perf_counter() - t0
    ok = rep.passed and len(rep.checkpoints) == 2 and elapsed < 1.0
    assert _report(
        "criterion-3", ok, f"both constant-H identities exact, {elapsed:.3f}s < 1s"
    )


def test_criterion_4_frame_system_redundancy():
    rep = run_theorem1()
    eqs = [cp for cp in rep.checkpoints if cp.name.startswith("frame-system-eq")]
    ok = len(eqs) == 6 and all(cp.passed and cp.mode == "exact-zero" for cp in eqs)
    assert _report("criterion-4", ok, "all six frame-system equations vanish exactly")


def test_criterion_5_example_catalog():
    t0 = time.perf_counter()
    plane = plane_patch()
    plane_max = max(
        grid_report(plane, alpha, A, 50, 50)[0]["max_abs_residual"]
        for alpha in (-2.0, -1.0, 1.0, 3.7)
    )
    sphere = sphere_patch(r=1.0)
    sphere_good = grid_report(sphere, -2.0, A, 50, 50)[0]["max_abs_residual"]
    cyl = cylinder_patch(r=1.0)
    cyl_good = grid_report(cyl, -1.0, A, 50, 50)[0]["max_abs_residual"]
    sphere_bad = grid_report(sphere, -1.0, A, 50, 50)[0]["max_abs_residual"]
    cyl_bad = grid_report(cyl, 1.0, A, 50, 50)[0]["max_abs_residual"]
    elapsed = time.perf_counter() - t0
    ok = (
        plane_max < 1e-12
        and sphere_good < 1e-9
        and cyl_good < 1e-9
        and sphere_bad > 0.5
        and cyl_bad > 0.5
        and elapsed < 5.0
    )
    assert _report(
        "criterion-5",
        ok,
        f"plane {plane_max:.1e}, sphere {sphere_good:.1e}, cylinder {cyl_good:.1e}, "
        f"controls {sphere_bad:.2f}/{cyl_bad:.2f}, {elapsed:.2f}s < 5s",
    )


def test_criterion_6_catenary_accuracy():
    cat = integrate(
        CatenaryState(0, 0, 1, 0), CatenaryParams(alpha=1.0, step=1e-3, smax=2.0)
    )
    _, x, y, theta = cat.states.T.tolist()
    cosh_err = max(abs(yk - math.cosh(xk)) for xk, yk in zip(x, y))
    cat_drift = max(abs(first_integral(yk, tk, 1.0) - 1.0) for yk, tk in zip(y, theta))

    circ = integrate(
        CatenaryState(0, 0, 1, 0), CatenaryParams(alpha=-1.0, step=1e-3, smax=2.0)
    )
    _, x, y, _ = circ.states.T.tolist()
    circ_err = max(abs(xk ** 2 + yk ** 2 - 1.0) for xk, yk in zip(x, y))
    # the drift gauge assumes the curve stays away from the singular plane
    circ_bounded = integrate(
        CatenaryState(0, 0, 1, 0),
        CatenaryParams(alpha=-1.0, step=1e-3, smax=2.0, y_min=0.1),
    )
    _, _, y, theta = circ_bounded.states.T.tolist()
    circ_drift = max(abs(first_integral(yk, tk, -1.0) - 1.0) for yk, tk in zip(y, theta))

    def err(alpha, step, closed):
        traj = integrate(
            CatenaryState(0, 0, 1, 0),
            CatenaryParams(alpha=alpha, step=step, smax=2.0, y_min=0.1),
        )
        _, x, y, _ = traj.states.T.tolist()
        return max(abs(closed(xk, yk)) for xk, yk in zip(x, y))

    ratios = [
        err(1.0, 0.04, lambda x, y: y - math.cosh(x))
        / err(1.0, 0.02, lambda x, y: y - math.cosh(x)),
        err(-1.0, 0.04, lambda x, y: x ** 2 + y ** 2 - 1.0)
        / err(-1.0, 0.02, lambda x, y: x ** 2 + y ** 2 - 1.0),
    ]
    ok = (
        cosh_err < 1e-8
        and circ_err < 1e-8
        and cat_drift < 1e-10
        and circ_drift < 1e-10
        and all(12.0 <= r <= 20.0 for r in ratios)
    )
    assert _report(
        "criterion-6",
        ok,
        f"cosh {cosh_err:.1e}, circle {circ_err:.1e}, drift {cat_drift:.1e}/{circ_drift:.1e}, "
        f"halving ratios {ratios[0]:.1f}/{ratios[1]:.1f} in [12, 20]",
    )


def test_criterion_7_extruded_flatness():
    cases = [
        (1.0, dict(smax=2.0, y_min=1e-3)),
        (-1.0, dict(smax=2.0, y_min=1e-3)),
        (-2.0, dict(smax=0.4, y_min=0.2)),
        (2.0, dict(smax=2.0, y_min=1e-3)),
    ]
    worst_k = 0.0
    worst_res = 0.0
    worst_time = 0.0
    for alpha, kw in cases:
        t0 = time.perf_counter()
        traj = integrate(
            CatenaryState(0, 0, 1, 0), CatenaryParams(alpha=alpha, step=1e-3, **kw)
        )
        rep, _ = grid_report(to_extrusion(traj), alpha, A, 50, 10)
        worst_time = max(worst_time, time.perf_counter() - t0)
        worst_k = max(worst_k, abs(rep["min_K"]), abs(rep["max_K"]))
        worst_res = max(worst_res, rep["max_abs_residual"])
    ok = worst_k < 1e-10 and worst_res < 1e-6 and worst_time < 5.0
    assert _report(
        "criterion-7",
        ok,
        f"max|K| {worst_k:.1e} < 1e-10, max|residual| {worst_res:.1e} < 1e-6, "
        f"slowest case {worst_time:.2f}s < 5s",
    )


def test_criterion_8_oracle_agreement():
    ratios = []
    for patch, uv in (
        (sphere_patch(r=1.0), (0.7, 1.3)),
        (cylinder_patch(r=1.0), (1.0, 0.2)),
    ):
        exact = patch.jet(*uv)
        d1 = jet_deviation(fd_jet_oracle(patch, *uv, 1e-3), exact)
        d2 = jet_deviation(fd_jet_oracle(patch, *uv, 5e-4), exact)
        ratios.append(d1 / d2)
    ok = all(3.5 <= r <= 4.5 for r in ratios)
    assert _report(
        "criterion-8",
        ok,
        f"fd convergence ratios sphere {ratios[0]:.2f}, cylinder {ratios[1]:.2f} in [3.5, 4.5]",
    )


def test_criterion_9_mutation_sensitivity():
    failures = {}
    for rule in MUTABLE_RULES:
        mutated = run_theorem1(flip_rule=rule)
        failures[rule] = sum(1 for cp in mutated.checkpoints if not cp.passed)
    ok = all(n >= 1 for n in failures.values())
    assert _report(
        "criterion-9",
        ok,
        f"every single-rule sign flip fails >= 1 checkpoint "
        f"({len(failures)} rules exercised)",
    )
