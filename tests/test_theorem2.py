"""Constant-principal-curvature chain."""
import pytest

from singmin.exact import RationalExpr, Var
from singmin.proofs import OP_E2, run_theorem2
from singmin.proofs.theorem2 import targets

AL = RationalExpr.variable(Var.ALPHA)
C = RationalExpr.variable(Var.C)
K = RationalExpr.variable(Var.K1)


@pytest.fixture(scope="module")
def report():
    return run_theorem2()


@pytest.fixture(scope="module")
def by_name(report):
    return {cp.name: cp for cp in report.checkpoints}


def test_chain_passes(report):
    assert report.passed


def test_gradient_square_display(by_name):
    tg = targets()
    expected = (
        (C - K)
        * ((AL + 1) * C + K)
        * ((AL + 1) * C ** 2 + 2 * C * K + (AL + 1) * K ** 2)
        / (2 * AL * (AL + 2))
    )
    assert tg["gradient-sq-e2"] == expected
    assert by_name["gradient-sq-e2"].passed


def test_reduction_factors(by_name):
    assert by_name["reduced-gauss-identity"].factor == C / (C - K) ** 2
    assert by_name["branch-alpha-minus-2"].factor == -C / (2 * C - 2 * K)
    assert by_name["final-curvature-polynomial"].factor == 3 * C / (4 * AL)


def test_final_quadratic_structure():
    tg = targets()
    quad = tg["final-curvature-polynomial"]
    assert quad == -(AL - 1) * K ** 2 + 2 * (AL + 1) * C * K + (AL + 1) * C ** 2
    assert quad.den.degree_in(Var.K1) == 0
    groups = quad.num.coeffs_in(Var.K1)
    assert all(p.degree_in(Var.K1) == 0 for p in groups.values())
    assert any(not p.is_zero() for p in groups.values())


def test_mutation_breaks_chain():
    mutated = run_theorem2(flip_rule=(OP_E2, Var.K1))
    assert not mutated.passed
