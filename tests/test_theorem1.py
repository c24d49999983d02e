"""Constant-Gauss-curvature chain: checkpoint content and structure."""
from fractions import Fraction

import pytest

from singmin.exact import RationalExpr, Var, divides, exact_div
from singmin.proofs import OP_E1, run_theorem1
from singmin.proofs.theorem1 import MUTABLE_RULES, targets

AL = RationalExpr.variable(Var.ALPHA)
C = RationalExpr.variable(Var.C)
K = RationalExpr.variable(Var.K1)
U1 = RationalExpr.variable(Var.U1)
U2 = RationalExpr.variable(Var.U2)


@pytest.fixture(scope="module")
def report():
    return run_theorem1()


@pytest.fixture(scope="module")
def by_name(report):
    return {cp.name: cp for cp in report.checkpoints}


def test_chain_passes(report):
    assert report.passed
    assert len(report.checkpoints) == 42


EXPECTED_NAMES = [
    "gamma-closed-form",
    "mu-closed-form",
    "gauss-identity-quadratic-form",
    "second-derivative-e1e1",
    "second-derivative-e1e2",
    "second-derivative-e2e2",
    "frame-system-eq1",
    "frame-system-eq6",
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


def test_required_checkpoints_present_and_pass(by_name):
    for name in EXPECTED_NAMES:
        assert name in by_name, name
        assert by_name[name].passed, name


def test_constraint_normalizer_is_recorded(by_name):
    assert by_name["constraint-scalar-term"].factor == -2 * C / K ** 2


def test_determinant_factor(by_name):
    A = (AL + 1) * K ** 2 + C
    B = K ** 2 + (AL + 1) * C
    assert by_name["constraint-pair-determinant"].factor == 2 * AL / (A ** 2 * B ** 2)


def at(expr: RationalExpr, point: dict) -> RationalExpr:
    """``expr`` with each variable of ``point`` bound to its number."""
    return expr.substitute({v: RationalExpr.from_number(n) for v, n in point.items()})


def test_determinant_numeric_spot_values():
    tg = targets()
    p1, q1 = tg["constraint-coeff-u1sq"], tg["constraint-coeff-u2sq"]
    p2, q2 = tg["derived-constraint-coeff-u1sq"], tg["derived-constraint-coeff-u2sq"]
    determinant = tg["constraint-pair-determinant"]
    det = p1 * q2 - p2 * q1
    # the target polynomial at (alpha, c, k1) = (3, 1, 2) is 5 * 2 * 27
    pt = {Var.ALPHA: 3, Var.C: 1, Var.K1: 2}
    assert at(determinant, pt) == 270
    # hand Cramer evaluation of the coefficient functions at the same point
    assert at(det, pt) == Fraction(405, 4624)
    # the displayed determinant vanishes at alpha = 2
    assert determinant.substitute({Var.ALPHA: RationalExpr.from_number(2)}).is_zero()


def test_branch_remainder_factors(by_name):
    assert by_name["branch-alpha-minus-2-remainder"].factor == 1
    plus2 = by_name["branch-alpha-plus-2-remainder"].factor
    assert plus2 == 1 / (3 * K ** 2 + C) ** 2
    assert plus2 is not None and not plus2.is_zero()


def test_final_polynomial_spot_values():
    final = targets()["final-curvature-polynomial"]
    assert at(final, {Var.ALPHA: 1, Var.C: 1, Var.K1: 1}) == 18
    assert at(final, {Var.ALPHA: 1, Var.C: 1, Var.K1: 0}) == 0


def test_final_factor_genericity_is_flagged(by_name):
    cp = by_name["final-curvature-polynomial"]
    assert cp.factor is not None and not cp.factor.is_zero()
    assert any("2*alpha + 3" in f for f in cp.flags)


def test_solved_square_structure():
    tg = targets()
    terms = ("coeff-u1sq", "coeff-u2sq", "scalar-term")
    p1, q1, r1 = (tg[f"constraint-{n}"] for n in terms)
    p2, q2, r2 = (tg[f"derived-constraint-{n}"] for n in terms)
    z1, z2 = tg["solved-gradient-sq-e1"], tg["solved-gradient-sq-e2"]
    # the second solved square carries the factor c * (k1^2 + (1+alpha)c)^2
    B = K ** 2 + (AL + 1) * C
    assert exact_div(z2.num, (C * B ** 2).num) is not None
    # back-substitution solves the pair exactly
    val1 = p1 * z1 + q1 * z2 + r1
    val2 = p2 * z1 + q2 * z2 + r2
    assert val1.is_zero() and val2.is_zero()


def test_mixed_second_derivative_divisible_by_gradients():
    e12 = targets()["second-derivative-e1e2"]
    assert divides((U1 * U2).num, e12.num)
    assert e12.den.degree_in(Var.U1) == 0
    assert e12.den.degree_in(Var.U2) == 0


def test_second_derivatives_height_free():
    tg = targets()
    for nm in ("e1e1", "e1e2", "e2e2"):
        assert tg[f"second-derivative-{nm}"].free_of(Var.W)


@pytest.mark.parametrize("name", ["final-curvature-polynomial", "flat-branch-polynomial"])
def test_contradiction_polynomials_are_nonzero_in_k1(name):
    poly = targets()[name]
    # genuine polynomial in k1 with coefficients free of k1, not identically 0
    assert poly.den.degree_in(Var.K1) == 0
    groups = poly.num.coeffs_in(Var.K1)
    assert any(not p.is_zero() for p in groups.values())
    for p in groups.values():
        assert p.degree_in(Var.K1) == 0


def test_flat_branch_values(by_name):
    assert by_name["flat-branch-u2sq"].expected == (K ** 2 + C) * (K ** 2 + (AL + 1) * C) / AL
    assert by_name["flat-branch-e2e2-from-derivative"].expected == (
        2 * K ** 3 + (2 + AL) * C * K
    ) / AL
    factor = by_name["flat-branch-polynomial"].factor
    assert factor == C / (AL * K ** 3 - AL * C * K)


@pytest.mark.parametrize("rule", MUTABLE_RULES)
def test_mutation_sensitivity(rule):
    mutated = run_theorem1(flip_rule=rule)
    assert not mutated.passed
    assert any(not cp.passed for cp in mutated.checkpoints)


def test_sign_flip_breaks_tangential_derivation():
    # perturbing the height-flux expansion flips the gamma checkpoint
    mutated = run_theorem1(flip_rule=(OP_E1, Var.K1))
    failed = [cp.name for cp in mutated.checkpoints if not cp.passed]
    assert failed == ["height-flux-gradient-e1"]


def test_report_is_deterministic():
    a = run_theorem1()
    b = run_theorem1()
    assert [cp.name for cp in a.checkpoints] == [cp.name for cp in b.checkpoints]
    assert [cp.to_dict() for cp in a.checkpoints] == [cp.to_dict() for cp in b.checkpoints]
