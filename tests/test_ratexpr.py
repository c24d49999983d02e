"""Rational-function layer: canonical form, field ops, calculus, solvers."""
from fractions import Fraction

import pytest

from singmin.exact import (
    DegenerateSystemError,
    ExprDivisionByZero,
    NonlinearEquationError,
    Polynomial,
    RationalExpr,
    StrayMonomialError,
    SubstitutionDomainError,
    Var,
    collect_quadratic,
    solve_2x2,
    solve_linear,
)

AL = RationalExpr.variable(Var.ALPHA)
C = RationalExpr.variable(Var.C)
K = RationalExpr.variable(Var.K1)
U1 = RationalExpr.variable(Var.U1)
U2 = RationalExpr.variable(Var.U2)
W = RationalExpr.variable(Var.W)
D11 = RationalExpr.variable(Var.D11)
ONE = RationalExpr.from_number(1)

# the same variables as polynomials, to build expected values without the
# rational-function arithmetic under test
PC = Polynomial.variable(Var.C)
PK = Polynomial.variable(Var.K1)
PW = Polynomial.variable(Var.W)


class TestCanonicalForm:
    def test_zero_is_zero_over_one(self):
        z = K - K
        assert z.num.is_zero()
        assert z.den.is_one()

    def test_gcd_reduced(self):
        e = (K ** 2 - C ** 2) / (K - C)
        assert e == K + C
        assert e.den.is_one()

    def test_denominator_sign_positive(self):
        e = K / (C - K)
        assert Fraction(e.den.leading_coeff()) > 0
        assert e == (-K) / (K - C)

    def test_joint_integer_content(self):
        e = (2 * K) / RationalExpr.from_number(4)
        assert e == K / 2
        assert str(e) == "(k1)/(2)"

    def test_equality_is_structural(self):
        a = (K + C) ** 2 / (K - C)
        b = (K ** 2 + 2 * K * C + C ** 2) / (K - C)
        assert a == b
        assert hash(a) == hash(b)

    def test_immutable(self):
        with pytest.raises(AttributeError):
            K.num = None


class TestRingOps:
    def test_self_division_is_one(self):
        assert (K ** 2 - C) / (K ** 2 - C) == 1

    def test_difference_of_squares(self):
        assert (K + C) * (K - C) == RationalExpr(PK ** 2 - PC ** 2)

    def test_weighted_curvature_product(self):
        H = (K ** 2 + C) / K
        assert H * W == RationalExpr(PK ** 2 * PW + PC * PW, PK)

    def test_division_by_zero_names_operands(self):
        with pytest.raises(ExprDivisionByZero) as err:
            K / (K - K)
        assert "k1" in str(err.value)

    def test_negative_power(self):
        assert K ** -2 == 1 / K ** 2


class TestCanonicalResults:
    """Sums, products and inverses are built canonical without a second
    normalization; these are the cases where a short-cut could leave a common
    factor, integer content or a sign behind."""

    @staticmethod
    def assert_pair(e, num, den):
        assert (e.num, e.den) == (num.num, den.num)

    def test_non_unit_constant_cross_gcd(self):
        self.assert_pair((2 * K) / 3 * (3 / (2 * C)), K, C)

    def test_denominators_sharing_only_integer_content(self):
        self.assert_pair(K / 2 + C / 4, 2 * K + C, RationalExpr.from_number(4))
        self.assert_pair(1 / (2 * K) + 1 / (2 * C), C + K, 2 * C * K)

    def test_sum_cancelling_to_zero(self):
        for e in (1 / (K - C) + 1 / (C - K), C / (K * (C - K)) - 1 / (C - K) - 1 / K):
            self.assert_pair(e, RationalExpr.zero(), ONE)

    def test_zero_operands(self):
        x = K / (C - K)
        zero = RationalExpr.zero()
        for e in (zero * x, x * zero, x * 0, 0 * x, zero / x, x - x):
            self.assert_pair(e, zero, ONE)
        assert zero + x == x and x + zero == x

    def test_inverse_of_negative_leading_numerator(self):
        # k1 - c has leading term -c, so its inverse moves the sign up
        self.assert_pair(1 / (K - C), RationalExpr.from_number(-1), C - K)
        self.assert_pair(1 / (C - K), ONE, C - K)
        self.assert_pair((K - C) / K ** 2 * (1 / ((K - C) / K)), ONE, K)
        self.assert_pair((K - C) ** -2, ONE, (C - K) ** 2)


class TestPartial:
    def test_power_rule(self):
        assert (K ** 3).partial(Var.K1) == 3 * K ** 2

    def test_quotient_rule(self):
        assert (C / K).partial(Var.K1) == -C / K ** 2

    def test_constant(self):
        assert AL.partial(Var.K1).is_zero()


class TestSubstitute:
    def test_direct(self):
        got = (K ** 2 - C).substitute({Var.K1: C / K})
        assert got == RationalExpr(PC ** 2 - PC * PK ** 2, PK ** 2)

    def test_alpha_branch_value(self):
        expr = (C + K) ** 2 + AL * (C ** 2 + K ** 2)
        got = expr.substitute({Var.ALPHA: RationalExpr.from_number(-2)})
        assert got == 2 * C * K - C ** 2 - K ** 2

    def test_kill_one_variable(self):
        p1, q1, r1 = 3 * K, C / K, K ** 4
        expr = p1 * U1 ** 2 + q1 * U2 ** 2 + r1
        got = expr.substitute({Var.U1: RationalExpr.zero()})
        assert got == q1 * U2 ** 2 + r1

    def test_simultaneous(self):
        # right-hand sides evaluate in the original expression
        got = (K * C).substitute({Var.K1: C, Var.C: K})
        assert got == K * C

    def test_homomorphism_spot(self):
        a = (K + C) / (K - C)
        b = K ** 2 + AL
        bind = {Var.K1: C + 1}
        assert (a * b).substitute(bind) == a.substitute(bind) * b.substitute(bind)

    def test_zero_denominator_reported(self):
        with pytest.raises(SubstitutionDomainError):
            (K / (K - C)).substitute({Var.K1: C})

    @pytest.mark.parametrize("key", ["k1", 99], ids=["name", "int"])
    def test_key_that_is_not_a_var_is_refused(self, key):
        with pytest.raises(TypeError, match=f"^binding key {key!r} is not a Var$"):
            (K ** 2 + 1).substitute({key: 3})


class TestCollectQuadratic:
    def test_plain(self):
        a, b, rest = collect_quadratic(3 * U1 ** 2 + (C / K) * U2 ** 2 + K)
        assert a == RationalExpr.from_number(3)
        assert b == C / K
        assert rest == K

    def test_reconstruction_is_exact(self):
        expr = (AL / C) * U1 ** 2 + (K + 1) * U2 ** 2 + C ** 3 / K
        a, b, rest = collect_quadratic(expr)
        assert (a * U1 ** 2 + b * U2 ** 2 + rest - expr).is_zero()

    def test_cross_term_rejected(self):
        with pytest.raises(StrayMonomialError) as exc:
            collect_quadratic(U1 * U2 + 1)
        assert str(exc.value) == "unexpected monomial u1*u2 in (u1, u2)"

    def test_stray_monomial_is_named_in_u1_u2_only(self):
        with pytest.raises(StrayMonomialError) as exc:
            collect_quadratic(AL * U1 * U2)
        assert str(exc.value) == "unexpected monomial u1*u2 in (u1, u2)"

    def test_odd_power_rejected(self):
        with pytest.raises(StrayMonomialError):
            collect_quadratic(U1 ** 2 + U2)

    def test_denominator_in_vars_rejected(self):
        with pytest.raises(StrayMonomialError) as exc:
            collect_quadratic(K / U1)
        assert str(exc.value) == "denominator u1 involves u1 or u2"


class TestSolveLinear:
    def test_simple(self):
        assert solve_linear(2 * D11 - K, Var.D11) == K / 2

    def test_root_property(self):
        eq = (C + K) * D11 - K ** 3 / (K - C)
        root = solve_linear(eq, Var.D11)
        assert eq.substitute({Var.D11: root}).is_zero()

    def test_nonlinear_rejected(self):
        with pytest.raises(NonlinearEquationError):
            solve_linear(D11 ** 2 - K, Var.D11)

    def test_absent_unknown_rejected(self):
        with pytest.raises(NonlinearEquationError):
            solve_linear(K - C, Var.D11)


class TestSolve2x2:
    def test_numeric(self):
        x, y, det = solve_2x2(U1 + U2 - 3, U1 - U2 - 1, (Var.U1, Var.U2))
        assert x == RationalExpr.from_number(2)
        assert y == RationalExpr.from_number(1)
        assert det == RationalExpr.from_number(-2)

    def test_back_substitution(self):
        e1 = AL * U1 + C * U2 - K
        e2 = U1 - U2 + C
        x, y, _ = solve_2x2(e1, e2, (Var.U1, Var.U2))
        for eq in (e1, e2):
            assert eq.substitute({Var.U1: x, Var.U2: y}).is_zero()

    def test_degenerate_branch_signalled(self):
        with pytest.raises(DegenerateSystemError):
            solve_2x2(U1 + U2 - 1, 2 * U1 + 2 * U2 - 2, (Var.U1, Var.U2))

    def test_nonlinear_rejected(self):
        with pytest.raises(StrayMonomialError) as exc:
            solve_2x2(U1 ** 2 + U2 - 1, U1 - U2, (Var.U1, Var.U2))
        assert str(exc.value) == "unexpected monomial u1^2 in (u1, u2)"

