"""Polynomial layer: arithmetic, ordering, content, division, gcd."""
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from singmin.exact import (
    NVARS,
    Polynomial,
    RationalExpr,
    Var,
    content,
    divides,
    exact_div,
    poly_gcd,
    primitive,
)
from singmin.exact.poly import (
    MAX_DEGREE,
    mono_div,
    pack_monomial,
    unpack_monomial,
)

from replay_cost import replay_cost


def P(v: Var) -> Polynomial:
    return Polynomial.variable(v)


def mono(**powers: int) -> tuple:
    """Dense exponent tuple, e.g. ``mono(K1=2, C=1)`` for k1^2 c."""
    e = [0] * NVARS
    for name, p in powers.items():
        e[Var[name]] = p
    return tuple(e)


K = P(Var.K1)
C = P(Var.C)
AL = P(Var.ALPHA)


def test_constructor_drops_zero_coefficients():
    p = Polynomial({mono(K1=2): 0, mono(C=1): 3})
    assert len(p) == 1
    assert p.degree_in(Var.K1) == 0


def test_terms_view_has_no_zero_exponents():
    p = K * K * C
    ((m, coeff),) = p.items()
    assert coeff == 1
    assert m == mono(C=1, K1=2)


def test_rejects_floats():
    with pytest.raises(TypeError):
        Polynomial({(0,) * 15: 0.5})


def test_ring_identities():
    p = K ** 2 - C
    q = 3 * K + AL
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) * (p - q) == p * p - q * q
    assert p - p == Polynomial.zero()
    assert p * Polynomial.one() == p


def test_graded_lex_leading_monomial():
    p = K ** 3 + 5 * C ** 2 * K ** 2 + AL
    packed = [pack_monomial(m) for m, _ in p.items()]
    assert unpack_monomial(max(packed)) == mono(C=2, K1=2)
    assert p.leading_coeff() == 5


def test_monomial_order_deterministic():
    a = pack_monomial(mono(ALPHA=1))
    c = pack_monomial(mono(C=1))
    k2 = pack_monomial(mono(K1=2))
    assert k2 > a  # degree first
    assert a > c   # then lex, alpha most significant
    assert sorted([c, k2, a]) == [c, a, k2]


# -- the packed monomial against its exponent-tuple spelling -----------------

def grlex_key(m):
    """Graded lex on exponent tuples: the order packed monomials must keep."""
    return (sum(m), m)


def exponent_tuples(top=MAX_DEGREE // NVARS):
    # sparse, like the engine's monomials; equal degrees and shared fields
    # are common once Hypothesis shrinks toward small exponents
    fields = st.dictionaries(st.integers(0, NVARS - 1), st.integers(0, top), max_size=5)
    return fields.map(lambda f: tuple(f.get(i, 0) for i in range(NVARS)))


HALF = MAX_DEGREE // (2 * NVARS)
PACKING = dict(max_examples=100, deadline=None)


@given(exponent_tuples())
@settings(**PACKING)
def test_pack_round_trip(a):
    assert unpack_monomial(pack_monomial(a)) == a


@given(exponent_tuples(), exponent_tuples())
@settings(**PACKING)
def test_packed_order_is_grlex(a, b):
    pa, pb = pack_monomial(a), pack_monomial(b)
    assert (pa < pb) == (grlex_key(a) < grlex_key(b))
    assert (pa == pb) == (a == b)


@given(exponent_tuples(HALF), exponent_tuples(HALF))
@settings(**PACKING)
def test_guard_bits_decide_divisibility(a, b):
    pa, pb = pack_monomial(a), pack_monomial(b)
    q = mono_div(pa, pb)
    if all(x >= y for x, y in zip(a, b)):
        assert q == pack_monomial(tuple(x - y for x, y in zip(a, b)))
    else:
        assert q is None
    assert mono_div(pack_monomial(tuple(x + y for x, y in zip(a, b))), pb) == pa


@given(exponent_tuples(HALF), exponent_tuples(HALF))
@settings(**PACKING)
def test_packed_product_is_the_fieldwise_sum(a, b):
    want = tuple(x + y for x, y in zip(a, b))
    assert pack_monomial(a) + pack_monomial(b) == pack_monomial(want)
    assert (Polynomial({a: 2}) * Polynomial({b: 3})).items() == [(want, 6)]


# -- the constructor's monomial checks ----------------------------------------

def one_line_error(exc_type, build):
    with pytest.raises(exc_type) as err:
        build()
    assert "\n" not in str(err.value)


def test_monomial_of_the_wrong_length_is_rejected():
    # zip used to truncate it: times k1 this rendered 3*alpha*c^2
    one_line_error(ValueError, lambda: Polynomial({(1, 2): 3}))
    one_line_error(ValueError, lambda: Polynomial({mono() + (1,): 3}))


def test_negative_exponent_is_rejected():
    one_line_error(ValueError, lambda: Polynomial({(-1,) + (0,) * (NVARS - 1): 1}))


@pytest.mark.parametrize("bad", [1.0, True, "1", None])
def test_non_int_exponent_is_rejected(bad):
    one_line_error(ValueError, lambda: Polynomial({(bad,) + (0,) * (NVARS - 1): 1}))


def test_degree_above_the_field_limit_is_rejected():
    top = Polynomial({mono(K1=MAX_DEGREE): 1})
    assert top.degree_in(Var.K1) == MAX_DEGREE
    one_line_error(OverflowError, lambda: Polynomial({mono(K1=MAX_DEGREE, C=1): 1}))
    one_line_error(OverflowError, lambda: top * C)
    one_line_error(OverflowError, lambda: (K + 1) ** (MAX_DEGREE + 1))
    assert (K ** MAX_DEGREE).items() == top.items()


def test_partial_power_rule():
    assert (K ** 3).partial(Var.K1) == 3 * K ** 2
    assert (K ** 3).partial(Var.C) == Polynomial.zero()
    assert (K * C).partial(Var.K1) == C


def test_content_and_primitive():
    p = 6 * K ** 2 - 4 * C
    assert content(p) == Fraction(2)
    assert primitive(p) == 3 * K ** 2 - 2 * C
    neg = -6 * K ** 2 + 4 * C
    assert content(neg) == Fraction(-2)
    assert primitive(neg) == 3 * K ** 2 - 2 * C


@pytest.mark.parametrize(
    "p,c", [(6 * K ** 2 - 4 * C, 2), (-6 * K ** 2 + 4 * C, -2), (-K, -1), (Polynomial.zero(), 0)]
)
def test_content_is_a_signed_int(p, c):
    assert type(content(p)) is int and content(p) == c


def test_content_of_fractional_polynomial():
    # coefficients live in Z: a Fraction is rejected even when it is integral
    with pytest.raises(TypeError):
        Polynomial({mono(K1=1): Fraction(1, 2), mono(): Fraction(1, 3)})
    for coeff in (Fraction(1, 2), Fraction(2)):
        with pytest.raises(TypeError):
            Polynomial.const(coeff)
        with pytest.raises(TypeError):
            K * coeff


def test_exact_division_roundtrip():
    a = (K ** 2 - C) * (AL * K + 3)
    q = exact_div(a, K ** 2 - C)
    assert q == AL * K + 3
    assert exact_div(a, K + C) is None
    assert divides(AL * K + 3, a)


def test_exact_division_by_constant():
    assert exact_div(2 * K, Polynomial.const(2)) == K
    assert exact_div(K, Polynomial.const(2)) is None
    assert exact_div(6 * K ** 2 - 4 * C, Polynomial.const(-2)) == 2 * C - 3 * K ** 2
    # every term but the last divides: the remainder shows only at the end
    assert exact_div(4 * K ** 2 + 2 * K * C + 3, Polynomial.const(2)) is None
    assert exact_div(Polynomial.zero(), Polynomial.const(-3)) == Polynomial.zero()


def test_division_by_zero_polynomial():
    with pytest.raises(ZeroDivisionError):
        exact_div(K, Polynomial.zero())


# expected values are in canonical form: primitive with positive leading
# coefficient under graded lex, so factors like k1 - c normalize to c - k1
@pytest.mark.parametrize(
    "a,b,g",
    [
        (K ** 2 - C ** 2, K - C, C - K),
        ((K - C) ** 2 * (K + C), (K - C) * (K + C) ** 2, C ** 2 - K ** 2),
        (6 * K, 4 * K ** 2, 2 * K),
        (K, C, Polynomial.one()),
        (Polynomial.zero(), K - C, C - K),
    ],
)
def test_gcd_cases(a, b, g):
    assert poly_gcd(a, b) == g
    assert poly_gcd(b, a) == g


@pytest.mark.parametrize(
    "a,b,g",
    [
        (Polynomial.const(-6), 4 * K + 2, 2),
        (Polynomial.const(5), K, 1),
        (Polynomial.const(4), 6 * K ** 2, 2),
        (Polynomial.zero(), Polynomial.const(-3), 3),
    ],
)
def test_gcd_constant_argument(a, b, g):
    for got in (poly_gcd(a, b), poly_gcd(b, a)):
        assert got == Polynomial.const(g)
        assert got.leading_coeff() > 0


def test_gcd_multivariate_content():
    a = (AL * K ** 2 + C) * (K ** 2 - C) ** 2 * C
    b = (AL * K ** 2 + C) ** 2 * (K ** 2 - C) * C ** 3
    g = poly_gcd(a, b)
    assert g == (AL * K ** 2 + C) * (K ** 2 - C) * C


def test_gcd_sign_normalization():
    g = poly_gcd(-(K - C), (K - C) * (K + C))
    assert g == C - K
    assert Fraction(g.leading_coeff()) > 0


def test_substitute_numbers():
    p = RationalExpr(K ** 2 - C)
    n = RationalExpr.from_number
    assert p.substitute({Var.K1: n(3), Var.C: n(2)}) == Fraction(7)


def test_gcd_work_per_cold_run_all_is_bounded():
    # every denominator is kept factored over the factor base, so sums and
    # products cancel by trial division, and a gcd runs only to test a new
    # base factor for irreducibility or to refine the base.  The counts are
    # exact and repeat from run to run.
    cost = replay_cost("run_all")
    assert cost["gcd"] == {"computed": 24, "trial_divisions": 6}
    assert cost["base"] == {"size": 22, "trial_divisions": 1871, "gcds": 26}
