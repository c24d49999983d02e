"""Randomized algebra properties of the exact engine."""
from hypothesis import assume, given, settings

from singmin.exact import (
    RationalExpr,
    SubstitutionDomainError,
    Var,
    collect_quadratic,
)
from singmin.exact.poly import poly_gcd

from conftest import nonzero_polynomials, polynomials, rational_exprs

U1 = RationalExpr.variable(Var.U1)
U2 = RationalExpr.variable(Var.U2)

COMMON = dict(max_examples=60, deadline=None)


@given(rational_exprs(), rational_exprs(), rational_exprs())
@settings(**COMMON)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + (-a) == RationalExpr.zero()


@given(rational_exprs(), rational_exprs())
@settings(**COMMON)
def test_sub_and_div_invert(a, b):
    assert (a + b) - b == a
    assume(not b.is_zero())
    assert (a * b) / b == a


@given(rational_exprs())
@settings(**COMMON)
def test_normalize_idempotent(e):
    assert RationalExpr(e.num, e.den) == e


@given(rational_exprs(), rational_exprs())
@settings(**COMMON)
def test_partial_leibniz(a, b):
    v = Var.K1
    lhs = (a * b).partial(v)
    rhs = a.partial(v) * b + a * b.partial(v)
    assert lhs == rhs


@given(rational_exprs(), rational_exprs(), rational_exprs(max_degree=2, max_terms=3))
@settings(max_examples=40, deadline=None)
def test_substitute_homomorphism(a, b, value):
    bindings = {Var.K1: value}
    try:
        sa, sb = a.substitute(bindings), b.substitute(bindings)
        sm = (a * b).substitute(bindings)
        sp = (a + b).substitute(bindings)
    except SubstitutionDomainError:
        assume(False)
        return
    assert sm == sa * sb
    assert sp == sa + sb


@given(
    rational_exprs(variables=(Var.ALPHA, Var.C, Var.K1)),
    rational_exprs(variables=(Var.ALPHA, Var.C, Var.K1)),
    rational_exprs(variables=(Var.ALPHA, Var.C, Var.K1)),
)
@settings(**COMMON)
def test_collect_quadratic_reconstruction(a, b, rest):
    expr = a * U1 ** 2 + b * U2 ** 2 + rest
    ca, cb, cr = collect_quadratic(expr)
    assert (ca * U1 ** 2 + cb * U2 ** 2 + cr - expr).is_zero()
    assert ca == a and cb == b and cr == rest


GCD_KW = dict(variables=(Var.C, Var.K1, Var.U1), max_terms=3, max_degree=2)


@given(polynomials(**GCD_KW), nonzero_polynomials(**GCD_KW), nonzero_polynomials(**GCD_KW))
@settings(max_examples=40, deadline=None)
def test_gcd_divides_products(p, q, r):
    g = poly_gcd(p * r, q * r)
    from singmin.exact import divides

    assert divides(g, p * r)
    assert divides(g, q * r)
    assert divides(r, g)
