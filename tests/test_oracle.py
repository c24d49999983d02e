"""Differential oracle: the exact kernel against sympy's polynomials over ZZ.

sympy is a required test dependency: without it the module fails to collect.
"""
import pytest
import sympy
from hypothesis import assume, example, given, settings, strategies as st

from singmin.exact import NVARS, Polynomial, RationalExpr, Var, exact_div, poly_gcd
from singmin.exact import poly as poly_module

from conftest import SMALL_VARS, nonzero_polynomials, polynomials, rational_exprs

VARS = SMALL_VARS[:3]
GENS = sympy.symbols("x0:%d" % len(VARS))
COMMON = dict(max_examples=80, deadline=None)
SMALL = dict(variables=VARS, max_terms=3, max_degree=2, coeff_bound=6)
# polynomials free of VARS[0], the variable the subresultant sequence eliminates
REST = dict(variables=VARS[1:], max_terms=2, max_degree=1, coeff_bound=4)


def to_sympy(p):
    terms = {tuple(m[int(v)] for v in VARS): c for m, c in p.items()}
    return sympy.Poly.from_dict(terms or {(0,) * len(GENS): 0}, *GENS, domain=sympy.ZZ)


def same_up_to_sign(a, b):
    return a == b or a == -b


def check_gcd(a, b):
    g = to_sympy(poly_gcd(a, b))
    assert same_up_to_sign(g, sympy.gcd(to_sympy(a), to_sympy(b)))


@given(polynomials(**SMALL), polynomials(**SMALL), polynomials(**SMALL), st.integers(-12, 12))
@settings(**COMMON)
def test_gcd_matches_sympy(f, g, h, k):
    check_gcd(f * g, f * h)
    check_gcd(g, h)
    check_gcd(Polynomial.const(k), f * g)
    check_gcd(f * g, Polynomial.const(k))


@st.composite
def in_main_variable(draw):
    """A polynomial of degree 1 or 2 in ``VARS[0]`` with coefficients in the
    other variables."""
    x = Polynomial.variable(VARS[0])
    degree = draw(st.integers(1, 2))
    lead = draw(nonzero_polynomials(**REST)) * x ** degree
    return sum((draw(polynomials(**REST)) * x ** i for i in range(degree)), lead)


_C = Polynomial.variable(Var.C)
_K = Polynomial.variable(Var.K1)


@given(in_main_variable(), polynomials(**REST), in_main_variable(), in_main_variable())
# remainder sequences whose degree drops by more than one, which the draws
# above (degree at most 2) never reach: the subresultant h update for delta > 1
@example(f=_C + _K, c=Polynomial.one(), g=_C ** 4 + _K, h=_C ** 2 + 3)
@example(f=_C - 2 * _K, c=_K + 1, g=_C ** 5 + _K, h=_C ** 2 + _K)
@settings(**COMMON)
def test_subresultant_gcd_matches_sympy(f, c, g, h):
    # the heuristic gcd succeeds on nearly every input, so without it the
    # subresultant fallback would go untested; c is free of the main variable,
    # so the gcd has a content part there too
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(poly_module, "_gcdheu", lambda f, g, depth=0: None)
        # a pair the heuristic already solved must not come back from the memo
        mp.setattr(poly_module, "_GCD_MEMO", {})
        check_gcd(f * c * g, f * c * h)
        check_gcd(g, h)


_X = Polynomial.variable(VARS[0])
_Y = Polynomial.variable(VARS[1])


@given(polynomials(**SMALL), polynomials(**SMALL), polynomials(**SMALL), polynomials(**SMALL))
@example(f=_K ** 2 - _C, g=_X + 1, h=_K ** 2 + _C, k=_X - 1)
@settings(**COMMON)
def test_gcd_of_coprime_products_matches_sympy(f, g, h, k):
    # the gcd of coprime products is a unit up to integer content: the
    # heuristic reconstructs the candidate 1 and returns it without a trial
    # division; the memo is emptied so that path runs on every draw
    a, b = f * g, h * k
    assume(sympy.gcd(to_sympy(a), to_sympy(b)).is_ground)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(poly_module, "_GCD_MEMO", {})
        check_gcd(a, b)
        if not (a.is_zero() or b.is_zero()):
            assert poly_gcd(poly_module.primitive(a), poly_module.primitive(b)).is_one()


@pytest.mark.parametrize("f,g", [
    # Knuth, TAOCP vol. 2, section 4.6.1: degrees 8, 6, 4, 2, 1, 0
    (_X ** 8 + _X ** 6 - 3 * _X ** 4 - 3 * _X ** 3 + 8 * _X ** 2 + 2 * _X - 5,
     3 * _X ** 6 + 5 * _X ** 4 - 4 * _X ** 2 - 9 * _X + 21),
    # degrees 6, 5, 3, 2, 1, 0: the gap of two comes after h has left 1
    (_X ** 6 + _X ** 5 - _X ** 2 + 2 * _X + _Y + 1, (_Y + 1) * _X ** 5 + _X ** 2 + 2),
], ids=["knuth", "gap-after-first-step"])
def test_subresultant_sequence_matches_sympy(f, g):
    # the divisor of each pseudo-remainder is the next member of the
    # subresultant sequence, so a wrong h update shows as a wrongly scaled
    # divisor or as an inexact division; the gcd alone would not show it
    divisors = []
    prem = poly_module._prem

    def recording_prem(a, b):
        divisors.append(to_sympy(poly_module._join(b, VARS[0])))
        return prem(a, b)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(poly_module, "_gcdheu", lambda f, g, depth=0: None)
        mp.setattr(poly_module, "_GCD_MEMO", {})
        mp.setattr(poly_module, "_prem", recording_prem)
        assert poly_gcd(f, g) == Polynomial.one()
    sequence = sympy.subresultants(to_sympy(f), to_sympy(g))
    # the pair is coprime: the last member is a constant remainder, never a divisor
    assert len(divisors) == len(sequence) - 2
    for got, want in zip(divisors, sequence[1:]):
        assert same_up_to_sign(got, want)


def check_div(a, b):
    q, r = sympy.div(to_sympy(a), to_sympy(b), auto=False)
    got = exact_div(a, b)
    if r.is_zero:
        assert got is not None and to_sympy(got) == q
    else:
        assert got is None


@given(polynomials(**SMALL), nonzero_polynomials(**SMALL), polynomials(**SMALL),
       st.integers(-3, 3))
@settings(**COMMON)
def test_exact_div_matches_sympy(a, b, q, k):
    check_div(a, b)
    check_div(b * q, b)
    check_div(b * q, b * k if k else b)


def from_sympy(p):
    out = {}
    for exps, c in p.terms():
        m = [0] * NVARS
        for v, e in zip(VARS, exps):
            m[int(v)] = e
        out[tuple(m)] = int(c)
    return Polynomial(out)


def integral_quotient(a, b):
    """a/b when b divides a in Z[VARS], else None, by sympy's division over
    QQ: a single divisor is a Groebner basis, so a zero remainder means b
    divides a over QQ, and the quotient must still have integer coefficients."""
    q, r = sympy.div(to_sympy(a).set_domain(sympy.QQ), to_sympy(b).set_domain(sympy.QQ))
    if not r.is_zero or any(c.q != 1 for c in q.coeffs()):
        return None
    return from_sympy(q)


@st.composite
def divisors(draw):
    """A constant, a monomial or a polynomial of two or more terms."""
    kind = draw(st.sampled_from(("constant", "monomial", "multi-term")))
    if kind == "multi-term":
        p = draw(polynomials(**SMALL))
        assume(len(p) >= 2)
        return p
    m = [0] * NVARS
    if kind == "monomial":
        for v in VARS:
            m[int(v)] = draw(st.integers(0, 2))
    return Polynomial({tuple(m): draw(st.integers(-6, 6).filter(bool))})


def divide_checked(a, b):
    """exact_div(a, b), asserting that the dividend is left untouched."""
    terms = a._t
    before = dict(terms)
    got = exact_div(a, b)
    assert a._t is terms and terms == before
    return got


@given(polynomials(**SMALL), divisors(), polynomials(**SMALL))
@settings(**COMMON)
def test_exact_div_returns_the_cofactor(q, b, r):
    assert divide_checked(q * b, b) == q
    assert integral_quotient(q * b, b) == q
    a = q * b + r
    assert divide_checked(a, b) == integral_quotient(a, b)


@given(polynomials(**SMALL), nonzero_polynomials(**SMALL), nonzero_polynomials(**SMALL))
@settings(**COMMON)
def test_normal_form_matches_sympy_cancel(num, den, f):
    e = RationalExpr(num * f, den * f)
    p, q = to_sympy(num * f).cancel(to_sympy(den * f), include=True)
    got_num, got_den = to_sympy(e.num), to_sympy(e.den)
    assert (got_num, got_den) in ((p, q), (-p, -q))


def unreduced_pairs(a, b):
    """Each fast-path result of a and b with its pair before any gcd."""
    yield a + b, a.num * b.den + b.num * a.den, a.den * b.den
    yield a - b, a.num * b.den - b.num * a.den, a.den * b.den
    yield a * b, a.num * b.num, a.den * b.den
    if not b.is_zero():
        yield a / b, a.num * b.den, a.den * b.num
        yield b ** -2, b.den ** 2, b.num ** 2


@given(rational_exprs(**SMALL), rational_exprs(**SMALL))
@settings(**COMMON)
def test_fast_paths_match_full_normalization_and_sympy_cancel(a, b):
    for got, num, den in unreduced_pairs(a, b):
        full = RationalExpr(num, den)
        assert (got.num, got.den) == (full.num, full.den)
        p, q = to_sympy(num).cancel(to_sympy(den), include=True)
        assert (to_sympy(got.num), to_sympy(got.den)) in ((p, q), (-p, -q))
