"""Deterministic rendering, read back by sympy."""
import pytest
import sympy

from singmin.exact import RationalExpr, Var, render

from sympy_reader import expr_terms, read

K = RationalExpr.variable(Var.K1)
C = RationalExpr.variable(Var.C)
AL = RationalExpr.variable(Var.ALPHA)
U1 = RationalExpr.variable(Var.U1)
U2 = RationalExpr.variable(Var.U2)
W = RationalExpr.variable(Var.W)


def reads_as(e: RationalExpr, text: str) -> bool:
    """sympy reads ``render(e)``, ``text`` and e's own terms as one value."""
    got = read(render(e))
    return sympy.cancel(got - read(text)) == 0 and sympy.cancel(got - expr_terms(e)) == 0


def test_render_sorted_descending():
    e = C + K ** 3 + AL * K
    assert render(e) == "k1^3 + alpha*k1 + c"


def test_render_rational():
    e = (K + 1) / (2 * C)
    assert render(e) == "(k1 + 1)/(2*c)"


def test_render_fractional_coefficient_is_faithful():
    assert reads_as(3 * K / 2 - C / 5, "3/2*k1 - c/5")


# hand-written text and the same value built with constructors
CASES = {
    "0": RationalExpr.zero(),
    "1": RationalExpr.from_number(1),
    "-7": RationalExpr.from_number(-7),
    "k1": K,
    "(k1^2 - c)/(alpha*k1 + 1)": (K ** 2 - C) / (AL * K + 1),
    "3*u1^2 + (c/k1)*u2^2 + k1": 3 * U1 ** 2 + (C / K) * U2 ** 2 + K,
    "-(w - 1)^3/(k1*(k1 - c))": -((W - 1) ** 3) / (K * (K - C)),
    "2^10": RationalExpr.from_number(2) ** 10,
}


@pytest.mark.parametrize("text", list(CASES))
def test_render_is_faithful(text):
    assert reads_as(CASES[text], text)


def test_render_is_deterministic():
    # equal expressions built along different paths render to the same bytes
    e = (AL * K - C) ** 3 / (K ** 2 - C)
    f = (AL * K - C) * (AL * K - C) * ((AL * K - C) / (K - C * K ** -1)) / K
    assert f == e
    assert render(f) == render(e)
