"""The factored normal form: denominators kept over the process-wide factor base.

Every result must be the pair one full gcd would give, whatever the base
held when it was computed.  The base itself depends on what the process
computed before, so the splitting paths are shown in fresh interpreters, and
two interpreters that reach the same values in opposite orders must write the
same report bytes.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
import sympy
from hypothesis import given, settings, strategies as st

import singmin
from singmin.exact import VAR_NAMES, Polynomial, RationalExpr, Var, exact_div, poly_gcd

from conftest import polynomials
from sympy_reader import SYMBOLS, poly_terms, read

PAL, PC, PK = (Polynomial.variable(v) for v in (Var.ALPHA, Var.C, Var.K1))
# shared factors: k1^2 - 1 is split by a later k1 - 1 or k1 + 1, and the
# quartic fails the linear irreducibility test, so it keeps the gcd path
POOL = (
    PK ** 2 - 1,
    PK - 1,
    15 * PC ** 2 + 6 * PC * PK ** 2 - 5 * PK ** 4,
    PK + 1,
    PK,
    PC,
    PAL + 2,
    PK ** 2 - PC,
    (PAL + 1) * PK ** 2 + PC,
)
VARS = (Var.ALPHA, Var.C, Var.K1)
GENS = tuple(SYMBOLS[VAR_NAMES[v]] for v in VARS)
OPS = ("+", "-", "*", "/", "**2", "**-1", "d/dk1", "d/dc")


def plain(num: Polynomial, den: Polynomial) -> tuple[Polynomial, Polynomial]:
    """The canonical pair by one full gcd, with no factor base."""
    if num.is_zero():
        return Polynomial.zero(), Polynomial.one()
    g = poly_gcd(num, den)
    num, den = exact_div(num, g), exact_div(den, g)
    if den.leading_coeff() < 0:
        num, den = -num, -den
    return num, den


def to_sympy(p: Polynomial) -> sympy.Poly:
    return sympy.Poly(poly_terms(p), *GENS, domain=sympy.ZZ)


def check(e: RationalExpr, num: Polynomial, den: Polynomial) -> None:
    """``e`` is num/den in the canonical form a full gcd gives, and in the
    one sympy's ``cancel`` gives, up to sign."""
    assert (e.num, e.den) == plain(num, den)
    p, q = to_sympy(num).cancel(to_sympy(den), include=True)
    assert (to_sympy(e.num), to_sympy(e.den)) in ((p, q), (-p, -q))


def unreduced(a: RationalExpr, op: str, b: RationalExpr):
    """``a op b`` through the engine, and its pair before any cancelling."""
    if op == "+":
        return a + b, a.num * b.den + b.num * a.den, a.den * b.den
    if op == "-":
        return a - b, a.num * b.den - b.num * a.den, a.den * b.den
    if op == "*":
        return a * b, a.num * b.num, a.den * b.den
    if op == "/":
        return a / b, a.num * b.den, a.den * b.num
    if op == "**2":
        return a ** 2, a.num ** 2, a.den ** 2
    if op == "**-1":
        return a ** -1, a.den, a.num
    v = Var.K1 if op == "d/dk1" else Var.C
    return a.partial(v), a.num.partial(v) * a.den - a.num * a.den.partial(v), a.den ** 2


@st.composite
def operands(draw):
    """A numerator and a denominator built from the shared factors."""
    num = draw(polynomials(variables=VARS, max_terms=3, max_degree=2, coeff_bound=6))
    den = Polynomial.const(draw(st.sampled_from((1, 2, 3, 6))))
    for f in draw(st.lists(st.sampled_from(POOL), max_size=3)):
        den = den * f
    for f in draw(st.lists(st.sampled_from(POOL), max_size=2)):
        num = num * f
    return num, den


@given(operands(), st.lists(st.tuples(st.sampled_from(OPS), operands()), min_size=1, max_size=3))
@settings(max_examples=50, deadline=None)
def test_chained_results_match_one_full_gcd_and_sympy(first, steps):
    acc = RationalExpr(*first)
    check(acc, *first)
    for op, (num, den) in steps:
        b = RationalExpr(num, den)
        check(b, num, den)
        if (op == "/" and b.is_zero()) or (op == "**-1" and acc.is_zero()):
            continue
        acc, n, d = unreduced(acc, op, b)
        check(acc, n, d)


# Each script starts from an empty base, makes k1^2 - 1 an entry (it fails
# the linear test) and then brings in a factor of it one way.
SPLITS = {
    # k1 - 1 enters as a denominator and is irreducible: it divides the entry
    "linear-denominator": "1 / (K - 1)",
    # (k1 + 1)^2 fails the linear test: a gcd with the entry refines both
    "nonlinear-denominator": "1 / (K ** 2 + 2 * K + 1)",
    # k1 - 1 as a numerator: the entry does not divide it, a gcd shows a factor
    "numerator": "K - 1",
}
SPLIT_SCRIPT = """
import json, sys
from singmin.exact import RationalExpr, Var, ratexpr, render_poly
K, U = RationalExpr.variable(Var.K1), RationalExpr.variable(Var.U1)
a = 1 / (K ** 2 - 1)
base = lambda: sorted((render_poly(f.poly), f.irreducible) for f in ratexpr._BASE)
before = base()
b = eval(sys.argv[1])
print(json.dumps({"before": before, "product": str(a * b), "sum": str(a + b),
                  "after": base()}))
"""


def fresh(script: str, *args: str) -> str:
    """The standard output of ``script`` in a fresh interpreter."""
    env = {**os.environ, "PYTHONPATH": str(Path(singmin.__file__).parents[1])}
    return subprocess.run([sys.executable, "-c", script, *args], env=env,
                          capture_output=True, text=True, check=True).stdout


@pytest.mark.parametrize("second", list(SPLITS.values()), ids=list(SPLITS))
def test_a_later_factor_splits_a_reducible_entry(second):
    got = json.loads(fresh(SPLIT_SCRIPT, second))
    assert got["before"] == [["k1^2 - 1", False]]
    assert got["after"] == [["k1 + 1", True], ["k1 - 1", True]]
    K = RationalExpr.variable(Var.K1)
    a, b = 1 / (K ** 2 - 1), eval(second)
    assert (got["product"], got["sum"]) == (str(a * b), str(a + b))


@pytest.mark.parametrize("second,after", [
    # u1*(k1 + 2) is linear in k1 and in u1, and the coefficients in either
    # have a common factor: both factors join as irreducible, and no later
    # gcd has to split the product
    ("1 / (U * (K + 2))", [["k1 + 2", True], ["k1^2 - 1", False], ["u1", True]]),
    # (k1 + 1)*(k1*u1 + 1) has the coefficients k1^2 + k1 and k1 + 1 in u1:
    # their gcd k1 + 1 splits the entry k1^2 - 1, and the cofactor joins
    ("1 / ((K + 1) * (U * K + 1))", [["k1 + 1", True], ["k1 - 1", True], ["k1*u1 + 1", True]]),
], ids=["coprime-to-the-base", "splits-an-entry"])
def test_a_linear_factor_and_the_gcd_of_its_coefficients_enter_apart(second, after):
    got = json.loads(fresh(SPLIT_SCRIPT, second))
    assert got["after"] == after
    K, U = RationalExpr.variable(Var.K1), RationalExpr.variable(Var.U1)
    a, b = 1 / (K ** 2 - 1), eval(second)
    assert (got["product"], got["sum"]) == (str(a * b), str(a + b))


def test_the_base_after_a_cold_run_is_coprime_and_primitive():
    script = ("from singmin.exact import ratexpr, render_poly\n"
              "from singmin.proofs import run_all\n"
              "run_all()\n"
              "for f in ratexpr._BASE: print(render_poly(f.poly), f.irreducible)\n")
    entries = [line.rsplit(" ", 1) for line in fresh(script).splitlines()]
    polys = [sympy.Poly(read(text), *read(text).free_symbols) for text, _ in entries]
    for (text, irreducible), p in zip(entries, polys):
        assert p.primitive()[0] == 1, text
        if irreducible == "True":
            assert [e for _, e in sympy.factor_list(p.as_expr())[1]] == [1], text
    for i, p in enumerate(polys):
        for q in polys[:i]:
            assert sympy.gcd(p.as_expr(), q.as_expr()).is_number


ORDER_SCRIPT = """
import sys
from singmin.proofs import reports_to_json, run_all, theorem1, theorem2, theorem3
mutants = [(run, rule) for module, run in ((theorem1, theorem1.run_theorem1),
                                           (theorem2, theorem2.run_theorem2),
                                           (theorem3, theorem3.run_theorem3))
           for rule in module.build_context()]
assert len(mutants) == 26
out = {}
if sys.argv[1] == "forward":
    out["prove"] = reports_to_json(run_all())
for i in (range(26) if sys.argv[1] == "forward" else reversed(range(26))):
    run, rule = mutants[i]
    out[i] = reports_to_json([run(flip_rule=rule)])
if sys.argv[1] == "backward":
    out["prove"] = reports_to_json(run_all())
sys.stdout.write(out["prove"] + "".join(out[i] for i in range(26)))
"""


def test_report_bytes_do_not_depend_on_what_the_base_held_before():
    # the mutants run before run_all() in one interpreter and after it in
    # the other, so the two bases grow in different orders
    assert fresh(ORDER_SCRIPT, "forward") == fresh(ORDER_SCRIPT, "backward")
