"""Shared strategies and helpers for the test suite."""
from __future__ import annotations

import hypothesis.strategies as st
import pytest

from singmin.exact import NVARS, Polynomial, RationalExpr, Var
from singmin.proofs import theorem1, theorem2, theorem3

SMALL_VARS = (Var.ALPHA, Var.C, Var.K1, Var.U1)

CHAINS = {
    "theorem1": (theorem1.build_context, theorem1.run_theorem1),
    "theorem2": (theorem2.build_context, theorem2.run_theorem2),
    "theorem3": (theorem3.build_context, theorem3.run_theorem3),
}

def sign_flip_cases():
    """One ``(chain, rule)`` param per rule of every chain."""
    for chain, (build_context, _) in CHAINS.items():
        for rule in build_context():
            yield pytest.param(chain, rule, id=f"{chain}-{rule[0]},{rule[1].name}")


@st.composite
def polynomials(draw, variables=SMALL_VARS, max_terms=4, max_degree=3, coeff_bound=9):
    n_terms = draw(st.integers(min_value=0, max_value=max_terms))
    terms: dict[tuple, int] = {}
    for _ in range(n_terms):
        exps = [0] * NVARS
        for v in variables:
            exps[int(v)] = draw(st.integers(min_value=0, max_value=max_degree))
        c = draw(st.integers(min_value=-coeff_bound, max_value=coeff_bound))
        key = tuple(exps)
        terms[key] = terms.get(key, 0) + c
    return Polynomial(terms)


@st.composite
def nonzero_polynomials(draw, **kwargs):
    p = draw(polynomials(**kwargs))
    if p.is_zero():
        return Polynomial.one()
    return p


@st.composite
def rational_exprs(draw, **kwargs):
    num = draw(polynomials(**kwargs))
    den = draw(nonzero_polynomials(**kwargs))
    return RationalExpr(num, den)
