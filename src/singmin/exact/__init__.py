"""Exact arithmetic: rationals, multivariate polynomials, rational functions."""
from .errors import (
    AlgebraError,
    DegenerateSystemError,
    ExprDivisionByZero,
    NonlinearEquationError,
    StrayMonomialError,
    SubstitutionDomainError,
)
from .poly import Polynomial, content, divides, exact_div, poly_gcd, primitive
from .ratexpr import RationalExpr, collect_quadratic, solve_2x2, solve_linear
from .symbols import NVARS, VAR_NAMES, Var
from .textio import render, render_poly

__all__ = [
    "AlgebraError",
    "DegenerateSystemError",
    "ExprDivisionByZero",
    "NVARS",
    "NonlinearEquationError",
    "Polynomial",
    "RationalExpr",
    "StrayMonomialError",
    "SubstitutionDomainError",
    "VAR_NAMES",
    "Var",
    "collect_quadratic",
    "content",
    "divides",
    "exact_div",
    "poly_gcd",
    "primitive",
    "render",
    "render_poly",
    "solve_2x2",
    "solve_linear",
]
