"""Exact arithmetic: rationals, multivariate polynomials, rational functions."""
from .errors import (
    AlgebraError,
    DegenerateSystemError,
    ExprDivisionByZero,
    NonlinearEquationError,
    ParseError,
    StrayMonomialError,
    SubstitutionDomainError,
)
from .poly import Polynomial, content, divides, exact_div, poly_gcd, primitive
from .ratexpr import RationalExpr, collect_quadratic, solve_2x2, solve_linear
from .symbols import NAME_TO_VAR, NVARS, VAR_NAMES, Var
from .textio import parse, render, render_poly

__all__ = [
    "AlgebraError",
    "DegenerateSystemError",
    "ExprDivisionByZero",
    "NAME_TO_VAR",
    "NVARS",
    "NonlinearEquationError",
    "ParseError",
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
    "parse",
    "poly_gcd",
    "primitive",
    "render",
    "render_poly",
    "solve_2x2",
    "solve_linear",
]
