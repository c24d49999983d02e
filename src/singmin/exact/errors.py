"""Error types raised by the exact engine."""
from __future__ import annotations


class AlgebraError(Exception):
    """Base class for exact-engine failures."""


class ExprDivisionByZero(AlgebraError, ZeroDivisionError):
    """Division by an identically zero expression; names both operands."""


class SubstitutionDomainError(AlgebraError):
    """A substitution drove a denominator to the zero expression."""


class StrayMonomialError(AlgebraError):
    """An expression has a monomial shape the caller ruled out."""


class NonlinearEquationError(AlgebraError):
    """solve_linear received an equation of degree != 1 in the unknown."""


class DegenerateSystemError(AlgebraError):
    """solve_2x2 hit an identically zero determinant."""
