"""Canonical rational functions over the registered indeterminates.

A ``RationalExpr`` is a pair of polynomials in Z[vars] with
``poly_gcd(num, den) == 1`` (so their joint integer content is 1), positive
leading coefficient on the denominator, and zero represented as 0/1.
Equality is therefore plain structural comparison.  All operations are exact.
Rational numbers cross the boundary only through ``from_number`` (which also
takes the ``int`` and ``Fraction`` operands of the arithmetic operators);
floats are rejected.  ``substitute`` is the one evaluator: binding every
variable to a number yields a constant expression.  It and the splitters
behind ``collect_quadratic`` and ``solve_2x2`` read terms only through
``Polynomial.coeffs_in``, never as exponent tuples.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Union

from .errors import (
    DegenerateSystemError,
    ExprDivisionByZero,
    NonlinearEquationError,
    StrayMonomialError,
    SubstitutionDomainError,
)
from .poly import Polynomial, exact_div, poly_gcd
from .symbols import VAR_NAMES, Var
from .textio import render, render_poly

Number = Union[int, Fraction]


class RationalExpr:
    """Exact multivariate rational function in canonical form."""

    __slots__ = ("num", "den", "_hash")

    def __init__(self, num: Polynomial, den: Polynomial | None = None):
        if den is None:
            den = Polynomial.one()
        num, den = _normalize(num, den)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, *args):
        raise AttributeError("RationalExpr is immutable")

    @classmethod
    def _wrap(cls, num: Polynomial, den: Polynomial) -> "RationalExpr":
        """Trusted constructor for already-canonical pairs."""
        obj = object.__new__(cls)
        object.__setattr__(obj, "num", num)
        object.__setattr__(obj, "den", den)
        object.__setattr__(obj, "_hash", None)
        return obj

    # -- constructors ---------------------------------------------------------
    @classmethod
    def from_number(cls, q: Number) -> "RationalExpr":
        if isinstance(q, int):
            return cls._wrap(Polynomial.const(q), Polynomial.one())
        if not isinstance(q, Fraction):
            raise TypeError("exact numbers only (int or Fraction)")
        return cls._wrap(Polynomial.const(q.numerator), Polynomial.const(q.denominator))

    @classmethod
    def variable(cls, v: Var) -> "RationalExpr":
        return cls._wrap(Polynomial.variable(v), Polynomial.one())

    @classmethod
    def zero(cls) -> "RationalExpr":
        return cls._wrap(Polynomial.zero(), Polynomial.one())

    # -- predicates -----------------------------------------------------------
    def is_zero(self) -> bool:
        return self.num.is_zero()

    def free_of(self, *vars: Var) -> bool:
        return all(
            self.num.degree_in(v) == 0 and self.den.degree_in(v) == 0 for v in vars
        )

    def variables(self) -> tuple[Var, ...]:
        seen = set(self.num.variables()) | set(self.den.variables())
        return tuple(sorted(seen))

    # -- ring operations ------------------------------------------------------
    def __add__(self, other) -> "RationalExpr":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self, other
        # Henrici: with g = gcd(den_a, den_b), only gcd(t, g) can cancel
        g = a.den if a.den == b.den else poly_gcd(a.den, b.den)
        if g.is_one():
            return RationalExpr._wrap(a.num * b.den + b.num * a.den, a.den * b.den)
        da = exact_div(a.den, g)
        t = a.num * exact_div(b.den, g) + b.num * da
        if t.is_zero():
            return RationalExpr.zero()
        d = poly_gcd(t, g)
        if d.is_one():
            return RationalExpr._wrap(t, da * b.den)
        return RationalExpr._wrap(exact_div(t, d), da * exact_div(b.den, d))

    __radd__ = __add__

    def __neg__(self) -> "RationalExpr":
        return RationalExpr._wrap(-self.num, self.den)

    def __sub__(self, other) -> "RationalExpr":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "RationalExpr":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other) -> "RationalExpr":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return RationalExpr.zero()
        # Henrici: dividing out the cross gcds leaves a canonical product
        n1, d1, n2, d2 = self.num, self.den, other.num, other.den
        g1 = poly_gcd(n1, d2)
        if not g1.is_one():
            n1, d2 = exact_div(n1, g1), exact_div(d2, g1)
        g2 = poly_gcd(n2, d1)
        if not g2.is_one():
            n2, d1 = exact_div(n2, g2), exact_div(d1, g2)
        return RationalExpr._wrap(n1 * n2, d1 * d2)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "RationalExpr":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero():
            raise ExprDivisionByZero(
                f"division of {self} by the zero expression {other}"
            )
        return self * other._inverse()

    def __rtruediv__(self, other) -> "RationalExpr":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __pow__(self, n: int) -> "RationalExpr":
        if not isinstance(n, int):
            raise TypeError("exponent must be an int")
        if n < 0:
            if self.is_zero():
                raise ExprDivisionByZero(f"negative power of zero expression {self}")
            base = self._inverse()
            n = -n
        else:
            base = self
        return RationalExpr._wrap(base.num ** n, base.den ** n)

    def _inverse(self) -> "RationalExpr":
        """den/num of a nonzero canonical pair: only the sign needs fixing."""
        if self.num.leading_coeff() < 0:
            return RationalExpr._wrap(-self.den, -self.num)
        return RationalExpr._wrap(self.den, self.num)

    def __eq__(self, other) -> bool:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.num, self.den))
            object.__setattr__(self, "_hash", h)
        return h

    def __str__(self) -> str:
        return render(self)

    def __repr__(self) -> str:
        return f"RationalExpr({self})"

    # -- calculus -------------------------------------------------------------
    def partial(self, v: Var) -> "RationalExpr":
        """Formal partial derivative (quotient rule, canonical result)."""
        dn = self.num.partial(v)
        dd = self.den.partial(v)
        if dd.is_zero():
            return RationalExpr(dn, self.den)
        return RationalExpr(dn * self.den - self.num * dd, self.den * self.den)

    def substitute(self, bindings: Mapping[Var, "RationalExpr"]) -> "RationalExpr":
        """Simultaneous substitution; errors if a denominator collapses to 0."""
        vals = {v: _coerce(e) for v, e in bindings.items()}
        for v, e in vals.items():
            if not isinstance(v, Var):
                raise TypeError(f"binding key {v!r} is not a Var")
            if e is NotImplemented:
                raise TypeError(f"binding for {v!r} is not an expression")
        num_v = _poly_subs(self.num, vals)
        den_v = _poly_subs(self.den, vals)
        if den_v.is_zero():
            raise SubstitutionDomainError(
                f"substitution sends denominator {self.den!r} to zero"
            )
        return num_v / den_v


def _coerce(x) -> Union[RationalExpr, type(NotImplemented)]:
    if isinstance(x, RationalExpr):
        return x
    try:
        return RationalExpr.from_number(x)
    except TypeError:
        return NotImplemented


def _normalize(num: Polynomial, den: Polynomial) -> tuple[Polynomial, Polynomial]:
    if den.is_zero():
        raise ExprDivisionByZero(f"zero denominator under {num!r}")
    if num.is_zero():
        return Polynomial.zero(), Polynomial.one()

    # poly_gcd includes gcd(content(num), content(den)), so the quotients
    # have joint integer content 1
    g = poly_gcd(num, den)
    if not g.is_one():
        num = exact_div(num, g)
        den = exact_div(den, g)
    if den.leading_coeff() < 0:
        num = -num
        den = -den
    return num, den


def _poly_subs(p: Polynomial, vals: Mapping[Var, RationalExpr]) -> RationalExpr:
    """p with its bound variables replaced, by Horner's rule in one of them at
    a time.  The coefficients of ``coeffs_in(v)`` are free of v, so no value
    is substituted into again and the substitution stays simultaneous."""
    for v in p.variables():
        val = vals.get(v)
        if val is not None:
            groups = p.coeffs_in(v)
            total = RationalExpr.zero()
            for e in range(max(groups), -1, -1):
                total = total * val
                if e in groups:
                    total = total + _poly_subs(groups[e], vals)
            return total
    return RationalExpr._wrap(p, Polynomial.one())


# -- spec-level operations ------------------------------------------------------

def _split(
    expr: RationalExpr, vars: tuple[Var, Var], sigs: tuple[tuple[int, int], ...]
) -> dict[tuple[int, int], RationalExpr]:
    """Coefficients of ``expr`` by exponent signature in ``vars = (x, y)``:
    ``{(i, j): c}`` for each (i, j) in ``sigs``, in that order, with every c
    free of (x, y) and ``expr == sum(c * x^i * y^j)``.

    Any other monomial in (x, y), or a denominator involving them, is a
    ``StrayMonomialError`` naming the offender.
    """
    x, y = vars
    den = expr.den
    if den.degree_in(x) or den.degree_in(y):
        raise StrayMonomialError(
            f"denominator {render_poly(den)} involves {VAR_NAMES[x]} or {VAR_NAMES[y]}"
        )
    found: dict[tuple[int, int], Polynomial] = {}
    for i, by_x in expr.num.coeffs_in(x).items():
        for j, c in by_x.coeffs_in(y).items():
            if (i, j) not in sigs:
                mono = render_poly(Polynomial.variable(x) ** i * Polynomial.variable(y) ** j)
                raise StrayMonomialError(
                    f"unexpected monomial {mono} in ({VAR_NAMES[x]}, {VAR_NAMES[y]})"
                )
            found[i, j] = c
    return {sig: RationalExpr(found.get(sig, Polynomial.zero()), den) for sig in sigs}


def collect_quadratic(expr: RationalExpr) -> tuple[RationalExpr, RationalExpr, RationalExpr]:
    """Split ``expr = A*u1^2 + B*u2^2 + rest`` with A, B, rest free of (u1, u2).

    Any other monomial in (u1, u2), or a denominator involving them, is a
    structural error naming the offender.
    """
    parts = _split(expr, (Var.U1, Var.U2), ((2, 0), (0, 2), (0, 0)))
    return parts[2, 0], parts[0, 2], parts[0, 0]


def solve_linear(eq: RationalExpr, unknown: Var) -> RationalExpr:
    """Unique root of an equation of degree exactly one in ``unknown``."""
    deg = eq.num.degree_in(unknown)
    if deg != 1:
        raise NonlinearEquationError(
            f"equation has degree {deg} in {unknown.name}, expected 1"
        )
    groups = eq.num.coeffs_in(unknown)
    a = groups.get(1, Polynomial.zero())
    b = groups.get(0, Polynomial.zero())
    return RationalExpr(-b, a)


def solve_2x2(
    e1: RationalExpr, e2: RationalExpr, unknowns: tuple[Var, Var]
) -> tuple[RationalExpr, RationalExpr, RationalExpr]:
    """Solve two equations linear in two unknowns; returns (x, y, det).

    An identically zero determinant signals the degenerate branch via
    ``DegenerateSystemError``.
    """
    sigs = ((1, 0), (0, 1), (0, 0))
    (a1, b1, c1), (a2, b2, c2) = (_split(eq, unknowns, sigs).values() for eq in (e1, e2))
    det = a1 * b2 - a2 * b1
    if det.is_zero():
        raise DegenerateSystemError("coefficient determinant is identically zero")
    sol_x = (b1 * c2 - b2 * c1) / det
    sol_y = (a2 * c1 - a1 * c2) / det
    return sol_x, sol_y, det
