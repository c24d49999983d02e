"""Canonical rational functions over the registered indeterminates.

A ``RationalExpr`` is a pair of polynomials in Z[vars] with
``poly_gcd(num, den) == 1`` (so their joint integer content is 1), positive
leading coefficient on the denominator, and zero represented as 0/1.
Equality is therefore plain structural comparison.  All operations are exact.
Rational numbers cross the boundary only through ``from_number`` (which also
takes the ``int`` and ``Fraction`` operands of the arithmetic operators) and
``eval_rational``; floats are rejected.
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

    @classmethod
    def one(cls) -> "RationalExpr":
        return cls._wrap(Polynomial.one(), Polynomial.one())

    # -- predicates -----------------------------------------------------------
    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_one(self) -> bool:
        return self.num.is_one() and self.den.is_one()

    def is_constant(self) -> bool:
        return self.num.is_constant() and self.den.is_constant()

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
        if a.den == b.den:
            return RationalExpr(a.num + b.num, a.den)
        g = poly_gcd(a.den, b.den)
        if g.is_constant():
            return RationalExpr(a.num * b.den + b.num * a.den, a.den * b.den)
        da = exact_div(a.den, g)
        db = exact_div(b.den, g)
        num = a.num * db + b.num * da
        return RationalExpr(num, da * b.den)

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
        g1 = poly_gcd(self.num, other.den)
        g2 = poly_gcd(other.num, self.den)
        n1 = self.num if g1.is_constant() else exact_div(self.num, g1)
        d2 = other.den if g1.is_constant() else exact_div(other.den, g1)
        n2 = other.num if g2.is_constant() else exact_div(other.num, g2)
        d1 = self.den if g2.is_constant() else exact_div(self.den, g2)
        return RationalExpr(n1 * n2, d1 * d2)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "RationalExpr":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero():
            raise ExprDivisionByZero(
                f"division of {self} by the zero expression {other}"
            )
        return self * RationalExpr._wrap(*_normalize(other.den, other.num))

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
            base = RationalExpr._wrap(*_normalize(self.den, self.num))
            n = -n
        else:
            base = self
        return RationalExpr._wrap(base.num ** n, base.den ** n)

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
        from .textio import render

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
            if e is NotImplemented:
                raise TypeError(f"binding for {v!r} is not an expression")
        num_v = _poly_subs(self.num, vals)
        den_v = _poly_subs(self.den, vals)
        if den_v.is_zero():
            raise SubstitutionDomainError(
                f"substitution sends denominator {self.den!r} to zero"
            )
        return num_v / den_v

    def eval_rational(self, values: Mapping[Var, Number]) -> Fraction:
        """Exact numeric evaluation at rational points."""
        d = self.den.eval_rational(values)
        if d == 0:
            raise SubstitutionDomainError("evaluation point is a pole")
        return self.num.eval_rational(values) / d

    def degree_in(self, v: Var) -> int:
        return max(self.num.degree_in(v), self.den.degree_in(v))


def _coerce(x) -> Union[RationalExpr, type(NotImplemented)]:
    if isinstance(x, RationalExpr):
        return x
    if isinstance(x, Polynomial):
        return RationalExpr(x)
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
    if p.is_zero():
        return RationalExpr.zero()
    powers: dict[tuple[int, int], RationalExpr] = {}

    def pw(i: int, e: int) -> RationalExpr:
        key = (i, e)
        got = powers.get(key)
        if got is None:
            base = vals.get(Var(i))
            if base is None:
                base = RationalExpr.variable(Var(i))
                powers[(i, 1)] = base
            got = base ** e
            powers[key] = got
        return got

    total = RationalExpr.zero()
    for m, c in p.items():
        term = RationalExpr.from_number(c)
        for i, e in enumerate(m):
            if e:
                term = term * pw(i, e)
        total = total + term
    return total


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
        from .textio import render_poly

        raise StrayMonomialError(
            f"denominator {render_poly(den)} involves {VAR_NAMES[x]} or {VAR_NAMES[y]}"
        )
    ix, iy = int(x), int(y)
    buckets: dict[tuple[int, int], dict] = {sig: {} for sig in sigs}
    for m, c in expr.num.items():
        bucket = buckets.get((m[ix], m[iy]))
        if bucket is None:
            from .textio import render_poly

            mono = render_poly(Polynomial._raw({m: 1}))
            raise StrayMonomialError(
                f"unexpected monomial {mono} in ({VAR_NAMES[x]}, {VAR_NAMES[y]})"
            )
        key = list(m)
        key[ix] = 0
        key[iy] = 0
        bucket[tuple(key)] = c
    return {sig: RationalExpr(Polynomial._raw(t), den) for sig, t in buckets.items()}


def collect_quadratic(
    expr: RationalExpr, vars: tuple[Var, Var] = (Var.U1, Var.U2)
) -> tuple[RationalExpr, RationalExpr, RationalExpr]:
    """Split ``expr = A*x^2 + B*y^2 + rest`` with A, B, rest free of (x, y).

    Any other monomial in (x, y), or a denominator involving them, is a
    structural error naming the offender.
    """
    parts = _split(expr, vars, ((2, 0), (0, 2), (0, 0)))
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
