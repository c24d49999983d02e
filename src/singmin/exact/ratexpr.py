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

Each denominator also carries its factorization: an integer content times
powers of entries of one process-wide factor base, a list of pairwise
coprime, primitive polynomials with positive leading coefficients.  So
cancelling needs no gcd: a sum's denominator is the lcm by maximum
exponents, and only a base factor that both denominators hold to the same
power can then divide the new numerator; a product cancels each numerator
against the other side's base factors; a power and ``partial`` scale
exponents.  Each candidate factor is tried by ``exact_div``.  A polynomial
enters the base only as a new denominator (``_inverse`` and the full
constructor): it is trial-divided by the base, and a cofactor that is left
joins the base.  A primitive cofactor of degree 1 in some variable, whose
two coefficients in that variable are coprime, is irreducible, so a failed
trial division by it shows coprimality.  For any other entry a failed trial
division leaves a proper common factor possible: ``poly_gcd`` runs there,
against a new cofactor and against a numerator that entry did not divide,
and an entry that shares a factor is split (factor refinement: Bach,
Driscoll and Shallit, J. Algorithms 1993).  Which factors the base holds
depends on what the process computed before, but the canonical pair does
not, so no output does either.
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import Mapping, Union

from .errors import (
    DegenerateSystemError,
    ExprDivisionByZero,
    NonlinearEquationError,
    StrayMonomialError,
    SubstitutionDomainError,
)
from .poly import Polynomial, content, exact_div, poly_gcd
from .symbols import VAR_NAMES, Var
from .textio import render, render_poly

Number = Union[int, Fraction]
Factored = dict  # base factor -> exponent


class RationalExpr:
    """Exact multivariate rational function in canonical form."""

    __slots__ = ("num", "den", "_dc", "_fac", "_hash")

    def __init__(self, num: Polynomial, den: Polynomial | None = None):
        if den is None:
            den = Polynomial.one()
        if den.is_zero():
            raise ExprDivisionByZero(f"zero denominator under {num!r}")
        if num.is_zero():
            num, den, dc, fac = Polynomial.zero(), Polynomial.one(), 1, {}
        else:
            if den.leading_coeff() < 0:
                num, den = -num, -den
            dc, fac = _factor(den)
            num, den, dc, fac = _cancel(num, den, dc, fac, fac, True)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "_dc", dc)
        object.__setattr__(self, "_fac", fac)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, *args):
        raise AttributeError("RationalExpr is immutable")

    @classmethod
    def _wrap(cls, num: Polynomial, den: Polynomial, dc: int = 1,
              fac: Factored = {}) -> "RationalExpr":
        """Trusted constructor for a canonical pair, ``den == dc * prod(f^e
        for f, e in fac)``; ``fac`` is never mutated, so the shared default
        is safe."""
        obj = object.__new__(cls)
        object.__setattr__(obj, "num", num)
        object.__setattr__(obj, "den", den)
        object.__setattr__(obj, "_dc", dc)
        object.__setattr__(obj, "_fac", fac)
        object.__setattr__(obj, "_hash", None)
        return obj

    def _factors(self) -> Factored:
        """The denominator's base factorization, in the base as it is now."""
        return _live(self._fac)

    def _over_den(self, num: Polynomial) -> "RationalExpr":
        """``num`` over this expression's denominator, in canonical form."""
        if num.is_zero():
            return RationalExpr.zero()
        fac = self._factors()
        return RationalExpr._wrap(*_cancel(num, self.den, self._dc, fac, fac, True))

    # -- constructors ---------------------------------------------------------
    @classmethod
    def from_number(cls, q: Number) -> "RationalExpr":
        if isinstance(q, int):
            return cls._wrap(Polynomial.const(q), Polynomial.one())
        if not isinstance(q, Fraction):
            raise TypeError("exact numbers only (int or Fraction)")
        return cls._wrap(Polynomial.const(q.numerator), Polynomial.const(q.denominator),
                         q.denominator)

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
        fa, fb = a._factors(), b._factors()
        # the denominator is the lcm by maximum exponents; a base factor that
        # one side holds to a higher power than the other cannot divide t
        fac = dict(fa)
        up_a: Factored = {}  # lcm / a.den, and up_b = lcm / b.den
        up_b = {f: e for f, e in fa.items() if f not in fb}
        equal = []
        for f, e in fb.items():
            d = e - fa.get(f, 0)
            if d > 0:
                up_a[f] = d
                fac[f] = e
            elif d < 0:
                up_b[f] = -d
            else:
                equal.append(f)
        g = math.gcd(a._dc, b._dc)
        ma = _expand(b._dc // g, up_a)
        mb = _expand(a._dc // g, up_b)
        t = (a.num if ma is None else a.num * ma) + (b.num if mb is None else b.num * mb)
        if t.is_zero():
            return RationalExpr.zero()
        lcm = a.den if ma is None else a.den * ma
        # an integer prime cancels only if it divides both contents
        return RationalExpr._wrap(*_cancel(t, lcm, a._dc // g * b._dc, fac, equal, g > 1))

    __radd__ = __add__

    def __neg__(self) -> "RationalExpr":
        return RationalExpr._wrap(-self.num, self.den, self._dc, self._fac)

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
        # each numerator is coprime to its own denominator, so cancelling it
        # against the other side's factors leaves a canonical product
        fb = other._factors()
        n1, d2, d2c, f2 = _cancel(self.num, other.den, other._dc, fb, fb, True)
        fa = self._factors()  # read after the first cancel, which may split an entry
        n2, d1, d1c, f1 = _cancel(other.num, self.den, self._dc, fa, fa, True)
        fac = _live(f1)
        for f, e in _live(f2).items():
            fac[f] = fac.get(f, 0) + e
        return RationalExpr._wrap(n1 * n2, d1 * d2, d1c * d2c, fac)

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
        if n == 0:
            return RationalExpr.from_number(1)
        return RationalExpr._wrap(base.num ** n, base.den ** n, base._dc ** n,
                                  {f: e * n for f, e in base._factors().items()})

    def _inverse(self) -> "RationalExpr":
        """den/num of a nonzero canonical pair: the numerator, sign fixed,
        becomes a denominator and is factored over the base."""
        num, den = self.num, self.den
        if num.leading_coeff() < 0:
            num, den = -num, -den
        return RationalExpr._wrap(den, num, *_factor(num))

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
        """Formal partial derivative (quotient rule, canonical result).

        With den = dc * prod(f^e) and R the product of the factors that hold
        v, d(num/den)/dv = (num'*R - num * sum(e * f' * R/f)) / (den * R).
        An irreducible f holding v does not divide that numerator (it would
        have to divide num, f' or R/f), so only the other factors are tried.
        """
        fac = self._factors()
        held = [f for f in fac if f.poly.degree_in(v)]
        if not held:
            return self._over_den(self.num.partial(v))
        r = _expand(1, {f: 1 for f in held})
        t = self.num.partial(v) * r
        for f in held:
            rest = _expand(fac[f], {h: 1 for h in held if h is not f})
            t = t - self.num * (f.poly.partial(v) if rest is None else f.poly.partial(v) * rest)
        if t.is_zero():
            return RationalExpr.zero()
        fac = dict(fac)
        for f in held:
            fac[f] += 1
        tried = [f for f in fac if f not in held or not f.irreducible]
        return RationalExpr._wrap(*_cancel(t, self.den * r, self._dc, fac, tried, True))

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


# -- the factor base --------------------------------------------------------------

class _Factor:
    """One entry of the factor base.  ``parts`` is None while the entry is in
    the base, and its base factorization once refinement has split it."""

    __slots__ = ("poly", "irreducible", "parts")

    def __init__(self, poly: Polynomial, irreducible: bool | None = None):
        self.poly = poly
        if irreducible is None:
            g = _linear_gcd(poly)
            irreducible = g is not None and g.is_constant()
        self.irreducible = irreducible
        self.parts: list[tuple[_Factor, int]] | None = None


# Pairwise coprime, primitive, positive leading coefficient; kept for the
# life of the process, in the order the entries were made.
_BASE: list[_Factor] = []


def _linear_gcd(p: Polynomial) -> Polynomial | None:
    """gcd(a, b) when primitive p is a*x + b in some variable x, else None.
    p / gcd(a, b) is then irreducible: a factor free of x would divide both
    of its coefficients, which are coprime."""
    pairs = []
    for x in p.variables():
        if p.degree_in(x) == 1:
            groups = p.coeffs_in(x)
            a, b = groups[1], groups.get(0, Polynomial.zero())
            # a constant a or b is coprime to the other, p being primitive
            if a.is_constant() or b.is_constant() and not b.is_zero():
                return Polynomial.one()
            pairs.append((a, b))
    # a common factor of a and b divides p, so one gcd settles it either way
    return poly_gcd(*pairs[0]) if pairs else None


def _trial(p: Polynomial, f: _Factor) -> Polynomial | None:
    """One trial division by a base factor: p / f, or None."""
    return exact_div(p, f.poly)


def _divide_out(p: Polynomial, f: _Factor, most: int | None = None) -> tuple[Polynomial, int]:
    """p with f divided out as often as it goes, but at most ``most`` times,
    and how often it went."""
    k = 0
    while k != most and (q := _trial(p, f)) is not None:
        p, k = q, k + 1
    return p, k


def _live(fac: Factored) -> Factored:
    """``fac`` over the current base: split entries replaced by their parts."""
    if all(f.parts is None for f in fac):
        return fac
    out: Factored = {}
    todo = list(fac.items())
    while todo:
        f, e = todo.pop()
        if f.parts is None:
            out[f] = out.get(f, 0) + e
        else:
            todo.extend((g, e * k) for g, k in f.parts)
    return out


def _expand(c: int, powers: Factored) -> Polynomial | None:
    """c * prod(f^e), or None for 1."""
    out = None if c == 1 else Polynomial.const(c)
    for f, e in powers.items():
        p = f.poly ** e
        out = p if out is None else out * p
    return out


def _factor(p: Polynomial) -> tuple[int, Factored]:
    """Content and base factorization of p (positive leading coefficient),
    its cofactor over the base added to the base."""
    c = content(p)
    rest = exact_div(p, Polynomial.const(c)) if c != 1 else p
    fac: Factored = {}
    for f in _BASE:
        if rest.is_constant():
            break
        rest, k = _divide_out(rest, f)
        if k:
            fac[f] = k
    if not rest.is_constant():
        for f, k in _enter(rest):
            fac[f] = fac.get(f, 0) + k
    return c, _live(fac)


def _enter(p: Polynomial) -> list[tuple[_Factor, int]]:
    """The base factorization of p, primitive, non-constant and coprime to
    every irreducible entry, after its new factors have joined the base."""
    g = _linear_gcd(p)
    if g is not None and not g.is_constant():
        # p = g * q with q linear in x and irreducible, and g free of x: q
        # joins as it is, and g is factored over the base q has joined
        return _enter(exact_div(p, g)) + list(_factor(g)[1].items())
    reducible = [f for f in _BASE if not f.irreducible]
    new = _Factor(p, g is not None)
    if new.irreducible:
        # p joins as it is; an entry that p divides is split
        for f in reducible:
            rest, k = _divide_out(f.poly, new)
            if k:
                _retire(f, [(new, k)] + ([] if rest.is_constant() else [(_add(_Factor(rest)), 1)]))
        return [(_add(new), 1)]
    hits = [f for f in reducible if not poly_gcd(p, f.poly).is_constant()]
    n = len(hits) + 1
    pieces = _refine([(p, (1,) + (0,) * (n - 1))] + [
        (f.poly, tuple(int(i == j) for i in range(n))) for j, f in enumerate(hits, 1)
    ])
    made = [(_add(_Factor(q)), exps) for q, exps in pieces]
    for j, f in enumerate(hits, 1):
        _retire(f, [(g, exps[j]) for g, exps in made if exps[j]])
    return [(g, exps[0]) for g, exps in made if exps[0]]


def _add(f: _Factor) -> _Factor:
    _BASE.append(f)
    return f


def _retire(f: _Factor, parts: list[tuple[_Factor, int]]) -> None:
    _BASE.remove(f)
    f.parts = parts


def _refine(items: list[tuple[Polynomial, tuple[int, ...]]]) -> list[tuple[Polynomial, tuple[int, ...]]]:
    """Factor refinement: pairwise coprime primitive pieces q with exponent
    vectors, such that item i is the product of q ** exps[i]."""
    done: list[tuple[Polynomial, tuple[int, ...]]] = []
    todo = list(items)
    while todo:
        q, eq = todo.pop()
        if q.is_constant():
            continue
        for i, (r, er) in enumerate(done):
            g = poly_gcd(q, r)
            if not g.is_constant():
                del done[i]
                todo += [(exact_div(q, g), eq), (g, tuple(map(sum, zip(eq, er)))),
                         (exact_div(r, g), er)]
                break
        else:
            done.append((q, eq))
    return done


def _cancel(num: Polynomial, den: Polynomial, dc: int, fac: Factored, tried, content_too: bool):
    """num / den with den == dc * prod(f^e for f, e in fac) and only the base
    factors in ``tried`` (and, if ``content_too``, the integer content) able
    to divide num: each is divided out as far as both sides allow.  Returns
    the canonical (num, den, dc, fac)."""
    fac = dict(fac)
    todo = list(tried)
    removed = None
    while todo:
        f = todo.pop()
        e = fac[f]
        num, k = _divide_out(num, f, e)
        if k:
            p = f.poly ** k
            removed = p if removed is None else removed * p
            if k == e:
                del fac[f]
            else:
                fac[f] = e - k
        if k < e and not f.irreducible:
            # f did not divide num, but a factor of f might: split f there
            g = poly_gcd(num, f.poly)
            if not g.is_constant():
                pieces = _refine([(g, (1,)), (exact_div(f.poly, g), (1,))])
                _retire(f, [(_add(_Factor(q)), exps[0]) for q, exps in pieces])
                left = fac.pop(f)
                for piece, m in f.parts:
                    fac[piece] = left * m
                    todo.append(piece)
    if content_too and dc > 1:
        g = math.gcd(content(num), dc)
        if g > 1:
            num = exact_div(num, Polynomial.const(g))
            dc //= g
            removed = Polynomial.const(g) if removed is None else removed * g
    if removed is not None:
        den = exact_div(den, removed)
    return num, den, dc, fac


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
    return {sig: expr._over_den(found.get(sig, Polynomial.zero())) for sig in sigs}


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
