"""Multivariate polynomials over the integers, Z[vars].

Terms are kept in a dict keyed by dense exponent tuples over the registered
indeterminates; a monomial is its exponent tuple, with no wrapper type.
Coefficients are Python ``int``s, and any other coefficient type (floats and
``fractions.Fraction`` included) is a ``TypeError``.
Division is in Z[vars] too: ``exact_div`` returns None unless the quotient
has integer coefficients.
The monomial order is graded lex (``grlex_key``) with ``Var.ALPHA`` most
significant.
``poly_gcd`` is a heuristic gcd by integer evaluation with a recursive
content / primitive-part reduction over subresultant pseudo-remainder
sequences as the fallback, sized for the handful of variables and moderate
degrees this engine produces.
"""
from __future__ import annotations

import heapq
import math
from operator import add, neg
from typing import Mapping, Optional, Union

from .symbols import NVARS, Var

_ZERO_MONO = (0,) * NVARS


# -- monomials -----------------------------------------------------------------
# A monomial is its dense exponent tuple; a term dict maps monomials to nonzero
# coefficients.

def mono_div(a, b):
    """Exponent-wise difference, or None when not divisible."""
    out = []
    for x, y in zip(a, b):
        d = x - y
        if d < 0:
            return None
        out.append(d)
    return tuple(out)


def grlex_key(m):
    return (sum(m), m)


def lead_monomial(terms):
    """Largest monomial in graded-lex order; terms must be nonempty."""
    best = None
    best_key = None
    for m in terms:
        k = (sum(m), m)
        if best_key is None or k > best_key:
            best_key = k
            best = m
    return best


class Polynomial:
    """Immutable sparse polynomial with integer coefficients, built from a
    mapping of exponent tuples to ``int``s."""

    __slots__ = ("_t", "_hash")

    def __init__(self, terms: Optional[Mapping] = None):
        t: dict = {}
        if terms:
            for m, c in terms.items():
                if not isinstance(c, int):
                    raise TypeError(f"coefficients must be int, got {type(c).__name__}")
                if c:
                    t[tuple(m)] = c
        self._t = t
        self._hash = None

    @classmethod
    def _raw(cls, t: dict) -> "Polynomial":
        p = object.__new__(cls)
        p._t = t
        p._hash = None
        return p

    # -- constructors -------------------------------------------------------
    @classmethod
    def zero(cls) -> "Polynomial":
        return cls._raw({})

    @classmethod
    def one(cls) -> "Polynomial":
        return cls._raw({_ZERO_MONO: 1})

    @classmethod
    def const(cls, c: int) -> "Polynomial":
        return cls({_ZERO_MONO: c})

    @classmethod
    def variable(cls, v: Var) -> "Polynomial":
        e = [0] * NVARS
        e[int(v)] = 1
        return cls._raw({tuple(e): 1})

    # -- queries ------------------------------------------------------------
    def items(self):
        return self._t.items()

    def is_zero(self) -> bool:
        return not self._t

    def is_constant(self) -> bool:
        return not self._t or (len(self._t) == 1 and _ZERO_MONO in self._t)

    def constant_value(self) -> int:
        if not self.is_constant():
            raise ValueError("polynomial is not constant")
        return self._t.get(_ZERO_MONO, 0)

    def is_one(self) -> bool:
        return self._t.get(_ZERO_MONO) == 1 and len(self._t) == 1

    def __len__(self) -> int:
        return len(self._t)

    def degree_in(self, v: Var) -> int:
        i = int(v)
        if not self._t:
            return 0
        return max(m[i] for m in self._t)

    def variables(self) -> tuple[Var, ...]:
        present = [False] * NVARS
        for m in self._t:
            for i, e in enumerate(m):
                if e:
                    present[i] = True
        return tuple(Var(i) for i in range(NVARS) if present[i])

    def leading_coeff(self) -> int:
        if not self._t:
            return 0
        return self._t[lead_monomial(self._t)]

    # -- arithmetic ----------------------------------------------------------
    def __add__(self, other) -> "Polynomial":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self._t)
        for m, c in other._t.items():
            s = out.get(m)
            if s is None:
                out[m] = c
            else:
                s = s + c
                if s:
                    out[m] = s
                else:
                    del out[m]
        return Polynomial._raw(out)

    __radd__ = __add__

    def __sub__(self, other) -> "Polynomial":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self._t)
        for m, c in other._t.items():
            s = out.get(m)
            if s is None:
                out[m] = -c
            else:
                s = s - c
                if s:
                    out[m] = s
                else:
                    del out[m]
        return Polynomial._raw(out)

    def __neg__(self) -> "Polynomial":
        return Polynomial._raw({m: -c for m, c in self._t.items()})

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, int):
            if not other:
                return Polynomial._raw({})
            return Polynomial._raw({m: c * other for m, c in self._t.items()})
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self._t, other._t
        if not a or not b:
            return Polynomial._raw({})
        if len(a) > len(b):
            a, b = b, a
        out = {}
        for ma, ca in a.items():
            for mb, cb in b.items():
                key = tuple(map(add, ma, mb))
                v = out.get(key)
                if v is None:
                    out[key] = ca * cb
                else:
                    v = v + ca * cb
                    if v:
                        out[key] = v
                    else:
                        del out[key]
        return Polynomial._raw(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Polynomial":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = Polynomial.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = Polynomial.const(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self._t == other._t

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(frozenset(self._t.items()))
        return self._hash

    def __repr__(self) -> str:
        from .textio import render_poly

        return f"Polynomial({render_poly(self)})"

    # -- calculus and structure ----------------------------------------------
    def partial(self, v: Var) -> "Polynomial":
        """Formal partial derivative."""
        i = int(v)
        out: dict = {}
        for m, c in self._t.items():
            e = m[i]
            if not e:
                continue
            key = m[:i] + (e - 1,) + m[i + 1:]
            nc = c * e
            prev = out.get(key)
            out[key] = nc if prev is None else prev + nc
        return Polynomial._raw({m: c for m, c in out.items() if c})

    def coeffs_in(self, v: Var) -> dict[int, "Polynomial"]:
        """Group terms by the exponent of v, with v stripped from the keys."""
        i = int(v)
        groups: dict[int, dict] = {}
        for m, c in self._t.items():
            e = m[i]
            key = m[:i] + (0,) + m[i + 1:]
            groups.setdefault(e, {})[key] = c
        return {e: Polynomial._raw(t) for e, t in groups.items()}


def _coerce(x) -> Union[Polynomial, type(NotImplemented)]:
    if isinstance(x, Polynomial):
        return x
    if isinstance(x, int):
        return Polynomial.const(x)
    return NotImplemented


# -- content / primitive part -------------------------------------------------

def content(p: Polynomial) -> int:
    """Integer content: p == content(p) * primitive(p); the sign follows the
    leading coefficient so the primitive part has a positive one.  0 for 0."""
    g = 0
    for c in p._t.values():
        g = math.gcd(g, c)
        if g == 1:
            break
    if g and p.leading_coeff() < 0:
        g = -g
    return g


def primitive(p: Polynomial) -> Polynomial:
    """Primitive part: integer content 1, positive leading coefficient."""
    if p.is_zero():
        return p
    c = content(p)
    if c == 1:
        return p
    return Polynomial._raw({m: v // c for m, v in p._t.items()})


def exact_div(a: Polynomial, b: Polynomial) -> Optional[Polynomial]:
    """Quotient a/b when b divides a in Z[vars], else None."""
    if b.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    if a.is_zero():
        return Polynomial.zero()
    bt = b._t
    if b.is_constant():
        d = bt[_ZERO_MONO]
        q: dict = {}
        for m, c in a._t.items():
            q[m], r = divmod(c, d)
            if r:
                return None
        return Polynomial._raw(q)
    lead_b = lead_monomial(bt)
    lc_b = bt[lead_b]
    tail_b = [(m, c) for m, c in bt.items() if m != lead_b]
    # The remainder r is one private copy updated in place; its monomials sit
    # in a heap keyed by the negated grlex_key, and an entry whose monomial
    # has cancelled since it was pushed is skipped when it surfaces.  A
    # processed leading monomial never comes back: every term it spawns is
    # smaller in grlex order.
    r = dict(a._t)
    heap = [(-sum(m), tuple(map(neg, m)), m) for m in r]
    heapq.heapify(heap)
    q = {}
    while heap:
        lead_r = heapq.heappop(heap)[2]
        c = r.pop(lead_r, None)
        if c is None:
            continue
        mq = mono_div(lead_r, lead_b)
        if mq is None:
            return None
        cq, rem = divmod(c, lc_b)
        if rem:
            return None
        q[mq] = cq
        for m, cb in tail_b:
            key = tuple(map(add, m, mq))
            v = r.get(key)
            if v is None:
                r[key] = -cq * cb
                heapq.heappush(heap, (-sum(key), tuple(map(neg, key)), key))
            else:
                v -= cq * cb
                if v:
                    r[key] = v
                else:
                    del r[key]
    return Polynomial._raw(q)


def divides(b: Polynomial, a: Polynomial) -> bool:
    """True when b divides a in Z[vars]."""
    return exact_div(a, b) is not None


# -- multivariate gcd ----------------------------------------------------------

def _mono_content(t: dict) -> tuple:
    it = iter(t)
    mins = list(next(it))
    for m in it:
        for i, e in enumerate(m):
            if e < mins[i]:
                mins[i] = e
    return tuple(mins)


def _deflate(p: Polynomial, c: int, m0: tuple) -> Polynomial:
    """p / (c * x^m0), where both divide p."""
    if c == 1 and not any(m0):
        return p
    return Polynomial._raw(
        {tuple(x - y for x, y in zip(m, m0)): v // c for m, v in p._t.items()}
    )


def _prem(f: dict[int, Polynomial], g: dict[int, Polynomial]) -> dict[int, Polynomial]:
    """Pseudo-remainder of grouped univariate forms: lc(g)^(df-dg+1) f mod g."""
    dg = max(g)
    lg = g[dg]
    r = dict(f)
    e = max(r) - dg + 1
    while r:
        dr = max(r)
        if dr < dg:
            break
        lr = r[dr]
        new: dict[int, Polynomial] = {}
        for d, p in r.items():
            if d != dr:
                new[d] = p * lg
        for d, p in g.items():
            if d == dg:
                continue
            dd = d + dr - dg
            q = new.get(dd, Polynomial.zero()) - p * lr
            if q.is_zero():
                new.pop(dd, None)
            else:
                new[dd] = q
        r = new
        e -= 1
    if e > 0 and r:
        mult = lg ** e
        r = {d: p * mult for d, p in r.items()}
    return r


def _join(groups: dict[int, Polynomial], v: Var) -> Polynomial:
    i = int(v)
    out: dict = {}
    for e, p in groups.items():
        for m, c in p._t.items():
            out[m[:i] + (e,) + m[i + 1:]] = c
    return Polynomial._raw(out)


def _content_in(groups: dict[int, Polynomial]) -> Polynomial:
    cont = Polynomial.zero()
    for p in groups.values():
        cont = poly_gcd(cont, p)
        if cont.is_one():
            break
    return cont


def poly_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    """Greatest common divisor over Z[vars] (integer content included),
    normalized to a positive leading coefficient."""
    if a.is_zero():
        return -b if b.leading_coeff() < 0 else b
    if b.is_zero():
        return -a if a.leading_coeff() < 0 else a

    ca = content(a)
    cb = content(b)
    if a.is_constant() or b.is_constant():
        return Polynomial.const(math.gcd(ca, cb))
    ma = _mono_content(a._t)
    mb = _mono_content(b._t)
    mg = tuple(min(x, y) for x, y in zip(ma, mb))

    g = _gcd_primitive(_deflate(a, ca, ma), _deflate(b, cb, mb))
    out = g * math.gcd(ca, cb)
    if any(mg):
        out = out * Polynomial._raw({mg: 1})
    return out


def _max_norm(p: Polynomial) -> int:
    return max(abs(c) for c in p._t.values())


def _eval_var(p: Polynomial, v: Var, xi: int) -> Polynomial:
    """Substitute the integer xi for v (exact, integer coefficients)."""
    i = int(v)
    out: dict = {}
    for m, c in p._t.items():
        e = m[i]
        key = m[:i] + (0,) + m[i + 1:]
        val = c * (xi ** e) if e else c
        prev = out.get(key)
        cur = val if prev is None else prev + val
        if cur:
            out[key] = cur
        else:
            out.pop(key, None)
    return Polynomial._raw(out)


def _balanced_digit(p: Polynomial, xi: int) -> Polynomial:
    """Coefficient-wise balanced remainder mod xi, in (-xi/2, xi/2]."""
    half = xi // 2
    out: dict = {}
    for m, c in p._t.items():
        r = c % xi
        if r > half:
            r -= xi
        if r:
            out[m] = r
    return Polynomial._raw(out)


def _shift_var(p: Polynomial, v: Var, e: int) -> Polynomial:
    if e == 0:
        return p
    i = int(v)
    return Polynomial._raw({m[:i] + (e,) + m[i + 1:]: c for m, c in p._t.items()})


def _gcdheu(f: Polynomial, g: Polynomial, depth: int = 0) -> Optional[Polynomial]:
    """Heuristic gcd by evaluation at a large integer, with reconstruction by
    balanced digits and a verification divide; None when the heuristic fails.

    Integer content is split off exactly at every level (evaluation can only
    overestimate it), and each reconstructed primitive candidate is checked by
    exact trial division, so a returned value is always correct; the
    subresultant path below stays as the fallback.
    """
    if f._t == g._t:
        return f
    if f.is_constant():
        return Polynomial.const(math.gcd(f.constant_value(), content(g)))
    if g.is_constant():
        return Polynomial.const(math.gcd(g.constant_value(), content(f)))

    cf = abs(content(f))
    cg = abs(content(g))
    c = math.gcd(cf, cg)
    if cf > 1:
        f = exact_div(f, Polynomial.const(cf))
    if cg > 1:
        g = exact_div(g, Polynomial.const(cg))

    common = [v for v in f.variables() if g.degree_in(v) > 0]
    if not common:
        return Polynomial.const(c)
    if depth > 8:
        return None
    v = common[0]
    xi = 2 * min(_max_norm(f), _max_norm(g)) + 29
    for attempt in range(6):
        fe = _eval_var(f, v, xi)
        ge = _eval_var(g, v, xi)
        if not (fe.is_zero() or ge.is_zero()):
            gamma = _gcdheu(fe, ge, depth + 1)
            if gamma is not None:
                h = Polynomial.zero()
                rest = gamma
                power = 0
                while not rest.is_zero() and power <= f.degree_in(v) + g.degree_in(v):
                    digit = _balanced_digit(rest, xi)
                    if not digit.is_zero():
                        h = h + _shift_var(digit, v, power)
                    rest = exact_div(rest - digit, Polynomial.const(xi))
                    power += 1
                if rest.is_zero() and not h.is_zero():
                    cand = primitive(h)
                    if divides(cand, f) and divides(cand, g):
                        return cand * c
        xi = xi * 73794 // 27011 + attempt + 1
    return None


# (f, g) -> _gcd_primitive(f, g) for every pair past the trivial exits, kept
# for the life of the process: the gcd of two primitive polynomials is unique
# once its leading coefficient is positive, so a hit is exactly the value a
# recomputation would give.  A cold run_all() leaves 186 pairs here.
_GCD_MEMO: dict = {}


def _gcd_primitive(f: Polynomial, g: Polynomial) -> Polynomial:
    """gcd of integer-primitive polynomials, primitive positive result."""
    if f._t == g._t:
        return f
    if f.is_constant() or g.is_constant():
        return Polynomial.one()
    key = (f, g)
    out = _GCD_MEMO.get(key)
    if out is None:
        out = _GCD_MEMO[key] = _gcd_primitive_work(f, g)
    return out


def _gcd_primitive_work(f: Polynomial, g: Polynomial) -> Polynomial:
    fv = f.variables()
    gv = g.variables()
    common = [v for v in fv if v in gv]
    if not common:
        return Polynomial.one()

    heur = _gcdheu(f, g)
    if heur is not None:
        return primitive(heur)

    v = common[0]

    fg = f.coeffs_in(v)
    gg = g.coeffs_in(v)
    cont_f = _content_in(fg)
    cont_g = _content_in(gg)
    cont = _gcd_primitive(primitive(cont_f), primitive(cont_g)) if not (
        cont_f.is_constant() or cont_g.is_constant()
    ) else Polynomial.one()

    pf = {e: _exact(p, cont_f) for e, p in fg.items()}
    pg = {e: _exact(p, cont_g) for e, p in gg.items()}

    if max(pf) < max(pg):
        pf, pg = pg, pf

    gg1 = Polynomial.one()
    h = Polynomial.one()
    A, B = pf, pg
    while True:
        da, db = max(A), max(B)
        delta = da - db
        R = _prem(A, B)
        if not R:
            result = B
            break
        if max(R) == 0:
            result = None
            break
        divisor = gg1 * (h ** delta)
        A = B
        B = {d: _exact(p, divisor) for d, p in R.items()}
        gg1 = A[max(A)]
        if delta == 1:
            h = gg1
        elif delta > 1:
            h = _exact(gg1 ** delta, h ** (delta - 1))

    if result is None:
        core = Polynomial.one()
    else:
        joined = _join(result, v)
        rc = _content_in(joined.coeffs_in(v))
        core = primitive(_exact(joined, rc))
    return primitive(core * cont)


def _exact(a: Polynomial, b: Polynomial) -> Polynomial:
    q = exact_div(a, b)
    if q is None:
        raise ArithmeticError("internal gcd division was not exact")
    return q
