"""Multivariate polynomials over the integers, Z[vars].

Terms are kept in a dict keyed by packed monomials, one ``int`` each (the
packed exponent vector of Monagan and Pearce, CASC 2007).  Dense exponent
tuples over the registered indeterminates appear only at the boundary: the
constructor packs them and ``items`` unpacks them.  Grouping by one
variable's exponent is ``coeffs_in`` and its inverse ``_join``; dividing by
a known integer is ``_deflate``.
Coefficients are Python ``int``s, and any other coefficient type (floats and
``fractions.Fraction`` included) is a ``TypeError``.
Division is in Z[vars] too: ``exact_div`` returns None unless the quotient
has integer coefficients.
The monomial order is graded lex with ``Var.ALPHA`` most significant, which
is plain integer order on packed monomials.
``poly_gcd`` is the heuristic gcd by integer evaluation, ``_gcdheu``, which
decides every trivial case and the integer content; when it gives up, the
subresultant pseudo-remainder sequence ``_subresultant_gcd`` runs on the
primitive parts.  Both are sized for the few variables and moderate degrees
this engine produces.
"""
from __future__ import annotations

import heapq
import math
import struct
from functools import reduce
from operator import or_
from typing import Mapping, Optional, Union

from .symbols import NVARS, Var

# -- monomials -----------------------------------------------------------------
# A monomial is one int: a 16-bit exponent field per Var, ALPHA most
# significant, under a top field holding the total degree, so integer order is
# graded lex order.  The top bit of every field is a guard bit that stays
# clear, which caps the total degree at MAX_DEGREE.  A product is ma + mb, and
# b divides a exactly when a - b sets no guard bit: the lowest field that
# would go negative borrows into its own guard bit.  A term dict maps
# monomials to nonzero coefficients.

_FIELD = 16
_MASK = (1 << _FIELD) - 1
MAX_DEGREE = (1 << (_FIELD - 1)) - 1
_DEG_SHIFT = _FIELD * NVARS
_SHIFT = tuple(_FIELD * (NVARS - 1 - i) for i in range(NVARS))
_UNIT = tuple(1 << _DEG_SHIFT | 1 << s for s in _SHIFT)
_GUARD = sum(1 << (_FIELD * i + _FIELD - 1) for i in range(NVARS + 1))
_VARS = tuple(Var)
_FIELDS = struct.Struct(f">{NVARS + 1}H")


def _check_degree(degree: int) -> None:
    if degree > MAX_DEGREE:
        raise OverflowError(
            f"total degree {degree} exceeds {MAX_DEGREE}, the limit of a packed monomial"
        )


def pack_monomial(exps) -> int:
    """The packed monomial of a dense exponent tuple over ``Var``."""
    if len(exps) != NVARS:
        raise ValueError(f"a monomial has {NVARS} exponents, got {len(exps)}")
    for e in exps:
        if isinstance(e, bool) or not isinstance(e, int) or e < 0:
            raise ValueError(f"exponents must be non-negative ints, got {e!r}")
    degree = sum(exps)
    _check_degree(degree)
    return int.from_bytes(_FIELDS.pack(degree, *exps), "big")


def unpack_monomial(m: int) -> tuple[int, ...]:
    """The dense exponent tuple of a packed monomial."""
    return _FIELDS.unpack(m.to_bytes(_FIELDS.size, "big"))[1:]


def mono_div(a: int, b: int) -> Optional[int]:
    """Packed quotient a / b, or None when b does not divide a."""
    d = a - b
    return None if d & _GUARD else d


class Polynomial:
    """Immutable sparse polynomial with integer coefficients, built from a
    mapping of exponent tuples to ``int``s."""

    __slots__ = ("_t",)

    def __init__(self, terms: Optional[Mapping] = None):
        t: dict = {}
        if terms:
            for m, c in terms.items():
                key = pack_monomial(m)
                if _check_coeff(c):
                    t[key] = c
        self._t = t

    @classmethod
    def _raw(cls, t: dict) -> "Polynomial":
        p = object.__new__(cls)
        p._t = t
        return p

    # -- constructors -------------------------------------------------------
    @classmethod
    def zero(cls) -> "Polynomial":
        return cls._raw({})

    @classmethod
    def one(cls) -> "Polynomial":
        return cls._raw({0: 1})

    @classmethod
    def const(cls, c: int) -> "Polynomial":
        return cls._raw({0: c} if _check_coeff(c) else {})

    @classmethod
    def variable(cls, v: Var) -> "Polynomial":
        return cls._raw({_UNIT[v]: 1})

    # -- queries ------------------------------------------------------------
    def items(self) -> list[tuple[tuple[int, ...], int]]:
        """(exponent tuple, coefficient) pairs, in term-dict order."""
        return [(unpack_monomial(m), c) for m, c in self._t.items()]

    def is_zero(self) -> bool:
        return not self._t

    def is_constant(self) -> bool:
        return not self._t or (len(self._t) == 1 and 0 in self._t)

    def constant_value(self) -> int:
        if not self.is_constant():
            raise ValueError("polynomial is not constant")
        return self._t.get(0, 0)

    def is_one(self) -> bool:
        return self._t.get(0) == 1 and len(self._t) == 1

    def __len__(self) -> int:
        return len(self._t)

    def degree_in(self, v: Var) -> int:
        if not self._t:
            return 0
        s = _SHIFT[v]
        return max(m >> s & _MASK for m in self._t)

    def variables(self) -> tuple[Var, ...]:
        present = reduce(or_, self._t, 0)
        return tuple(v for v, s in zip(_VARS, _SHIFT) if present >> s & _MASK)

    def leading_coeff(self) -> int:
        if not self._t:
            return 0
        return self._t[max(self._t)]

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
        return self + -other

    def __rsub__(self, other) -> "Polynomial":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + -self

    def __neg__(self) -> "Polynomial":
        return Polynomial._raw({m: -c for m, c in self._t.items()})

    def __mul__(self, other) -> "Polynomial":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self._t, other._t
        if not a or not b:
            return Polynomial._raw({})
        _check_degree((max(a) >> _DEG_SHIFT) + (max(b) >> _DEG_SHIFT))
        if len(a) > len(b):
            a, b = b, a
        out = {}
        for ma, ca in a.items():
            for mb, cb in b.items():
                key = ma + mb
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
        if self._t:
            _check_degree(n * (max(self._t) >> _DEG_SHIFT))
        result = None
        base = self
        while n:
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if n:
                base = base * base
        return Polynomial.one() if result is None else result

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = Polynomial.const(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self._t == other._t

    def __hash__(self) -> int:
        return hash(frozenset(self._t.items()))

    def __repr__(self) -> str:
        from .textio import render_poly

        return f"Polynomial({render_poly(self)})"

    # -- calculus and structure ----------------------------------------------
    def partial(self, v: Var) -> "Polynomial":
        """Formal partial derivative."""
        s, unit = _SHIFT[v], _UNIT[v]
        out: dict = {}
        for m, c in self._t.items():
            e = m >> s & _MASK
            if e:
                out[m - unit] = c * e
        return Polynomial._raw(out)

    def coeffs_in(self, v: Var) -> dict[int, "Polynomial"]:
        """Group terms by the exponent of v, with v stripped from the keys."""
        s, unit = _SHIFT[v], _UNIT[v]
        groups: dict[int, dict] = {}
        for m, c in self._t.items():
            e = m >> s & _MASK
            groups.setdefault(e, {})[m - e * unit] = c
        return {e: Polynomial._raw(t) for e, t in groups.items()}


def _check_coeff(c) -> int:
    if not isinstance(c, int):
        raise TypeError(f"coefficients must be int, got {type(c).__name__}")
    return c


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
    g = math.gcd(*p._t.values())
    return -g if p.leading_coeff() < 0 else g


def primitive(p: Polynomial) -> Polynomial:
    """Primitive part: integer content 1, positive leading coefficient."""
    return _deflate(p, content(p))


def _deflate(p: Polynomial, c: int) -> Polynomial:
    """p / c, where the integer c divides p."""
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
    lead_b = max(bt)
    # in graded lex order the largest and the smallest monomial of a product
    # are the products of the factors' own, so either may refuse at once
    at = a._t
    if mono_div(max(at), lead_b) is None or mono_div(min(at), min(bt)) is None:
        return None
    lc_b = bt[lead_b]
    tail_b = [(m, c) for m, c in bt.items() if m != lead_b]
    # The remainder r is one private copy updated in place; its monomials sit
    # negated in a min-heap, and an entry whose monomial has cancelled since
    # it was pushed is skipped when it surfaces.  A processed leading monomial
    # never comes back: every term it spawns is smaller in grlex order.
    r = dict(at)
    heap = [-m for m in r]
    heapq.heapify(heap)
    q = {}
    while heap:
        lead_r = -heapq.heappop(heap)
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
            key = m + mq
            v = r.get(key)
            if v is None:
                r[key] = -cq * cb
                heapq.heappush(heap, -key)
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
    """Inverse of ``coeffs_in``: groups free of v, keyed by v's exponent."""
    out: dict = {}
    for e, p in groups.items():
        step = e * _UNIT[v]
        for m, c in p._t.items():
            out[m + step] = c
    return Polynomial._raw(out)


def _content_in(groups: dict[int, Polynomial]) -> Polynomial:
    return reduce(poly_gcd, groups.values())


def poly_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    """Greatest common divisor over Z[vars] (integer content included),
    normalized to a positive leading coefficient."""
    if a.is_zero():
        g = b
    elif b.is_zero():
        g = a
    else:
        g = _gcdheu(a, b)
        if g is None:
            ca, cb = content(a), content(b)
            g = _subresultant_gcd(_deflate(a, ca), _deflate(b, cb)) * math.gcd(ca, cb)
    return -g if g.leading_coeff() < 0 else g


def _max_norm(p: Polynomial) -> int:
    return max(abs(c) for c in p._t.values())


def _eval_var(p: Polynomial, v: Var, xi: int) -> Polynomial:
    """Substitute the integer xi for v (exact, integer coefficients)."""
    s, unit = _SHIFT[v], _UNIT[v]
    out: dict = {}
    for m, c in p._t.items():
        e = m >> s & _MASK
        key = m - e * unit
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


def _gcdheu(f: Polynomial, g: Polynomial, depth: int = 0) -> Optional[Polynomial]:
    """Heuristic gcd of nonzero f and g by evaluation at a large integer,
    with reconstruction by balanced digits (GCDHEU: Char, Geddes and Gonnet
    1989); None when the heuristic gives up.  The trivial cases and the
    integer content (which evaluation can only overestimate) are decided
    here, as the recursion meets them at every level, and each candidate is
    checked by exact trial division, so a result is a gcd up to sign."""
    if f._t == g._t:
        return f
    cf = abs(content(f))
    cg = abs(content(g))
    c = math.gcd(cf, cg)
    if f.is_constant() or g.is_constant():
        return Polynomial.const(c)
    f = _deflate(f, cf)
    g = _deflate(g, cg)

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
                # gamma's balanced base-xi digits are the coefficients in v
                digits: dict[int, Polynomial] = {}
                rest = gamma
                power = 0
                while not rest.is_zero() and power <= f.degree_in(v) + g.degree_in(v):
                    digit = _balanced_digit(rest, xi)
                    if not digit.is_zero():
                        digits[power] = digit
                    rest = _deflate(rest - digit, xi)
                    power += 1
                if rest.is_zero() and digits:
                    cand = primitive(_join(digits, v))
                    # a constant primitive candidate is 1, which divides both
                    if cand.is_one() or divides(cand, f) and divides(cand, g):
                        return cand * c
        xi = xi * 73794 // 27011 + attempt + 1
    return None


def _subresultant_gcd(f: Polynomial, g: Polynomial) -> Polynomial:
    """gcd of primitive f and g by the subresultant pseudo-remainder sequence
    (Brown and Traub 1971) in their first shared variable, after splitting
    off the content in that variable; primitive, positive result."""
    common = [v for v in f.variables() if g.degree_in(v) > 0]
    if not common:
        return Polynomial.one()
    v = common[0]

    fg = f.coeffs_in(v)
    gg = g.coeffs_in(v)
    cont_f = _content_in(fg)
    cont_g = _content_in(gg)
    cont = poly_gcd(cont_f, cont_g)

    pf = {e: _exact(p, cont_f) for e, p in fg.items()}
    pg = {e: _exact(p, cont_g) for e, p in gg.items()}

    if max(pf) < max(pg):
        pf, pg = pg, pf

    gg1 = h = Polynomial.one()
    A, B = pf, pg
    while True:
        delta = max(A) - max(B)
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
        return cont
    return primitive(_exact(_join(result, v), _content_in(result)) * cont)


def _exact(a: Polynomial, b: Polynomial) -> Polynomial:
    q = exact_div(a, b)
    if q is None:
        raise ArithmeticError("internal gcd division was not exact")
    return q
