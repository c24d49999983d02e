"""Deterministic plain-text rendering of expressions.

Monomials print in descending graded-lex order with explicit integer
coefficients, so equal expressions always render to identical bytes.  The
syntax is ordinary infix (`+ - * / ^`, integers, registered variable names,
parentheses), so any reader that takes ``^`` as a power reads it back.
"""
from __future__ import annotations

from typing import TYPE_CHECKING

from .poly import Polynomial, unpack_monomial
from .symbols import VAR_NAMES, Var

if TYPE_CHECKING:
    from .ratexpr import RationalExpr

_NAMES = tuple(VAR_NAMES[v] for v in Var)


def render_poly(p: Polynomial) -> str:
    if p.is_zero():
        return "0"
    pieces: list[str] = []
    # packed monomials sort in graded-lex order
    for m, c in sorted(p._t.items(), reverse=True):
        mono = "*".join(
            name + (f"^{e}" if e > 1 else "")
            for name, e in zip(_NAMES, unpack_monomial(m))
            if e
        )
        mag = abs(c)
        if not mono:
            body = str(mag)
        elif mag == 1:
            body = mono
        else:
            body = f"{mag}*{mono}"
        if not pieces:
            pieces.append(body if c > 0 else f"-{body}")
        else:
            pieces.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(pieces)


def render(e: RationalExpr) -> str:
    if e.den.is_one():
        return render_poly(e.num)
    return f"({render_poly(e.num)})/({render_poly(e.den)})"
