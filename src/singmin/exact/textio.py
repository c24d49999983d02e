"""Deterministic plain-text syntax for expressions, with a round-trip parser.

Monomials print in descending graded-lex order with explicit integer
coefficients, so equal expressions always render to identical bytes.  The
parser accepts the same grammar (`+ - * / ^`, integers, registered variable
names, parentheses) and returns a canonical ``RationalExpr``.
"""
from __future__ import annotations

from .errors import ParseError
from .poly import Polynomial, grlex_key
from .ratexpr import RationalExpr
from .symbols import NAME_TO_VAR, VAR_NAMES, Var


def render_poly(p: Polynomial) -> str:
    if p.is_zero():
        return "0"
    items = sorted(p.items(), key=lambda mc: grlex_key(mc[0]), reverse=True)
    pieces: list[str] = []
    for m, c in items:
        mono = "*".join(
            VAR_NAMES[Var(i)] + (f"^{e}" if e > 1 else "")
            for i, e in enumerate(m)
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


# -- parser ---------------------------------------------------------------------

_OPS = set("+-*/^()")


def _tokenize(text: str) -> list[str]:
    tokens: list[str] = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch in _OPS:
            tokens.append(ch)
            i += 1
        elif ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(text[i:j])
            i = j
        elif ch.isalpha():
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(text[i:j])
            i = j
        else:
            raise ParseError(f"unexpected character {ch!r} at offset {i}")
    return tokens


class _Parser:
    def __init__(self, tokens: list[str]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> str | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self) -> str:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of input")
        self.pos += 1
        return tok

    def expr(self) -> RationalExpr:
        value = self.term()
        while self.peek() in ("+", "-"):
            op = self.take()
            rhs = self.term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def term(self) -> RationalExpr:
        value = self.factor()
        while self.peek() in ("*", "/"):
            op = self.take()
            rhs = self.factor()
            value = value * rhs if op == "*" else value / rhs
        return value

    def factor(self) -> RationalExpr:
        sign = 1
        while self.peek() == "-":
            self.take()
            sign = -sign
        base = self.atom()
        if self.peek() == "^":
            self.take()
            exp_tok = self.take()
            neg = False
            if exp_tok == "-":
                neg = True
                exp_tok = self.take()
            if not exp_tok.isdigit():
                raise ParseError(f"exponent must be an integer, got {exp_tok!r}")
            e = int(exp_tok)
            base = base ** (-e if neg else e)
        return base if sign == 1 else -base

    def atom(self) -> RationalExpr:
        tok = self.take()
        if tok == "(":
            inner = self.expr()
            closing = self.take()
            if closing != ")":
                raise ParseError(f"expected ')', got {closing!r}")
            return inner
        if tok.isdigit():
            return RationalExpr.from_number(int(tok))
        var = NAME_TO_VAR.get(tok)
        if var is None:
            raise ParseError(f"unknown symbol {tok!r}")
        return RationalExpr.variable(var)


def parse(text: str) -> RationalExpr:
    parser = _Parser(_tokenize(text))
    value = parser.expr()
    if parser.peek() is not None:
        raise ParseError(f"trailing input at token {parser.peek()!r}")
    return value
