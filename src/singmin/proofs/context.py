"""Formal derivation operators over the exact rational-function field.

A ``DerivationContext`` carries the rewrite table for the two frame
derivatives ``E1``, ``E2``: one rule per generator, applied through the chain
rule.  Defined abbreviations (second principal curvature, mean curvature,
connection coefficients, tangential components) live alongside.  The audits
below check recorded factors and denominators against a theorem's registry of
expressions the argument assumes nonvanishing.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Mapping

from ..exact import RationalExpr, Var
from ..exact.errors import AlgebraError
from ..exact.poly import Polynomial, exact_div, primitive
from ..exact.textio import render_poly

OP_E1 = "E1"
OP_E2 = "E2"


class MissingRuleError(AlgebraError):
    """A generator was differentiated without a rule for that operator."""

    def __init__(self, op: str, var: Var):
        super().__init__(f"no rule for ({op}, {var.name})")
        self.op = op
        self.var = var


@dataclass(frozen=True)
class DerivationContext:
    name: str
    rules: Mapping[tuple[str, Var], RationalExpr]
    defined: Mapping[str, RationalExpr]
    constants: frozenset[Var] = field(default_factory=lambda: frozenset({Var.ALPHA, Var.C}))

    def rule(self, op: str, var: Var) -> RationalExpr:
        try:
            return self.rules[(op, var)]
        except KeyError:
            raise MissingRuleError(op, var) from None

    def with_rules(self, updates: Mapping[tuple[str, Var], RationalExpr]) -> "DerivationContext":
        merged = dict(self.rules)
        merged.update(updates)
        return replace(self, rules=merged)


def apply_derivation(expr: RationalExpr, op: str, ctx: DerivationContext) -> RationalExpr:
    """Chain rule: E(expr) = sum over occurring symbols of d(expr)/dv * rule(op, v).

    Registered constants differentiate to zero; any other symbol without a
    rule is an error naming (op, symbol).
    """
    total = RationalExpr.zero()
    for v in expr.variables():
        if v in ctx.constants:
            continue
        d = expr.partial(v)
        if d.is_zero():
            continue
        total = total + d * ctx.rule(op, v)
    return total


def gauss_curvature_expr(ctx: DerivationContext) -> RationalExpr:
    """Gauss curvature of a lines-of-curvature frame from the two principal
    curvatures and their frame derivatives (kappa2 comes from ctx.defined)."""
    k1 = RationalExpr.variable(Var.K1)
    kappa2 = ctx.defined["kappa2"]
    gap = k1 - kappa2
    e1_k2 = apply_derivation(kappa2, OP_E1, ctx)
    e2_k1 = apply_derivation(k1, OP_E2, ctx)
    t1 = apply_derivation(e1_k2 / gap, OP_E1, ctx)
    t2 = apply_derivation(e2_k1 / gap, OP_E2, ctx)
    return -t1 + t2 - (e1_k2 ** 2 + e2_k1 ** 2) / gap ** 2


def strip_registered(p: Polynomial, registry: tuple[Polynomial, ...]) -> Polynomial:
    """Divide out registered nonvanishing factors (and content); what remains
    is the unexplained part."""
    if p.is_zero():
        return p
    rem = primitive(p)
    progress = True
    while progress and not rem.is_constant():
        progress = False
        for q in registry:
            while not rem.is_constant():
                d = exact_div(rem, q)
                if d is None:
                    break
                rem = primitive(d)
                progress = True
    return rem


def audit_factor(expr: RationalExpr, registry: tuple[Polynomial, ...]) -> tuple[str, ...]:
    """Flags for factor parts whose nonvanishing the argument never assumed."""
    flags = []
    for label, part in (("numerator", expr.num), ("denominator", expr.den)):
        rem = strip_registered(part, registry)
        if not rem.is_constant():
            flags.append(f"unregistered {label} factor: {render_poly(rem)}")
    return tuple(flags)


def audit_denominator(expr: RationalExpr, registry: tuple[Polynomial, ...]) -> tuple[str, ...]:
    rem = strip_registered(expr.den, registry)
    if rem.is_constant():
        return ()
    return (f"unregistered denominator factor: {render_poly(rem)}",)
