"""Formal derivation operators over the exact rational-function field.

A chain's derivation context is its rule table, a plain
``dict[(op, Var), RationalExpr]`` with one rule per generator for each of the
two frame derivatives ``E1``, ``E2``, applied through the chain rule.
A table holds only frame rules: whatever a chain will solve (a tangential
component, a second derivative) stands in it as a symbol, and ``resolve``
substitutes the solved value once the chain has it.  ``flip`` negates one
rule; the mutation tests use it to show that every rule matters.  The
generator expressions the chains share are defined here once.
``audit_factors`` checks recorded factors and denominators against a theorem's
registry of expressions the argument assumes nonvanishing.
"""
from __future__ import annotations

from ..exact import RationalExpr, Var
from ..exact.errors import AlgebraError
from ..exact.poly import Polynomial, exact_div, primitive
from ..exact.textio import render_poly

OP_E1 = "E1"
OP_E2 = "E2"

Rules = dict[tuple[str, Var], RationalExpr]

AL = RationalExpr.variable(Var.ALPHA)
C = RationalExpr.variable(Var.C)
K = RationalExpr.variable(Var.K1)
U1 = RationalExpr.variable(Var.U1)
U2 = RationalExpr.variable(Var.U2)
W = RationalExpr.variable(Var.W)
G = RationalExpr.variable(Var.G)
M = RationalExpr.variable(Var.M)
H0 = RationalExpr.variable(Var.H0)
A1 = RationalExpr.variable(Var.A1)
A2 = RationalExpr.variable(Var.A2)
NA = RationalExpr.variable(Var.NA)
D11 = RationalExpr.variable(Var.D11)
D12 = RationalExpr.variable(Var.D12)
D22 = RationalExpr.variable(Var.D22)

#: symbols every frame derivative sends to zero
CONSTANTS = frozenset({Var.ALPHA, Var.C, Var.H0})


class MissingRuleError(AlgebraError):
    """A generator was differentiated without a rule for that operator."""

    def __init__(self, op: str, var: Var):
        super().__init__(f"no rule for ({op}, {var.name})")
        self.op = op
        self.var = var


def flip(rules: Rules, key: tuple[str, Var] | None) -> Rules:
    """A copy of ``rules`` with the rule under ``key`` negated, if there is one.

    This is the mutation hook: ``key`` is a chain's ``flip_rule``, often None.
    """
    out = dict(rules)
    if key in out:
        out[key] = -out[key]
    return out


def resolve(rules: Rules, values: dict[Var, RationalExpr]) -> Rules:
    """A copy of ``rules`` with each solved symbol in ``values`` substituted
    wherever it occurs; rules free of them are kept as they are."""
    return {
        key: rule if rule.free_of(*values) else rule.substitute(values)
        for key, rule in rules.items()
    }


def apply_derivation(expr: RationalExpr, op: str, rules: Rules) -> RationalExpr:
    """Chain rule: E(expr) = sum over occurring symbols of d(expr)/dv * rules[(op, v)].

    The ``CONSTANTS`` differentiate to zero; any other symbol without a rule
    is an error naming (op, symbol).
    """
    total = RationalExpr.zero()
    for v in expr.variables():
        if v in CONSTANTS:
            continue
        try:
            rule = rules[(op, v)]
        except KeyError:
            raise MissingRuleError(op, v) from None
        total = total + expr.partial(v) * rule
    return total


def gauss_curvature_expr(rules: Rules, kappa2: RationalExpr) -> RationalExpr:
    """Gauss curvature of a lines-of-curvature frame from the two principal
    curvatures k1 and ``kappa2`` and their frame derivatives."""
    gap = K - kappa2
    e1_k2 = apply_derivation(kappa2, OP_E1, rules)
    e2_k1 = apply_derivation(K, OP_E2, rules)
    t1 = apply_derivation(e1_k2 / gap, OP_E1, rules)
    t2 = apply_derivation(e2_k1 / gap, OP_E2, rules)
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


def audit_factors(registry: tuple[Polynomial, ...], **parts: Polynomial) -> tuple[str, ...]:
    """Flags, in keyword order, for the factors of each labelled part whose
    nonvanishing the argument never assumed; none without a registry."""
    if not registry:
        return ()
    flags = []
    for label, part in parts.items():
        rem = strip_registered(part, registry)
        if not rem.is_constant():
            flags.append(f"unregistered {label} factor: {render_poly(rem)}")
    return tuple(flags)
