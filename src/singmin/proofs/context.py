"""Formal derivation operators and the frame model the chains share.

A chain's derivation context is its rule table, a plain
``dict[(op, Var), RationalExpr]`` with one rule per generator for each of the
two frame derivatives ``E1``, ``E2``, applied through the chain rule; each
chain caches its table read-only and a run works on the copy ``flip`` makes.
Every rule comes from ``frame_model``, the structure equations of a
lines-of-curvature frame for the components of the fixed vector a, written
once.  Whatever a chain will solve (a tangential component, a second
derivative, <N,a>) stands in it as a symbol, and ``resolve`` substitutes the
solved value once the chain has it.  ``flip`` negates one rule; the mutation
tests use it to show that every rule matters.
``Lazy`` is a mapping whose values are built on their first read; a chain's
expected values sit in one, keyed by checkpoint name, so a chain (a sign-flip
mutant stopping early included) pays only for the expected values and rules
it reads.
``audit_factors`` checks recorded factors and denominators against a theorem's
registry of expressions the argument assumes nonvanishing.
"""
from __future__ import annotations

import functools
from typing import Callable

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


def frame_keys(*generators: Var) -> tuple[tuple[str, Var], ...]:
    """The keys (E1, v), (E2, v) of each generator v, in order."""
    return tuple((op, v) for v in generators for op in (OP_E1, OP_E2))


def connection(rules: Rules, kappa2: RationalExpr) -> tuple[RationalExpr, RationalExpr]:
    """Codazzi: the coefficients of nabla_e1 e1 = p*e2 and nabla_e2 e2 = q*e1,
    p = e2(k1)/(k1 - kappa2) and q = e1(kappa2)/(kappa2 - k1)."""
    p = apply_derivation(K, OP_E2, rules) / (K - kappa2)
    return p, apply_derivation(kappa2, OP_E1, rules) / (kappa2 - K)


def gauss_curvature_expr(rules: Rules, kappa2: RationalExpr) -> RationalExpr:
    """Gauss curvature as the connection form e2(p) + e1(q) - p^2 - q^2."""
    p, q = connection(rules, kappa2)
    return apply_derivation(p, OP_E2, rules) + apply_derivation(q, OP_E1, rules) - p ** 2 - q ** 2


def normal_height(kappa2: RationalExpr) -> RationalExpr:
    """<N,a> from the singular minimal surface equation H*w = alpha*<N,a>."""
    return (K + kappa2) * W / AL


def frame_model(
    kappa2: RationalExpr, a1: Var, a2: Var, keys: tuple[tuple[str, Var], ...]
) -> Rules:
    """The frame rules on ``keys`` for principal curvatures k1 and ``kappa2``,
    with ``a1``, ``a2`` the symbols of the tangential components <e_i,a>.

    Only the rules on ``keys`` are built, and the Codazzi connection only if
    one of them reads it."""
    g, m = RationalExpr.variable(a1), RationalExpr.variable(a2)
    pq = functools.cache(
        lambda: connection({(OP_E1, Var.K1): U1, (OP_E2, Var.K1): U2}, kappa2)
    )
    table = {  # generator: builders of its (E1 rule, E2 rule); pq() is (p, q)
        Var.K1: (lambda: U1, lambda: U2),
        Var.W: (lambda: g, lambda: m),  # height
        Var.NA: (lambda: -K * g, lambda: -kappa2 * m),  # Weingarten
        a1: (lambda: pq()[0] * m + K * NA, lambda: -pq()[1] * m),  # Gauss
        a2: (lambda: -pq()[0] * g, lambda: pq()[1] * g + kappa2 * NA),
        # second derivatives, frame bracket
        Var.U1: (lambda: D11, lambda: D12 + pq()[0] * U1 - pq()[1] * U2),
        Var.U2: (lambda: D12, lambda: D22),
    }
    build = dict(zip(frame_keys(*table), (rule for pair in table.values() for rule in pair)))
    return {key: build[key]() for key in keys}


class Lazy(dict):
    """Named values, each built by its zero-argument builder in ``builders``
    on its first read and stored from then on, so the keys present are the
    names read so far."""

    def __init__(self, builders: dict[str, Callable[[], RationalExpr]]):
        self.builders = builders

    def __missing__(self, name: str) -> RationalExpr:
        value = self[name] = self.builders[name]()
        return value


def strip_registered(p: Polynomial, registry: tuple[Polynomial, ...]) -> Polynomial:
    """Divide out registered nonvanishing factors (and content); what remains
    is the unexplained part."""
    if p.is_zero():
        return p
    rem = primitive(p)
    # a quotient has no factor that its dividend lacks, so an entry that
    # stops dividing never divides again, and one pass is enough
    for q in registry:
        while not rem.is_constant() and (d := exact_div(rem, q)) is not None:
            rem = primitive(d)
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
