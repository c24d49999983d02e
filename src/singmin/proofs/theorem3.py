"""Replay of the constant-mean-curvature classification argument.

With constant mean curvature h0 the defining identity reads
``h0*w - alpha*<N,a> = 0``.  Differentiating along each principal direction,
using the Weingarten rules ``e_i(<N,a>) = -kappa_i <e_i,a>`` and
``kappa2 = h0 - kappa1``, must produce ``(h0 + alpha*kappa_i) <e_i,a>``.
"""
from __future__ import annotations

from ..exact import RationalExpr, Var
from .context import (
    OP_E1,
    OP_E2,
    DerivationContext,
    apply_derivation,
)
from .report import ProofReport, Recorder, run_chain

AL = RationalExpr.variable(Var.ALPHA)
K = RationalExpr.variable(Var.K1)
W = RationalExpr.variable(Var.W)
H0 = RationalExpr.variable(Var.H0)
A1 = RationalExpr.variable(Var.A1)
A2 = RationalExpr.variable(Var.A2)
NA = RationalExpr.variable(Var.NA)


def build_context(flip_rule: tuple[str, Var] | None = None) -> DerivationContext:
    kappa2 = H0 - K
    rules = {
        (OP_E1, Var.W): A1,
        (OP_E2, Var.W): A2,
        (OP_E1, Var.NA): -K * A1,
        (OP_E2, Var.NA): -kappa2 * A2,
    }
    if flip_rule is not None and flip_rule in rules:
        rules[flip_rule] = -rules[flip_rule]
    return DerivationContext(
        name="constant-mean-curvature",
        rules=rules,
        defined={"kappa2": kappa2},
        constants=frozenset({Var.ALPHA, Var.C, Var.H0}),
    )


def run_theorem3(flip_rule: tuple[str, Var] | None = None) -> ProofReport:
    return run_chain(
        "theorem-3-constant-mean-curvature", lambda rec: _chain(rec, flip_rule)
    )


def _chain(rec: Recorder, flip_rule) -> None:
    ctx = build_context(flip_rule)
    identity = H0 * W - AL * NA
    rec.exact_equal(
        "cmc-gradient-e1",
        apply_derivation(identity, OP_E1, ctx),
        (H0 + AL * K) * A1,
    )
    rec.exact_equal(
        "cmc-gradient-e2",
        apply_derivation(identity, OP_E2, ctx),
        (H0 + AL * (H0 - K)) * A2,
    )
