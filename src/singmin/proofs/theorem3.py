"""Replay of the constant-mean-curvature classification argument.

With constant mean curvature h0 the defining identity reads
``h0*w - alpha*<N,a> = 0``.  Differentiating along each principal direction,
using the Weingarten rules ``e_i(<N,a>) = -kappa_i <e_i,a>`` and
``kappa2 = h0 - kappa1``, must produce ``(h0 + alpha*kappa_i) <e_i,a>``.
"""
from __future__ import annotations

from ..exact import Var
from .context import A1, A2, AL, H0, K, NA, OP_E1, OP_E2, W, Rules, apply_derivation, flip
from .report import ProofReport, Recorder, run_chain


def build_context() -> Rules:
    kappa2 = H0 - K
    return {
        (OP_E1, Var.W): A1,
        (OP_E2, Var.W): A2,
        (OP_E1, Var.NA): -K * A1,
        (OP_E2, Var.NA): -kappa2 * A2,
    }


def run_theorem3(flip_rule: tuple[str, Var] | None = None) -> ProofReport:
    rules = flip(build_context(), flip_rule)
    return run_chain("theorem-3-constant-mean-curvature", lambda rec: _chain(rec, rules))


def _chain(rec: Recorder, ctx: Rules) -> None:
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
