"""Replay of the constant-mean-curvature classification argument.

With constant mean curvature h0 = k1 + kappa2 the singular minimal surface
equation reads ``h0*w - alpha*<N,a> = 0``.  Differentiating along each
principal direction, using the height and Weingarten rules of the frame model,
must produce ``(h0 + alpha*kappa_i) <e_i,a>``.
"""
from __future__ import annotations

import functools
from types import MappingProxyType

from ..exact import Var
from .context import A1, A2, AL, H0, K, NA, OP_E1, OP_E2, Lazy, Rules, apply_derivation, flip
from .context import frame_keys, frame_model, normal_height
from .report import ProofReport, Recorder, run_chain

#: the second principal curvature under mean curvature h0
KAPPA2 = H0 - K

#: rule keys accepted by the mutation hook: the height and Weingarten rules
MUTABLE_RULES = frame_keys(Var.W, Var.NA)


@functools.cache
def build_context() -> MappingProxyType:
    """Frame rules with a1, a2 for the tangential components."""
    return MappingProxyType(frame_model(KAPPA2, Var.A1, Var.A2, MUTABLE_RULES))


@functools.cache
def targets() -> Lazy:
    """The expected value of each checkpoint of this chain, by checkpoint
    name, built on its first read."""
    return Lazy({
        "cmc-gradient-e1": lambda: (H0 + AL * K) * A1,
        "cmc-gradient-e2": lambda: (H0 + AL * (H0 - K)) * A2,
    })


def run_theorem3(flip_rule: tuple[str, Var] | None = None) -> ProofReport:
    rules = flip(build_context(), flip_rule)
    return run_chain(
        "theorem-3-constant-mean-curvature", lambda rec: _chain(rec, rules), (), targets()
    )


def _chain(rec: Recorder, ctx: Rules) -> None:
    identity = AL * (normal_height(KAPPA2) - NA)
    rec.exact_equal("cmc-gradient-e1", apply_derivation(identity, OP_E1, ctx))
    rec.exact_equal("cmc-gradient-e2", apply_derivation(identity, OP_E2, ctx))
