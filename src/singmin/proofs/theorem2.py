"""Replay of the constant-principal-curvature classification argument.

Hypotheses: the second principal curvature is a nonzero constant c and the
first, k1, is not constant.  The frame system pins the tangential components,
the two expressions of e2(mu) resolve e2(e2(k1)), and inserting that into the
Gauss identity leaves a single relation in u2^2.  At alpha = -2 the relation
collapses to an explicit quadratic; otherwise u2^2 is solved, differentiated
once more along e2, and compared back, forcing a quadratic with constant
coefficients.
"""
from __future__ import annotations

import functools
from types import SimpleNamespace

from ..exact import RationalExpr, Var, collect_quadratic, solve_linear
from .context import AL, C, D22, G, K, M, U1, U2, W
from .context import OP_E1, OP_E2, Rules, apply_derivation, flip, gauss_curvature_expr, resolve
from .report import ProofReport, Recorder, run_chain


@functools.cache
def targets() -> SimpleNamespace:
    """The expected expression of every checkpoint of this chain, by name."""
    a, c, k = AL, C, K
    bc = (a + 1) * c + k
    return SimpleNamespace(
        gamma=-U1 * W / (c + (1 + a) * k),
        mu=-U2 * W / bc,
        e2_mu_differentiated=-W / bc * D22 + 2 * W / bc ** 2 * U2 ** 2,
        e22=bc * (2 * U2 ** 2 / bc ** 2 - c * (c + k) / a),
        gauss_display=D22 / (k - c) - 2 * U2 ** 2 / (k - c) ** 2,
        reduced_identity=(
            (c - k) * (a * (c ** 2 + k ** 2) + (c + k) ** 2) / a
            - 2 * (a + 2) * U2 ** 2 / bc
        ),
        branch_minus2=(c + k) ** 2 - 2 * (c ** 2 + k ** 2),
        u2sq=(
            (c - k) * bc * ((a + 1) * c ** 2 + 2 * c * k + (a + 1) * k ** 2)
            / (2 * a * (a + 2))
        ),
        u2sq_derivative=(
            (-(a ** 2) + a + 2) * c ** 3
            + 2 * (a - 1) * a * c ** 2 * k
            - 3 * (a ** 2 + a + 2) * c * k ** 2
            - 4 * (a + 1) * k ** 3
        ) / (2 * a * (a + 2)),
        final_polynomial=-(a - 1) * k ** 2 + 2 * (a + 1) * c * k + (a + 1) * c ** 2,
    )


# expressions the argument assumes nonvanishing
REGISTRY = tuple(
    p.num for p in (AL, C, K - C, C + (AL + 1) * K, K + (AL + 1) * C, AL + 2)
)


def build_context() -> Rules:
    """Frame rules under a constant second principal curvature; g, m and d22
    stand for what the chain solves."""
    return {
        (OP_E1, Var.K1): U1,
        (OP_E2, Var.K1): U2,
        (OP_E1, Var.W): G,
        (OP_E2, Var.W): M,
        (OP_E2, Var.U2): D22,
    }


def run_theorem2(flip_rule: tuple[str, Var] | None = None) -> ProofReport:
    rules = flip(build_context(), flip_rule)
    return run_chain(
        "theorem-2-constant-principal-curvature",
        lambda rec: _chain(rec, rules),
        REGISTRY,
    )


def _chain(rec: Recorder, ctx: Rules) -> None:
    tg = targets()
    # the second principal curvature is the constant c
    kappa2 = C
    nh = (K + C) * W / AL

    # tangential components from the height-flux equations, substituted for g, m
    gamma = solve_linear(apply_derivation(nh, OP_E1, ctx) + G * K, Var.G)
    rec.exact_equal("gamma-closed-form", gamma, tg.gamma)
    mu = solve_linear(apply_derivation(nh, OP_E2, ctx) + M * kappa2, Var.M)
    rec.exact_equal("mu-closed-form", mu, tg.mu)
    ctx = resolve(ctx, {Var.G: gamma, Var.M: mu})

    # e2(mu) two ways: differentiating the closed form vs the frame system
    e2_mu = apply_derivation(mu, OP_E2, ctx)
    rec.exact_equal("mu-gradient-e2", e2_mu, tg.e2_mu_differentiated)
    frame_value = C * W * (C + K) / AL
    sol_e22 = solve_linear(e2_mu - frame_value, Var.D22)
    rec.exact_equal("second-derivative-e2e2", sol_e22, tg.e22)

    # Gauss identity with the unresolved second derivative
    bb_raw = gauss_curvature_expr(ctx, kappa2)
    rec.exact_equal("gauss-identity-display", bb_raw, tg.gauss_display)

    ctx = resolve(ctx, {Var.D22: sol_e22})

    # insert the resolved second derivative; one relation in u2^2 remains
    reduced = gauss_curvature_expr(ctx, kappa2) - C * K
    rec.nonzero_factor("reduced-gauss-identity", reduced, tg.reduced_identity)

    # branch alpha = -2: the relation collapses to an explicit quadratic
    minus2 = reduced.substitute({Var.ALPHA: RationalExpr.from_number(-2)})
    rec.nonzero_factor("branch-alpha-minus-2", minus2, tg.branch_minus2)

    # generic branch: solve for u2^2
    _, qb, qr = collect_quadratic(reduced)
    u2sq = solve_linear(qb * U2 + qr, Var.U2)
    rec.exact_equal("gradient-sq-e2", u2sq, tg.u2sq)

    # differentiate along e2 (then simplified by u2), and compare with the
    # resolved second derivative evaluated on the solved square
    rec.exact_equal(
        "gradient-sq-derivative", tg.u2sq.partial(Var.K1), tg.u2sq_derivative
    )
    ea, eb, er = collect_quadratic(sol_e22)
    rec.exact_zero("second-derivative-u1-free", ea)
    frame_e22 = eb * tg.u2sq + er
    final = tg.u2sq.partial(Var.K1) / 2 - frame_e22
    rec.nonzero_factor("final-curvature-polynomial", final, tg.final_polynomial)
