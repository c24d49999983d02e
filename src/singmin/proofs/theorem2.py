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
from types import MappingProxyType

from ..exact import RationalExpr, Var, collect_quadratic, solve_linear
from .context import AL, C, D22, K, U1, U2, W, OP_E1, OP_E2, Lazy, Rules, apply_derivation
from .context import flip, frame_keys, frame_model, gauss_curvature_expr, normal_height, resolve
from .report import ProofReport, Recorder, run_chain


@functools.cache
def targets() -> Lazy:
    """The expected expression of every checkpoint of this chain, by name,
    each built on its first read."""
    a, c, k = AL, C, K
    s = Lazy(bc=lambda: (a + 1) * c + k)  # a sub-expression several targets share
    return Lazy(
        gamma=lambda: -U1 * W / (c + (1 + a) * k),
        mu=lambda: -U2 * W / s.bc,
        e2_mu_differentiated=lambda: -W / s.bc * D22 + 2 * W / s.bc ** 2 * U2 ** 2,
        e22=lambda: s.bc * (2 * U2 ** 2 / s.bc ** 2 - c * (c + k) / a),
        gauss_display=lambda: D22 / (k - c) - 2 * U2 ** 2 / (k - c) ** 2,
        reduced_identity=lambda: (
            (c - k) * (a * (c ** 2 + k ** 2) + (c + k) ** 2) / a
            - 2 * (a + 2) * U2 ** 2 / s.bc
        ),
        branch_minus2=lambda: (c + k) ** 2 - 2 * (c ** 2 + k ** 2),
        u2sq=lambda: (
            (c - k) * s.bc * ((a + 1) * c ** 2 + 2 * c * k + (a + 1) * k ** 2)
            / (2 * a * (a + 2))
        ),
        u2sq_derivative=lambda: (
            (-(a ** 2) + a + 2) * c ** 3
            + 2 * (a - 1) * a * c ** 2 * k
            - 3 * (a ** 2 + a + 2) * c * k ** 2
            - 4 * (a + 1) * k ** 3
        ) / (2 * a * (a + 2)),
        final_polynomial=lambda: -(a - 1) * k ** 2 + 2 * (a + 1) * c * k + (a + 1) * c ** 2,
    )


# expressions the argument assumes nonvanishing
REGISTRY = tuple(
    p.num for p in (AL, C, K - C, C + (AL + 1) * K, K + (AL + 1) * C, AL + 2)
)


#: the second principal curvature is the constant c
KAPPA2 = C

#: rule keys accepted by the mutation hook: the frame rules this chain reads
MUTABLE_RULES = frame_keys(Var.K1, Var.W, Var.NA) + ((OP_E2, Var.M), (OP_E2, Var.U2))


@functools.cache
def build_context() -> MappingProxyType:
    """Frame rules under a constant second principal curvature, with g, m."""
    return MappingProxyType(frame_model(KAPPA2, Var.G, Var.M, MUTABLE_RULES))


def run_theorem2(flip_rule: tuple[str, Var] | None = None) -> ProofReport:
    rules = flip(build_context(), flip_rule)
    return run_chain(
        "theorem-2-constant-principal-curvature",
        lambda rec: _chain(rec, rules),
        REGISTRY,
    )


def _chain(rec: Recorder, ctx: Rules) -> None:
    tg = targets()
    nh = normal_height(KAPPA2)

    # tangential components from the Weingarten rules for <N,a>, substituted
    # for g, m with <N,a> itself
    gamma = solve_linear(apply_derivation(nh, OP_E1, ctx) - ctx[(OP_E1, Var.NA)], Var.G)
    rec.exact_equal("gamma-closed-form", gamma, tg.gamma)
    mu = solve_linear(apply_derivation(nh, OP_E2, ctx) - ctx[(OP_E2, Var.NA)], Var.M)
    rec.exact_equal("mu-closed-form", mu, tg.mu)
    ctx = resolve(ctx, {Var.G: gamma, Var.M: mu, Var.NA: nh})

    # e2(mu) two ways: differentiating the closed form vs its Gauss rule
    e2_mu = apply_derivation(mu, OP_E2, ctx)
    rec.exact_equal("mu-gradient-e2", e2_mu, tg.e2_mu_differentiated)
    sol_e22 = solve_linear(e2_mu - ctx[(OP_E2, Var.M)], Var.D22)
    rec.exact_equal("second-derivative-e2e2", sol_e22, tg.e22)

    # Gauss identity with the unresolved second derivative
    bb_raw = gauss_curvature_expr(ctx, KAPPA2)
    rec.exact_equal("gauss-identity-display", bb_raw, tg.gauss_display)

    ctx = resolve(ctx, {Var.D22: sol_e22})

    # insert the resolved second derivative; one relation in u2^2 remains
    reduced = gauss_curvature_expr(ctx, KAPPA2) - C * K
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
    u2sq_diff = u2sq.partial(Var.K1)
    rec.exact_equal("gradient-sq-derivative", u2sq_diff, tg.u2sq_derivative)
    ea, eb, er = collect_quadratic(sol_e22)
    rec.exact_zero("second-derivative-u1-free", ea)
    final = u2sq_diff / 2 - (eb * u2sq + er)
    rec.nonzero_factor("final-curvature-polynomial", final, tg.final_polynomial)
