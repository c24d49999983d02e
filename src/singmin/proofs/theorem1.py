"""Replay of the constant-Gauss-curvature classification argument.

Working hypotheses: the Gauss curvature is a nonzero constant c, neither
principal curvature is constant, and the frame diagonalizes the shape
operator.  Writing k1 for the first principal curvature, u1, u2 for its frame
derivatives and w for the height over the singular plane, the chain

  1. solves the frame system for the tangential components gamma, mu;
  2. resolves the three second derivatives of k1 from the two expressions of
     each first-derivative quantity;
  3. re-checks every equation of the frame system (redundancy);
  4. turns the Gauss-curvature identity into a quadratic constraint in
     (u1, u2), derives a second constraint by differentiating along e1,
     and eliminates:  either alpha^2 = 4 (two explicit remainders) or the
     solved squares force a nonzero polynomial in k1 to vanish;
  5. handles the u1 = 0 branch separately, ending in a quartic with constant
     coefficients.

Every step is a named checkpoint; ``targets()`` holds the expected value of
each, under the checkpoint's name.
"""
from __future__ import annotations

import functools
from types import MappingProxyType

from ..exact import RationalExpr, Var, collect_quadratic, solve_2x2, solve_linear
from .context import AL, C, D11, D22, G, K, M, U1, U2, W, OP_E1, OP_E2, Lazy, Rules
from .context import apply_derivation, flip, frame_keys, frame_model, gauss_curvature_expr
from .context import normal_height, resolve
from .report import ProofReport, Recorder, run_chain


@functools.cache
def targets() -> Lazy:
    """The expected value of every checkpoint of this chain, by checkpoint
    name, each built on its first read."""
    a, c, k = AL, C, K
    s = Lazy({  # sub-expressions several expected values share
        "A": lambda: (a + 1) * k ** 2 + c,
        "B": lambda: k ** 2 + (a + 1) * c,
        "m1": lambda: (
            (a + 1) * (a ** 2 - 4) * k ** 8
            - (a * (a * (4 * a + 11) + 16) + 12) * k ** 6 * c
            + (a * (a * (7 * a + 13) + 4) - 12) * k ** 4 * c ** 2
            + (a * (a * (4 * a * (a + 5) + 39) + 16) - 4) * k ** 2 * c ** 3
            + 2 * a ** 2 * (a + 1) * (a + 3) * c ** 4
        ),
        "m2": lambda: (
            -(a * (5 * a + 8) + 4) * k ** 4
            + 2 * (a * (a * (2 * a + 5) - 4) - 4) * k ** 2 * c
            + (a * (a * (2 * a + 15) + 24) - 4) * c ** 2
        ),
        "denom": lambda: a ** 2 * (a ** 2 - 4) * (k ** 2 - c) ** 3,
    })
    return Lazy({
        "height-flux-gradient-e1": lambda: (
            (k ** 2 - c) / (a * k ** 2) * W * U1 + G * (k ** 2 + c) / (a * k)
        ),
        "height-flux-gradient-e2": lambda: (
            (k ** 2 - c) / (a * k ** 2) * W * U2 + M * (k ** 2 + c) / (a * k)
        ),
        "gamma-closed-form": lambda: W * (c - k ** 2) * U1 / (k * s["A"]),
        "mu-closed-form": lambda: W * (c - k ** 2) * U2 / (k * s["B"]),
        "gauss-identity-quadratic-form": lambda: (
            c * (k ** 2 - c) / k ** 3 * D11
            + (k ** 2 - c) / k * D22
            - 3 * c / k ** 2 * U1 ** 2
            - (2 * k ** 2 + c) / k ** 2 * U2 ** 2
            - c * (k ** 2 - c) ** 2 / k ** 2
        ),
        "second-derivative-e1e1": lambda: (
            (a + 2) * k * (k ** 2 - 3 * c) / ((k ** 2 - c) * s["A"]) * U1 ** 2
            + k * s["A"] / ((k ** 2 - c) * s["B"]) * U2 ** 2
            - k * (k ** 2 + c) * s["A"] / (a * (k ** 2 - c))
        ),
        "second-derivative-e1e2": lambda: (
            (2 * k / s["B"] + 3 * k / (c - k ** 2) - 2 * c / (k * s["A"]) + 2 / k) * U1 * U2
        ),
        "second-derivative-e2e2": lambda: (
            c * s["B"] / (k * (k ** 2 - c) * s["A"]) * U1 ** 2
            + (-2 * k ** 4 + (a + 6) * k ** 2 * c + a * c ** 2)
            / (k * (c - k ** 2) * s["B"]) * U2 ** 2
            - c * (k ** 2 + c) * s["B"] / (a * k * (k ** 2 - c))
        ),
        "constraint-scalar-term": lambda: k ** 4 + (k ** 2 + c) ** 2 / a + c ** 2,
        "constraint-coeff-u1sq": lambda: (a * k ** 2 + (a + 4) * c) / s["A"],
        "constraint-coeff-u2sq": lambda: ((a + 4) * k ** 2 + a * c) / s["B"],
        "derived-constraint-coeff-u1sq": lambda: (
            2 * (a + 2) * k * (a * k ** 4 + (2 - 3 * a) * k ** 2 * c - 2 * (a + 5) * c ** 2)
            / ((k ** 2 - c) * s["A"] ** 2)
        ),
        "derived-constraint-coeff-u2sq": lambda: (
            2 * (a + 2) * k
            * (
                2 * (a + 1) * k ** 6
                + (a ** 2 - 3 * a - 8) * k ** 4 * c
                - (3 * a ** 2 + 12 * a + 10) * k ** 2 * c ** 2
                - a * (2 * a + 3) * c ** 3
            )
            / ((k ** 2 - c) * s["B"] ** 2 * s["A"])
        ),
        "derived-constraint-scalar-term": lambda: (
            2 * (a + 2) * k ** 5 - 8 * (a + 1) * k ** 3 * c - 2 * (a + 6) * c ** 2 * k
        ) / (a * (k ** 2 - c)),
        "constraint-pair-determinant": lambda: (a ** 2 - 4) * k * (k ** 2 - c) ** 3,
        "branch-alpha-minus-2-remainder": lambda: 8 * c * k,
        "branch-alpha-plus-2-remainder": lambda: (
            8 * c * k * (-5 * k ** 4 + 6 * k ** 2 * c + 15 * c ** 2)
        ),
        "solved-gradient-sq-e1": lambda: -s["m1"] * s["A"] / s["denom"],
        "solved-gradient-sq-e2": lambda: s["m2"] * c * s["B"] ** 2 / s["denom"],
        "final-curvature-polynomial": lambda: k ** 2 * s["B"] * ((a + 4) * k ** 2 + a * c),
        "flat-branch-u2sq": lambda: (k ** 2 + c) * s["B"] / a,
        "flat-branch-e2e2-from-derivative": lambda: (2 * k ** 3 + (2 + a) * c * k) / a,
        "flat-branch-e2e2-from-frame": lambda: (
            (k ** 2 + c) * (2 * k ** 4 - (a + 7) * k ** 2 * c - (2 * a + 1) * c ** 2)
            / (a * k * (k ** 2 - c))
        ),
        "flat-branch-polynomial": lambda: (
            (2 * a + 5) * k ** 4 + 2 * (a + 3) * k ** 2 * c + (2 * a + 1) * c ** 2
        ),
    })


# expressions the argument assumes nonvanishing
REGISTRY = tuple(
    p.num
    for p in (
        AL,
        C,
        K,
        K ** 2 - C,
        (AL + 1) * K ** 2 + C,
        K ** 2 + (AL + 1) * C,
        AL - 2,
        AL + 2,
    )
)


def _registry_at(a0: int) -> tuple:
    """Registry entries specialized to a fixed weight exponent value."""
    sub = {Var.ALPHA: RationalExpr.from_number(a0)}
    out = []
    for p in REGISTRY:
        q = RationalExpr(p).substitute(sub).num
        if not q.is_constant():
            out.append(q)
    return tuple(out)


#: the second principal curvature, c/k1 under Gauss curvature c
KAPPA2 = C / K

#: rule keys accepted by the mutation hook (sign flip of one rule): this
#: chain reads every rule of the frame model
MUTABLE_RULES = frame_keys(Var.K1, Var.W, Var.NA, Var.G, Var.M, Var.U1, Var.U2)


@functools.cache
def build_context() -> MappingProxyType:
    """Frame rules under constant nonzero Gauss curvature, with g, m for the
    tangential components; built on first use and read-only (``flip`` copies)."""
    return MappingProxyType(frame_model(KAPPA2, Var.G, Var.M, MUTABLE_RULES))


def run_theorem1(flip_rule: tuple[str, Var] | None = None) -> ProofReport:
    rules = flip(build_context(), flip_rule)
    return run_chain(
        "theorem-1-constant-gauss-curvature",
        lambda rec: _chain(rec, rules),
        REGISTRY,
        targets(),
    )


def _chain(rec: Recorder, ctx: Rules) -> None:
    nh = normal_height(KAPPA2)

    # tangential components gamma, mu: the derivatives of <N,a> against its
    # Weingarten rules
    flux_e1 = apply_derivation(nh, OP_E1, ctx)
    rec.exact_equal("height-flux-gradient-e1", flux_e1)
    flux_e2 = apply_derivation(nh, OP_E2, ctx)
    rec.exact_equal("height-flux-gradient-e2", flux_e2)
    gamma = solve_linear(flux_e1 - ctx[(OP_E1, Var.NA)], Var.G)
    rec.exact_equal("gamma-closed-form", gamma)
    mu = solve_linear(flux_e2 - ctx[(OP_E2, Var.NA)], Var.M)
    rec.exact_equal("mu-closed-form", mu)

    # Gauss identity with unresolved second derivatives, cleared to the
    # quadratic-form shape
    bb_raw = gauss_curvature_expr(ctx, KAPPA2)
    rec.exact_equal("gauss-identity-quadratic-form", (bb_raw - C) * (K ** 2 - C) ** 2 / K ** 2)

    # second derivatives: substitute gamma, mu and <N,a> (the Gauss identity
    # reads none of them), equate the derivative of each closed form with the
    # Gauss rule for the same quantity, solve, substitute
    closed = {Var.G: gamma, Var.M: mu, Var.NA: nh}
    ctx = resolve(ctx, closed)
    sol_e11 = solve_linear(apply_derivation(gamma, OP_E1, ctx) - ctx[(OP_E1, Var.G)], Var.D11)
    rec.exact_equal("second-derivative-e1e1", sol_e11)
    sol_e12 = solve_linear(apply_derivation(mu, OP_E1, ctx) - ctx[(OP_E1, Var.M)], Var.D12)
    rec.exact_equal("second-derivative-e1e2", sol_e12)
    sol_e22 = solve_linear(apply_derivation(mu, OP_E2, ctx) - ctx[(OP_E2, Var.M)], Var.D22)
    rec.exact_equal("second-derivative-e2e2", sol_e22)

    # the height cancels out of all three second derivatives
    for nm, sol in (("e1e1", sol_e11), ("e1e2", sol_e12), ("e2e2", sol_e22)):
        rec.exact_zero(f"second-derivative-{nm}-height-free", sol.partial(Var.W))

    # the mixed derivative carries a full u1*u2 factor
    cofactor = sol_e12 / (U1 * U2)
    rec.exact_zero("mixed-cofactor-free-of-u1", cofactor.partial(Var.U1))
    rec.exact_zero("mixed-cofactor-free-of-u2", cofactor.partial(Var.U2))

    ctx = resolve(ctx, {Var.D11: sol_e11, Var.D12: sol_e12, Var.D22: sol_e22})

    # redundancy: every frame rule for gamma, mu and <N,a> holds in the
    # resolved table, e2(u1) by the frame bracket
    for i, (op, v) in enumerate(frame_keys(*closed), start=1):
        rec.exact_zero(f"frame-system-eq{i}", apply_derivation(closed[v], op, ctx) - ctx[(op, v)])

    # quadratic constraint: substitute the resolved second derivatives into
    # the cleared Gauss identity and divide out the overall unit, the factor
    # its scalar term carries
    bb_resolved = gauss_curvature_expr(ctx, KAPPA2)
    constraint = (bb_resolved - C) * (K ** 2 - C) ** 2 / K ** 2
    qa, qb, qr = collect_quadratic(constraint)
    unit = rec.nonzero_factor("constraint-scalar-term", qr)
    p1, q1, r1 = qa / unit, qb / unit, qr / unit
    rec.exact_equal("constraint-coeff-u1sq", p1, factor=unit)
    rec.exact_equal("constraint-coeff-u2sq", q1, factor=unit)
    pe1 = constraint / unit

    # derived constraint: differentiate along e1, pull out the exact u1 factor
    pe2 = apply_derivation(pe1, OP_E1, ctx) / U1
    rec.exact_zero(
        "derived-constraint-u1-divisibility",
        RationalExpr.from_number(pe2.den.degree_in(Var.U1)),
        note="the e1-derivative carries an exact u1 factor",
    )
    p2, q2, r2 = collect_quadratic(pe2)
    rec.exact_equal("derived-constraint-coeff-u1sq", p2)
    rec.exact_equal("derived-constraint-coeff-u2sq", q2)
    rec.exact_equal("derived-constraint-scalar-term", r2)

    # determinant of the constraint pair
    rec.nonzero_factor("constraint-pair-determinant", p1 * q2 - p2 * q1)

    # degenerate branch alpha^2 = 4: the u-terms cancel and the remainder is
    # an explicit nonzero polynomial
    for a0, label in ((-2, "branch-alpha-minus-2"), (2, "branch-alpha-plus-2")):
        sub = {Var.ALPHA: RationalExpr.from_number(a0)}
        ca, cb, cr = collect_quadratic((p2 * pe1 - p1 * pe2).substitute(sub))
        rec.exact_zero(f"{label}-u1sq-cancels", ca)
        rec.exact_zero(f"{label}-u2sq-cancels", cb)
        rec.nonzero_factor(f"{label}-remainder", cr, extra_registry=_registry_at(a0))

    # generic branch: solve the pair for the squared gradients
    z1, z2, _ = solve_2x2(p1 * U1 + q1 * U2 + r1, p2 * U1 + q2 * U2 + r2, (Var.U1, Var.U2))
    rec.exact_equal("solved-gradient-sq-e1", z1)
    rec.exact_equal("solved-gradient-sq-e2", z2)
    # both constraints vanish at u1^2 = z1, u2^2 = z2
    rec.exact_zero("solution-residual-first", p1 * z1 + q1 * z2 + r1)
    rec.exact_zero("solution-residual-second", p2 * z1 + q2 * z2 + r2)

    # differentiate the first solved square along e1 once more; the resolved
    # e11 value must agree, forcing the final polynomial
    fa, fb, fr = collect_quadratic(sol_e11)
    final = 2 * (fa * z1 + fb * z2 + fr) - z1.partial(Var.K1)
    rec.nonzero_factor("final-curvature-polynomial", final)

    # flat branch u1 = 0: the e11 equation pins u2^2, and differentiating it
    # along e2 must agree with the frame value of e22
    flat_u2sq = solve_linear(fb * U2 + fr, Var.U2)
    rec.exact_equal("flat-branch-u2sq", flat_u2sq)
    flat_diff = flat_u2sq.partial(Var.K1) / 2
    rec.exact_equal("flat-branch-e2e2-from-derivative", flat_diff)
    _, gb, gr = collect_quadratic(sol_e22)
    flat_frame = gb * flat_u2sq + gr
    rec.exact_equal("flat-branch-e2e2-from-frame", flat_frame)
    rec.nonzero_factor("flat-branch-polynomial", flat_diff - flat_frame)
