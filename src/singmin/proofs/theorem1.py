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

Every step is a named checkpoint compared against the frozen target
expressions below.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

from ..exact import RationalExpr, Var, collect_quadratic, solve_2x2, solve_linear
from .context import AL, C, D11, D12, D22, G, K, M, U1, U2, W
from .context import OP_E1, OP_E2, Rules, apply_derivation, flip, gauss_curvature_expr
from .report import ProofReport, Recorder, run_chain

#: rule keys accepted by the mutation hook (sign flip of one rule)
MUTABLE_RULES = (
    (OP_E1, Var.K1),
    (OP_E2, Var.K1),
    (OP_E1, Var.W),
    (OP_E2, Var.W),
    (OP_E1, Var.U1),
    (OP_E1, Var.U2),
    (OP_E2, Var.U2),
)


@dataclass(frozen=True)
class Targets:
    """Frozen expected expressions for every checkpoint of this chain."""

    gamma: RationalExpr
    mu: RationalExpr
    grad_height_e1: RationalExpr
    grad_height_e2: RationalExpr
    gauss_quadratic: RationalExpr
    e11: RationalExpr
    e12: RationalExpr
    e22: RationalExpr
    p1: RationalExpr
    q1: RationalExpr
    r1: RationalExpr
    p2: RationalExpr
    q2: RationalExpr
    r2: RationalExpr
    determinant: RationalExpr
    branch_minus2: RationalExpr
    branch_plus2: RationalExpr
    m1: RationalExpr
    m2: RationalExpr
    z1: RationalExpr
    z2: RationalExpr
    final_polynomial: RationalExpr
    flat_u2sq: RationalExpr
    flat_e22_derivative: RationalExpr
    flat_e22_frame: RationalExpr
    flat_polynomial: RationalExpr


@functools.cache
def targets() -> Targets:
    a, c, k = AL, C, K
    A = (a + 1) * k ** 2 + c
    B = k ** 2 + (a + 1) * c

    gamma = W * (c - k ** 2) * U1 / (k * A)
    mu = W * (c - k ** 2) * U2 / (k * B)

    grad_height_e1 = (k ** 2 - c) / (a * k ** 2) * W * U1 + G * (k ** 2 + c) / (a * k)
    grad_height_e2 = (k ** 2 - c) / (a * k ** 2) * W * U2 + M * (k ** 2 + c) / (a * k)

    gauss_quadratic = (
        c * (k ** 2 - c) / k ** 3 * D11
        + (k ** 2 - c) / k * D22
        - 3 * c / k ** 2 * U1 ** 2
        - (2 * k ** 2 + c) / k ** 2 * U2 ** 2
        - c * (k ** 2 - c) ** 2 / k ** 2
    )

    e11 = (
        (a + 2) * k * (k ** 2 - 3 * c) / ((k ** 2 - c) * A) * U1 ** 2
        + k * A / ((k ** 2 - c) * B) * U2 ** 2
        - k * (k ** 2 + c) * A / (a * (k ** 2 - c))
    )
    e12 = (
        2 * k / B + 3 * k / (c - k ** 2) - 2 * c / (k * A) + 2 / k
    ) * U1 * U2
    e22 = (
        c * B / (k * (k ** 2 - c) * A) * U1 ** 2
        + (-2 * k ** 4 + (a + 6) * k ** 2 * c + a * c ** 2) / (k * (c - k ** 2) * B) * U2 ** 2
        - c * (k ** 2 + c) * B / (a * k * (k ** 2 - c))
    )

    p1 = (a * k ** 2 + (a + 4) * c) / A
    q1 = ((a + 4) * k ** 2 + a * c) / B
    r1 = k ** 4 + (k ** 2 + c) ** 2 / a + c ** 2

    p2 = (
        2 * (a + 2) * k * (a * k ** 4 + (2 - 3 * a) * k ** 2 * c - 2 * (a + 5) * c ** 2)
        / ((k ** 2 - c) * A ** 2)
    )
    q2 = (
        2 * (a + 2) * k
        * (
            2 * (a + 1) * k ** 6
            + (a ** 2 - 3 * a - 8) * k ** 4 * c
            - (3 * a ** 2 + 12 * a + 10) * k ** 2 * c ** 2
            - a * (2 * a + 3) * c ** 3
        )
        / ((k ** 2 - c) * B ** 2 * A)
    )
    r2 = (
        2 * (a + 2) * k ** 5 - 8 * (a + 1) * k ** 3 * c - 2 * (a + 6) * c ** 2 * k
    ) / (a * (k ** 2 - c))

    determinant = (a ** 2 - 4) * k * (k ** 2 - c) ** 3

    branch_minus2 = 8 * c * k
    branch_plus2 = 8 * c * k * (-5 * k ** 4 + 6 * k ** 2 * c + 15 * c ** 2)

    m1 = (
        (a + 1) * (a ** 2 - 4) * k ** 8
        - (a * (a * (4 * a + 11) + 16) + 12) * k ** 6 * c
        + (a * (a * (7 * a + 13) + 4) - 12) * k ** 4 * c ** 2
        + (a * (a * (4 * a * (a + 5) + 39) + 16) - 4) * k ** 2 * c ** 3
        + 2 * a ** 2 * (a + 1) * (a + 3) * c ** 4
    )
    m2 = (
        -(a * (5 * a + 8) + 4) * k ** 4
        + 2 * (a * (a * (2 * a + 5) - 4) - 4) * k ** 2 * c
        + (a * (a * (2 * a + 15) + 24) - 4) * c ** 2
    )
    denom = a ** 2 * (a ** 2 - 4) * (k ** 2 - c) ** 3
    z1 = -m1 * A / denom
    z2 = m2 * c * B ** 2 / denom

    final_polynomial = k ** 2 * B * ((a + 4) * k ** 2 + a * c)

    flat_u2sq = (k ** 2 + c) * B / a
    flat_e22_derivative = (2 * k ** 3 + (2 + a) * c * k) / a
    flat_e22_frame = (
        (k ** 2 + c) * (2 * k ** 4 - (a + 7) * k ** 2 * c - (2 * a + 1) * c ** 2)
        / (a * k * (k ** 2 - c))
    )
    flat_polynomial = (2 * a + 5) * k ** 4 + 2 * (a + 3) * k ** 2 * c + (2 * a + 1) * c ** 2

    return Targets(
        gamma=gamma,
        mu=mu,
        grad_height_e1=grad_height_e1,
        grad_height_e2=grad_height_e2,
        gauss_quadratic=gauss_quadratic,
        e11=e11,
        e12=e12,
        e22=e22,
        p1=p1,
        q1=q1,
        r1=r1,
        p2=p2,
        q2=q2,
        r2=r2,
        determinant=determinant,
        branch_minus2=branch_minus2,
        branch_plus2=branch_plus2,
        m1=m1,
        m2=m2,
        z1=z1,
        z2=z2,
        final_polynomial=final_polynomial,
        flat_u2sq=flat_u2sq,
        flat_e22_derivative=flat_e22_derivative,
        flat_e22_frame=flat_e22_frame,
        flat_polynomial=flat_polynomial,
    )


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


def build_context(flip_rule: tuple[str, Var] | None = None) -> Rules:
    """Derivation table under constant nonzero Gauss curvature.

    ``flip_rule`` is a test hook: the named rule is installed with its sign
    flipped so the suite can show the chain is not vacuous.  Flips of the
    second-derivative rules are applied at resolution time by the chain.
    """
    tg = targets()
    rules = {
        (OP_E1, Var.K1): U1,
        (OP_E2, Var.K1): U2,
        (OP_E1, Var.W): tg.gamma,
        (OP_E2, Var.W): tg.mu,
        (OP_E1, Var.U1): D11,
        (OP_E1, Var.U2): D12,
        (OP_E2, Var.U2): D22,
    }
    return flip(rules, flip_rule)


def run_theorem1(flip_rule: tuple[str, Var] | None = None) -> ProofReport:
    return run_chain(
        "theorem-1-constant-gauss-curvature",
        lambda rec: _chain(rec, flip_rule),
        REGISTRY,
    )


def _chain(rec: Recorder, flip_rule) -> None:
    ctx = build_context(flip_rule)
    tg = targets()
    # second principal curvature, normal height and connection coefficients
    kappa2 = C / K
    nh = (K ** 2 + C) / K * W / AL
    om1 = K * U2 / (K ** 2 - C)
    om2 = -C * U1 / (K * (K ** 2 - C))
    gamma, mu = tg.gamma, tg.mu

    # tangential components from the height-flux equations of the frame system,
    # with gamma and mu treated as unknown symbols
    ctx_unknown = {**ctx, (OP_E1, Var.W): G, (OP_E2, Var.W): M}
    flux_e1 = apply_derivation(nh, OP_E1, ctx_unknown)
    rec.exact_equal("height-flux-gradient-e1", flux_e1, tg.grad_height_e1)
    flux_e2 = apply_derivation(nh, OP_E2, ctx_unknown)
    rec.exact_equal("height-flux-gradient-e2", flux_e2, tg.grad_height_e2)
    rec.exact_equal("gamma-closed-form", solve_linear(flux_e1 + G * K, Var.G), gamma)
    rec.exact_equal("mu-closed-form", solve_linear(flux_e2 + M * kappa2, Var.M), mu)

    # Gauss identity with unresolved second derivatives, cleared to the
    # quadratic-form shape
    bb_raw = gauss_curvature_expr(ctx, kappa2)
    rec.exact_equal(
        "gauss-identity-quadratic-form",
        (bb_raw - C) * (K ** 2 - C) ** 2 / K ** 2,
        tg.gauss_quadratic,
    )

    # second derivatives: equate the derivative of each closed form with the
    # frame-system expression of the same quantity, solve, install
    sol_e11 = solve_linear(
        apply_derivation(gamma, OP_E1, ctx) - (mu * om1 + nh * K), Var.D11
    )
    rec.exact_equal("second-derivative-e1e1", sol_e11, tg.e11)
    sol_e12 = solve_linear(
        apply_derivation(mu, OP_E1, ctx) - (-gamma * om1), Var.D12
    )
    rec.exact_equal("second-derivative-e1e2", sol_e12, tg.e12)
    sol_e22 = solve_linear(
        apply_derivation(mu, OP_E2, ctx) - (-gamma * om2 + nh * kappa2), Var.D22
    )
    rec.exact_equal("second-derivative-e2e2", sol_e22, tg.e22)

    # the height cancels out of all three second derivatives
    for nm, sol in (("e1e1", sol_e11), ("e1e2", sol_e12), ("e2e2", sol_e22)):
        rec.exact_zero(f"second-derivative-{nm}-height-free", sol.partial(Var.W))

    # the mixed derivative carries a full u1*u2 factor
    cofactor = sol_e12 / (U1 * U2)
    rec.exact_zero("mixed-cofactor-free-of-u1", cofactor.partial(Var.U1))
    rec.exact_zero("mixed-cofactor-free-of-u2", cofactor.partial(Var.U2))

    resolved = {
        (OP_E1, Var.U1): sol_e11,
        (OP_E1, Var.U2): sol_e12,
        (OP_E2, Var.U2): sol_e22,
    }
    ctx = {**ctx, **flip(resolved, flip_rule)}

    # redundancy: all six frame-system equations vanish in the resolved
    # context; the second equation needs e2(u1), supplied by torsion-freeness
    # of the frame bracket
    e2_u1 = ctx[(OP_E1, Var.U2)] + om1 * U1 + om2 * U2
    ctx_red = {**ctx, (OP_E2, Var.U1): e2_u1}
    frame_equations = (
        apply_derivation(gamma, OP_E1, ctx_red) - mu * om1 - nh * K,
        apply_derivation(gamma, OP_E2, ctx_red) - mu * om2,
        apply_derivation(mu, OP_E1, ctx_red) + gamma * om1,
        apply_derivation(mu, OP_E2, ctx_red) + gamma * om2 - nh * kappa2,
        apply_derivation(nh, OP_E1, ctx_red) + gamma * K,
        apply_derivation(nh, OP_E2, ctx_red) + mu * kappa2,
    )
    for i, eq in enumerate(frame_equations, start=1):
        rec.exact_zero(f"frame-system-eq{i}", eq)

    # quadratic constraint: substitute the resolved second derivatives into
    # the cleared Gauss identity and normalize away the overall unit
    bb_resolved = gauss_curvature_expr(ctx, kappa2)
    constraint = (bb_resolved - C) * (K ** 2 - C) ** 2 / K ** 2
    qa, qb, qr = collect_quadratic(constraint)
    rec.nonzero_factor("constraint-scalar-term", qr, tg.r1)
    unit = qr / tg.r1
    rec.exact_equal("constraint-coeff-u1sq", qa / unit, tg.p1, factor=unit)
    rec.exact_equal("constraint-coeff-u2sq", qb / unit, tg.q1, factor=unit)

    pe1 = tg.p1 * U1 ** 2 + tg.q1 * U2 ** 2 + tg.r1

    # derived constraint: differentiate along e1, pull out the exact u1 factor
    dpe1 = apply_derivation(pe1, OP_E1, ctx)
    pe2_cofactor = dpe1 / U1
    rec.exact_zero(
        "derived-constraint-u1-divisibility",
        RationalExpr.from_number(pe2_cofactor.den.degree_in(Var.U1)),
        note="the e1-derivative carries an exact u1 factor",
    )
    da, db, dr = collect_quadratic(pe2_cofactor)
    rec.exact_equal("derived-constraint-coeff-u1sq", da, tg.p2)
    rec.exact_equal("derived-constraint-coeff-u2sq", db, tg.q2)
    rec.exact_equal("derived-constraint-scalar-term", dr, tg.r2)

    pe2 = tg.p2 * U1 ** 2 + tg.q2 * U2 ** 2 + tg.r2

    # determinant of the constraint pair
    det = tg.p1 * tg.q2 - tg.p2 * tg.q1
    rec.nonzero_factor("constraint-pair-determinant", det, tg.determinant)

    # degenerate branch alpha^2 = 4: the u-terms cancel and the remainder is
    # an explicit nonzero polynomial
    for a0, target, label in (
        (-2, tg.branch_minus2, "branch-alpha-minus-2"),
        (2, tg.branch_plus2, "branch-alpha-plus-2"),
    ):
        sub = {Var.ALPHA: RationalExpr.from_number(a0)}
        comb = (tg.p2 * pe1 - tg.p1 * pe2).substitute(sub)
        ca, cb, cr = collect_quadratic(comb)
        rec.exact_zero(f"{label}-u1sq-cancels", ca)
        rec.exact_zero(f"{label}-u2sq-cancels", cb)
        rec.nonzero_factor(
            f"{label}-remainder",
            cr,
            target.substitute(sub),
            extra_registry=_registry_at(a0),
        )

    # generic branch: solve the pair for the squared gradients
    z1, z2, _ = solve_2x2(
        tg.p1 * U1 + tg.q1 * U2 + tg.r1,
        tg.p2 * U1 + tg.q2 * U2 + tg.r2,
        (Var.U1, Var.U2),
    )
    rec.exact_equal("solved-gradient-sq-e1", z1, tg.z1)
    rec.exact_equal("solved-gradient-sq-e2", z2, tg.z2)
    # both constraints vanish at u1^2 = z1, u2^2 = z2
    rec.exact_zero("solution-residual-first", tg.p1 * z1 + tg.q1 * z2 + tg.r1)
    rec.exact_zero("solution-residual-second", tg.p2 * z1 + tg.q2 * z2 + tg.r2)

    # differentiate the first solved square along e1 once more; the resolved
    # e11 value must agree, forcing the final polynomial
    fa, fb, fr = collect_quadratic(tg.e11)
    final = 2 * (fa * tg.z1 + fb * tg.z2 + fr) - tg.z1.partial(Var.K1)
    rec.nonzero_factor("final-curvature-polynomial", final, tg.final_polynomial)

    # flat branch u1 = 0: the e11 equation pins u2^2, and differentiating it
    # along e2 must agree with the frame value of e22
    flat_u2sq = solve_linear(fb * U2 + fr, Var.U2)
    rec.exact_equal("flat-branch-u2sq", flat_u2sq, tg.flat_u2sq)
    flat_diff = tg.flat_u2sq.partial(Var.K1) / 2
    rec.exact_equal("flat-branch-e2e2-from-derivative", flat_diff, tg.flat_e22_derivative)
    ga, gb, gr = collect_quadratic(tg.e22)
    flat_frame = gb * tg.flat_u2sq + gr
    rec.exact_equal("flat-branch-e2e2-from-frame", flat_frame, tg.flat_e22_frame)
    rec.nonzero_factor(
        "flat-branch-polynomial", flat_diff - flat_frame, tg.flat_polynomial
    )

