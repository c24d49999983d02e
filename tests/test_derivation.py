"""Derivation rule tables: rule dispatch, linearity, Leibniz, audits, and
the frame model they are built from."""
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import singmin
from singmin.exact import RationalExpr, Var, divides
from singmin.proofs import (
    OP_E1,
    OP_E2,
    MissingRuleError,
    apply_derivation,
)
from singmin.proofs import theorem1, theorem2, theorem3
from singmin.proofs.context import (
    audit_factors,
    flip,
    frame_keys,
    frame_model,
    gauss_curvature_expr,
    resolve,
    strip_registered,
)
from singmin.proofs.theorem1 import REGISTRY, build_context, targets

from conftest import polynomials, rational_exprs

AL = RationalExpr.variable(Var.ALPHA)
C = RationalExpr.variable(Var.C)
K = RationalExpr.variable(Var.K1)
U1 = RationalExpr.variable(Var.U1)
U2 = RationalExpr.variable(Var.U2)
W = RationalExpr.variable(Var.W)
G = RationalExpr.variable(Var.G)
M = RationalExpr.variable(Var.M)

CTX = build_context()
T1_EXPRS = dict(variables=(Var.K1, Var.U1, Var.U2, Var.W), max_terms=3, max_degree=2)


def test_rule_lookup():
    assert apply_derivation(K, OP_E1, CTX) == U1
    assert apply_derivation(K, OP_E2, CTX) == U2


def test_constants_differentiate_to_zero():
    assert apply_derivation(AL * C ** 2 + 5, OP_E1, CTX).is_zero()
    assert apply_derivation(AL * C ** 2 + 5, OP_E2, CTX).is_zero()


def test_tangential_component_of_height_gradient():
    # the height differentiates to the tangential components, symbols g and m
    # until a chain solves them
    assert apply_derivation(W, OP_E1, CTX) == G
    assert apply_derivation(W, OP_E2, CTX) == M


def test_resolve_substitutes_solved_symbols_into_a_copy():
    gamma, mu = targets()["gamma-closed-form"], targets()["mu-closed-form"]
    flipped = flip(CTX, (OP_E1, Var.W))
    got = resolve(flipped, {Var.G: gamma, Var.M: mu})
    assert flipped[(OP_E1, Var.W)] == -G
    # a flipped rule stays flipped once its symbol is solved
    assert got[(OP_E1, Var.W)] == -gamma
    assert got[(OP_E2, Var.W)] == mu
    # rules free of the solved symbols are the same objects
    assert all(got[key] is rule for key, rule in CTX.items() if rule.free_of(Var.G, Var.M))
    assert apply_derivation(W, OP_E2, got) == mu


def test_missing_rule_names_operator_and_symbol():
    with pytest.raises(MissingRuleError) as err:
        apply_derivation(RationalExpr.variable(Var.A1), OP_E1, CTX)
    assert err.value.op == OP_E1
    assert err.value.var == Var.A1
    with pytest.raises(MissingRuleError):
        # no rule for the unresolved second derivative d11 on the base context
        apply_derivation(RationalExpr.variable(Var.D11), OP_E2, CTX)


def test_missing_rule_on_an_empty_table():
    with pytest.raises(MissingRuleError) as err:
        apply_derivation(K ** 2 + C, OP_E2, {})
    assert (err.value.op, err.value.var) == (OP_E2, Var.K1)
    assert str(err.value) == "no rule for (E2, K1)"


def test_flip_negates_one_rule_of_a_copy():
    before = dict(CTX)
    flipped = flip(CTX, (OP_E1, Var.W))
    assert CTX == before
    assert flipped[(OP_E1, Var.W)] == -CTX[(OP_E1, Var.W)]
    assert {k: v for k, v in flipped.items() if k != (OP_E1, Var.W)} == {
        k: v for k, v in CTX.items() if k != (OP_E1, Var.W)
    }
    for key in (None, (OP_E2, Var.D11)):
        same = flip(CTX, key)
        assert same == CTX and same is not CTX


@given(rational_exprs(**T1_EXPRS), rational_exprs(**T1_EXPRS))
@settings(max_examples=30, deadline=None)
def test_linear_and_leibniz(a, b):
    da = apply_derivation(a, OP_E1, CTX)
    db = apply_derivation(b, OP_E1, CTX)
    assert apply_derivation(a + b, OP_E1, CTX) == da + db
    assert apply_derivation(a * b, OP_E1, CTX) == da * b + a * db


def test_quotient_rule_through_field_ops():
    expr = K / (K ** 2 - C)
    got = apply_derivation(expr, OP_E1, CTX)
    expected = ((K ** 2 - C) - K * 2 * K) / (K ** 2 - C) ** 2 * U1
    assert got == expected


def test_strip_registered_explains_products():
    lhs = ((AL + 1) * K ** 2 + C) ** 2 * K * C * 3
    assert strip_registered(lhs.num, REGISTRY).is_constant()
    stray = (AL + 3) * K
    rem = strip_registered(stray.num, REGISTRY)
    assert not rem.is_constant()


# the registries the chains audit with, theorem 1's at a fixed alpha included
REGISTRIES = (
    theorem1.REGISTRY,
    theorem2.REGISTRY,
    theorem1.REGISTRY + theorem1._registry_at(2),
    theorem1.REGISTRY + theorem1._registry_at(-2),
)


@st.composite
def registered_products(draw):
    """A registry, the same registry in another order, and a product of its
    entries times a drawn cofactor."""
    registry = draw(st.sampled_from(REGISTRIES))
    p = draw(polynomials(variables=(Var.ALPHA, Var.C, Var.K1), max_terms=3, max_degree=2))
    for q in draw(st.lists(st.sampled_from(registry), max_size=4)):
        p = p * q
    return registry, tuple(draw(st.permutations(registry))), p


@given(registered_products())
@settings(max_examples=60, deadline=None)
def test_strip_registered_leaves_no_registered_factor(case):
    registry, shuffled, p = case
    rem = strip_registered(p, registry)
    assert strip_registered(p, shuffled) == rem
    if not rem.is_constant():
        assert not any(divides(q, rem) for q in registry)


def test_audit_factor_flags_unregistered():
    ok = 2 * C / K ** 2
    assert audit_factors(REGISTRY, numerator=ok.num, denominator=ok.den) == ()
    bad = (2 * AL + 3) * C
    flags = audit_factors(REGISTRY, numerator=bad.num, denominator=bad.den)
    assert flags == ("unregistered numerator factor: 2*alpha + 3",)
    assert audit_factors(REGISTRY, denominator=bad.num) == (
        "unregistered denominator factor: 2*alpha + 3",
    )
    assert audit_factors((), numerator=bad.num) == ()


def reference_gauss_curvature(rules, kappa2):
    """The Gauss curvature as the chains wrote it before the connection form,
    kept as a test-only reference."""
    gap = K - kappa2
    e1_k2 = apply_derivation(kappa2, OP_E1, rules)
    e2_k1 = apply_derivation(K, OP_E2, rules)
    t1 = apply_derivation(e1_k2 / gap, OP_E1, rules)
    t2 = apply_derivation(e2_k1 / gap, OP_E2, rules)
    return -t1 + t2 - (e1_k2 ** 2 + e2_k1 ** 2) / gap ** 2


@pytest.mark.parametrize("module,kappa2", [(theorem1, C / K), (theorem2, C)],
                         ids=["theorem1", "theorem2"])
def test_connection_form_equals_the_reference_gauss_curvature(module, kappa2):
    # e2(p) + e1(q) - p^2 - q^2 is the reference exactly, on the chain's
    # table and on each of its sign flips
    assert module.KAPPA2 == kappa2
    for key in (None, *module.MUTABLE_RULES):
        rules = flip(module.build_context(), key)
        assert gauss_curvature_expr(rules, kappa2) == reference_gauss_curvature(rules, kappa2)


def _all_frame_keys(a1, a2):
    return frame_keys(Var.K1, Var.W, Var.NA, a1, a2, Var.U1, Var.U2)


@pytest.mark.parametrize("module", [theorem1, theorem2, theorem3],
                         ids=["theorem1", "theorem2", "theorem3"])
def test_each_table_is_the_frame_model_on_its_mutable_keys(module):
    # the model on a chain's keys holds exactly those rules, each equal to the
    # whole 14-rule model's rule on the same key
    a1, a2 = (Var.A1, Var.A2) if module is theorem3 else (Var.G, Var.M)
    full = frame_model(module.KAPPA2, a1, a2, _all_frame_keys(a1, a2))
    model = frame_model(module.KAPPA2, a1, a2, module.MUTABLE_RULES)
    assert tuple(model) == module.MUTABLE_RULES
    assert model == {key: full[key] for key in module.MUTABLE_RULES}
    assert tuple(module.build_context()) == module.MUTABLE_RULES
    assert module.build_context() == model
    # the cached table is shared, so it is read-only; a mutant changes a copy
    with pytest.raises(TypeError):
        module.build_context()[module.MUTABLE_RULES[0]] = W


def test_theorem1_reads_the_whole_frame_model():
    assert theorem1.MUTABLE_RULES == _all_frame_keys(Var.G, Var.M)


def test_height_and_weingarten_rules_need_no_connection(monkeypatch):
    # theorem 3 keeps only these four, so its table never computes p and q
    from singmin.proofs import context

    monkeypatch.setattr(context, "connection", lambda *a: pytest.fail("connection was computed"))
    rules = frame_model(theorem3.KAPPA2, Var.A1, Var.A2, theorem3.MUTABLE_RULES)
    assert tuple(rules) == frame_keys(Var.W, Var.NA)


def test_tables_are_built_on_first_use_not_at_import():
    code = (
        "import singmin.cli\n"
        "from singmin.proofs import theorem1, theorem2, theorem3\n"
        "print([m.build_context.cache_info().currsize for m in (theorem1, theorem2, theorem3)])"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(singmin.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "[0, 0, 0]"
