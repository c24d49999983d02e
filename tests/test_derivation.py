"""Derivation rule tables: rule dispatch, linearity, Leibniz, audits."""
import pytest
from hypothesis import given, settings

from singmin.exact import RationalExpr, Var
from singmin.proofs import (
    OP_E1,
    OP_E2,
    MissingRuleError,
    apply_derivation,
)
from singmin.proofs.context import audit_factor, flip, strip_registered
from singmin.proofs.theorem1 import REGISTRY, build_context, targets

from conftest import rational_exprs

AL = RationalExpr.variable(Var.ALPHA)
C = RationalExpr.variable(Var.C)
K = RationalExpr.variable(Var.K1)
U1 = RationalExpr.variable(Var.U1)
U2 = RationalExpr.variable(Var.U2)
W = RationalExpr.variable(Var.W)

CTX = build_context()
T1_EXPRS = dict(variables=(Var.K1, Var.U1, Var.U2, Var.W), max_terms=3, max_degree=2)


def test_rule_lookup():
    assert apply_derivation(K, OP_E1, CTX) == U1
    assert apply_derivation(K, OP_E2, CTX) == U2


def test_constants_differentiate_to_zero():
    assert apply_derivation(AL * C ** 2 + 5, OP_E1, CTX).is_zero()
    assert apply_derivation(AL * C ** 2 + 5, OP_E2, CTX).is_zero()


def test_tangential_component_of_height_gradient():
    # the height differentiates to the first tangential component
    assert apply_derivation(W, OP_E1, CTX) == targets().gamma
    assert apply_derivation(W, OP_E2, CTX) == targets().mu


def test_missing_rule_names_operator_and_symbol():
    with pytest.raises(MissingRuleError) as err:
        apply_derivation(RationalExpr.variable(Var.NA), OP_E1, CTX)
    assert err.value.op == OP_E1
    assert err.value.var == Var.NA
    with pytest.raises(MissingRuleError):
        # no e2(u1) rule on the base context
        apply_derivation(U1, OP_E2, CTX)


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
    for key in (None, (OP_E2, Var.U1)):
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


def test_audit_factor_flags_unregistered():
    ok = 2 * C / K ** 2
    assert audit_factor(ok, REGISTRY) == ()
    bad = (2 * AL + 3) * C
    flags = audit_factor(bad, REGISTRY)
    assert len(flags) == 1 and "2*alpha + 3" in flags[0]
