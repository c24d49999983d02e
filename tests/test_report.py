"""The shared chain runner and the checkpoint recorder."""
import pytest

from singmin.exact import RationalExpr, Var
from singmin.proofs import MODE_FACTOR, OP_E1, apply_derivation
from singmin.proofs.report import run_chain

K = RationalExpr.variable(Var.K1)
U1 = RationalExpr.variable(Var.U1)
W = RationalExpr.variable(Var.W)
A1 = RationalExpr.variable(Var.A1)
NA = RationalExpr.variable(Var.NA)
D11 = RationalExpr.variable(Var.D11)


def test_missing_rule_becomes_failed_chain_error_checkpoint():
    def chain(rec):
        rec.exact_equal("k1-is-k1", K)
        apply_derivation(K, OP_E1, {})
        rec.exact_zero("unreached", RationalExpr.zero())

    report = run_chain("test-chain", chain, (K.num,), {"k1-is-k1": K})
    assert report.theorem == "test-chain"
    assert [(cp.name, cp.passed) for cp in report.checkpoints] == [
        ("k1-is-k1", True),
        ("chain-error", False),
    ]
    assert report.checkpoints[1].note == "MissingRuleError: no rule for (E1, K1)"
    assert report.passed is False


@pytest.mark.parametrize(
    "computed,expected,note",
    [
        (RationalExpr.zero(), K, "computed expression is identically zero"),
        (K, RationalExpr.zero(), "expected expression is identically zero"),
        (K * U1, K, "factor involves gradient or height symbols"),
        (K * W, K, "factor involves gradient or height symbols"),
        (A1 * K, K, "factor involves gradient or height symbols"),
        (NA * K, K, "factor involves gradient or height symbols"),
        (D11 * K, K, "factor involves gradient or height symbols"),
    ],
    ids=["computed-zero", "expected-zero", "gradient-factor", "height-factor",
         "tangential-factor", "normal-height-factor", "second-derivative-factor"],
)
def test_nonzero_factor_failure_notes(computed, expected, note):
    def chain(rec):
        rec.nonzero_factor("factor-check", computed)
        rec.exact_zero("unreached", RationalExpr.zero())

    (cp,) = run_chain("test-chain", chain, (), {"factor-check": expected}).checkpoints
    assert (cp.name, cp.mode, cp.passed, cp.note) == ("factor-check", MODE_FACTOR, False, note)
    assert cp.summary_line().endswith(f"  ({note})")
