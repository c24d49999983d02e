"""The shared chain runner and the checkpoint recorder."""
import pytest

from singmin.exact import RationalExpr, Var
from singmin.proofs import MODE_FACTOR, OP_E1, apply_derivation
from singmin.proofs.report import run_chain

K = RationalExpr.variable(Var.K1)
U1 = RationalExpr.variable(Var.U1)
W = RationalExpr.variable(Var.W)


def test_missing_rule_becomes_failed_chain_error_checkpoint():
    def chain(rec):
        rec.exact_equal("k1-is-k1", K, K)
        apply_derivation(K, OP_E1, {})
        rec.exact_zero("unreached", RationalExpr.zero())

    report = run_chain("test-chain", chain, registry=(K.num,))
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
    ],
    ids=["computed-zero", "expected-zero", "gradient-factor", "height-factor"],
)
def test_nonzero_factor_failure_notes(computed, expected, note):
    def chain(rec):
        rec.nonzero_factor("factor-check", computed, expected)
        rec.exact_zero("unreached", RationalExpr.zero())

    (cp,) = run_chain("test-chain", chain).checkpoints
    assert (cp.name, cp.mode, cp.passed, cp.note) == ("factor-check", MODE_FACTOR, False, note)
    assert cp.summary_line().endswith(f"  ({note})")
