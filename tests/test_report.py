"""The shared chain runner."""
from singmin.exact import RationalExpr, Var
from singmin.proofs import OP_E1, apply_derivation
from singmin.proofs.report import run_chain

K = RationalExpr.variable(Var.K1)


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
