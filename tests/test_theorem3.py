"""Constant-mean-curvature identities."""
from singmin.exact import RationalExpr, Var
from singmin.proofs import OP_E1, run_theorem3

AL = RationalExpr.variable(Var.ALPHA)
K = RationalExpr.variable(Var.K1)
H0 = RationalExpr.variable(Var.H0)
A1 = RationalExpr.variable(Var.A1)
A2 = RationalExpr.variable(Var.A2)


def test_chain_passes():
    report = run_theorem3()
    assert report.passed
    names = [cp.name for cp in report.checkpoints]
    assert names == ["cmc-gradient-e1", "cmc-gradient-e2"]


def test_identities_reduce_at_alpha_zero():
    report = run_theorem3()
    by_name = {cp.name: cp for cp in report.checkpoints}
    zero = {Var.ALPHA: RationalExpr.zero()}
    assert by_name["cmc-gradient-e1"].computed.substitute(zero) == H0 * A1
    assert by_name["cmc-gradient-e2"].computed.substitute(zero) == H0 * A2


def test_mutation_breaks_chain():
    mutated = run_theorem3(flip_rule=(OP_E1, Var.NA))
    assert not mutated.passed
