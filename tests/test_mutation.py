"""Every derivation rule of every chain matters: flipping its sign fails the chain."""
import pytest

from singmin.proofs import MUTABLE_RULES, theorem1

from conftest import CHAINS, sign_flip_cases


@pytest.mark.parametrize("chain,rule", list(sign_flip_cases()))
def test_sign_flip_of_each_rule_fails_its_chain(chain, rule):
    _, run = CHAINS[chain]
    mutated = run(flip_rule=rule)
    assert not mutated.passed
    assert any(not cp.passed for cp in mutated.checkpoints)


def test_every_rule_is_exercised():
    assert sum(len(build()) for build, _ in CHAINS.values()) == 16


def test_mutable_rules_follow_the_theorem1_table():
    # the benchmark's mutant sweep iterates MUTABLE_RULES
    assert MUTABLE_RULES == tuple(theorem1.build_context())
