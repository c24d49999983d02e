"""Every derivation rule of every chain matters: flipping its sign fails the chain."""
import pytest

from singmin.exact import render_poly
from singmin.proofs import MUTABLE_RULES, theorem1, theorem2

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


def _flags(report):
    return {(cp.name, flag) for cp in report.checkpoints for flag in cp.flags}


@pytest.mark.parametrize("module,index", [
    pytest.param(module, i, id=f"{module.__name__.rpartition('.')[2]}-{render_poly(p)}")
    for module in (theorem1, theorem2)
    for i, p in enumerate(module.REGISTRY)
])
def test_every_registry_entry_is_used(module, index, monkeypatch):
    # a chain assumes an expression nonvanishing for nothing unless dropping
    # it from the registry flags a checkpoint
    run = CHAINS[module.__name__.rpartition(".")[2]][1]
    before = _flags(run())
    registry = module.REGISTRY
    monkeypatch.setattr(module, "REGISTRY", registry[:index] + registry[index + 1:])
    assert _flags(run()) - before
