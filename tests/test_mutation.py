"""Every derivation rule of every chain matters: flipping its sign fails the chain."""
import pytest

from singmin.exact import render_poly
from singmin.proofs import theorem1, theorem2

from conftest import CHAINS, sign_flip_cases

# the first checkpoint each sign-flip mutant fails, by pytest id; a flipped
# height rule (E_i, W) or Weingarten rule (E_i, NA) fails where the chain
# first uses it, in the equations that solve gamma and mu; a flipped Gauss
# rule (E_i, G|M) fails at the second derivative it solves, or at the frame
# system, like the frame bracket (E2, U1)
FIRST_FAILURE = {
    "theorem1-E1,K1": "height-flux-gradient-e1",
    "theorem1-E2,K1": "height-flux-gradient-e2",
    "theorem1-E1,W": "height-flux-gradient-e1",
    "theorem1-E2,W": "height-flux-gradient-e2",
    "theorem1-E1,NA": "gamma-closed-form",
    "theorem1-E2,NA": "mu-closed-form",
    "theorem1-E1,G": "second-derivative-e1e1",
    "theorem1-E2,G": "frame-system-eq2",
    "theorem1-E1,M": "second-derivative-e1e2",
    "theorem1-E2,M": "second-derivative-e2e2",
    "theorem1-E1,U1": "gauss-identity-quadratic-form",
    "theorem1-E2,U1": "frame-system-eq2",
    "theorem1-E1,U2": "second-derivative-e1e2",
    "theorem1-E2,U2": "gauss-identity-quadratic-form",
    "theorem2-E1,K1": "gamma-closed-form",
    "theorem2-E2,K1": "mu-closed-form",
    "theorem2-E1,W": "gamma-closed-form",
    "theorem2-E2,W": "mu-closed-form",
    "theorem2-E1,NA": "gamma-closed-form",
    "theorem2-E2,NA": "mu-closed-form",
    "theorem2-E2,M": "second-derivative-e2e2",
    "theorem2-E2,U2": "mu-gradient-e2",
    "theorem3-E1,W": "cmc-gradient-e1",
    "theorem3-E2,W": "cmc-gradient-e2",
    "theorem3-E1,NA": "cmc-gradient-e1",
    "theorem3-E2,NA": "cmc-gradient-e2",
}


@pytest.mark.parametrize("chain,rule", list(sign_flip_cases()))
def test_sign_flip_of_each_rule_fails_its_chain(chain, rule):
    _, run = CHAINS[chain]
    mutated = run(flip_rule=rule)
    failed = [cp.name for cp in mutated.checkpoints if not cp.passed]
    assert failed == [FIRST_FAILURE[f"{chain}-{rule[0]},{rule[1].name}"]]


def test_every_rule_is_exercised():
    assert sum(len(build()) for build, _ in CHAINS.values()) == len(FIRST_FAILURE) == 26


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
