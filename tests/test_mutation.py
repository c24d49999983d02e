"""Every derivation rule of every chain matters: flipping its sign fails the chain."""
import functools

import pytest

from singmin.exact import render, render_poly
from singmin.proofs import theorem1, theorem2, theorem3
from singmin.proofs.context import flip
from singmin.proofs.report import Recorder

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


# the closing checkpoint of each branch of each chain
TERMINALS = {
    "theorem1": (
        "branch-alpha-minus-2-remainder",
        "branch-alpha-plus-2-remainder",
        "final-curvature-polynomial",
        "flat-branch-polynomial",
    ),
    "theorem2": ("branch-alpha-minus-2", "final-curvature-polynomial"),
    "theorem3": ("cmc-gradient-e1", "cmc-gradient-e2"),
}

# the flips whose effect stops short of every terminal: theorem 1's (E2, G)
# and (E2, U1) are read only by frame-system-eq2, and its (E1, U2) sign
# cancels once d12 is solved through the same rule; theorem 2's (E1, K1),
# (E1, W) and (E1, NA) feed only gamma, which the chain never uses
SILENT_FLIPS = {
    "theorem1-E2,G",
    "theorem1-E2,U1",
    "theorem1-E1,U2",
    "theorem2-E1,K1",
    "theorem2-E1,W",
    "theorem2-E1,NA",
}

# the checkpoints whose computed value no flip changes: each holds by the
# structure of the step, not by the rules (a solved value is free of a
# symbol, an equation the chain solved or solve_2x2's result is re-checked,
# the u1^2 terms cancel)
STRUCTURAL = {
    "theorem1": {
        "second-derivative-e1e1-height-free",
        "second-derivative-e1e2-height-free",
        "second-derivative-e2e2-height-free",
        "mixed-cofactor-free-of-u1",
        "mixed-cofactor-free-of-u2",
        "frame-system-eq1",
        "frame-system-eq3",
        "frame-system-eq4",
        "frame-system-eq5",
        "frame-system-eq6",
        "derived-constraint-u1-divisibility",
        "branch-alpha-minus-2-u1sq-cancels",
        "branch-alpha-plus-2-u1sq-cancels",
        "solution-residual-first",
        "solution-residual-second",
    },
    "theorem2": {"second-derivative-u1-free"},
    "theorem3": set(),
}


class _RecordAll(Recorder):
    """A Recorder that records a failed checkpoint and goes on."""

    def _add(self, cp):
        self.checkpoints.append(cp)


_MODULES = {"theorem1": theorem1, "theorem2": theorem2, "theorem3": theorem3}


def _computed(chain, rule=None):
    """Each checkpoint's rendered computed value, the chain run to its end."""
    module = _MODULES[chain]
    rec = _RecordAll()
    module._chain(rec, flip(module.build_context(), rule))
    return {cp.name: render(cp.computed) for cp in rec.checkpoints}


@functools.cache
def mutation_reach(chain):
    """The unflipped chain's checkpoint names, and for each rule's flip (by
    pytest id) the checkpoints whose computed value differs from them."""
    base = _computed(chain)
    reach = {}
    for rule in CHAINS[chain][0]():
        flipped = _computed(chain, rule)
        assert flipped.keys() == base.keys()  # the same steps, none skipped
        reach[f"{chain}-{rule[0]},{rule[1].name}"] = {n for n in base if flipped[n] != base[n]}
    return tuple(base), reach


def reach_summary():
    """Per chain: the number of flips, the flips that change a terminal
    checkpoint, and the checkpoints that no flip changes."""
    rows = []
    for chain, terminals in TERMINALS.items():
        names, reach = mutation_reach(chain)
        changed = set().union(*reach.values())
        rows.append((
            chain,
            len(reach),
            sum(1 for hit in reach.values() if hit & set(terminals)),
            [n for n in names if n not in changed],
        ))
    return rows


@pytest.mark.parametrize("chain", list(TERMINALS))
def test_every_terminal_changes_under_some_flip(chain):
    _, reach = mutation_reach(chain)
    assert [t for t in TERMINALS[chain] if not any(t in hit for hit in reach.values())] == []


@pytest.mark.parametrize("chain", list(TERMINALS))
def test_flips_that_reach_no_terminal_are_named(chain):
    _, reach = mutation_reach(chain)
    silent = {flip_id for flip_id, hit in reach.items() if not hit & set(TERMINALS[chain])}
    assert silent == {f for f in SILENT_FLIPS if f.startswith(f"{chain}-")}


@pytest.mark.parametrize("chain", list(TERMINALS))
def test_checkpoints_no_flip_changes_are_structural(chain):
    names, reach = mutation_reach(chain)
    assert set(names) - set().union(*reach.values()) == STRUCTURAL[chain]
