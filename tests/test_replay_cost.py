"""The proof replay builds only what its checkpoints read.

A target is built on its first read and kept, so the benchmark's sign-flip
mutants, which stop at checkpoints 1-7, build only the targets those
checkpoints compare against, and a value does not depend on when (or in which
order) it was built.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import singmin
from singmin.exact import RationalExpr, Var, render
from singmin.proofs import theorem1, theorem2

from replay_cost import replay_cost

GOLDEN = Path(__file__).resolve().parents[1] / "perfbench" / "golden_prove.json"
THEOREM = {theorem1: "theorem-1-constant-gauss-curvature",
           theorem2: "theorem-2-constant-principal-curvature"}

# target name -> the checkpoint whose expected side it is, with the alpha
# value a branch checkpoint substitutes first
CHECKPOINT_OF = {
    theorem1: {
        "gamma": ("gamma-closed-form", None),
        "mu": ("mu-closed-form", None),
        "grad_height_e1": ("height-flux-gradient-e1", None),
        "grad_height_e2": ("height-flux-gradient-e2", None),
        "gauss_quadratic": ("gauss-identity-quadratic-form", None),
        "e11": ("second-derivative-e1e1", None),
        "e12": ("second-derivative-e1e2", None),
        "e22": ("second-derivative-e2e2", None),
        "p1": ("constraint-coeff-u1sq", None),
        "q1": ("constraint-coeff-u2sq", None),
        "r1": ("constraint-scalar-term", None),
        "p2": ("derived-constraint-coeff-u1sq", None),
        "q2": ("derived-constraint-coeff-u2sq", None),
        "r2": ("derived-constraint-scalar-term", None),
        "determinant": ("constraint-pair-determinant", None),
        "branch_minus2": ("branch-alpha-minus-2-remainder", -2),
        "branch_plus2": ("branch-alpha-plus-2-remainder", 2),
        "z1": ("solved-gradient-sq-e1", None),
        "z2": ("solved-gradient-sq-e2", None),
        "final_polynomial": ("final-curvature-polynomial", None),
        "flat_u2sq": ("flat-branch-u2sq", None),
        "flat_e22_derivative": ("flat-branch-e2e2-from-derivative", None),
        "flat_e22_frame": ("flat-branch-e2e2-from-frame", None),
        "flat_polynomial": ("flat-branch-polynomial", None),
    },
    theorem2: {
        "gamma": ("gamma-closed-form", None),
        "mu": ("mu-closed-form", None),
        "e2_mu_differentiated": ("mu-gradient-e2", None),
        "e22": ("second-derivative-e2e2", None),
        "gauss_display": ("gauss-identity-display", None),
        "reduced_identity": ("reduced-gauss-identity", None),
        "branch_minus2": ("branch-alpha-minus-2", None),
        "u2sq": ("gradient-sq-e2", None),
        "u2sq_derivative": ("gradient-sq-derivative", None),
        "final_polynomial": ("final-curvature-polynomial", None),
    },
}


@pytest.fixture(scope="module")
def sweep(tmp_path_factory):
    """The benchmark's mutant sweep in a fresh interpreter, then ``prove
    --json`` in the same process."""
    out = tmp_path_factory.mktemp("sweep") / "after.json"
    return replay_cost("mutants", out), out


def test_mutant_sweep_builds_only_the_targets_it_reads(sweep):
    cost, _ = sweep
    assert {name: set(built) for name, built in cost["built"].items()} == {
        "theorem1": {"grad_height_e1", "grad_height_e2", "gamma", "mu", "gauss_quadratic",
                     "e11", "e12"},
        "theorem2": {"gamma", "mu"},
    }


def test_prove_json_after_the_sweep_matches_a_cold_one(sweep, tmp_path):
    _, after = sweep
    cold = tmp_path / "cold.json"
    env = {**os.environ, "PYTHONPATH": str(Path(singmin.__file__).parents[1])}
    subprocess.run([sys.executable, "-m", "singmin", "prove", "--json", str(cold)],
                   env=env, capture_output=True, check=True)
    assert after.read_bytes() == cold.read_bytes()


def test_a_cold_run_all_builds_every_target():
    built = replay_cost("run_all")["built"]
    assert built == {"theorem1": list(theorem1.targets().names()),
                     "theorem2": list(theorem2.targets().names())}


@pytest.mark.parametrize("module", [theorem1, theorem2], ids=["theorem1", "theorem2"])
def test_targets_read_in_any_order_render_as_the_golden(module):
    golden = {
        cp["name"]: cp["expected"]
        for cp in json.loads(GOLDEN.read_text())["checkpoints"]
        if cp["theorem"] == THEOREM[module]
    }
    tg = module.targets.__wrapped__()  # a fresh set, past the process-wide cache
    assert set(tg.names()) == set(CHECKPOINT_OF[module])
    for name in sorted(tg.names(), reverse=True):
        checkpoint, alpha = CHECKPOINT_OF[module][name]
        value = getattr(tg, name)
        if alpha is not None:
            value = value.substitute({Var.ALPHA: RationalExpr.from_number(alpha)})
        assert render(value) == golden[checkpoint], name
    assert tg.built() == tg.names()
