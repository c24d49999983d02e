"""The proof replay builds only what its checkpoints read.

An expected value is built on its first read and kept, under its
checkpoint's name, so the benchmark's sign-flip mutants, which stop at
checkpoints 1-7, build only the values those checkpoints compare against, and
a value does not depend on when (or in which order) it was built.
"""
import copy
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import singmin
from singmin.exact import render
from singmin.proofs import MODE_ZERO, theorem1, theorem2, theorem3

from replay_cost import replay_cost

GOLDEN = Path(__file__).resolve().parents[1] / "perfbench" / "golden_prove.json"
THEOREM = {theorem1: "theorem-1-constant-gauss-curvature",
           theorem2: "theorem-2-constant-principal-curvature",
           theorem3: "theorem-3-constant-mean-curvature"}
MODULES = pytest.mark.parametrize("module", list(THEOREM),
                                  ids=["theorem1", "theorem2", "theorem3"])


def golden_expected(module):
    """The golden expected side of each of the theorem's checkpoints that
    compares against a value (exact-equal or equal up to a nonzero factor)."""
    return {
        cp["name"]: cp["expected"]
        for cp in json.loads(GOLDEN.read_text())["checkpoints"]
        if cp["theorem"] == THEOREM[module] and cp["mode"] != MODE_ZERO
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
        "theorem1": {"height-flux-gradient-e1", "height-flux-gradient-e2", "gamma-closed-form",
                     "mu-closed-form", "gauss-identity-quadratic-form", "second-derivative-e1e1",
                     "second-derivative-e1e2"},
        "theorem2": {"gamma-closed-form", "mu-closed-form"},
        "theorem3": {"cmc-gradient-e1"},
    }


def test_prove_json_after_the_sweep_matches_a_cold_one(sweep, tmp_path):
    _, after = sweep
    cold = tmp_path / "cold.json"
    env = {**os.environ, "PYTHONPATH": str(Path(singmin.__file__).parents[1])}
    subprocess.run([sys.executable, "-m", "singmin", "prove", "--json", str(cold)],
                   env=env, capture_output=True, check=True)
    assert after.read_bytes() == cold.read_bytes()


def test_a_cold_run_all_builds_every_target():
    # in table order: each table lists its checkpoints in the order the chain reaches them
    built = replay_cost("run_all")["built"]
    assert built == {m.__name__.rpartition(".")[2]: list(m.targets().builders) for m in THEOREM}


@MODULES
def test_each_table_holds_the_checkpoints_that_compare_against_a_value(module):
    assert set(module.targets().builders) == set(golden_expected(module))


@MODULES
def test_targets_read_in_any_order_render_as_the_golden(module):
    golden = golden_expected(module)
    tg = module.targets.__wrapped__()  # a fresh table, past the process-wide cache
    for name in sorted(tg.builders, reverse=True):
        assert render(tg[name]) == golden[name], name
    assert set(tg) == set(tg.builders)


def test_a_copy_of_a_table_keeps_what_is_built_and_builds_the_rest():
    tg = theorem1.targets.__wrapped__()
    first = tg["gamma-closed-form"]
    dup = copy.copy(tg)
    assert list(dup) == ["gamma-closed-form"] and dup["gamma-closed-form"] is first
    assert dup["mu-closed-form"] == tg["mu-closed-form"]
