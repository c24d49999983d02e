"""The proof report read from outside the engine: sympy re-checks it.

Every checkpoint of ``prove --json`` is parsed from its rendered text with
sympy, and its mode's relation is re-checked there.  For each sign-flip
mutant, sympy must also agree on which checkpoint fails first.  The hypothesis
property at the end shows that ``render`` is faithful, so a checkpoint that
holds in sympy holds for the expressions the engine computed.
"""
import json

import pytest
import sympy
from hypothesis import given, settings

from singmin.exact import render, render_poly
from singmin.proofs import MODE_EQUAL, MODE_FACTOR, MODE_ZERO, reports_to_json, run_all

from conftest import CHAINS, rational_exprs, sign_flip_cases
from sympy_reader import SYMBOLS, expr_terms, poly_terms, read

# a factor may hold only the constants and k1, never a quantity that can
# vanish on the surface; typed here, not read from the engine
ALLOWED = {SYMBOLS[name] for name in ("alpha", "c", "h0", "k1")}


def holds(cp: dict) -> bool:
    """sympy's verdict on one checkpoint record of the JSON report."""
    if cp["computed"] is None:
        # a chain-error record carries no identity
        return False
    computed = read(cp["computed"])
    expected = read(cp["expected"])
    if cp["mode"] == MODE_ZERO:
        return sympy.cancel(computed) == 0
    if cp["mode"] == MODE_EQUAL:
        return sympy.cancel(computed - expected) == 0
    assert cp["mode"] == MODE_FACTOR
    if cp["factor"] is None:
        return False
    factor = read(cp["factor"])
    return (
        sympy.cancel(factor) != 0
        and factor.free_symbols <= ALLOWED
        and sympy.cancel(computed / expected - factor) == 0
    )


def records(reports) -> list[tuple[str, dict]]:
    doc = json.loads(reports_to_json(reports))
    return [(rep["theorem"], cp) for rep in doc["reports"] for cp in rep["checkpoints"]]


def test_every_checkpoint_holds_in_sympy():
    report = records(run_all())
    assert len(report) >= 55
    assert all(cp["status"] == "pass" for _, cp in report)
    assert [f"{theorem}/{cp['name']}" for theorem, cp in report if not holds(cp)] == []


@pytest.mark.parametrize("chain,rule", list(sign_flip_cases()))
def test_sympy_agrees_where_each_mutant_first_fails(chain, rule):
    _, run = CHAINS[chain]
    report = [cp for _, cp in records([run(flip_rule=rule)])]
    statuses = [cp["status"] for cp in report]
    assert "fail" in statuses
    first = statuses.index("fail")
    assert [holds(cp) for cp in report[: first + 1]] == [True] * first + [False]


@given(rational_exprs())
@settings(max_examples=60, deadline=None)
def test_render_of_random_expressions_is_faithful(e):
    assert sympy.expand(read(render_poly(e.num)) - poly_terms(e.num)) == 0
    assert sympy.expand(read(render_poly(e.den)) - poly_terms(e.den)) == 0
    assert sympy.cancel(read(render(e)) - expr_terms(e)) == 0
