"""What a cold proof replay builds and computes, measured in a fresh interpreter.

    python tests/replay_cost.py {run_all,mutants} [PROVE_JSON]

runs one op with the process-wide caches (the targets, the rule tables and
the factor base) empty, and prints one JSON object: the op's wall time, the
checkpoint names whose expected value each theorem has built by its end (in
the order built), the gcd counters (gcds computed, as top-level calls of
``_gcdheu`` on two non-constant operands; trial divisions made by
``_gcdheu``; and fallbacks, as calls of ``_subresultant_gcd``) and the factor
base counters: its size at the end; its trial divisions, as calls of
``_trial``, each one division by an entry (the division of an entry by an
irreducible newcomer counts too, but not the cofactor division of
``_split_entry``); and every ``poly_gcd`` it runs, to test a new entry for
irreducibility, to find a factor an entry shares, or within a split.
``run_all`` is one ``run_all()``; ``mutants`` is the sweep of sign-flip
mutants that the benchmark's ``proof-replay`` workload times (``MUTANTS`` in
``perfbench/run.py``).  With PROVE_JSON, ``singmin prove --json PROVE_JSON``
runs after the op, in the same process.  ``replay_cost`` does all of this
from another interpreter and returns the object.
"""
from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def benchmark_mutants() -> tuple[str, ...]:
    """The labels of the benchmark's mutant sweep, such as ``theorem1:E1,K1``,
    read from ``perfbench/run.py`` without running it."""
    tree = ast.parse((ROOT / "perfbench" / "run.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "MUTANTS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise LookupError("perfbench/run.py defines no MUTANTS")


def replay_cost(op: str, prove_json: Path | None = None) -> dict:
    """Run ``op`` in a fresh interpreter and return what it printed."""
    import singmin

    env = {**os.environ, "PYTHONPATH": str(Path(singmin.__file__).parents[1])}
    argv = [sys.executable, __file__, op] + ([str(prove_json)] if prove_json else [])
    out = subprocess.run(argv, env=env, capture_output=True, text=True, check=True)
    return json.loads(out.stdout)


def _measure(op: str, prove_json: str | None) -> dict:
    import contextlib
    import io
    import time

    from singmin.exact import Var, poly, ratexpr
    from singmin.proofs import run_all, theorem1, theorem2, theorem3

    counts = {"computed": 0, "trial_divisions": 0, "fallbacks": 0,
              "base_trial_divisions": 0, "base_gcds": 0}

    def counted(name, fn):
        def wrapper(*args):
            counts[name] += 1
            return fn(*args)

        return wrapper

    gcdheu = poly._gcdheu

    def top_level_gcdheu(f, g, depth=0):
        # the recursion passes its depth; poly_gcd calls with none
        if not depth and not (f.is_constant() or g.is_constant()):
            counts["computed"] += 1
        return gcdheu(f, g, depth)

    # _gcdheu is the only caller of divides, poly_gcd the only caller of
    # _subresultant_gcd, and the factor base the only caller of poly_gcd in
    # ratexpr
    poly._gcdheu = top_level_gcdheu
    poly.divides = counted("trial_divisions", poly.divides)
    poly._subresultant_gcd = counted("fallbacks", poly._subresultant_gcd)
    ratexpr._trial = counted("base_trial_divisions", ratexpr._trial)
    ratexpr.poly_gcd = counted("base_gcds", ratexpr.poly_gcd)

    runners = {"theorem1": theorem1.run_theorem1, "theorem2": theorem2.run_theorem2,
               "theorem3": theorem3.run_theorem3}
    start = time.perf_counter()
    if op == "run_all":
        run_all()
    elif op == "mutants":
        for label in benchmark_mutants():
            chain, rule = label.split(":")
            rule_op, var = rule.split(",")
            runners[chain](flip_rule=(rule_op, Var[var]))
    else:
        raise SystemExit(f"unknown op {op!r}")
    result = {
        "op": op,
        "wall_s": time.perf_counter() - start,
        "built": {name: list(m.targets()) for name, m in
                  (("theorem1", theorem1), ("theorem2", theorem2), ("theorem3", theorem3))},
        "gcd": {name: counts[name] for name in ("computed", "trial_divisions", "fallbacks")},
        "base": {"size": len(ratexpr._BASE), "trial_divisions": counts["base_trial_divisions"],
                 "gcds": counts["base_gcds"]},
    }
    if prove_json is not None:
        from singmin.cli import main

        with contextlib.redirect_stdout(io.StringIO()):
            main(["prove", "--json", prove_json])
    return result


if __name__ == "__main__":
    print(json.dumps(_measure(sys.argv[1], sys.argv[2] if len(sys.argv) > 2 else None)))
