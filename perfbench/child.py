"""Run one benchmark operation in a fresh interpreter.

    python3 perfbench/child.py '<op spec as JSON>'

The checked-out ``src/`` goes first on the path.  Set-up ends when
``singmin.cli`` is imported and its parser built; the moment is reported on
the system-wide monotonic clock so the parent can subtract its spawn time.
Then one call of ``singmin.cli.main(argv)`` (or one mutant sweep through the
public proof runners) is timed, and a result document is written to the
path named in the spec.  Output checks are the parent's job.
"""
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import singmin.cli  # noqa: E402

singmin.cli.build_parser()
READY = time.monotonic()

import json  # noqa: E402
import resource  # noqa: E402


def _mutant_sweep(order: list[str]) -> list[dict]:
    """Run the named sign-flip mutants; returns per-mutant verdicts."""
    from singmin.exact import Var
    from singmin.proofs import (
        MUTABLE_RULES,
        OP_E1,
        OP_E2,
        run_theorem1,
        run_theorem2,
        run_theorem3,
    )

    runners = {f"theorem1:{op},{var.name}": (run_theorem1, (op, var)) for op, var in MUTABLE_RULES}
    runners["theorem2:E2,K1"] = (run_theorem2, (OP_E2, Var.K1))
    runners["theorem3:E1,NA"] = (run_theorem3, (OP_E1, Var.NA))
    verdicts = []
    for label in order:
        runner, rule = runners[label]
        report = runner(flip_rule=rule)
        verdicts.append(
            {
                "label": label,
                "passed": report.passed,
                "checkpoints": [cp.to_dict() for cp in report.checkpoints],
            }
        )
    return verdicts


def main() -> int:
    spec = json.loads(sys.argv[1])
    here = Path(singmin.cli.__file__).resolve()
    if SRC.resolve() not in here.parents:
        print(f"singmin was imported from {here}, not from {SRC}", file=sys.stderr)
        return 3
    tracer = None
    if spec.get("trace"):
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    result = {"ready": READY, "error": None, "verdicts": None}
    t0 = time.perf_counter()
    try:
        if spec["kind"] == "mutants":
            result["verdicts"] = _mutant_sweep(spec["order"])
            code = 0
        else:
            code = singmin.cli.main(spec["argv"])
    except Exception as exc:  # reported as a failed op, never hidden
        code = None
        result["error"] = f"{type(exc).__name__}: {exc}"
    result["op_s"] = time.perf_counter() - t0
    sys.stdout.flush()
    result["exit_code"] = code
    result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    exact = sys.modules.get("singmin.exact")
    result["kernel"] = getattr(exact, "BACKEND", None)
    if tracer is not None:
        tracer.dump(spec["spans"])
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
