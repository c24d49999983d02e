"""Proof engine: replay the classification arguments as exact checkpoints."""
from .context import (
    OP_E1,
    OP_E2,
    MissingRuleError,
    apply_derivation,
    gauss_curvature_expr,
)
from .report import (
    MODE_EQUAL,
    MODE_FACTOR,
    MODE_ZERO,
    Checkpoint,
    ProofReport,
    reports_to_json,
)
from .theorem1 import MUTABLE_RULES, run_theorem1
from .theorem2 import run_theorem2
from .theorem3 import run_theorem3

THEOREMS = {1: run_theorem1, 2: run_theorem2, 3: run_theorem3}


def run_all() -> list[ProofReport]:
    """Run the three chains in fixed order; failures live in the reports."""
    return [run() for run in THEOREMS.values()]


__all__ = [
    "Checkpoint",
    "MUTABLE_RULES",
    "MODE_EQUAL",
    "MODE_FACTOR",
    "MODE_ZERO",
    "MissingRuleError",
    "OP_E1",
    "OP_E2",
    "ProofReport",
    "THEOREMS",
    "apply_derivation",
    "gauss_curvature_expr",
    "reports_to_json",
    "run_all",
    "run_theorem1",
    "run_theorem2",
    "run_theorem3",
]
