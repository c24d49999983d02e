"""Checkpoints and proof reports.

Every verified identity becomes a named ``Checkpoint`` in one of three modes:
``exact-zero``, ``exact-equal``, or ``equal-up-to-nonzero-factor`` (the factor
must be a nonzero expression in the constants and k1 alone and is always
recorded).  A chain passes each checkpoint its name and computed value; the
``Recorder`` looks up the expected value by that name in the theorem's table.
A chain stops at its first failed checkpoint; the report carries whatever was
established up to that point.  ``run_chain`` is the one runner the theorem
chains share.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Mapping, Optional

from ..exact import RationalExpr, Var, render
from ..exact.errors import AlgebraError
from ..exact.poly import Polynomial
from .context import audit_factors

MODE_ZERO = "exact-zero"
MODE_EQUAL = "exact-equal"
MODE_FACTOR = "equal-up-to-nonzero-factor"

REPORT_SCHEMA_VERSION = 2

#: the symbols a nonzero factor may hold: the constants and k1, never a
#: quantity that can vanish on the surface
_FACTOR_ALLOWED = frozenset({Var.ALPHA, Var.C, Var.H0, Var.K1})


@dataclass
class Checkpoint:
    name: str
    mode: str
    passed: bool
    computed: Optional[RationalExpr] = None
    expected: Optional[RationalExpr] = None
    factor: Optional[RationalExpr] = None
    flags: tuple[str, ...] = ()
    note: str = ""

    def to_dict(self) -> dict:
        computed = None if self.computed is None else render(self.computed)
        # equal canonical pairs render alike, so a passing equality renders once
        expected = computed if self.expected == self.computed else render(self.expected)
        return {
            "name": self.name,
            "mode": self.mode,
            "status": "pass" if self.passed else "fail",
            "computed": computed,
            "expected": expected,
            "factor": None if self.factor is None else render(self.factor),
            "flags": list(self.flags),
            "note": self.note,
        }

    def summary_line(self) -> str:
        tag = "pass" if self.passed else "FAIL"
        extra = ""
        if self.factor is not None:
            extra = f"  factor = {render(self.factor)}"
        if self.flags:
            extra += f"  [{'; '.join(self.flags)}]"
        if not self.passed and self.note:
            extra += f"  ({self.note})"
        return f"[{tag}] {self.name} ({self.mode}){extra}"


@dataclass
class ProofReport:
    theorem: str
    checkpoints: list[Checkpoint]

    @property
    def passed(self) -> bool:
        return all(cp.passed for cp in self.checkpoints) and bool(self.checkpoints)

    def to_dict(self) -> dict:
        return {
            "schema_version": REPORT_SCHEMA_VERSION,
            "theorem": self.theorem,
            "status": "pass" if self.passed else "fail",
            "checkpoints": [cp.to_dict() for cp in self.checkpoints],
        }

    def to_text(self) -> str:
        lines = [f"== {self.theorem}: {'PASS' if self.passed else 'FAIL'} "
                 f"({len(self.checkpoints)} checkpoints)"]
        lines.extend(cp.summary_line() for cp in self.checkpoints)
        return "\n".join(lines)


def reports_to_json(reports: list[ProofReport]) -> str:
    doc = {
        "schema_version": REPORT_SCHEMA_VERSION,
        "status": "pass" if all(r.passed for r in reports) else "fail",
        "reports": [r.to_dict() for r in reports],
    }
    return json.dumps(doc, indent=2, sort_keys=True)


class ChainAborted(Exception):
    """Raised internally after recording a failed checkpoint."""


class Recorder:
    """Collects checkpoints; aborts the chain on the first failure.

    ``expected`` maps each checkpoint name to its expected value, so a chain
    passes only what it computed."""

    def __init__(self, registry: tuple[Polynomial, ...], expected: Mapping[str, RationalExpr]):
        self.checkpoints: list[Checkpoint] = []
        self.registry = registry
        self.expected = expected

    def _add(self, cp: Checkpoint) -> None:
        self.checkpoints.append(cp)
        if not cp.passed:
            raise ChainAborted(cp.name)

    def exact_zero(self, name: str, computed: RationalExpr, note: str = "") -> None:
        self._add(
            Checkpoint(
                name=name,
                mode=MODE_ZERO,
                passed=computed.is_zero(),
                computed=computed,
                expected=RationalExpr.zero(),
                note=note,
            )
        )

    def exact_equal(
        self, name: str, computed: RationalExpr, factor: Optional[RationalExpr] = None
    ) -> None:
        expected = self.expected[name]
        flags = audit_factors(self.registry, denominator=computed.den)
        self._add(
            Checkpoint(
                name=name,
                mode=MODE_EQUAL,
                passed=(computed == expected),
                computed=computed,
                expected=expected,
                factor=factor,
                flags=flags,
            )
        )

    def nonzero_factor(
        self,
        name: str,
        computed: RationalExpr,
        extra_registry: tuple[Polynomial, ...] = (),
    ) -> Optional[RationalExpr]:
        """Pass iff computed == factor * expected with factor nonzero and
        built from constants and k1 alone; the factor is recorded and
        returned."""
        expected = self.expected[name]
        factor, flags, note = None, (), ""
        if computed.is_zero():
            note = "computed expression is identically zero"
        elif expected.is_zero():
            note = "expected expression is identically zero"
        else:
            factor = computed / expected
            registry = self.registry + extra_registry
            flags = audit_factors(registry, numerator=factor.num, denominator=factor.den)
            if not _FACTOR_ALLOWED.issuperset(factor.variables()):
                note = "factor involves gradient or height symbols"
        self._add(
            Checkpoint(
                name=name,
                mode=MODE_FACTOR,
                passed=not note,
                computed=computed,
                expected=expected,
                factor=factor,
                flags=flags,
                note=note,
            )
        )
        return factor


def run_chain(
    theorem: str,
    chain: Callable[[Recorder], None],
    registry: tuple[Polynomial, ...],
    expected: Mapping[str, RationalExpr],
) -> ProofReport:
    """Run one checkpoint chain against a fresh Recorder holding the
    theorem's registry and expected values.

    The chain stops at its first failed checkpoint.  An algebra error (a
    ``MissingRuleError`` included) becomes a failed ``chain-error`` checkpoint
    that names it, so every outcome is a report.
    """
    rec = Recorder(registry, expected)
    try:
        chain(rec)
    except ChainAborted:
        pass
    except AlgebraError as exc:
        note = f"{type(exc).__name__}: {exc}"
        rec.checkpoints.append(
            Checkpoint(name="chain-error", mode=MODE_ZERO, passed=False, note=note)
        )
    return ProofReport(theorem=theorem, checkpoints=rec.checkpoints)
