"""Error types shared by the numeric modules and the CLI (exit code 2)."""
from __future__ import annotations


class ParameterError(ValueError):
    """Invalid construction or configuration parameter."""


class HalfspaceViolation(ParameterError):
    """A point left the open halfspace above the singular plane."""


class SingularBoundaryError(ParameterError):
    """The generating curve reached the singular plane (y <= 0)."""
