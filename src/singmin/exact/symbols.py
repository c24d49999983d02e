"""Registered indeterminate set of the exact engine.

The set is fixed at import time; expressions never invent new symbols.  The
enum order is the lexicographic order used by the graded-lex monomial order,
with ``ALPHA`` most significant.
"""
from __future__ import annotations

import enum


class Var(enum.IntEnum):
    """One registered indeterminate of the rational-function field."""

    ALPHA = 0   # weight exponent of the energy density
    C = 1       # the constant curvature (Gauss curvature, or kappa2)
    K1 = 2      # principal curvature kappa1
    U1 = 3      # e1(kappa1), gradient of kappa1 along the first principal direction
    U2 = 4      # e2(kappa1)
    W = 5       # <Phi, a>, height over the singular plane
    G = 6       # gamma = <e1, a>, first tangential component of a
    M = 7       # mu = <e2, a>, second tangential component of a
    H0 = 8      # constant mean curvature
    # A1, A2 name the same quantities as G, M.  They stay apart because
    # theorem 3's checkpoints render a1/a2 and theorem 1's render g/m: folding
    # them changes perfbench/golden_prove.json, so it waits for a benchmark change
    A1 = 9      # <e1, a>
    A2 = 10     # <e2, a>
    NA = 11     # <N, a>
    D11 = 12    # unresolved second derivative e1(e1(kappa1))
    D12 = 13    # unresolved second derivative e1(e2(kappa1))
    D22 = 14    # unresolved second derivative e2(e2(kappa1))


NVARS = len(Var)

VAR_NAMES: dict[Var, str] = {v: v.name.lower() for v in Var}
