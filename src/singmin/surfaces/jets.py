"""Second-order jets and curvature of parametric surface patches.

Convention used throughout: the mean curvature H is the SUM of the principal
curvatures, not their average.  Most geometry libraries divide by two; every
identity this package checks assumes the sum, so H here is twice the usual
"mean" value.

Everything here works on batches: a jet's fields are ``(..., 3)`` arrays over
one batch shape, and forms and curvatures are arrays of that shape.  A single
point is a batch of shape ``()``.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import CurvatureConsistencyError, DegenerateMetricError, ParameterError

METRIC_DEGENERACY_REL = 1e-14
UMBILIC_CLAMP = -1e-10


def dot(a, b):
    """<a, b> over the last axis of two broadcastable ``(..., 3)`` arrays.

    Each product is a (1x3)(3x1) matmul, which numpy hands to the BLAS
    ``ddot`` that ``a @ b`` and ``np.linalg.norm`` use for single 3-vectors.
    That keeps batched results bit-identical to point-by-point ones;
    ``einsum``, ``(a * b).sum(-1)`` and ``norm(axis=-1)`` round differently
    in the last place on a sizeable share of samples.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return np.matmul(a[..., None, :], b[..., :, None])[..., 0, 0][()]


def reject_first(bad, error) -> None:
    """Raise ``error(i)`` for the first flagged sample, ``i`` its flat
    row-major index in the batch; do nothing when no sample is flagged."""
    flat = np.ravel(bad)
    if flat.any():
        raise error(int(np.argmax(flat)))


def in_sample_order(evaluate, u, v):
    """``evaluate(u, v)`` over flat sample arrays, failing as a row-major,
    point-by-point loop would.

    The layers run each check over the whole batch before the next check,
    so the sample a batch is rejected for can come after one that only a
    later check rejects.  On failure a bisection finds the shortest failing
    prefix: all its samples but the last pass, so its error is the one the
    loop would have met first.  The checks are per sample, so a prefix fails
    exactly when it holds a bad sample.
    """
    try:
        return evaluate(u, v)
    except ParameterError:
        good, bad = 0, len(u)
        while bad - good > 1:
            mid = (good + bad) // 2
            try:
                evaluate(u[:mid], v[:mid])
                good = mid
            except ParameterError:
                bad = mid
        evaluate(u[:bad], v[:bad])
        raise


@dataclass(frozen=True)
class Jet2Vec3:
    """Position and the first/second partials of an immersion, each a
    ``(..., 3)`` array over one batch shape.

    ``duv`` is the single mixed partial (smooth patches, symmetric seconds).
    Indexing with a batch index selects samples.
    """

    value: np.ndarray
    du: np.ndarray
    dv: np.ndarray
    duu: np.ndarray
    duv: np.ndarray
    dvv: np.ndarray

    def __getitem__(self, index) -> "Jet2Vec3":
        return Jet2Vec3(
            self.value[index],
            self.du[index],
            self.dv[index],
            self.duu[index],
            self.duv[index],
            self.dvv[index],
        )


@dataclass(frozen=True)
class FundamentalForms:
    """First and second fundamental form coefficients plus the unit normal."""

    point: np.ndarray
    normal: np.ndarray
    E: np.ndarray
    F: np.ndarray
    G: np.ndarray
    L: np.ndarray
    M: np.ndarray
    N: np.ndarray


@dataclass(frozen=True)
class CurvatureSample(FundamentalForms):
    """Curvatures at surface points; k1 >= k2 and H = k1 + k2 (sum)."""

    H: np.ndarray
    K: np.ndarray
    k1: np.ndarray
    k2: np.ndarray


def fundamental_forms(jet: Jet2Vec3) -> FundamentalForms:
    du, dv = jet.du, jet.dv
    E = dot(du, du)
    F = dot(du, dv)
    G = dot(dv, dv)
    det = E * G - F * F
    bound = METRIC_DEGENERACY_REL * (E + G) ** 2
    reject_first(
        det <= bound,
        lambda i: DegenerateMetricError(
            f"metric determinant {np.ravel(det)[i]:.3e} is degenerate "
            f"(E+G={np.ravel(E + G)[i]:.3e})"
        ),
    )
    cross = np.cross(du, dv)
    normal = cross / np.sqrt(dot(cross, cross))[..., None]
    return FundamentalForms(
        point=jet.value,
        normal=normal,
        E=E,
        F=F,
        G=G,
        L=dot(jet.duu, normal),
        M=dot(jet.duv, normal),
        N=dot(jet.dvv, normal),
    )


def shape_data(forms: FundamentalForms) -> CurvatureSample:
    """Curvatures from the fundamental forms; clamps the tiny negative
    discriminants produced by umbilic points."""
    det = forms.E * forms.G - forms.F * forms.F
    K = (forms.L * forms.N - forms.M * forms.M) / det
    H = (forms.G * forms.L - 2.0 * forms.F * forms.M + forms.E * forms.N) / det
    disc = H * H - 4.0 * K
    scale = np.maximum(np.maximum(H * H, np.abs(4.0 * K)), 1.0)
    reject_first(
        disc < UMBILIC_CLAMP * scale,
        lambda i: CurvatureConsistencyError(
            f"H^2-4K = {np.ravel(disc)[i]:.3e} is negative beyond tolerance"
        ),
    )
    root = np.sqrt(np.maximum(disc, 0.0))
    k1 = 0.5 * (H + root)
    k2 = 0.5 * (H - root)
    return CurvatureSample(**vars(forms), H=H, K=K, k1=k1, k2=k2)


def curvature_sample(jet: Jet2Vec3) -> CurvatureSample:
    return shape_data(fundamental_forms(jet))
