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


METRIC_DEGENERACY_REL = 1e-14
UMBILIC_CLAMP = -1e-10
#: why a sample inside the halfspace is rejected, in the order of the checks
REJECTION_REASONS = ("degenerate_metric", "inconsistent_curvature")


def dot(a, b):
    """<a, b> over the last axis of two broadcastable ``(..., 3)`` arrays: the
    fixed-order sum ``a0*b0 + a1*b1 + a2*b2``, each step one numpy ufunc
    rounded on its own, with no BLAS kernel and no fused multiply-add.  So the
    bytes do not depend on the host, and a batch equals a loop of single
    points bit for bit.  The one inner product of the numeric lab."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return (a[..., 0] * b[..., 0] + a[..., 1] * b[..., 1] + a[..., 2] * b[..., 2])[()]


def reject_first(bad, error) -> None:
    """Raise ``error(i)`` for the first flagged sample, ``i`` its flat
    row-major index in the batch; do nothing when no sample is flagged."""
    flat = np.ravel(bad)
    if flat.any():
        raise error(int(np.argmax(flat)))


class _Batch:
    """Indexing with a batch index selects those samples from every field."""

    def __getitem__(self, index):
        return type(self)(**{name: value[index] for name, value in vars(self).items()})


@dataclass(frozen=True)
class Jet2Vec3(_Batch):
    """Position and the first/second partials of an immersion, each a
    ``(..., 3)`` array over one batch shape.

    ``duv`` is the single mixed partial (smooth patches, symmetric seconds).
    """

    value: np.ndarray
    du: np.ndarray
    dv: np.ndarray
    duu: np.ndarray
    duv: np.ndarray
    dvv: np.ndarray


@dataclass(frozen=True)
class CurvatureSample(_Batch):
    """The unit normal, the first and second fundamental form coefficients
    and the curvatures at surface points; k1 >= k2 and H = k1 + k2 (sum)."""

    point: np.ndarray
    normal: np.ndarray
    E: np.ndarray
    F: np.ndarray
    G: np.ndarray
    L: np.ndarray
    M: np.ndarray
    N: np.ndarray
    H: np.ndarray
    K: np.ndarray
    k1: np.ndarray
    k2: np.ndarray


def degenerate_metric(jet: Jet2Vec3):
    """Flags the samples where the patch is not immersed:
    ``|du x dv|^2 <= METRIC_DEGENERACY_REL * (E + G)^2``, those whose
    ``(E + G)^2`` overflows, and those whose ``|du x dv|^2`` is below the
    smallest normal float, where it has lost its digits to underflow.

    The cross product is used rather than ``EG - F^2``, which loses a small
    determinant to cancellation.  ``(E + G)^2`` bounds ``4EG``, ``F^2`` and
    ``|du x dv|^2``, so where it is finite none of the products that
    ``curvature_sample`` forms from the metric overflows; where it is not,
    ``|du x dv|^2`` may be infinite and compare above any bound.
    """
    du, dv = jet.du, jet.dv
    with np.errstate(over="ignore", invalid="ignore"):
        cross = np.cross(du, dv)
        scale = dot(du, du) + dot(dv, dv)
        area2 = dot(cross, cross)
        return (
            np.isinf(scale * scale)
            | (area2 < np.finfo(float).tiny)
            | (area2 <= METRIC_DEGENERACY_REL * scale * scale)
        )


def _scaled(H, K):
    """``(h, q, s)`` with ``H = s*h`` and ``K = s*s*q``: ``s`` is 1, except
    at finite samples where ``H*H`` or ``4K`` overflows, where it is
    ``max(|H|, 2*sqrt(|K|))``, so that ``h*h - 4q`` is a float there too."""
    with np.errstate(over="ignore", invalid="ignore"):
        if np.isfinite(H * H - 4.0 * K).all():  # nothing overflowed
            return H, K, 1.0
        wide = (np.isinf(H * H) | np.isinf(4.0 * K)) & np.isfinite(H) & np.isfinite(K)
    s = np.where(wide, np.maximum(np.abs(H), 2.0 * np.sqrt(np.abs(K))), 1.0)
    return H / s, K / s / s, s


def inconsistent_curvature(sample: CurvatureSample):
    """Flags the samples whose ``H^2 - 4K`` is negative beyond the rounding
    that ``curvature_sample`` clamps at umbilic points."""
    h, q, _ = _scaled(sample.H, sample.K)
    scale = np.maximum(np.maximum(h * h, np.abs(4.0 * q)), 1.0)
    return h * h - 4.0 * q < UMBILIC_CLAMP * scale


def curvature_sample(jet: Jet2Vec3) -> CurvatureSample:
    """Forms and curvatures of immersed samples (``degenerate_metric`` flags
    the others); clamps the tiny negative discriminants produced by umbilic
    points (``inconsistent_curvature`` flags the larger ones)."""
    du, dv = jet.du, jet.dv
    cross = np.cross(du, dv)
    normal = cross / np.sqrt(dot(cross, cross))[..., None]
    E, F, G = dot(du, du), dot(du, dv), dot(dv, dv)
    L, M, N = dot(jet.duu, normal), dot(jet.duv, normal), dot(jet.dvv, normal)
    det = E * G - F * F
    K = (L * N - M * M) / det
    H = (G * L - 2.0 * F * M + E * N) / det
    h, q, s = _scaled(H, K)
    root = np.sqrt(np.maximum(h * h - 4.0 * q, 0.0))
    return CurvatureSample(point=jet.value, normal=normal, E=E, F=F, G=G, L=L, M=M, N=N,
                           H=H, K=K, k1=0.5 * (h + root) * s, k2=0.5 * (h - root) * s)


def valid_curvature(jet: Jet2Vec3, a=None):
    """Curvature of the valid samples of a flat batch; the others are skipped
    and counted, and nothing more is computed on them.

    The checks run in order, each over the whole batch: with a direction
    ``a``, a positive height ``<x, a>`` (a NaN height passes), then
    ``degenerate_metric``, then ``inconsistent_curvature`` on the curvature.
    Returns the mask of valid samples, their curvature, and the counts of
    halfspace violations and of each of ``REJECTION_REASONS`` as an int
    array.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowed position
        outside = np.zeros(len(jet.value), dtype=bool) if a is None else dot(jet.value, a) <= 0.0
    degenerate = degenerate_metric(jet) & ~outside
    keep = ~(outside | degenerate)
    sample = curvature_sample(jet if keep.all() else jet[keep])
    inconsistent = inconsistent_curvature(sample)
    if inconsistent.any():
        keep[keep] = ~inconsistent
        sample = sample[~inconsistent]
    counts = np.array([np.count_nonzero(flags) for flags in (outside, degenerate, inconsistent)])
    return keep, sample, counts

