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

from ..errors import HalfspaceViolation, ParameterError

METRIC_DEGENERACY_REL = 1e-14
UMBILIC_CLAMP = -1e-10
#: why a sample inside the halfspace is rejected, in the order of the checks
REJECTION_REASONS = ("degenerate_metric", "inconsistent_curvature")


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
class FundamentalForms(_Batch):
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


def degenerate_metric(jet: Jet2Vec3):
    """Flags the samples where the patch is not immersed:
    ``|du x dv|^2 <= METRIC_DEGENERACY_REL * (E + G)^2``.

    The cross product is used rather than ``EG - F^2``, which loses a small
    determinant to cancellation.
    """
    du, dv = jet.du, jet.dv
    cross = np.cross(du, dv)
    scale = dot(du, du) + dot(dv, dv)
    return dot(cross, cross) <= METRIC_DEGENERACY_REL * scale * scale


def inconsistent_curvature(sample: CurvatureSample):
    """Flags the samples whose ``H^2 - 4K`` is negative beyond the rounding
    that ``shape_data`` clamps at umbilic points."""
    H, K = sample.H, sample.K
    scale = np.maximum(np.maximum(H * H, np.abs(4.0 * K)), 1.0)
    return H * H - 4.0 * K < UMBILIC_CLAMP * scale


def fundamental_forms(jet: Jet2Vec3) -> FundamentalForms:
    """Forms of immersed samples; ``degenerate_metric`` flags the others."""
    du, dv = jet.du, jet.dv
    cross = np.cross(du, dv)
    normal = cross / np.sqrt(dot(cross, cross))[..., None]
    return FundamentalForms(
        point=jet.value,
        normal=normal,
        E=dot(du, du),
        F=dot(du, dv),
        G=dot(dv, dv),
        L=dot(jet.duu, normal),
        M=dot(jet.duv, normal),
        N=dot(jet.dvv, normal),
    )


def shape_data(forms: FundamentalForms) -> CurvatureSample:
    """Curvatures from the fundamental forms; clamps the tiny negative
    discriminants produced by umbilic points (``inconsistent_curvature``
    flags the larger ones)."""
    det = forms.E * forms.G - forms.F * forms.F
    K = (forms.L * forms.N - forms.M * forms.M) / det
    H = (forms.G * forms.L - 2.0 * forms.F * forms.M + forms.E * forms.N) / det
    root = np.sqrt(np.maximum(H * H - 4.0 * K, 0.0))
    k1 = 0.5 * (H + root)
    k2 = 0.5 * (H - root)
    return CurvatureSample(**vars(forms), H=H, K=K, k1=k1, k2=k2)


def curvature_sample(jet: Jet2Vec3) -> CurvatureSample:
    return shape_data(fundamental_forms(jet))


def valid_curvature(jet: Jet2Vec3, a=None):
    """Curvature of the valid samples of a flat batch; the others are skipped
    and counted, and nothing more is computed on them.

    The checks run in order, each over the whole batch: with a direction
    ``a``, a positive height ``<x, a>`` (a NaN height passes), then
    ``degenerate_metric``, then ``inconsistent_curvature`` on the curvature.
    Returns the mask of valid samples, their curvature, the number of
    halfspace violations and the count for each of ``REJECTION_REASONS``.
    When no sample is valid, raises with every count on one line, as a
    ``HalfspaceViolation`` if all are outside the halfspace.
    """
    outside = np.zeros(len(jet.value), dtype=bool) if a is None else dot(jet.value, a) <= 0.0
    degenerate = degenerate_metric(jet) & ~outside
    keep = ~(outside | degenerate)
    sample = curvature_sample(jet if keep.all() else jet[keep])
    inconsistent = inconsistent_curvature(sample)
    if inconsistent.any():
        keep[keep] = ~inconsistent
        sample = sample[~inconsistent]
    counts = [int(np.count_nonzero(flags)) for flags in (outside, degenerate, inconsistent)]
    if not keep.any():
        error = HalfspaceViolation if counts[0] == len(keep) else ParameterError
        names = ("halfspace_violations",) + REJECTION_REASONS
        raise error(f"no valid sample among {len(keep)}: "
                    + ", ".join(f"{name}={n}" for name, n in zip(names, counts)))
    return keep, sample, counts[0], dict(zip(REJECTION_REASONS, counts[1:]))
