"""Dense tensor algebra: gauge-fixed truncated SVD and scale management.

Tensors are plain ``numpy.ndarray`` values of complex doubles, one axis per
index. Real-valued models simply carry zero imaginary parts. All functions
are pure; nothing here mutates its arguments.

The SVD here is deterministic: the raw factorization is phase-ambiguous, so
every kept singular vector pair is rotated to a canonical gauge (largest left
entry real and positive). Consistent contraction schedules rely on this.
Determinism is guaranteed within a single build/runtime, not bit-exactly
across platforms, since LAPACK backends differ.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
import scipy.linalg

from .errors import NumericalAbortError

__all__ = [
    "svd_split",
    "TruncatedSvd",
    "renormalize",
    "Renormalized",
    "AmplitudeValue",
]

# Relative floor below which singular values are treated as numerical zeros.
_SINGULAR_FLOOR = 1e-12


@dataclass(frozen=True)
class TruncatedSvd:
    """Result of :func:`svd_split`.

    ``isometry`` has the left-group extents plus one kept-rank axis and is
    column-isometric over the grouped left indices. ``right`` carries the
    kept-rank axis followed by the right-group extents.
    ``discarded_weight`` is the squared-singular-value weight dropped by the
    truncation, relative to the total. ``thin`` is the full thin
    factorization ``(u, s, vh)`` of the matrix the truncation was cut from,
    kept columns gauge-fixed (``None`` for an exactly-zero input); the
    reverse pass of :mod:`tnflab.adjoint` reads it.
    """

    isometry: np.ndarray
    singulars: np.ndarray
    right: np.ndarray
    discarded_weight: float
    thin: tuple | None = field(default=None, repr=False, compare=False)


def _svd(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    try:
        return np.linalg.svd(mat, full_matrices=False)
    except np.linalg.LinAlgError:
        if not np.all(np.isfinite(mat)):
            raise NumericalAbortError("SVD input has non-finite entries") from None
        # gesdd occasionally fails to converge; gesvd is slower but robust.
        return scipy.linalg.svd(mat, full_matrices=False, lapack_driver="gesvd")


def _gauge_fix(u: np.ndarray, vh: np.ndarray) -> None:
    """Rotate each singular pair in place so the largest-magnitude entry of
    the left vector is real and positive; ties resolve to the lowest flat
    index. A column whose pivot is zero keeps phase 1."""
    k = u.shape[1]
    pivots = u[np.abs(u).argmax(axis=0), np.arange(k)]
    # Scalar abs, not np.abs(pivots): the array path rounds differently in the last bit.
    phase = np.array([p / abs(p) if p != 0 else 1.0 for p in pivots], dtype=complex)
    u /= phase
    # Out of place: an in-place product on a one-column vh skips the fused path of the row product.
    vh[:] = vh * phase[:, None]


def svd_split(t: np.ndarray, n_left: int, chi: int) -> TruncatedSvd:
    """Split ``t`` after its first ``n_left`` indices by truncated SVD.

    ``0 < n_left < t.ndim``: the first ``n_left`` indices form the left
    group and the rest the right group. The tensor is reshaped to a
    (left group) x (right group) matrix, decomposed, and at most ``chi``
    singular values are kept. Singular values below a relative floor of
    1e-12 count as numerical zeros and are dropped as well, so the kept rank
    never exceeds the numerical rank.

    The output is gauge-fixed and therefore a deterministic function of the
    input within one process. When ``chi`` is at least the matrix rank,
    ``isometry @ diag(singulars) @ right`` reconstructs ``t`` exactly.
    Non-finite input raises :class:`NumericalAbortError`.
    """
    t = np.asarray(t, dtype=complex)
    if chi < 1:
        raise ValueError(f"chi must be positive, got {chi}")
    if not 0 < n_left < t.ndim:
        raise ValueError(f"n_left must lie in (0, {t.ndim}), got {n_left}")

    left_shape, right_shape = t.shape[:n_left], t.shape[n_left:]
    mat = t.reshape(math.prod(left_shape), math.prod(right_shape))
    u, s, vh = _svd(mat)
    thin = (u, s, vh)  # the gauge fix below writes the kept columns in place

    total = float(np.sum(s**2))
    if math.isnan(total):
        raise NumericalAbortError("SVD input has non-finite entries")
    if s.size == 0 or s[0] == 0.0:
        # Exactly-zero input: keep one canonical zero mode so shapes stay sane.
        k = 1
        u = np.eye(mat.shape[0], 1, dtype=complex)
        s = np.zeros(1)
        vh = np.zeros((1, mat.shape[1]), dtype=complex)
        discarded = 0.0
        thin = None
    else:
        rank = int(np.sum(s > s[0] * _SINGULAR_FLOOR))
        k = min(chi, rank)
        discarded = float(np.sum(s[k:] ** 2) / total)
        u, vh = u[:, :k], vh[:k, :]
        s = s[:k]
        _gauge_fix(u, vh)

    isometry = u.reshape(left_shape + (k,))
    right_t = vh.reshape((k,) + right_shape)
    return TruncatedSvd(isometry, s, right_t, discarded, thin)


class Renormalized(NamedTuple):
    tensor: np.ndarray
    log_factor: float
    is_zero: bool


def renormalize(t: np.ndarray) -> Renormalized:
    """Rescale ``t`` so its max-absolute entry is 1, returning the log factor.

    The original tensor equals ``tensor * exp(log_factor)``. An exactly-zero
    input is returned unchanged with ``log_factor`` 0 and the zero flag set;
    callers propagate the flag instead of producing -inf scales. A NaN or
    infinite entry raises :class:`NumericalAbortError`.
    """
    t = np.asarray(t)
    m = float(np.abs(t).max()) if t.size else 0.0
    if not 0.0 < m < math.inf:
        if m == 0.0:
            return Renormalized(t, 0.0, True)
        raise NumericalAbortError(f"cannot renormalize a tensor whose largest entry is {m}")
    return Renormalized(t / m, math.log(m), False)


@dataclass(frozen=True, slots=True)
class AmplitudeValue:
    """A complex amplitude stored as mantissa times ``exp(log_scale)``.

    Deep contractions produce values far outside double range; keeping the
    scale in log form makes ratios and magnitudes safe. The mantissa is kept
    at unit modulus (inside the (0.1, 10] normalization window) unless the
    value is exactly zero.
    """

    mantissa: complex
    log_scale: float
    is_zero: bool = False

    @classmethod
    def zero(cls) -> "AmplitudeValue":
        return cls(0.0 + 0.0j, 0.0, True)

    @classmethod
    def from_parts(cls, mantissa: complex, log_scale: float = 0.0) -> "AmplitudeValue":
        m = abs(mantissa)
        if m == 0.0:
            return cls.zero()
        return cls(complex(mantissa / m), log_scale + math.log(m), False)

    @property
    def value(self) -> complex:
        """The plain complex value; may overflow for extreme log scales."""
        if self.is_zero:
            return 0.0 + 0.0j
        return self.mantissa * math.exp(self.log_scale)

    def ratio(self, other: "AmplitudeValue") -> complex:
        """self / other as a plain complex number."""
        if other.is_zero:
            raise ZeroDivisionError("ratio against a zero amplitude")
        if self.is_zero:
            return 0.0 + 0.0j
        return (self.mantissa / other.mantissa) * math.exp(self.log_scale - other.log_scale)

    def abs_ratio_sq(self, other: "AmplitudeValue") -> float:
        """|self / other|^2, the Metropolis acceptance weight."""
        if other.is_zero:
            raise ZeroDivisionError("ratio against a zero amplitude")
        if self.is_zero:
            return 0.0
        log = 2.0 * (self.log_scale - other.log_scale)
        r = abs(self.mantissa) / abs(other.mantissa)
        if log > 700.0:  # exp would overflow; the move is certainly accepted
            return float("inf")
        return r * r * math.exp(log)
