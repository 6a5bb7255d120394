"""Dense tensor algebra: gauge-fixed truncated SVD and scale management.

Tensors are plain ``numpy.ndarray`` values of complex doubles, one axis per
index. Real-valued models simply carry zero imaginary parts. All functions
are pure; nothing here mutates its arguments.
The primitives take stacks only: axis 0 runs over independent tensors, each
of which gets the bits it would get alone; a single tensor is a stack of one.

The SVD here is deterministic: the raw factorization is phase-ambiguous, so
every kept singular vector pair is rotated to a canonical gauge (largest left
entry real and positive). Consistent contraction schedules rely on this.
Determinism is guaranteed within a single build/runtime, not bit-exactly
across platforms, since LAPACK backends differ.

An amplitude table is two arrays, ``mantissa`` and ``log_scale``, whose entry
``k`` holds the fields of the ``k``-th :class:`AmplitudeValue` (a zero has mantissa 0);
:func:`table_value` reads a table of one as its value.
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
    "stack_dot",
    "Renormalized",
    "AmplitudeValue",
    "table_from_parts",
    "table_value",
    "rescaled",
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
    truncation, relative to the total, worked out from ``thin`` when read.
    ``thin`` is the full thin factorization ``(u, s, vh)`` of the matrix the
    truncation was cut from, kept columns gauge-fixed (``None`` for an
    exactly-zero input); the reverse pass of :mod:`tnflab.adjoint` reads it.
    Every field, and ``discarded_weight``, carries a leading axis over the
    tensors of the split stack.
    """

    isometry: np.ndarray
    singulars: np.ndarray
    right: np.ndarray
    thin: tuple | None = field(default=None, repr=False, compare=False)

    @property
    def discarded_weight(self):
        if self.thin is None:
            return np.zeros(len(self.singulars))
        s = self.thin[1]
        tail = s[:, self.singulars.shape[1] :]
        return np.add.reduce(tail * tail, axis=1) / np.add.reduce(s * s, axis=1)


def _svd(mats: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Thin SVD of each matrix of the stack ``mats``."""
    try:
        return np.linalg.svd(mats, full_matrices=False)
    except np.linalg.LinAlgError:
        if not np.all(np.isfinite(mats)):
            raise NumericalAbortError("SVD input has non-finite entries") from None
    factors = []
    for mat in mats:
        try:
            factors.append(np.linalg.svd(mat, full_matrices=False))
        except np.linalg.LinAlgError:
            # gesdd occasionally fails to converge; gesvd is slower but robust.
            factors.append(scipy.linalg.svd(mat, full_matrices=False, lapack_driver="gesvd"))
    return tuple(np.stack(f) for f in zip(*factors))


def _gauge_fix(u: np.ndarray, vh: np.ndarray) -> None:
    """Rotate each singular pair of the stacks ``u`` and ``vh`` in place so the
    largest-magnitude entry of the left vector is real and positive; ties
    resolve to the lowest index. A column whose pivot is zero keeps phase 1."""
    count, _, k = u.shape
    pivots = u[np.arange(count)[:, None], np.abs(u).argmax(axis=1), np.arange(k)]
    size = np.hypot(pivots.real, pivots.imag)  # the bits of the scalar abs(p)
    if 0.0 not in size.ravel().tolist():
        phase = pivots / size
    else:
        phase = np.where(size == 0, 1.0, pivots / np.where(size == 0, 1.0, size))
    u /= phase[:, None, :]
    # Out of place: an in-place product on a one-column vh skips the fused path of the row product.
    vh[:] = vh * phase[:, :, None]


def svd_split(t: np.ndarray, n_left: int, chi: int) -> list[tuple[list[int], TruncatedSvd]]:
    """Split each tensor of the stack ``t`` after its first ``n_left`` indices
    by truncated SVD.

    Axis 0 of ``t`` runs over tensors that are each split exactly as they
    would be alone, and ``0 < n_left < t.ndim - 1`` counts the axes after it:
    they form the left group and the rest the right group. Each tensor is
    reshaped to a (left group) x (right group) matrix, decomposed, and at
    most ``chi`` singular values are kept. Singular values below a relative
    floor of 1e-12 count as numerical zeros and are dropped as well, so the
    kept rank never exceeds the numerical rank.

    The output is gauge-fixed and therefore a deterministic function of the
    input within one process. When ``chi`` is at least the matrix rank,
    ``isometry @ diag(singulars) @ right`` reconstructs each tensor exactly.
    Non-finite input raises :class:`NumericalAbortError`. The stack splits
    by kept rank: the result is a list of ``(rows, split)`` pairs, ``rows``
    listing the tensors of one kept rank and every field of ``split``
    carrying a leading axis over them.
    """
    t = np.asarray(t, dtype=complex)
    if chi < 1:
        raise ValueError(f"chi must be positive, got {chi}")
    if not 0 < n_left < t.ndim - 1:
        raise ValueError(f"n_left must lie in (0, {t.ndim - 1}), got {n_left}")

    count, left_shape, right_shape = len(t), t.shape[1 : n_left + 1], t.shape[n_left + 1 :]
    u, s, vh = _svd(t.reshape(count, math.prod(left_shape), math.prod(right_shape)))
    if math.isnan(np.add.reduce(s, axis=None)):
        raise NumericalAbortError("SVD input has non-finite entries")
    # Kept rank per tensor, 0 for an exactly-zero one; the stack splits by it.
    kept = [min(chi, r) for r in np.add.reduce(s > s[:, :1] * _SINGULAR_FLOOR, axis=1).tolist()]
    if kept.count(kept[0]) == count:
        groups = {kept[0]: list(range(count))}
    else:
        groups = {}
        for row, k in enumerate(kept):
            groups.setdefault(k, []).append(row)
    out = []
    for k, rows in groups.items():
        ug, sg, vg = (u, s, vh) if len(rows) == count else (u[rows], s[rows], vh[rows])
        size = len(rows)
        if k == 0:
            # Exactly-zero input: keep one canonical zero mode so shapes stay sane.
            iso = np.zeros((size, ug.shape[1], 1), dtype=complex)
            iso[:, 0] = 1.0
            split = TruncatedSvd(iso.reshape((size,) + left_shape + (1,)), np.zeros((size, 1)),
                                 np.zeros((size, 1) + right_shape, dtype=complex))
        else:
            iso, right = ug[:, :, :k], vg[:, :k, :]
            _gauge_fix(iso, right)  # writes the kept columns of the thin factors
            split = TruncatedSvd(iso.reshape((size,) + left_shape + (k,)), sg[:, :k],
                                 right.reshape((size, k) + right_shape), (ug, sg, vg))
        out.append((rows, split))
    return out


class Renormalized(NamedTuple):
    tensor: np.ndarray
    log_factor: list[float]
    is_zero: list[bool]


def renormalize(t: np.ndarray) -> Renormalized:
    """Rescale each tensor of the stack ``t`` so its max-absolute entry is 1,
    returning the lists of log factors and zero flags over the tensors.

    Each original tensor equals its rescaled one times ``exp(log_factor)``.
    An exactly-zero tensor is returned unchanged with ``log_factor`` 0 and
    its zero flag set; callers propagate the flag instead of producing -inf
    scales. A NaN or infinite entry raises :class:`NumericalAbortError`.
    """
    t = np.asarray(t)
    if len(t) == 1:  # a stack of one is rescaled as one tensor: the same bits, sooner
        m = float(np.maximum.reduce(np.abs(t), axis=None)) if t.size else 0.0
        if not m < math.inf:
            raise NumericalAbortError(f"cannot renormalize a tensor whose largest entry is {m}")
        return Renormalized(t / m, [math.log(m)], [False]) if m else Renormalized(t, [0.0], [True])
    m = np.abs(t).reshape(len(t), -1).max(axis=1, initial=0.0)
    ms = m.tolist()
    shape = (-1,) + (1,) * (t.ndim - 1)
    if 0.0 < min(ms) and sum(ms) < math.inf:  # no zero, infinite or NaN entry
        return Renormalized(t / m.reshape(shape), [math.log(x) for x in ms], [False] * len(ms))
    bad = [x for x in ms if not x < math.inf]
    if bad:
        raise NumericalAbortError(f"cannot renormalize a tensor whose largest entry is {bad[0]}")
    zero = m == 0.0
    out = t / np.where(zero, 1.0, m).reshape(shape)
    out[zero] = t[zero]
    return Renormalized(out, [math.log(x) if x else 0.0 for x in ms], zero.tolist())


def stack_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.dot`` of each pair of matrices in the stacks ``a`` ``(count, m, k)``
    and ``b`` ``(count, k, n)``, bit for bit: one ``np.matmul``, which gives
    each matrix ``np.dot``'s bits whatever the operands' layout, unless an
    extent is 1. A scalar, vector or outer product rounds with the layout
    ``np.dot`` reads it in, so it runs pair by pair through ``np.dot`` itself."""
    if 1 in (a.shape[1], a.shape[2], b.shape[2]):
        return np.stack([np.dot(x, y) for x, y in zip(a, b)])
    return np.matmul(a, b)


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


def table_from_parts(values, log) -> tuple[np.ndarray, np.ndarray]:
    """:meth:`AmplitudeValue.from_parts` of each raw value at its raw log scale
    (``log``, one per value or one for all) as an amplitude table, bit for bit:
    ``abs`` is ``np.hypot``, the quotient Python's complex-by-real one and the
    log ``math.log``; numpy's ``abs``, division and ``log`` round otherwise."""
    values = np.asarray(values, complex)
    m = np.hypot(values.real, values.imag)
    zero = m == 0.0
    m[zero] = 1.0
    mantissa = np.empty(m.shape, complex)
    mantissa.real = (values.real + values.imag * 0.0) / m
    mantissa.imag = (values.imag - values.real * 0.0) / m
    mantissa[zero] = 0.0
    log_scale = np.fromiter(map(math.log, m.tolist()), float, m.size) + log
    log_scale[zero] = 0.0
    return mantissa, log_scale


def table_value(mantissa: np.ndarray, log_scale: np.ndarray) -> AmplitudeValue:
    """The :class:`AmplitudeValue` of a one-entry amplitude table."""
    [m], [log] = mantissa.tolist(), log_scale.tolist()
    return AmplitudeValue(m, log, m == 0)


def rescaled(mantissa: np.ndarray, log_scale: np.ndarray) -> np.ndarray:
    """An amplitude table as one vector at its largest live scale: each
    ``mantissa * math.exp(log_scale - top)`` by Python's complex-by-real
    product, bit for bit, an exact zero as 0."""
    live = mantissa != 0
    top = np.max(log_scale, where=live, initial=-math.inf)
    scale = np.fromiter(map(math.exp, np.where(live, log_scale - top, 0.0).tolist()), float, len(live))
    out = np.empty(len(live), complex)
    out.real = mantissa.real * scale - mantissa.imag * 0.0
    out.imag = mantissa.real * 0.0 + mantissa.imag * scale
    return out
