"""Reverse-mode derivatives of the fixed-schedule contraction.

A :class:`Tape` handed to the engine functions (:func:`tnflab.mps.compress`,
:func:`tnflab.peps.boundary_absorb` and the strip closure) records each step
they take: the arrays it read, the arrays it made, and a rule that maps the
cotangents of the made arrays to those of the read ones. :meth:`Tape.backward`
runs the rules in reverse order.

A cotangent of a complex array ``z`` under a real loss ``L`` is
``dL/d Re z + i dL/d Im z``. Every cotangent carries one leading batch axis,
so several real losses (``Re ln psi`` and ``arg psi``) go back in one pass:
once a truncation is active the contraction is not holomorphic, and the two
do not follow from one another. After the batch axis comes the stack axis of
the engine (see :mod:`tnflab.mps`): the rules run each chain of a stack on
its own matrices, and a stack of one on plain matrices, as one chain's
contraction reads them. Three rules make the pass exact:

* ``renormalize`` scales are constants: every step is degree-1 homogeneous.
* Gauge choices (QR phases, the SVD gauge fix) are not differentiated: the
  amplitude depends only on the truncated products ``U_k S_k V_k^H``.
* The truncated SVD adjoint (Liao, Liu, Wang and Xiang, PRX 9, 031041
  (2019)) runs on the full thin factorization with zero cotangents on the
  discarded triplets. Only kept-discarded pairs carry ``1/(s_c^2 - s_d^2)``
  terms; kept-kept pairs need none, so a degeneracy inside the kept set is
  harmless. A truncation whose boundary gap is below :data:`TRUNCATION_GAP`
  has no derivative: the compression marks the chain degenerate and sends
  nothing back through it, so every array that feeds it gets no cotangent
  from that chain.
"""
from __future__ import annotations

import math

import numpy as np

__all__ = [
    "Tape",
    "TRUNCATION_GAP",
    "degenerate_cut",
    "singular_r",
    "einsum_backward",
    "svd_backward",
    "qr_backward",
]

# A truncation is degenerate when its last kept and first discarded singular
# values are closer than this, relative to the largest; a QR factor counts as
# singular when a diagonal entry is this small relative to the largest.
# LAPACK resolves singular values to about 1e-16 of the largest, so an exact
# degeneracy shows gaps near 1e-15, while the 1/gap terms of a 1e-9 gap are
# still good to a few parts in 1e7. Real truncations sit far above it: the
# smallest boundary gap of the 4x4 D=3 simple-update state at chi=4 is 9e-4.
TRUNCATION_GAP = 1e-9


class Tape:
    """Record of one contraction of a stack, for one reverse pass.

    ``ops`` holds ``(inputs, outputs, backward)`` per step; an input of
    ``None`` is a constant. Arrays are identified by object, and the tape
    keeps them alive. ``leaves`` maps each lattice site ``(r, c)`` to the
    projected site tensors the contraction read; ``max_discarded`` is the
    largest discarded weight among the recorded truncations. ``relaid`` maps
    the ``id`` of a copy with rearranged axes to ``(copy, original)``: a step
    that reads the copy records the original (see :meth:`recorded`), so its
    rule runs on the array the copy came from. ``degenerate`` maps the ``id``
    of the first output of each recorded compression, in recording order, to
    a flag per chain: whether the chain has no derivative there.
    """

    def __init__(self):
        self.ops: list[tuple] = []
        self.leaves: dict[tuple[int, int], np.ndarray] = {}
        self.max_discarded = 0.0
        self.relaid: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self.degenerate: dict[int, np.ndarray] = {}

    def recorded(self, a: np.ndarray) -> np.ndarray:
        """The array a step that reads ``a`` records: ``a``, or the original
        of a copy with rearranged axes."""
        entry = self.relaid.get(id(a))
        return a if entry is None else entry[1]

    def record(self, inputs, outputs, backward, degenerate: np.ndarray | None = None) -> None:
        self.ops.append((list(inputs), list(outputs), backward))
        if degenerate is not None:
            self.degenerate[id(outputs[0])] = degenerate

    def backward(self, seeds: dict[int, np.ndarray]) -> dict[int, np.ndarray]:
        """Cotangents keyed by ``id`` of every array read, from ``seeds``, the
        cotangents of some recorded outputs keyed by their ``id``."""
        bars = dict(seeds)
        for inputs, outputs, backward in reversed(self.ops):
            outs = [bars.pop(id(a), None) for a in outputs]
            live = next((g for g in outs if g is not None), None)
            if live is None:
                continue
            outs = [np.zeros(live.shape[:1] + a.shape, complex) if g is None else g
                    for a, g in zip(outputs, outs)]
            for a, g in zip(inputs, backward(outs)):
                if a is not None and g is not None:
                    key = id(a)
                    bars[key] = bars[key] + g if key in bars else g
        return bars


def degenerate_cut(k: int, s: np.ndarray, chi: int) -> np.ndarray:
    """Whether keeping ``k`` of the singular values ``s`` (one row per chain)
    at bond limit ``chi`` has no derivative the tape can give, per chain: the
    boundary gap is at most :data:`TRUNCATION_GAP` ``* s[0]``, or the
    numerical-rank floor dropped a zero mode that ``chi`` would keep, whose
    response the tape never saw."""
    size = s.shape[-1]
    if k < min(chi, size):
        return np.ones(s.shape[:-1], bool)
    if k == size:
        return np.zeros(s.shape[:-1], bool)
    return s[..., k - 1] - s[..., k] <= TRUNCATION_GAP * s[..., 0]


def singular_r(r: np.ndarray) -> np.ndarray:
    """Whether each triangular factor ``r`` (one per chain) of a QR step has
    a leading square block too close to singular (a diagonal entry at most
    :data:`TRUNCATION_GAP` times the largest) for its reverse rule."""
    d = np.abs(np.diagonal(r, axis1=-2, axis2=-1))
    return d.min(axis=-1) <= TRUNCATION_GAP * d.max(axis=-1)


def _h(x: np.ndarray) -> np.ndarray:
    """Conjugate transpose of the last two axes."""
    return x.conj().swapaxes(-1, -2)


def _pairwise_einsum(terms, arrays, result, pair=None):
    """``np.einsum`` of ``terms`` into ``result``, one pair at a time, each by
    ``pair(spec, x, y)`` (``np.einsum`` itself by default)."""
    pair = pair or np.einsum
    term, out = terms[0], arrays[0]
    for k in range(1, len(terms)):
        rest = "".join(terms[k + 1 :]) + result
        keep = "".join(ch for ch in dict.fromkeys(term + terms[k]) if ch in rest)
        out, term = pair(f"{term},{terms[k]}->{keep}", out, arrays[k]), keep
    return out if term == result else np.einsum(f"{term}->{result}", out)


def _matmul_pair(spec: str, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``np.einsum(spec, x, y)`` as one ``np.matmul``: the indices of both
    operands and the result run as stacks, those of both operands only are
    summed. An index of one operand only that the result drops goes to
    ``np.einsum``."""
    ins, out = spec.split("->")
    tx, ty = ins.split(",")
    if any(ch not in out for ch in set(tx) ^ set(ty)):
        return np.einsum(spec, x, y)
    batch = [ch for ch in out if ch in tx and ch in ty]
    summed = [ch for ch in tx if ch in ty and ch not in out]
    fx, fy = [ch for ch in tx if ch not in ty], [ch for ch in ty if ch not in tx]
    dims = dict(zip(tx, x.shape)) | dict(zip(ty, y.shape))
    size = lambda chars: math.prod(dims[ch] for ch in chars)
    lead = tuple(dims[ch] for ch in batch)
    a = x.transpose([tx.index(ch) for ch in batch + fx + summed]).reshape(lead + (size(fx), size(summed)))
    b = y.transpose([ty.index(ch) for ch in batch + summed + fy]).reshape(lead + (size(summed), size(fy)))
    made = batch + fx + fy
    return (a @ b).reshape([dims[ch] for ch in made]).transpose([made.index(ch) for ch in out])


def einsum_backward(spec: str, operands, scale=1.0):
    """Rule for ``scale * np.einsum(spec, *operands)`` per chain of a stack,
    read in any shape with the same element order. An operand with one axis
    more than its term carries the stack axis first; the others are
    constants, which get no cotangent (``None``). ``scale`` is one number for
    all chains or one per chain. ``spec`` names indices with letters other
    than ``Z`` and ``Y``, the batch and stack axes here."""
    ins, out = spec.split("->")
    ins = ins.split(",")
    stacked = [x.ndim > len(term) for term, x in zip(ins, operands)]
    count = next(len(x) for x, s in zip(operands, stacked) if s)
    if count == 1:  # one chain's plain arrays: the arithmetic of a single contraction
        operands = [x[0] if s else x for x, s in zip(operands, stacked)]
        scale = scale if np.ndim(scale) == 0 else scale[0]
        lead, stack = "", ()
    else:
        lead, stack = "Y", (count,)
        if np.ndim(scale):
            scale = np.asarray(scale).reshape(stack + (1,) * len(out))
    terms = [("Y" if s and lead else "") + term for term, s in zip(ins, stacked)]
    pair = _matmul_pair if lead else None  # products over a stack run as stacked matrix products

    def backward(bars):
        dims = {ch: n for term, x in zip(ins, operands) for ch, n in zip(term, x.shape[-len(term) :])}
        bar = bars[0].reshape(bars[0].shape[:1] + stack + tuple(dims[ch] for ch in out)) * scale
        conj = [np.conj(x) for x in operands]
        grads = []
        for i, term in enumerate(terms):
            if not stacked[i]:
                grads.append(None)
                continue
            others = [j for j in range(len(terms)) if j != i]
            grads.append(_pairwise_einsum(["Z" + lead + out] + [terms[j] for j in others],
                                          [bar] + [conj[j] for j in others], "Z" + term, pair))
        return grads

    return backward


def svd_backward(u, s, vh, k: int, cbar, ybar):
    """Cotangent of the matrix ``a = u diag(s) vh`` (thin) from those of the
    truncated factors ``u[:, :k] * s[:k]`` (``cbar``) and ``vh[:k]`` (``ybar``),
    for each matrix of a stack: the factors may carry leading stack axes,
    the cotangents a batch axis before them.

    The downstream value is taken to depend on the truncated product only, so
    the kept-kept block needs no singular-value differences. Kept-discarded
    pairs closer than :data:`TRUNCATION_GAP` get no term (the caller marks
    such a truncation degenerate).
    """
    uk, ud, vk, vd = u[..., :k], u[..., k:], vh[..., :k, :], vh[..., k:, :]
    sk, sd = s[..., None, :k], s[..., k:, None]
    p = _h(ud) @ cbar  # (d, k)
    q = ybar @ _h(vd)  # (k, d)
    gap = sk - sd
    den = np.where(gap > TRUNCATION_GAP * s[..., :1, None], gap * (sk + sd), np.inf)  # s_c^2 - s_d^2
    x = sd * (sd * p + _h(q)) / den
    sdt, skt, dent = sd.swapaxes(-1, -2), sk.swapaxes(-1, -2), den.swapaxes(-1, -2)
    z = sdt * (skt ** 2 * _h(p) + sdt * q) / (dent * skt)
    inner = (ybar - (ybar @ _h(vk)) @ vk) / skt + z @ vd
    return (cbar + ud @ x) @ vk + uk @ inner


def qr_backward(q, r, qbar, rbar):
    """Cotangent of ``a = q r`` (reduced QR, ``r`` upper triangular with an
    invertible leading square block) from those of ``q`` and ``r``, for each
    matrix of a stack, as :func:`svd_backward` reads stacks."""
    k = r.shape[-2]
    wide = None
    if r.shape[-1] > k:  # a = q [r1 r2]: r2 = q^H a2 is linear in a2
        r2bar = rbar[..., k:]
        qbar = qbar + (q @ r[..., k:]) @ _h(r2bar)
        wide = q @ r2bar
        r, rbar = r[..., :k], rbar[..., :k]
    m = _h(q) @ qbar - rbar @ _h(r)
    sym = np.triu(m) + _h(np.triu(m, 1))
    abar = _h(np.linalg.solve(r, _h(qbar - q @ sym)))
    return abar if wide is None else np.concatenate([abar, wide], axis=-1)
