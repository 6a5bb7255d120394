"""Matrix product state utilities shared by the PEPS boundary engine and the
Floquet routes.

An MPS is a list of rank-3 arrays ``(left, phys, right)`` with extent-1 outer
bonds. An MPO site is rank-4 ``(left, out, in, right)``; applying an MPO to an
MPS contracts ``in`` with the state's physical leg.

Compression follows one fixed recipe everywhere: a left-to-right QR
canonicalization followed by a right-to-left truncation sweep using the
gauge-fixed :func:`tnflab.tensor.svd_split`. The sweep is a deterministic
function of the input chain, which is what fixed-schedule contractions need.
"""
from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .adjoint import Tape, degenerate_cut, qr_backward, singular_r, svd_backward
from .errors import DimensionError
from .tensor import renormalize, svd_split

__all__ = [
    "product_mps",
    "apply_mpo",
    "compress",
    "mps_amplitude",
    "mps_to_dense",
    "mpo_to_dense",
]


def product_mps(vectors: Sequence[np.ndarray]) -> list[np.ndarray]:
    """Bond-1 MPS from one local vector per site."""
    return [np.asarray(v, dtype=complex).reshape(1, -1, 1) for v in vectors]


def apply_mpo(sites: Sequence[np.ndarray], mpo: Sequence[np.ndarray]) -> list[np.ndarray]:
    """Exact MPO application; bond extents multiply."""
    if len(sites) != len(mpo):
        raise DimensionError(f"length mismatch: mps {len(sites)} vs mpo {len(mpo)}")
    out = []
    for m, w in zip(sites, mpo):
        if w.shape[2] != m.shape[1]:
            raise DimensionError(
                f"mpo input extent {w.shape[2]} does not match mps physical extent {m.shape[1]}"
            )
        # (l, p, r) x (wl, out, in=p, wr) -> (l, r, wl, out, wr)
        c = np.tensordot(m, w, axes=([1], [2]))
        c = c.transpose(0, 2, 3, 1, 4)  # (l, wl, out, r, wr)
        l, wl, p, r, wr = c.shape
        out.append(np.ascontiguousarray(c.reshape(l * wl, p, r * wr)))
    return out


def compress(
    sites: Sequence[np.ndarray], chi: int | None, tape: Tape | None = None
) -> tuple[list[np.ndarray], float]:
    """Compress internal bonds to at most ``chi`` and rescale sites.

    A site may have any rank; its first and last axes are the bonds. Returns
    the new chain and the accumulated log of the factors taken out while
    rescaling each site to unit max-abs entry. ``chi=None`` still
    canonicalizes (trimming exact-rank excess) but never truncates below the
    numerical rank. A chain with an exactly-zero site represents the value 0;
    it is returned unswept with log factor 0. A ``tape`` records the
    compression as one step (see :mod:`tnflab.adjoint`) and the largest
    discarded weight.
    """
    inputs = sites
    sites = [np.asarray(s, dtype=complex) for s in sites]
    if tape is not None:
        chain, qrs, cuts, degenerate = list(sites), [], [], False
    n = len(sites)
    log_factor = 0.0
    # Left-to-right QR canonicalization.
    for i in range(n - 1):
        shape = sites[i].shape
        q, rmat = np.linalg.qr(sites[i].reshape(-1, shape[-1]))
        sites[i] = q.reshape(shape[:-1] + q.shape[1:])
        # np.tensordot(rmat, sites[i + 1], axes=([1], [0])) written out, bit for bit.
        nxt = sites[i + 1]
        prod = np.dot(rmat, nxt.reshape(nxt.shape[0], -1))
        sites[i + 1] = prod.reshape(rmat.shape[:1] + nxt.shape[1:])
        if tape is not None:
            qrs.append((q, rmat))
            degenerate |= singular_r(rmat)

    # Right-to-left truncation sweep.
    for i in range(n - 1, 0, -1):
        t, lf, zero = renormalize(sites[i])
        if zero:
            return sites, 0.0
        log_factor += lf
        split = svd_split(t, 1, chi if chi is not None else t.shape[0])
        sites[i] = split.right
        carry = split.isometry * split.singulars  # (l, k)
        # np.tensordot(sites[i - 1], carry, axes=([-1], [0])) written out, bit for bit.
        prev = sites[i - 1]
        prod = np.dot(prev.reshape(-1, prev.shape[-1]), carry)
        sites[i - 1] = prod.reshape(prev.shape[:-1] + carry.shape[1:])
        if tape is not None:
            tape.max_discarded = max(tape.max_discarded, split.discarded_weight)
            cuts.append((lf, split, carry))
            degenerate |= degenerate_cut(carry.shape[1], split.thin[1], chi or t.shape[0])

    t, lf, zero = renormalize(sites[0])
    if not zero:
        sites[0] = t
        log_factor += lf
        if tape is not None:
            # A degenerate compression has no derivative: nothing goes back through it.
            backward = (lambda bars: [None] * len(chain)) if degenerate else (
                _compress_backward(chain, qrs, cuts[::-1], lf))
            tape.record(inputs, sites, backward, degenerate)
    return sites, log_factor


def _compress_backward(chain, qrs, cuts, lf0):
    """Reverse rule of one :func:`compress` of ``chain``: ``qrs`` are the
    sweep's ``(q, r)`` factors and ``cuts`` the ``(log factor, split, carry)``
    of bonds ``1 .. n-1``; ``lf0`` is the last rescaling's log factor."""

    def backward(bars):
        batch = bars[0].shape[0]
        zbar = bars[0] * math.exp(-lf0)
        qbars = []
        # Truncations, first bond first: site i-1 became q_{i-1} @ carry_i.
        for i, (lf, split, carry) in enumerate(cuts, start=1):
            q = qrs[i - 1][0]
            zm = zbar.reshape(batch, q.shape[0], carry.shape[1])
            qbars.append(zm @ carry.conj().T)
            u, s, vh = split.thin
            ybar = bars[i].reshape(batch, carry.shape[1], -1)
            zbar = svd_backward(u, s, vh, carry.shape[1], q.conj().T @ zm, ybar) * math.exp(-lf)
        # QR sweep, last site first: site i+1 became r_i @ site i+1.
        abars = [None] * len(chain)
        for i in range(len(chain) - 2, -1, -1):
            q, r = qrs[i]
            a = chain[i + 1].reshape(chain[i + 1].shape[0], -1)
            xbar = zbar.reshape(batch, r.shape[0], -1)
            abars[i + 1] = (r.conj().T @ xbar).reshape((batch,) + chain[i + 1].shape)
            zbar = qr_backward(q, r, qbars[i], xbar @ a.conj().T)
        abars[0] = zbar.reshape((batch,) + chain[0].shape)
        return abars

    return backward


def mps_amplitude(sites: Sequence[np.ndarray], config: Sequence[int]) -> complex:
    """<config| mps> for a computational-basis configuration."""
    mat = None
    for s, c in zip(sites, config):
        m = s[:, int(c), :]
        mat = m if mat is None else mat @ m
    return complex(mat[0, 0])


def mps_to_dense(sites: Sequence[np.ndarray]) -> np.ndarray:
    """Dense state vector with site 0 the most significant index."""
    out = sites[0]
    for s in sites[1:]:
        out = np.tensordot(out, s, axes=([out.ndim - 1], [0]))
    return out.reshape(-1)


def mpo_to_dense(mpo: Sequence[np.ndarray]) -> np.ndarray:
    """Dense operator matrix (out x in), site 0 most significant."""
    out = mpo[0]
    for w in mpo[1:]:
        out = np.tensordot(out, w, axes=([out.ndim - 1], [0]))
    # axes: (l, o1, i1, o2, i2, ..., r)
    n = (out.ndim - 2) // 2
    perm = [0] + [1 + 2 * k for k in range(n)] + [2 + 2 * k for k in range(n)] + [out.ndim - 1]
    out = out.transpose(perm)
    d_out = int(np.prod(out.shape[1 : 1 + n]))
    d_in = int(np.prod(out.shape[1 + n : 1 + 2 * n]))
    return out.reshape(d_out, d_in)
