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

from typing import Sequence

import numpy as np

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
    sites: Sequence[np.ndarray], chi: int | None, stats: dict | None = None
) -> tuple[list[np.ndarray], float]:
    """Compress internal bonds to at most ``chi`` and rescale sites.

    A site may have any rank; its first and last axes are the bonds. Returns
    the new chain and the accumulated log of the factors taken out while
    rescaling each site to unit max-abs entry. ``chi=None`` still
    canonicalizes (trimming exact-rank excess) but never truncates below the
    numerical rank. A chain with an exactly-zero site represents the value 0;
    it is returned unswept with log factor 0.
    """
    sites = [np.asarray(s, dtype=complex) for s in sites]
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

    # Right-to-left truncation sweep.
    for i in range(n - 1, 0, -1):
        t, lf, zero = renormalize(sites[i])
        if zero:
            return sites, 0.0
        log_factor += lf
        split = svd_split(t, 1, chi if chi is not None else t.shape[0])
        if stats is not None:
            stats["max_discarded"] = max(stats.get("max_discarded", 0.0), split.discarded_weight)
        sites[i] = split.right
        carry = split.isometry * split.singulars  # (l, k)
        # np.tensordot(sites[i - 1], carry, axes=([-1], [0])) written out, bit for bit.
        prev = sites[i - 1]
        prod = np.dot(prev.reshape(-1, prev.shape[-1]), carry)
        sites[i - 1] = prod.reshape(prev.shape[:-1] + carry.shape[1:])

    t, lf, zero = renormalize(sites[0])
    if not zero:
        sites[0] = t
        log_factor += lf
    return sites, log_factor


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
