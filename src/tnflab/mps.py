"""Matrix product state utilities shared by the PEPS boundary engine and the
Floquet routes.

An MPS is a list of rank-3 arrays ``(left, phys, right)`` with extent-1 outer
bonds. An MPO site is rank-4 ``(left, out, in, right)``. :func:`as_config`
reads the basis configurations every module takes, :func:`as_configs` the
tables of them.

:func:`compress` works on stacks of chains of equal shapes: site ``i`` of a
stack is one array whose leading axis runs over the chains, and each chain
comes out bit for bit as it would alone. A single chain is a stack of one.
Layers are applied by :func:`tnflab.peps.boundary_absorb` (:func:`apply_mpo`
is its single-chain reference); :func:`chain_values` reads stacks out.

Compression follows one fixed recipe everywhere: a left-to-right QR
canonicalization followed by a right-to-left truncation sweep using the
gauge-fixed :func:`tnflab.tensor.svd_split`. The sweep is a deterministic
function of the input chain, which is what fixed-schedule contractions need.
"""
from __future__ import annotations

import math
from typing import NamedTuple, Sequence

import numpy as np

from .adjoint import Tape, _h, degenerate_cut, qr_backward, singular_r, svd_backward
from .errors import DimensionError
from .tensor import renormalize, stack_dot, svd_split

__all__ = [
    "as_config",
    "as_configs",
    "Chains",
    "apply_mpo",
    "compress",
    "mps_amplitude",
    "chain_values",
    "mps_to_dense",
    "mpo_to_dense",
]


def as_config(n, n_sites: int, phys_dim: int) -> np.ndarray:
    """``n`` as a flat int64 configuration, checked to hold ``n_sites``
    integer-valued entries in ``[0, phys_dim)``; raises ``ValueError`` otherwise."""
    n = np.asarray(n)
    _check_entries(n, phys_dim)
    n = n.astype(np.int64, copy=False).reshape(-1)
    if n.size != n_sites:
        raise ValueError(f"configuration has {n.size} entries, lattice has {n_sites} sites")
    values = n.tolist()  # Python's min and max beat two array reductions at lattice sizes
    if values and (min(values) < 0 or max(values) >= phys_dim):
        raise ValueError("configuration entry out of range for the physical dimension")
    return n


def as_configs(table, n_sites: int, phys_dim: int) -> np.ndarray:
    """The table of configurations ``table``, one a row (``[]`` is empty), as the
    smallest unsigned type holding ``phys_dim - 1``; a bad entry or row width
    raises ``ValueError`` for the whole table, as :func:`as_config` for one."""
    table = np.asarray(table)
    _check_entries(table, phys_dim)
    table = table.reshape(0, n_sites) if table.shape == (0,) else table
    if table.ndim != 2 or table.shape[1] != n_sites:
        raise ValueError(f"configuration table of shape {table.shape}, lattice has {n_sites} sites")
    if table.size and (table.min() < 0 or table.max() >= phys_dim):
        raise ValueError("configuration entry out of range for the physical dimension")
    return table.astype(np.min_scalar_type(phys_dim - 1), copy=False)


def _check_entries(n: np.ndarray, phys_dim: int) -> None:
    """Raise ``ValueError`` unless the array ``n`` holds integers, or floats
    that are integers in ``[0, phys_dim)``."""
    if n.dtype.kind not in "biu" and not (n.dtype.kind == "f" and np.isin(n, range(phys_dim)).all()):
        raise ValueError(f"configuration entries must be integers in [0, {phys_dim})")


class Chains(NamedTuple):
    """Chains of a stack that share their shapes: ``rows`` index them in the
    stack, every site carries a leading axis over them, and ``log`` holds
    each chain's log factor."""

    rows: list[int]
    sites: list[np.ndarray]
    log: list[float]


def apply_mpo(sites: Sequence[np.ndarray], mpo: Sequence[np.ndarray]) -> list[np.ndarray]:
    """Exact MPO application to one chain (sites ``(l, p, r)``) by
    ``np.tensordot``; bond extents multiply. The reference the stacked layer
    step (:func:`tnflab.peps.boundary_absorb`) is checked against."""
    if len(sites) != len(mpo):
        raise DimensionError(f"length mismatch: mps {len(sites)} vs mpo {len(mpo)}")
    out = []
    for m, w in zip(sites, mpo):
        if w.shape[2] != m.shape[1]:
            raise DimensionError(f"mpo input extent {w.shape[2]} does not match mps physical extent {m.shape[1]}")
        c = np.tensordot(m, w, axes=([1], [2]))  # (l, r, wl, out, wr)
        l, r, wl, o, wr = c.shape
        out.append(np.ascontiguousarray(c.transpose(0, 2, 3, 1, 4).reshape(l * wl, o, r * wr)))
    return out


def compress(
    sites: Sequence[np.ndarray], chi: int | None, tape: Tape | None = None
) -> list[Chains]:
    """Compress the internal bonds of each chain of a stack to at most ``chi``
    and rescale its sites.

    A site may have any rank after the stack axis; its first and last axes
    are the bonds. Each chain's log factor accumulates the logs of the
    factors taken out while rescaling each site to unit max-abs entry.
    ``chi=None`` still canonicalizes (trimming exact-rank excess) but never
    truncates below the numerical rank. Chains leave the stack at a bond
    where their kept ranks differ, and a chain with an exactly-zero site
    (the value 0) leaves unswept with log factor 0. Returns the parts, which
    hold every chain once. A ``tape`` records each swept part as one step
    (see :mod:`tnflab.adjoint`), with a flag per chain for a degenerate
    compression, and the largest discarded weight; a zero part is not
    recorded.
    """
    inputs = sites
    sites = [np.asarray(s, dtype=complex) for s in sites]
    chain, count = list(sites), len(sites[0])
    if not count:
        return []
    # Left-to-right QR canonicalization.
    qrs = []
    for i in range(len(sites) - 1):
        shape = sites[i].shape
        q, rmat = np.linalg.qr(sites[i].reshape(count, -1, shape[-1]))
        sites[i] = q.reshape(shape[:-1] + q.shape[-1:])
        nxt = sites[i + 1]
        prod = stack_dot(rmat, nxt.reshape(nxt.shape[:2] + (-1,)))
        sites[i + 1] = prod.reshape(rmat.shape[:2] + nxt.shape[2:])
        qrs.append((q, rmat))

    # Right-to-left truncation sweep over pending parts (rows, sites, log
    # factors, bond, and with a tape the cuts of their chains, last bond first).
    parts = []
    pending = [(list(range(count)), sites, [0.0] * count, len(sites) - 1, [])]
    while pending:
        rows, sites, log, i, cuts = pending.pop()
        t, lf, zero = renormalize(sites[i])
        if any(zero):
            # A zero site ends its chain; at site 0 the chain keeps its log factor.
            out = [j for j, z in enumerate(zero) if z]
            parts.append(Chains([rows[j] for j in out], [s[out] for s in sites],
                                [log[j] if i == 0 else 0.0 for j in out]))
            keep = [j for j, z in enumerate(zero) if not z]
            if not keep:
                continue
            rows, log, lf = ([x[j] for j in keep] for x in (rows, log, lf))
            sites, t = [s[keep] for s in sites], t[keep]
        log = [a + b for a, b in zip(log, lf)]
        if i == 0:
            parts.append(Chains(rows, [t] + sites[1:], log))
            if tape is not None:
                _record(tape, inputs, chain, qrs, cuts[::-1], lf, parts[-1], chi)
            continue
        for sel, split in svd_split(t, 1, chi if chi is not None else t.shape[1]):
            whole = len(sel) == len(rows)
            sub = sites if whole else [s[sel] for s in sites]  # one part keeps its list
            sub[i] = split.right
            carry = split.isometry * split.singulars[:, None, :]  # (l, k) per chain
            # np.tensordot(sub[i - 1], carry, axes=([-1], [0])) per chain, bit for bit.
            prev = sub[i - 1]
            prod = stack_dot(prev.reshape(len(prev), -1, prev.shape[-1]), carry)
            sub[i - 1] = prod.reshape(prev.shape[:-1] + carry.shape[2:])
            sub_rows, sub_cuts = (rows if whole else [rows[j] for j in sel]), cuts
            if tape is not None:
                tape.max_discarded = max(tape.max_discarded, float(split.discarded_weight.max()))
                sub_cuts = cuts + [(sub_rows, lf if whole else [lf[j] for j in sel], split, carry)]
            pending.append((sub_rows, sub, log if whole else [log[j] for j in sel], i - 1, sub_cuts))
    return parts


def _record(tape, inputs, chain, qrs, cuts, lf0, part, chi):
    """Record the compression of the chains ``part.rows`` of the stack
    ``chain`` to ``part`` on ``tape``: ``qrs`` are the stack's ``(q, r)``
    factors, ``cuts`` the ``(rows, log factors, split, carry)`` of bonds
    ``1 .. n-1``, each over the chains it cut, and ``lf0`` the last
    rescaling's log factors. A part of one chain runs on its plain matrices;
    a degenerate chain gets no cotangent. The rule reads cotangents in any
    shape with the sites' element order, and gives them for the whole stack."""
    rows, count = part.rows, len(chain[0])
    lead = () if len(rows) == 1 else (len(rows),)

    def take(a, at):
        """The entries of ``a`` (one per chain of ``at``) of the part's chains."""
        if not lead:
            return a[at.index(rows[0])]
        return a if len(at) == len(rows) else np.asarray(a)[np.searchsorted(at, rows)]

    def scales(lf):
        factors = [math.exp(-x) for x in np.atleast_1d(lf).tolist()]
        return np.array(factors).reshape(lead + (1, 1)) if lead else factors[0]

    every = list(range(count))
    qrs = [(take(q, every), take(r, every)) for q, r in qrs]
    cuts = [(scales(take(lf, at)), [take(f, at) for f in split.thin], take(carry, at))
            for at, lf, split, carry in cuts]
    sites = [take(s, every) for s in chain]
    degenerate = np.zeros(lead, bool)
    for (_, r), (_, thin, carry) in zip(qrs, cuts):
        # The bond's extent after the QR sweep caps it when chi is None.
        degenerate |= singular_r(r) | degenerate_cut(carry.shape[-1], thin[1], chi or r.shape[-2])
    if lead and degenerate.any():  # a stand-in factor keeps the solve of a singular chain finite
        qrs = [(q, np.where(degenerate[:, None, None], np.eye(*r.shape[-2:]), r)) for q, r in qrs]
    lf0 = scales(lf0)

    def backward(bars):
        if degenerate.all():  # no derivative: nothing goes back through it
            return [None] * len(chain)
        head = bars[0].shape[:1] + lead
        bars = [b.reshape(head + s.shape[1:]) for b, s in zip(bars, part.sites)]
        zbar = bars[0].reshape(head + (chain[0].shape[1], -1)) * lf0
        qbars = []
        # Truncations, first bond first: site i-1 became q_{i-1} @ carry_i.
        for i, (scale, (u, s, vh), c) in enumerate(cuts, start=1):
            q = qrs[i - 1][0]
            zm = zbar.reshape(head + (q.shape[-2], c.shape[-1]))
            qbars.append(zm @ _h(c))
            ybar = bars[i].reshape(head + (c.shape[-1], -1))
            zbar = svd_backward(u, s, vh, c.shape[-1], _h(q) @ zm, ybar) * scale
        abars = [None] * len(chain)
        # QR sweep, last site first: site i+1 became r_i @ site i+1.
        for i in range(len(chain) - 2, -1, -1):
            q, r = qrs[i]
            a = sites[i + 1].reshape(lead + (chain[i + 1].shape[1], -1))
            xbar = zbar.reshape(head + (r.shape[-2], -1))
            abars[i + 1] = (_h(r) @ xbar).reshape(head + chain[i + 1].shape[1:])
            zbar = qr_backward(q, r, qbars[i], xbar @ _h(a))
        abars[0] = zbar.reshape(head + chain[0].shape[1:])
        if lead:
            for g in abars:
                g[:, degenerate] = 0.0
        if len(rows) == count:
            return abars
        wide = [np.zeros(head[:1] + s.shape, complex) for s in chain]
        for w, g in zip(wide, abars):
            w[:, rows] = g.reshape(w[:, rows].shape)
        return wide

    tape.record(inputs, part.sites, backward, degenerate.reshape(-1))


def mps_amplitude(sites: Sequence[np.ndarray], config: Sequence[int]) -> complex:
    """<config| mps> for a computational-basis configuration, read by
    :func:`as_config` (``ValueError``)."""
    mat = None
    for s, c in zip(sites, as_config(config, len(sites), sites[0].shape[1]).tolist()):
        m = s[:, c, :]
        mat = m if mat is None else mat @ m
    return complex(mat[0, 0])


def chain_values(mats: Sequence[np.ndarray]) -> np.ndarray:
    """Entry ``[0, 0]`` of each chain's product of its site matrices, left to
    right: site ``i`` is a stack ``(..., left, right)`` whose leading axes
    broadcast against the other sites'. The products are ``@``'s, as in
    :func:`mps_amplitude`, so each chain of its matrices gets its bits."""
    mat = mats[0]
    for m in mats[1:]:
        mat = mat @ m
    return mat[..., 0, 0]


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
