"""Exact diagonalization on the half-filling sector of small spin-1/2 lattices.

:class:`Sector` is the one table of that sector (``n_sites // 2`` down spins,
the sector Monte Carlo sampling walks): the sparse Hamiltonian here and the
enumerated energies and gradients of :mod:`tnflab.vmc` index it in one order.
"""
from __future__ import annotations

import numpy as np
import scipy.sparse.linalg

from .errors import ResourceLimitError
from .models import Model

__all__ = ["Sector", "sector_hamiltonian", "ground_energy"]

_MAX_SITES = 20


class Sector:
    """The half-filling configurations of ``n_sites`` spins: ``masks``, ascending bitmasks (bit
    ``i`` set: site ``i`` is spin down), and ``configs``, their ``(dim, n_sites)`` uint8 bits."""

    def __init__(self, n_sites: int):
        if n_sites > _MAX_SITES:
            raise ResourceLimitError(f"{n_sites} sites: exact diagonalization guarded to {_MAX_SITES}")
        count = np.zeros(1 << n_sites, np.uint8)  # set bits of each mask, filled by doubling
        for i in range(n_sites):
            count[1 << i : 2 << i] = count[: 1 << i] + 1
        self.masks = np.flatnonzero(count == n_sites // 2)
        del count  # 2^n_sites bytes, freed before the tables are built
        self.dim = len(self.masks)
        self.configs = np.empty((self.dim, n_sites), np.uint8)
        for i in range(n_sites):
            self.configs[:, i] = (self.masks >> i) & 1
        self._index = np.full(1 << n_sites, -1, dtype=np.int32)
        self._index[self.masks] = np.arange(self.dim, dtype=np.int32)

    def swap_target(self, i: int, j: int) -> np.ndarray:
        """Each configuration's index after exchanging sites ``i`` and ``j``,
        or -1 where the two spins are parallel."""
        return self._index[self.masks ^ ((1 << i) | (1 << j))]


def sector_hamiltonian(model: Model) -> scipy.sparse.csr_matrix:
    """Sparse Hamiltonian on ``Sector(model.n_sites)``, in its order. Each
    column holds its exchange terms in coupling order, then its diagonal;
    no two entries share a place, so the CSR form sorts them by column."""
    sector = Sector(model.n_sites)
    diag, count = np.zeros(sector.dim), np.ones(sector.dim, np.int64)  # every column keeps its diagonal
    for i, j, c in model.couplings:
        target = sector.swap_target(i, j)
        diag += np.where(target < 0, 0.25 * c, -0.25 * c)
        count += target >= 0
    indptr = np.concatenate(([0], np.cumsum(count)))
    fill = indptr[:-1].copy()  # each column's next free entry
    rows, vals = np.empty(indptr[-1], np.int32), np.empty(indptr[-1])
    for i, j, c in model.couplings:
        target = sector.swap_target(i, j)
        cols = np.flatnonzero(target >= 0)
        rows[fill[cols]], vals[fill[cols]] = target[cols], 0.5 * c
        fill[cols] += 1
    rows[fill], vals[fill] = np.arange(sector.dim), diag
    return scipy.sparse.csc_matrix((vals, rows, indptr), shape=(sector.dim,) * 2).tocsr()


def ground_energy(model: Model) -> float:
    """Lowest eigenvalue at half filling (``n_sites // 2`` down spins), the
    Sz=0 or closest-to-zero sector that sampling is restricted to.

    The result is deterministic per build: sectors of at most 64 states use
    dense ``eigvalsh``; larger ones use Lanczos (``eigsh``) from a fixed,
    seeded random start vector. Left to itself ARPACK draws a fresh start
    vector on every call, which moves the last digits, and this value is
    written with ``repr`` into the CLI data files that reruns must reproduce
    byte for byte. A random (not uniform) start vector is used because by
    symmetry the ground state can be orthogonal to the uniform vector.
    """
    h = sector_hamiltonian(model)
    dim = h.shape[0]
    if dim <= 64:
        return float(np.linalg.eigvalsh(h.toarray())[0])
    v0 = np.random.default_rng(0).standard_normal(dim)
    val = scipy.sparse.linalg.eigsh(h, k=1, which="SA", v0=v0, return_eigenvectors=False)
    return float(val[0])
