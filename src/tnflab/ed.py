"""Exact diagonalization benchmarks for small spin-1/2 lattices.

Works in a fixed-magnetization sector (the one Monte Carlo sampling walks),
building the sparse Hamiltonian over bitmask configurations. Bit ``i`` set
means site ``i`` is spin down.
"""
from __future__ import annotations

from itertools import combinations

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

from .errors import ResourceLimitError
from .models import Model

__all__ = ["sector_basis", "sector_hamiltonian", "ground_energy", "mask_to_config"]

_MAX_SITES = 20


def mask_to_config(mask: int, n_sites: int) -> np.ndarray:
    return np.array([(mask >> i) & 1 for i in range(n_sites)], dtype=np.int64)


def sector_basis(n_sites: int, n_down: int) -> list[int]:
    """All bitmasks with ``n_down`` set bits, ascending."""
    masks = [sum(1 << i for i in sites) for sites in combinations(range(n_sites), n_down)]
    return sorted(masks)


def sector_hamiltonian(model: Model, n_down: int) -> tuple[scipy.sparse.csr_matrix, list[int]]:
    """Sparse Hamiltonian restricted to the fixed-magnetization sector."""
    n = model.n_sites
    if n > _MAX_SITES:
        raise ResourceLimitError(f"exact diagonalization guarded to {_MAX_SITES} sites, got {n}")
    basis = sector_basis(n, n_down)
    index = {m: k for k, m in enumerate(basis)}
    rows, cols, vals = [], [], []
    for k, mask in enumerate(basis):
        diag = 0.0
        for i, j, c in model.couplings:
            bi = (mask >> i) & 1
            bj = (mask >> j) & 1
            if bi == bj:
                diag += 0.25 * c
            else:
                diag -= 0.25 * c
                flipped = mask ^ ((1 << i) | (1 << j))
                rows.append(index[flipped])
                cols.append(k)
                vals.append(0.5 * c)
        rows.append(k)
        cols.append(k)
        vals.append(diag)
    dim = len(basis)
    h = scipy.sparse.csr_matrix(
        (np.array(vals), (np.array(rows), np.array(cols))), shape=(dim, dim)
    )
    return h, basis


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
    h, _ = sector_hamiltonian(model, model.n_sites // 2)
    dim = h.shape[0]
    if dim <= 64:
        return float(np.linalg.eigvalsh(h.toarray())[0])
    v0 = np.random.default_rng(0).standard_normal(dim)
    val = scipy.sparse.linalg.eigsh(h, k=1, which="SA", v0=v0, return_eigenvectors=False)
    return float(val[0])
