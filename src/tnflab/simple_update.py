"""Simple-update imaginary time evolution for PEPS.

Bond gates ``exp(-tau c S_i.S_j)`` are applied bond by bond, truncating each
bond back to the state's bond dimension. Each bond keeps the singular values
of its last split: they are multiplied into the bond's first site before the
next update of that bond, and their square roots are folded into both sites
at the end. No environment weights from the other bonds enter an update.
The states are starting points for gradient optimization: on the 4x4
Heisenberg model (200 steps of tau = 0.05 from random seed 42) they sit
27% (D=2) and 23% (D=3) above the exact ground energy.

Gate order within one step: all horizontal bonds row-major, then all
vertical bonds. Only couplings on lattice edges are supported.
"""
from __future__ import annotations

import numpy as np
import scipy.linalg

from .models import Model, spin_coupling_matrix
from .peps import Peps
from .tensor import svd_split

__all__ = ["simple_update"]

# Entry magnitude that triggers a site rescale; ratios are scale invariant,
# so dropping a global factor only matters if a caller compares raw
# amplitudes across runs with different step counts.
_RESCALE_THRESHOLD = 1e50

# Bond kinds: (bond axis on the first site, bond axis on its neighbour,
# row offset, column offset) of the neighbour.
_HORIZONTAL = (3, 1, 0, 1)
_VERTICAL = (2, 0, 1, 0)


def _edge_kind(model: Model, i: int, j: int) -> tuple[tuple[int, int, int, int], int, int]:
    """Classify coupling (i, j) as a horizontal or vertical lattice edge."""
    cols, rows = model.cols, model.rows
    ri, ci = divmod(i, cols)
    rj, cj = divmod(j, cols)
    if ri == rj and (cj == ci + 1 or (model.boundary == "pbc" and ci == cols - 1 and cj == 0)):
        return _HORIZONTAL, ri, ci
    if ci == cj and (rj == ri + 1 or (model.boundary == "pbc" and ri == rows - 1 and rj == 0)):
        return _VERTICAL, ri, ci
    raise ValueError(f"coupling ({i},{j}) is not a lattice edge; simple update needs NN bonds")


def _along(v: np.ndarray, axis: int) -> np.ndarray:
    """``v`` shaped to broadcast along ``axis`` of a rank-5 site tensor."""
    shape = [1] * 5
    shape[axis] = v.size
    return v.reshape(shape)


def simple_update(peps: Peps, model: Model, tau: float, steps: int) -> Peps:
    """Evolve by ``steps`` applications of the bond-gate sweep; returns a new
    state truncated to the input bond dimension. The gates need ``phys_dim`` 2."""
    if not 0 < tau < np.inf:
        raise ValueError(f"tau must be positive and finite, got {tau}")
    if peps.phys_dim != 2:
        raise ValueError(f"phys_dim must be 2 for spin-1/2 bond gates, got {peps.phys_dim}")
    if (model.rows, model.cols) != (peps.rows, peps.cols):
        raise ValueError("model lattice does not match the state")
    rows, cols = peps.rows, peps.cols
    d = peps.phys_dim
    dmax = peps.bond_dim
    sites = [[t.astype(complex).copy() for t in row] for row in peps.sites]

    edges = {}
    for i, j, c in model.couplings:
        edges[_edge_kind(model, i, j)] = c
    bonds = [
        (kind, r, c)
        for kind in (_HORIZONTAL, _VERTICAL)
        for r in range(rows)
        for c in range(cols)
        if (kind, r, c) in edges
    ]
    # Bond singular values, sized from the actual bond extents.
    lam = {(kind, r, c): np.ones(sites[r][c].shape[kind[0]]) for kind, r, c in bonds}
    ss = spin_coupling_matrix()
    gates = {}
    for coupling in edges.values():
        if coupling not in gates:
            gates[coupling] = scipy.linalg.expm(-tau * coupling * ss).reshape(d, d, d, d)

    for _ in range(steps):
        for bond in bonds:
            (ax_a, ax_b, dr, dc), r, c = bond
            r2, c2 = (r + dr) % rows, (c + dc) % cols
            a = sites[r][c] * _along(lam[bond], ax_a)
            # (a legs but the bond, p1, b legs but the bond, p2), then the
            # gate (pi', pj', pi, pj) on both physical legs.
            theta = np.tensordot(a, sites[r2][c2], axes=([ax_a], [ax_b]))
            theta = np.tensordot(theta, gates[edges[bond]], axes=([3, 7], [2, 3]))
            theta = theta.transpose(0, 1, 2, 6, 3, 4, 5, 7)
            [(_, split)] = svd_split(theta[None], 4, dmax)
            lam[bond] = split.singulars[0]
            sites[r][c] = np.ascontiguousarray(np.moveaxis(split.isometry[0], 4, ax_a))
            sites[r2][c2] = np.ascontiguousarray(np.moveaxis(split.right[0], 0, ax_b))
        for r in range(rows):
            for c in range(cols):
                m = float(np.max(np.abs(sites[r][c])))
                if m > _RESCALE_THRESHOLD:
                    sites[r][c] = sites[r][c] / m

    # Fold the bond weights back into the sites, square roots to each side.
    for ((ax_a, ax_b, dr, dc), r, c), s in lam.items():
        s = np.sqrt(s)
        r2, c2 = (r + dr) % rows, (c + dc) % cols
        sites[r][c] = sites[r][c] * _along(s, ax_a)
        sites[r2][c2] = sites[r2][c2] * _along(s, ax_b)

    new_bond = max(
        max((t.shape[0] for row in sites for t in row), default=1),
        max((t.shape[3] for row in sites for t in row), default=1),
    )
    return Peps(rows, cols, d, max(new_bond, 1), sites, peps.boundary)
