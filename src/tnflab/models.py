"""Spin-1/2 lattice Hamiltonians built from two-site exchange couplings.

Convention: ``H = sum_{(i,j)} c_ij S_i . S_j`` over the listed couplings,
with sites indexed row-major and occupation 0 meaning spin up (Sz = +1/2).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Model",
    "heisenberg",
    "j1j2",
    "nn_pairs",
    "neel_config",
    "spin_coupling_matrix",
]


@dataclass(frozen=True)
class Model:
    name: str
    rows: int
    cols: int
    boundary: str
    couplings: tuple[tuple[int, int, float], ...]

    def __post_init__(self):
        n = self.rows * self.cols
        for i, j, c in self.couplings:
            if not (0 <= i < n and 0 <= j < n and i != j):
                raise ValueError(f"coupling ({i},{j}) outside the {self.rows}x{self.cols} lattice")
            if not np.isfinite(c):
                raise ValueError(f"non-finite coupling on ({i},{j})")

    @property
    def n_sites(self) -> int:
        return self.rows * self.cols


def _site(r: int, c: int, cols: int) -> int:
    return r * cols + c


def nn_pairs(rows: int, cols: int, boundary: str = "obc") -> list[tuple[int, int]]:
    """Nearest-neighbor pairs: horizontal bonds row-major, then vertical."""
    pairs = []
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                pairs.append((_site(r, c, cols), _site(r, c + 1, cols)))
            elif boundary == "pbc" and cols > 2:
                pairs.append((_site(r, c, cols), _site(r, 0, cols)))
    for r in range(rows):
        for c in range(cols):
            if r + 1 < rows:
                pairs.append((_site(r, c, cols), _site(r + 1, c, cols)))
            elif boundary == "pbc" and rows > 2:
                pairs.append((_site(r, c, cols), _site(0, c, cols)))
    return pairs


def _diagonal_pairs(rows: int, cols: int, boundary: str) -> list[tuple[int, int]]:
    pairs = []
    for r in range(rows):
        for c in range(cols):
            r2 = r + 1
            if r2 >= rows:
                if boundary != "pbc" or rows <= 2:
                    continue
                r2 = 0
            for dc in (1, -1):
                c2 = c + dc
                if 0 <= c2 < cols:
                    pairs.append((_site(r, c, cols), _site(r2, c2, cols)))
                elif boundary == "pbc" and cols > 2:
                    pairs.append((_site(r, c, cols), _site(r2, c2 % cols, cols)))
    return pairs


def heisenberg(rows: int, cols: int, boundary: str = "obc") -> Model:
    """Antiferromagnetic nearest-neighbor Heisenberg model, unit coupling."""
    couplings = tuple((i, k, 1.0) for i, k in nn_pairs(rows, cols, boundary))
    return Model("heisenberg", rows, cols, boundary, couplings)


def j1j2(rows: int, cols: int, j2: float, boundary: str = "pbc") -> Model:
    """Frustrated square lattice: unit nearest-neighbor, ``j2`` diagonal coupling."""
    couplings = [(i, k, 1.0) for i, k in nn_pairs(rows, cols, boundary)]
    couplings += [(i, k, j2) for i, k in _diagonal_pairs(rows, cols, boundary)]
    return Model("j1j2", rows, cols, boundary, tuple(couplings))


def neel_config(rows: int, cols: int) -> np.ndarray:
    """Checkerboard configuration (0 on even sublattice)."""
    return np.fromfunction(
        lambda r, c: (r + c) % 2, (rows, cols), dtype=np.int64
    ).reshape(-1).astype(np.int64)


def spin_coupling_matrix() -> np.ndarray:
    """4x4 matrix of S_i . S_j on two spins, basis |00>,|01>,|10>,|11>."""
    m = np.zeros((4, 4))
    m[0, 0] = m[3, 3] = 0.25
    m[1, 1] = m[2, 2] = -0.25
    m[1, 2] = m[2, 1] = 0.5
    return m
