"""Lattice models and the exact-diagonalization benchmark."""
from itertools import combinations

import numpy as np
import pytest

from tnflab.ed import Sector, ground_energy, sector_hamiltonian
from tnflab.errors import ResourceLimitError
from tnflab.models import Model, heisenberg, j1j2, neel_config, nn_pairs, spin_coupling_matrix


def kron_coupling(i, j, n):
    """S_i . S_j on n sites by explicit Kronecker products."""
    sx = np.array([[0, 0.5], [0.5, 0]])
    sy = np.array([[0, -0.5j], [0.5j, 0]])
    sz = np.array([[0.5, 0], [0, -0.5]])
    out = np.zeros((2**n, 2**n), dtype=complex)
    for op in (sx, sy, sz):
        mats = [np.eye(2)] * n
        mats[i] = op
        mats[j] = op
        term = mats[0]
        for m in mats[1:]:
            term = np.kron(term, m)
        out += term
    return out


def test_spin_coupling_matrix_against_kron():
    want = kron_coupling(0, 1, 2)
    assert np.allclose(spin_coupling_matrix(), want.real, atol=1e-14)
    assert np.allclose(want.imag, 0, atol=1e-14)


def test_nn_pair_counts():
    assert len(nn_pairs(4, 4, "obc")) == 24
    assert len(nn_pairs(4, 4, "pbc")) == 32
    assert len(nn_pairs(1, 5, "obc")) == 4


def test_j1j2_coupling_counts():
    m = j1j2(4, 4, 0.5, "pbc")
    assert len(m.couplings) == 64  # 32 NN + 32 diagonal
    assert sum(1 for _, _, c in m.couplings if c == 0.5) == 32


def test_model_rejects_bad_sites():
    with pytest.raises(ValueError):
        Model("bad", 2, 2, "obc", ((0, 7, 1.0),))


def test_neel_pattern():
    cfg = neel_config(2, 3)
    assert cfg.tolist() == [0, 1, 0, 1, 0, 1]


def test_2x2_ground_energy():
    assert abs(ground_energy(heisenberg(2, 2)) + 2.0) < 1e-10


def test_sector_hamiltonian_against_dense():
    m = heisenberg(2, 3)
    n = 6
    dense = sum(c * kron_coupling(i, j, n) for i, j, c in m.couplings)
    vals = np.linalg.eigvalsh(dense)
    assert abs(ground_energy(m) - vals[0]) < 1e-10


def test_sector_basis_counts():
    assert Sector(4).dim == 6
    sector = Sector(6)
    assert sector.dim == 20 and sector.configs.shape == (20, 6)


def test_mask_round_trip():
    sector = Sector(6)
    assert np.all(np.diff(sector.masks) > 0)
    assert np.array_equal(sector.configs @ (1 << np.arange(6)), sector.masks)
    assert sector.configs[0].tolist() == [1, 1, 1, 0, 0, 0]  # mask 0b000111
    four = Sector(4)
    assert four.configs[four.masks.tolist().index(0b1001)].tolist() == [1, 0, 0, 1]


def test_sector_masks_match_the_combinations():
    """The popcount-table masks are the sorted sums over every choice of
    ``n // 2`` down sites, dtype and all."""
    for n in range(2, 15):
        downs = np.array(list(combinations(range(n), n // 2)), dtype=np.int64)
        want = np.sort((1 << downs).sum(axis=1))
        got = Sector(n).masks
        assert got.dtype == want.dtype and np.array_equal(got, want), n


def test_sector_configs_are_a_uint8_bit_table():
    """``configs`` holds the bits of ``masks`` as uint8, and ``swap_target``
    gives the index of each configuration with two sites exchanged, or -1
    where the two spins are parallel, as a search of the table finds it."""
    sector = Sector(6)
    assert sector.configs.dtype == np.uint8
    assert np.array_equal(sector.configs, (sector.masks[:, None] >> np.arange(6)) & 1)
    rows = sector.configs.tolist()
    index = {tuple(c): k for k, c in enumerate(rows)}
    for i, j in combinations(range(6), 2):
        want = [-1 if c[i] == c[j] else index[tuple(c[j] if s == i else c[i] if s == j else b for s, b in enumerate(c))]
                for c in rows]
        assert sector.swap_target(i, j).tolist() == want, (i, j)


def test_sector_table():
    sector = Sector(6)
    k = np.arange(sector.dim)
    for i, j in [(0, 1), (0, 5), (2, 4)]:
        target = sector.swap_target(i, j)
        parallel = sector.configs[:, i] == sector.configs[:, j]
        assert np.all(target[parallel] == -1)
        assert np.all(target[~parallel] >= 0)
        assert np.array_equal(target[target[~parallel]], k[~parallel])
        swapped = sector.configs[~parallel].copy()
        swapped[:, [i, j]] = swapped[:, [j, i]]
        assert np.array_equal(sector.configs[target[~parallel]], swapped)


def test_site_guard():
    with pytest.raises(ResourceLimitError):
        ground_energy(heisenberg(5, 5))


def test_heisenberg_4x4_reference_value():
    # Known finite-lattice result for the 4x4 open Heisenberg model.
    e = ground_energy(heisenberg(4, 4))
    assert abs(e / 16 - (-0.574325)) < 1e-5


def test_ground_energy_repeatable_on_sparse_path():
    # Sectors above 64 states go through Lanczos; repeated calls in one
    # process must return the same float, since it is written into data files.
    for model in (heisenberg(3, 3), j1j2(4, 4, 0.5, "pbc")):
        values = [ground_energy(model) for _ in range(4)]
        assert all(v.hex() == values[0].hex() for v in values)
    h = sector_hamiltonian(heisenberg(3, 3))
    assert h.shape[0] > 64
    dense = np.linalg.eigvalsh(h.toarray())[0]
    assert abs(ground_energy(heisenberg(3, 3)) - dense) < 1e-10
