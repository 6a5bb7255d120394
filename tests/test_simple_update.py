"""Imaginary-time simple update."""
import numpy as np
import pytest

from tnflab.models import Model, heisenberg, neel_config
from tnflab.peps import Peps, exact_amplitude, random_peps
from tnflab.simple_update import simple_update
from tnflab.vmc import enumerate_energy


def two_site_ground_state():
    """Exact diagonalization of one Heisenberg bond: singlet at -3/4."""
    h = np.array(
        [
            [0.25, 0, 0, 0],
            [0, -0.25, 0.5, 0],
            [0, 0.5, -0.25, 0],
            [0, 0, 0, 0.25],
        ]
    )
    vals, vecs = np.linalg.eigh(h)
    return vals[0], vecs[:, 0]


def test_zero_hamiltonian_preserves_amplitudes():
    p = random_peps(2, 3, 2, 2, seed=0)
    bonds = [(0, 1), (1, 2), (3, 4), (4, 5), (0, 3), (1, 4), (2, 5)]
    m0 = Model("zero", 2, 3, "obc", tuple((i, j, 0.0) for i, j in bonds))
    q = simple_update(p, m0, tau=0.1, steps=4)
    for n in ([0, 1, 0, 1, 0, 1], [1, 1, 0, 0, 1, 0]):
        a = exact_amplitude(p, n)
        b = exact_amplitude(q, n)
        assert abs(a.value - b.value) / abs(a.value) < 1e-10


def test_nonpositive_tau_rejected():
    p = random_peps(2, 2, 2, 2, seed=1)
    with pytest.raises(ValueError):
        simple_update(p, heisenberg(2, 2), tau=0.0, steps=1)


@pytest.mark.parametrize(
    "phys_dim, tau, name", [(3, 0.1, "phys_dim"), (2, float("nan"), "tau"), (2, float("inf"), "tau")]
)
def test_bad_arguments_rejected_by_name(phys_dim, tau, name):
    p = random_peps(2, 2, phys_dim, 2, seed=1)
    with pytest.raises(ValueError, match=name):
        simple_update(p, heisenberg(2, 2), tau=tau, steps=1)


def test_non_edge_coupling_rejected():
    p = random_peps(2, 2, 2, 2, seed=2)
    diag = Model("bad", 2, 2, "obc", ((0, 3, 1.0),))
    with pytest.raises(ValueError):
        simple_update(p, diag, tau=0.1, steps=1)


def test_two_site_chain_converges_to_singlet():
    e0, gs = two_site_ground_state()
    assert abs(e0 + 0.75) < 1e-12
    m = heisenberg(1, 2)
    p = random_peps(1, 2, 2, 2, seed=3)
    q = simple_update(p, m, tau=0.05, steps=400)
    amps = {}
    for n in ([0, 0], [0, 1], [1, 0], [1, 1]):
        a = exact_amplitude(q, n)
        amps[tuple(n)] = 0.0 if a.is_zero else a.value
    vec = np.array([amps[(0, 0)], amps[(0, 1)], amps[(1, 0)], amps[(1, 1)]])
    vec = vec / np.linalg.norm(vec)
    overlap = abs(np.vdot(gs, vec))
    assert overlap > 1 - 1e-6, f"overlap with singlet only {overlap}"


def test_4x4_below_neel_product_energy():
    m = heisenberg(4, 4)
    p = random_peps(4, 4, 2, 2, seed=4)
    q = simple_update(p, m, tau=0.1, steps=150)
    e = enumerate_energy(q, m, 8)
    # Neel product state: every bond contributes its diagonal -1/4
    neel_energy = -0.25 * len(m.couplings)
    assert e < neel_energy, f"simple update energy {e} not below Neel {neel_energy}"


def test_bond_dimension_not_exceeded():
    m = heisenberg(3, 3)
    p = random_peps(3, 3, 2, 2, seed=5)
    q = simple_update(p, m, tau=0.1, steps=10)
    for row in q.sites:
        for t in row:
            assert max(t.shape[:4]) <= 2


@pytest.mark.parametrize("n", [3, 4])
def test_row_and_column_chains_agree(n):
    """Horizontal and vertical bonds get the same update: a 1xN chain and
    its Nx1 mirror image evolve into the same state."""
    row = random_peps(1, n, 2, 2, seed=10 + n)
    col = Peps(n, 1, 2, 2, [[t.transpose(1, 0, 3, 2, 4)] for t in row.sites[0]], "obc")
    q_row = simple_update(row, heisenberg(1, n), tau=0.05, steps=20)
    q_col = simple_update(col, heisenberg(n, 1), tau=0.05, steps=20)
    configs = [[(k >> s) & 1 for s in range(n)] for k in range(1 << n)]
    a = np.array([exact_amplitude(q_row, c).value for c in configs])
    b = np.array([exact_amplitude(q_col, c).value for c in configs])
    assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(a))
