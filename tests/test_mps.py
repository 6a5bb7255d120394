"""Shared MPS machinery: MPO application, compression, amplitudes."""
import numpy as np
import pytest

from tnflab.adjoint import Tape
from tnflab.errors import DimensionError
from tnflab.mps import (
    apply_mpo,
    compress,
    mps_amplitude,
    mps_to_dense,
    mpo_to_dense,
    product_mps,
)


def random_mps(rng, n, phys, bond):
    sites = []
    left = 1
    for i in range(n):
        right = bond if i + 1 < n else 1
        sites.append(
            rng.standard_normal((left, phys, right)) + 1j * rng.standard_normal((left, phys, right))
        )
        left = right
    return sites


def test_product_and_amplitude():
    v0 = np.array([1.0, 0.0])
    v1 = np.array([0.0, 1.0])
    sites = product_mps([v0, v1, v0])
    assert abs(mps_amplitude(sites, [0, 1, 0]) - 1.0) < 1e-15
    assert abs(mps_amplitude(sites, [1, 1, 0])) < 1e-15


def test_apply_mpo_matches_dense():
    rng = np.random.default_rng(0)
    mps = random_mps(rng, 4, 2, 3)
    mpo = []
    left = 1
    for i in range(4):
        right = 2 if i + 1 < 4 else 1
        mpo.append(rng.standard_normal((left, 2, 2, right)) + 0j)
        left = right
    dense = mpo_to_dense(mpo) @ mps_to_dense(mps)
    assert np.allclose(mps_to_dense(apply_mpo(mps, mpo)), dense, atol=1e-12)


def test_apply_mpo_length_mismatch():
    rng = np.random.default_rng(1)
    mps = random_mps(rng, 3, 2, 2)
    with pytest.raises(DimensionError):
        apply_mpo(mps, [np.zeros((1, 2, 2, 1))] * 4)


def test_compress_exact_when_chi_large():
    rng = np.random.default_rng(2)
    mps = random_mps(rng, 5, 2, 3)
    dense = mps_to_dense(mps)
    out, log = compress(mps, 16)
    assert np.allclose(mps_to_dense(out) * np.exp(log), dense, rtol=1e-10, atol=1e-12)


def test_compress_none_canonicalizes_without_loss():
    rng = np.random.default_rng(3)
    mps = random_mps(rng, 4, 2, 4)
    dense = mps_to_dense(mps)
    out, log = compress(mps, None)
    assert np.allclose(mps_to_dense(out) * np.exp(log), dense, rtol=1e-10, atol=1e-12)


def test_compress_truncation_quality():
    # Truncating to the dominant Schmidt rank keeps most of the weight.
    rng = np.random.default_rng(4)
    mps = random_mps(rng, 6, 2, 4)
    dense = mps_to_dense(mps)
    out, log = compress(mps, 2)
    approx = mps_to_dense(out) * np.exp(log)
    overlap = abs(np.vdot(dense, approx)) / (np.linalg.norm(dense) * np.linalg.norm(approx))
    assert overlap > 0.5


def test_compress_respects_chi():
    rng = np.random.default_rng(5)
    mps = random_mps(rng, 6, 2, 5)
    out, _ = compress(mps, 3)
    assert all(s.shape[2] <= 3 for s in out[:-1])


@pytest.mark.parametrize("chi", [1, 2, None])
@pytest.mark.parametrize("zero_site", [None, 2])
def test_compress_any_rank_matches_rank3(chi, zero_site):
    """A chain of rank-4 sites (l, a, b, r) compresses to the same bits as
    the chain with (a, b) merged into one physical leg."""
    rng = np.random.default_rng(6)
    chain4 = [s.reshape(s.shape[0], 2, 3, s.shape[2]) for s in random_mps(rng, 5, 6, 4)]
    if zero_site is not None:
        chain4[zero_site] = np.zeros_like(chain4[zero_site])
    chain3 = [s.reshape(s.shape[0], 6, s.shape[3]) for s in chain4]
    tape4, tape3 = Tape(), Tape()
    out4, log4 = compress(chain4, chi, tape4)
    out3, log3 = compress(chain3, chi, tape3)
    assert log4 == log3 and tape4.max_discarded == tape3.max_discarded
    for a, b in zip(out4, out3):
        assert a.ndim == 4 and a.shape[1:3] == (2, 3)
        assert np.array_equal(a.reshape(b.shape), b)
