"""Gradient estimation and stochastic gradient descent."""
import numpy as np
import pytest

import tnflab.vmc
from tnflab.errors import NumericalAbortError
from tnflab.models import heisenberg
from tnflab.peps import (
    FixedEvaluator,
    FixedPlan,
    peps_from_params,
    peps_to_params,
    random_peps,
)
from tnflab.simple_update import simple_update
from tnflab.vmc import (
    GradientInfo,
    enumerate_energy,
    estimate_energy,
    gradient_estimate,
    sgd_optimize,
)
from tnflab.ed import ground_energy


def enumerated_energy_of(peps, model, chi):
    ev = FixedEvaluator(peps, FixedPlan.for_lattice(peps.rows, peps.cols, chi))
    return enumerate_energy(ev.peek, model)


class TestGradient:
    def test_matches_finite_difference_of_rayleigh_quotient(self):
        """Enumeration-sampled estimator against central differences of the
        exactly enumerated energy, well under 1e-6."""
        m = heisenberg(2, 2)
        p = random_peps(2, 2, 2, 2, seed=9)
        chi = 4
        g, info = gradient_estimate(p, m, chi, sampling="enumerate")
        params = peps_to_params(p)
        rng = np.random.default_rng(0)
        for k in rng.choice(params.size, size=8, replace=False):
            h = 1e-5 * max(abs(params[k]), 1e-2)
            up = params.copy()
            up[k] += h
            dn = params.copy()
            dn[k] -= h
            fd = (
                enumerated_energy_of(peps_from_params(p, up), m, chi)
                - enumerated_energy_of(peps_from_params(p, dn), m, chi)
            ) / (2 * h)
            assert abs(g[k] - fd) < 1e-6, f"param {k}: {g[k]} vs {fd}"

    def test_stationary_at_two_site_minimum(self):
        """Converge a 2-site problem, then check the gradient is numerically
        zero at the optimum."""
        m = heisenberg(1, 2)
        p = random_peps(1, 2, 2, 2, seed=1)
        p = simple_update(p, m, tau=0.05, steps=400)
        best, _ = sgd_optimize(p, m, chi=2, learning_rate=0.2, iterations=60, sampling="enumerate")
        g, info = gradient_estimate(best, m, chi=2, sampling="enumerate")
        assert abs(info.energy + 0.75) < 1e-3
        assert np.linalg.norm(g) < 5e-3, f"|g| = {np.linalg.norm(g)}"

    def test_positive_rescale_leaves_other_sites_direction(self):
        m = heisenberg(2, 2)
        p = random_peps(2, 2, 2, 2, seed=2)
        scaled = p.copy()
        scaled.sites[0][0] = scaled.sites[0][0] * 2.0
        g1, _ = gradient_estimate(p, m, chi=4, sampling="enumerate")
        g2, _ = gradient_estimate(scaled, m, chi=4, sampling="enumerate")
        size00 = 2 * p.sites[0][0].size
        rest1 = g1[size00:]
        rest2 = g2[size00:]
        cos = np.dot(rest1, rest2) / (np.linalg.norm(rest1) * np.linalg.norm(rest2))
        assert cos > 1 - 1e-8

    def test_metropolis_sampling_agrees_with_enumeration(self):
        m = heisenberg(2, 2)
        p = random_peps(2, 2, 2, 2, seed=3)
        g_enum, _ = gradient_estimate(p, m, chi=4, sampling="enumerate")
        g_mc, _ = gradient_estimate(p, m, chi=4, sampling="metropolis", n_sweeps=4000, seed=0)
        cos = np.dot(g_enum, g_mc) / (np.linalg.norm(g_enum) * np.linalg.norm(g_mc))
        assert cos > 0.95, f"cosine {cos}"

    def test_metropolis_samples_the_estimate_energy_chain(self):
        """Same seed and warm-up: the gradient's samples are the one-chain
        fixed-schedule energy estimate's samples."""
        m = heisenberg(2, 2)
        p = random_peps(2, 2, 2, 2, seed=3)
        _, info = gradient_estimate(p, m, chi=4, n_sweeps=40, n_warmup=10, seed=7)
        est = estimate_energy(p, m, "fixed", 4, n_sweeps=40, n_warmup=10, seed=7)
        assert info.n_samples == est.n_samples == 30
        assert abs(info.energy - est.mean) <= 1e-12 * abs(est.mean)

    def test_enumerate_energy_is_enumerate_energy(self):
        m = heisenberg(2, 2)
        p = random_peps(2, 2, 2, 2, seed=9)
        _, info = gradient_estimate(p, m, chi=2, sampling="enumerate")
        assert info.energy == enumerated_energy_of(p, m, 2)

    def test_non_finite_energy_aborts(self):
        m = heisenberg(1, 4)
        p = random_peps(1, 4, 2, 2, seed=8)
        p.sites[0][1][0, 0, 0, 0, 0] = np.nan
        for sampling in ("metropolis", "enumerate"):
            with pytest.raises(NumericalAbortError):
                gradient_estimate(p, m, chi=2, n_sweeps=10, n_warmup=2, sampling=sampling)


class TestSgd:
    def test_zero_learning_rate_is_identity(self):
        m = heisenberg(2, 2)
        p = random_peps(2, 2, 2, 2, seed=4)
        best, trace = sgd_optimize(p, m, chi=2, learning_rate=0.0, iterations=3, sampling="enumerate")
        for r in range(2):
            for c in range(2):
                assert np.array_equal(best.sites[r][c], p.sites[r][c])

    def test_2x2_reaches_ground_state(self):
        m = heisenberg(2, 2)
        e_ed = ground_energy(m)
        p = random_peps(2, 2, 2, 2, seed=9)
        best, trace = sgd_optimize(p, m, chi=4, learning_rate=0.1, iterations=150, sampling="enumerate")
        e = enumerated_energy_of(best, m, 4)
        assert (e - e_ed) / abs(e_ed) < 0.01, f"final {e} vs ED {e_ed}"

    def test_divergence_abort(self, monkeypatch):
        m = heisenberg(2, 2)
        p = random_peps(2, 2, 2, 2, seed=5)
        energies = iter([-0.05, 50.0])

        def fake_gradient(*args, **kwargs):
            e = next(energies)
            n = peps_to_params(p).size
            return np.zeros(n), GradientInfo(energy=e, n_samples=1, zeroed_params=0)

        monkeypatch.setattr(tnflab.vmc, "gradient_estimate", fake_gradient)
        with pytest.raises(NumericalAbortError):
            tnflab.vmc.sgd_optimize(p, m, chi=2, learning_rate=0.1, iterations=5)

    def test_deterministic_given_seed(self):
        m = heisenberg(2, 2)
        p = random_peps(2, 2, 2, 2, seed=6)
        b1, t1 = sgd_optimize(p, m, chi=2, learning_rate=0.05, iterations=3, seed=11, n_sweeps=40)
        b2, t2 = sgd_optimize(p, m, chi=2, learning_rate=0.05, iterations=3, seed=11, n_sweeps=40)
        assert t1 == t2
        for r in range(2):
            for c in range(2):
                assert np.array_equal(b1.sites[r][c], b2.sites[r][c])
