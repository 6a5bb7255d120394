"""Gradient estimation and stochastic gradient descent."""
import cmath
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def oracle_log_derivatives(evaluator, peps, cfg):
    """Both central-difference probes of every real parameter, read by the
    amplitude or not: the reference the library's probe-what-is-read
    ``_log_derivatives`` must match bit for bit."""
    out = np.zeros(peps_to_params(peps).size, dtype=complex)
    zeroed = 0
    k = 0
    for r in range(peps.rows):
        for c in range(peps.cols):
            t = peps.sites[r][c]
            for part in (1.0, 1.0j):
                for e in range(t.size):
                    base = t.flat[e]
                    mag = abs(base.real if part == 1.0 else base.imag)
                    h = max(tnflab.vmc.FD_STEP_REL * mag, tnflab.vmc.FD_STEP_FLOOR)
                    tp = t.copy()
                    tp.flat[e] = base + part * h
                    tm = t.copy()
                    tm.flat[e] = base - part * h
                    sp, sm = {}, {}
                    ap = evaluator.amplitude_with_site(cfg, (r, c), tp, sp)
                    am = evaluator.amplitude_with_site(cfg, (r, c), tm, sm)
                    jump = abs(sp.get("max_discarded", 0.0) - sm.get("max_discarded", 0.0))
                    if ap.is_zero or am.is_zero or jump > tnflab.vmc.DEGENERACY_JUMP:
                        zeroed += 1
                    else:
                        out[k] = cmath.log(ap.ratio(am)) / (2.0 * h)
                    k += 1
    return out, zeroed


def chain_configs(peps, model, chi, n_sweeps, n_warmup, seed):
    """The configurations a Metropolis ``gradient_estimate`` samples, in order."""
    ev = FixedEvaluator(peps, FixedPlan.for_lattice(peps.rows, peps.cols, chi))
    n_warmup, cfg0 = tnflab.vmc._chain_args(model, n_sweeps, n_warmup)
    chain = tnflab.vmc._chain_samples(ev, model, n_sweeps, n_warmup, seed, 0, cfg0)
    return [(s.config.copy(), tnflab.vmc.local_energy(model, ev.peek, s.config)) for s in chain]


def oracle_metropolis_gradient(peps, model, chi, n_sweeps, n_warmup, seed):
    """The Metropolis gradient with every sample probed afresh by the oracle,
    summed in the library's order."""
    ev = FixedEvaluator(peps, FixedPlan.for_lattice(peps.rows, peps.cols, chi))
    n_params = peps_to_params(peps).size
    sum_w, sum_e, zeroed = 0.0, 0.0, 0
    sum_o = np.zeros(n_params, dtype=complex)
    sum_eo = np.zeros(n_params, dtype=complex)
    samples = chain_configs(peps, model, chi, n_sweeps, n_warmup, seed)
    for cfg, e in samples:
        o, z = oracle_log_derivatives(ev, peps, cfg)
        oc = np.conj(o)
        sum_w += 1.0
        sum_e += 1.0 * e.real
        sum_o += 1.0 * oc
        sum_eo += 1.0 * e * oc
        zeroed += z
    e_mean = sum_e / sum_w
    grad = 2.0 * np.real(sum_eo / sum_w - e_mean * (sum_o / sum_w))
    return grad, GradientInfo(energy=e_mean, n_samples=len(samples), zeroed_params=zeroed)


@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_log_derivatives_equal_the_all_entries_oracle(data):
    """Probing only the entries the amplitude reads changes no bit of O_k(n)
    or of the zeroed count, on open and periodic lattices and any phys_dim."""
    rows = data.draw(st.integers(1, 2), label="rows")
    cols = data.draw(st.integers(2, 3), label="cols")
    boundary = data.draw(st.sampled_from(("obc", "pbc")), label="boundary")
    # Doubled wrap bonds make 2x3 PBC at D=3 take seconds without adding a code path.
    bond = data.draw(st.integers(1, 2 if boundary == "pbc" and rows * cols == 6 else 3), label="bond")
    chi = data.draw(st.integers(1, 3), label="chi")
    phys = data.draw(st.integers(2, 3), label="phys_dim")
    seed = data.draw(st.integers(0, 999), label="seed")
    p = random_peps(rows, cols, phys, bond, seed=seed, boundary=boundary)
    site = st.integers(0, phys - 1)
    cfg = np.array(data.draw(st.lists(site, min_size=rows * cols, max_size=rows * cols), label="cfg"))
    plan = FixedPlan.for_lattice(rows, cols, chi)
    out, zeroed = tnflab.vmc._log_derivatives(FixedEvaluator(p, plan), p, cfg)
    want, want_zeroed = oracle_log_derivatives(FixedEvaluator(p, plan), p, cfg)
    assert out.tobytes() == want.tobytes()
    assert zeroed == want_zeroed


# 30 sweeps, 10 of them warm-up: 20 samples of 4, 8 and 5 distinct configurations.
REVISITING_CHAINS = [
    pytest.param(2, 2, "obc", 2, 4, 3, id="2x2 obc D2 chi4"),
    pytest.param(2, 3, "obc", 2, 2, 5, id="2x3 obc D2 chi2"),
    pytest.param(2, 2, "pbc", 2, 2, 1, id="2x2 pbc D2 chi2"),
]


@pytest.mark.parametrize("rows,cols,boundary,bond,chi,seed", REVISITING_CHAINS)
def test_probes_once_per_distinct_configuration(monkeypatch, rows, cols, boundary, bond, chi, seed):
    """Each distinct sampled configuration costs two probes of the real and
    two of the imaginary part of every entry the amplitude reads, and no
    probe of an unread entry; a repeated configuration costs none."""
    m = heisenberg(rows, cols, boundary)
    p = random_peps(rows, cols, 2, bond, seed=seed, boundary=boundary)
    samples = [cfg.tobytes() for cfg, _ in chain_configs(p, m, chi, 30, 10, seed)]
    assert len(set(samples)) < len(samples), "the chain must revisit configurations"
    calls = Counter()
    probe = FixedEvaluator.amplitude_with_site

    def counted(self, n, site, tensor, stats=None):
        (e,) = np.flatnonzero(tensor != self.peps.sites[site[0]][site[1]])
        assert e % self.peps.phys_dim == n[site[0] * self.peps.cols + site[1]], "probed an unread entry"
        calls[n.tobytes()] += 1
        return probe(self, n, site, tensor, stats)

    monkeypatch.setattr(FixedEvaluator, "amplitude_with_site", counted)
    gradient_estimate(p, m, chi, n_sweeps=30, n_warmup=10, seed=seed)
    per_config = 4 * sum(t.size // p.phys_dim for row in p.sites for t in row)
    assert calls == {cfg: per_config for cfg in set(samples)}


@pytest.mark.parametrize("rows,cols,boundary,bond,chi,seed", REVISITING_CHAINS)
def test_revisiting_chain_matches_the_per_sample_oracle(rows, cols, boundary, bond, chi, seed):
    """Reusing O_k(n) for a repeated configuration gives the bits of probing
    every sample afresh with every entry."""
    m = heisenberg(rows, cols, boundary)
    p = random_peps(rows, cols, 2, bond, seed=seed, boundary=boundary)
    g, info = gradient_estimate(p, m, chi, n_sweeps=30, n_warmup=10, seed=seed)
    want, want_info = oracle_metropolis_gradient(p, m, chi, 30, 10, seed)
    assert g.tobytes() == want.tobytes()
    assert info == want_info


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
