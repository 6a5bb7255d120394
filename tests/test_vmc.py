"""Sampling, local energies, and the energy estimator."""
import math

import numpy as np
import pytest

from tnflab.ed import Sector
from tnflab.errors import NumericalAbortError
from tnflab.models import heisenberg, j1j2, neel_config, nn_pairs
import tnflab.peps as peps_module
from tnflab.peps import DynamicCache, FixedEvaluator, FixedPlan, product_peps, random_peps
from tnflab.tensor import AmplitudeValue
from tnflab.vmc import (
    ChainState,
    _chain_rng,
    enumerate_energy,
    estimate_energy,
    gradient_estimate,
    local_energy,
    metropolis_sweep,
)


def local_energy_average(amplitude_fn, model):
    """The sector average of the local energy with weights |amp|^2, one
    :func:`local_energy` call per configuration."""
    amps = [(cfg, amplitude_fn(cfg)) for cfg in Sector(model.n_sites).configs]
    max_log = max(a.log_scale for _, a in amps if not a.is_zero)
    num = den = 0.0
    for cfg, a in amps:
        if not a.is_zero:
            w = abs(a.mantissa) ** 2 * math.exp(2.0 * (a.log_scale - max_log))
            num += w * local_energy(model, amplitude_fn, cfg).real
            den += w
    return num / den


class UniformAmplitude(FixedEvaluator):
    """Constant over a magnetization sector: every exchange is accepted."""

    def __init__(self):
        super().__init__(random_peps(2, 2, 2, 1, seed=0), FixedPlan.for_lattice(2, 2, 1))

    def _closed(self, cfg, mid):
        return AmplitudeValue.from_parts(1.0)

    __call__ = FixedEvaluator.amplitude


class TestLocalEnergy:
    def test_all_up_diagonal_only(self):
        m = heisenberg(2, 2)
        fn = UniformAmplitude()
        e = local_energy(m, fn, [0, 0, 0, 0])
        assert abs(e - len(m.couplings) * 0.25) < 1e-14

    def test_two_site_singlet(self):
        m = heisenberg(1, 2)
        root = 1 / math.sqrt(2)

        def singlet(n):
            n = tuple(int(v) for v in np.asarray(n).reshape(-1))
            table = {(0, 1): root, (1, 0): -root}
            if n in table:
                return AmplitudeValue.from_parts(table[n])
            return AmplitudeValue.zero()

        assert abs(local_energy(m, singlet, [0, 1]) + 0.75) < 1e-12
        assert abs(local_energy(m, singlet, [1, 0]) + 0.75) < 1e-12

    def test_zero_amplitude_rejected(self):
        m = heisenberg(1, 2)
        with pytest.raises(ValueError):
            local_energy(m, lambda n: AmplitudeValue.zero(), [0, 1])

    @pytest.mark.parametrize("bad", [0.9, math.nan, 2])
    def test_non_integer_or_out_of_range_entry_rejected(self, bad):
        """The configuration is read, not truncated: 0.9 is not the energy of 0."""
        ev = FixedEvaluator(random_peps(2, 2, 2, 2, seed=0), FixedPlan.for_lattice(2, 2, 2))
        with pytest.raises(ValueError):
            local_energy(heisenberg(2, 2), ev.amplitude, [bad, 1, 1, 0])

    def test_integer_valued_floats_and_bools_read_as_ints(self):
        m = heisenberg(2, 2)
        ev = FixedEvaluator(random_peps(2, 2, 2, 2, seed=0), FixedPlan.for_lattice(2, 2, 2))
        want = local_energy(m, ev.amplitude, [0, 1, 1, 0])
        for n in ([0.0, 1.0, 1.0, 0.0], np.array([False, True, True, False])):
            got = local_energy(m, ev.amplitude, n)
            assert (got.real.hex(), got.imag.hex()) == (want.real.hex(), want.imag.hex())

    def test_enumeration_equals_sector_rayleigh_quotient(self):
        m = heisenberg(4, 4)
        p = random_peps(4, 4, 2, 2, seed=0)
        ev = FixedEvaluator(p, FixedPlan.for_lattice(4, 4, 4))
        got = enumerate_energy(p, m, 4)

        assert abs(got - local_energy_average(ev.amplitude, m)) < 1e-10


class TestMetropolis:
    def test_uniform_amplitude_accepts_everything(self):
        cfg = neel_config(2, 2)
        src = UniformAmplitude()
        chain = ChainState(cfg.copy(), src.amplitude(cfg), _chain_rng(0, 0), src)
        metropolis_sweep(chain, nn_pairs(2, 2))
        assert chain.proposed == chain.accepted > 0

    @pytest.mark.parametrize("bad", [0.9, math.nan, 2, "length"])
    def test_bad_chain_config_rejected(self, bad):
        """A chain's configuration is read like any other: a bad entry or
        length raises ``ValueError``."""
        ev = FixedEvaluator(random_peps(2, 2, 2, 2, seed=0), FixedPlan.for_lattice(2, 2, 2))
        cfg = [0, 1, 1, 0, 1] if bad == "length" else [bad, 1, 1, 0]
        chain = ChainState(cfg, ev.amplitude([0, 1, 1, 0]), _chain_rng(0, 0), ev)
        with pytest.raises(ValueError):
            metropolis_sweep(chain, nn_pairs(2, 2))

    def test_single_config_product_state_is_frozen(self):
        cfg = neel_config(2, 2)
        p = product_peps(2, 2, 2, cfg)
        ev = FixedEvaluator(p, FixedPlan.for_lattice(2, 2, 2))
        chain = ChainState(cfg.copy(), ev.amplitude(cfg), _chain_rng(0, 0), ev)
        for _ in range(5):
            metropolis_sweep(chain, nn_pairs(2, 2))
        assert chain.accepted == 0
        assert np.array_equal(chain.config, cfg)

    def test_sz_conserved(self):
        p = random_peps(3, 3, 2, 2, seed=1)
        ev = FixedEvaluator(p, FixedPlan.for_lattice(3, 3, 2))
        cfg = neel_config(3, 3)
        chain = ChainState(cfg.copy(), ev.amplitude(cfg), _chain_rng(1, 0), ev)
        sz = cfg.sum()
        for _ in range(20):
            metropolis_sweep(chain, nn_pairs(3, 3))
            assert chain.config.sum() == sz

    def test_empirical_frequencies_match_amplitudes(self):
        """2x2 D=2 state: visit frequencies against |amp|^2 at 3 sigma."""
        p = random_peps(2, 2, 2, 2, seed=2)
        ev = FixedEvaluator(p, FixedPlan.for_lattice(2, 2, 4))
        cfg0 = neel_config(2, 2)
        probs = {}
        for cfg in Sector(4).configs:
            a = ev.amplitude(cfg)
            probs[tuple(cfg)] = 0.0 if a.is_zero else abs(a.mantissa) ** 2 * math.exp(2 * a.log_scale)
        z = sum(probs.values())
        probs = {k: v / z for k, v in probs.items()}

        n_sweeps = 100_000
        counts = {k: 0 for k in probs}
        chain = ChainState(cfg0.copy(), ev.amplitude(cfg0), _chain_rng(3, 0), ev)
        sched = nn_pairs(2, 2)
        for _ in range(n_sweeps):
            metropolis_sweep(chain, sched)
            counts[tuple(chain.config)] += 1
        for k, p_k in probs.items():
            if p_k == 0:
                assert counts[k] == 0
                continue
            sigma = math.sqrt(n_sweeps * p_k * (1 - p_k))
            assert abs(counts[k] - n_sweeps * p_k) < 3 * sigma + 1e-9, (
                f"config {k}: {counts[k]} vs {n_sweeps * p_k:.1f} +- {sigma:.1f}"
            )

    def test_uniform_stationary_distribution(self):
        """Uniform amplitude: the sector distribution is uniform (chi-squared
        at 3 sigma).

        A literally constant amplitude accepts every exchange, which turns
        the fixed sequential scan into a deterministic permutation of the
        sector (the Neel state on 2x2 is even a fixed point), so uniformity
        is probed with a shuffled proposal order per sweep; the sub-moves
        are the same always-accepted exchanges.
        """
        src = UniformAmplitude()
        cfg0 = neel_config(2, 2)
        rng = np.random.default_rng(44)
        chain = ChainState(cfg0.copy(), src.amplitude(cfg0), _chain_rng(4, 0), src)
        sched = nn_pairs(2, 2)
        thin = 5
        n_samples = 6_000
        counts = {tuple(c): 0 for c in Sector(4).configs}
        for _ in range(n_samples):
            for _ in range(thin):
                order = list(sched)
                rng.shuffle(order)
                metropolis_sweep(chain, order)
            counts[tuple(chain.config)] += 1
        k = len(counts)
        expected = n_samples / k
        chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
        dof = k - 1
        # chi^2 mean dof, sd sqrt(2 dof)
        assert chi2 < dof + 3 * math.sqrt(2 * dof), f"chi2={chi2:.1f} dof={dof}"


class TestEstimateEnergy:
    def test_single_config_product_state(self):
        cfg = neel_config(2, 2)
        p = product_peps(2, 2, 2, cfg)
        m = heisenberg(2, 2)
        est = estimate_energy(p, m, "fixed", 2, n_sweeps=60, n_warmup=10, seed=0, initial_config=cfg)
        assert abs(est.mean - (-1.0)) < 1e-12  # 4 bonds, all antiparallel diagonals
        assert est.stderr == 0.0
        assert est.acceptance == 0.0
        assert est.warnings  # frozen chain diagnostic

    @pytest.mark.parametrize("bad", [0.9, math.nan, 2])
    def test_initial_config_entry_rejected(self, bad):
        p = random_peps(2, 2, 2, 2, seed=0)
        with pytest.raises(ValueError):
            estimate_energy(p, heisenberg(2, 2), "fixed", 2, n_sweeps=4, n_warmup=0,
                            initial_config=[bad, 1, 1, 0])

    def test_initial_config_floats_and_bools_read_as_ints(self):
        p = random_peps(2, 2, 2, 2, seed=0)
        m = heisenberg(2, 2)

        def run(cfg):
            est = estimate_energy(p, m, "fixed", 2, n_sweeps=40, n_warmup=5, seed=1,
                                  initial_config=cfg)
            return est.mean.hex(), est.stderr.hex(), est.acceptance, est.series[0].tobytes()

        want = run([0, 1, 1, 0])
        assert run([0.0, 1.0, 1.0, 0.0]) == want
        assert run(np.array([False, True, True, False])) == want

    def test_seed_determinism_bit_for_bit(self):
        p = random_peps(3, 3, 2, 2, seed=5)
        m = heisenberg(3, 3)
        a = estimate_energy(p, m, "fixed", 2, n_sweeps=80, n_warmup=20, seed=9, n_chains=2)
        b = estimate_energy(p, m, "fixed", 2, n_sweeps=80, n_warmup=20, seed=9, n_chains=2)
        assert a.mean == b.mean and a.stderr == b.stderr
        for s, t in zip(a.series, b.series):
            assert np.array_equal(s, t)

    def test_thread_count_does_not_change_values(self):
        p = random_peps(3, 3, 2, 2, seed=6)
        m = heisenberg(3, 3)
        a = estimate_energy(p, m, "fixed", 2, n_sweeps=60, n_warmup=10, seed=3, n_chains=3, n_threads=1)
        b = estimate_energy(p, m, "fixed", 2, n_sweeps=60, n_warmup=10, seed=3, n_chains=3, n_threads=3)
        assert a.mean == b.mean
        for s, t in zip(a.series, b.series):
            assert np.array_equal(s, t)

    def test_dynamic_mode_runs(self):
        p = random_peps(3, 3, 2, 2, seed=7)
        m = heisenberg(3, 3)
        est = estimate_energy(p, m, "dynamic", 2, n_sweeps=60, n_warmup=10, seed=1)
        assert math.isfinite(est.mean)

    def test_non_finite_energy_aborts(self):
        """A one-row state needs no SVD, so its NaN reaches the energy."""
        p = random_peps(1, 4, 2, 2, seed=8)
        p.sites[0][1][0, 0, 0, 0, 0] = math.nan
        for mode in ("fixed", "dynamic"):
            with pytest.raises(NumericalAbortError):
                estimate_energy(p, heisenberg(1, 4), mode, 2, n_sweeps=10, n_warmup=2)

    def test_no_chains_rejected(self):
        p = random_peps(2, 2, 2, 2, seed=8)
        with pytest.raises(ValueError, match="n_chains"):
            estimate_energy(p, heisenberg(2, 2), "fixed", 2, n_sweeps=10, n_chains=0)

    def test_bad_parameters(self):
        p = random_peps(2, 2, 2, 2, seed=8)
        m = heisenberg(2, 2)
        with pytest.raises(ValueError):
            estimate_energy(p, m, "fixed", 2, n_sweeps=0)
        with pytest.raises(ValueError):
            estimate_energy(p, m, "nope", 2, n_sweeps=10)

    @pytest.mark.parametrize("name,value", [
        ("n_sweeps", 10.5), ("n_sweeps", True), ("n_sweeps", "10"), ("n_sweeps", 0),
        ("n_warmup", 2.5), ("n_warmup", True), ("n_warmup", -1), ("n_warmup", 10),
        ("n_chains", 2.5), ("n_chains", True), ("n_chains", 0),
    ])
    def test_chain_counts_must_be_integers(self, name, value):
        """A bool, a non-integer or an out-of-range count raises a
        ``ValueError`` naming it, in both estimators."""
        p = random_peps(2, 2, 2, 2, seed=8)
        m = heisenberg(2, 2)
        args = {"n_sweeps": 10, "n_warmup": 2, "n_chains": 1, name: value}
        with pytest.raises(ValueError, match=name):
            estimate_energy(p, m, "fixed", 2, **args)
        if name != "n_chains":
            with pytest.raises(ValueError, match=name):
                gradient_estimate(p, m, 2, n_sweeps=args["n_sweeps"], n_warmup=args["n_warmup"])

    def test_numpy_integer_counts_accepted(self):
        p = random_peps(2, 2, 2, 2, seed=8)
        m = heisenberg(2, 2)
        a = estimate_energy(p, m, "fixed", 2, n_sweeps=np.int64(10), n_warmup=np.int32(2), n_chains=np.int64(2))
        b = estimate_energy(p, m, "fixed", 2, n_sweeps=10, n_warmup=2, n_chains=2)
        assert a.mean == b.mean and a.n_samples == 16


def count_calls(monkeypatch, *names) -> dict[str, int]:
    """Count the calls :mod:`tnflab.peps` makes to each function of
    ``names``, in the returned dict."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        def counted(*args, _name=name, _fn=getattr(peps_module, name), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(peps_module, name, counted)
    return calls


def lone_series(peps, model, mode, chi, n_sweeps, n_warmup, seed, k):
    """Chain ``k``'s local energies from a chain of its own, move by move,
    on a fresh evaluator: the proposals and random draws of
    ``metropolis_sweep`` from the Neel configuration, each amplitude read
    through the one-configuration API (``FixedEvaluator.amplitude``, or
    ``DynamicCache.peek`` and ``commit``) and each energy from
    ``local_energy``."""
    plan = FixedPlan.for_lattice(peps.rows, peps.cols, chi)
    ev = FixedEvaluator(peps, plan) if mode == "fixed" else DynamicCache(peps, chi)
    read = ev.amplitude if mode == "fixed" else ev.peek
    cfg = neel_config(model.rows, model.cols)
    amp = ev.amplitude(cfg)  # a cold cache takes it as the first configuration
    rng, series = _chain_rng(seed, k), []
    for sweep in range(n_sweeps):
        for i, j in nn_pairs(model.rows, model.cols, model.boundary):
            if cfg[i] == cfg[j]:
                continue
            n1 = cfg.copy()
            n1[i], n1[j] = n1[j], n1[i]
            amp1 = read(n1)
            ratio = amp1.abs_ratio_sq(amp)
            if ratio >= 1.0 or rng.random() < ratio:
                cfg, amp = n1, amp1
                if mode == "dynamic":
                    ev.commit(cfg, amp)
        if sweep >= n_warmup:
            series.append(local_energy(model, read, cfg).real)
    return np.array(series)


@pytest.mark.parametrize("mode", ["fixed", "dynamic"])
@pytest.mark.parametrize("boundary", ["obc", "pbc"])
@pytest.mark.parametrize("n_chains", [2, 3])
def test_each_chain_gives_its_series_alone(monkeypatch, mode, boundary, n_chains):
    """The chains of an estimate share one memo, and each gives, bit for bit,
    the series of a per-move chain of its own on a fresh evaluator; so does
    a run whose memos are emptied in the middle of each chain. The lattice
    has more columns than rows, and each case runs the Heisenberg model and
    a J1-J2 model, whose diagonals span two rows, so a local-energy
    neighbour closing at another row than its exchange's last site gives
    another series."""
    p = random_peps(3, 4, 2, 2, seed=0, boundary=boundary)
    for m in (heisenberg(3, 4, boundary), j1j2(3, 4, 0.5, boundary)):
        want = [lone_series(p, m, mode, 1, 30, 5, 1, k) for k in range(n_chains)]
        calls, absorbs = count_calls(monkeypatch, "boundary_absorb"), []
        for budget in (peps_module.MEMO_MAX_BYTES, 6 << 10):
            monkeypatch.setattr(peps_module, "MEMO_MAX_BYTES", budget)
            est = estimate_energy(p, m, mode, 1, n_sweeps=30, n_warmup=5, n_chains=n_chains, seed=1)
            assert len(est.series) == n_chains
            for k, (got, alone) in enumerate(zip(est.series, want)):
                assert got.tobytes() == alone.tobytes(), (m.name, budget, k)
            absorbs.append(calls["boundary_absorb"] - sum(absorbs))
        assert absorbs[1] > absorbs[0]  # the small budget emptied the memos along the way
        monkeypatch.undo()


@pytest.mark.parametrize("swap", [False, True])
def test_model_and_state_site_counts_must_match(monkeypatch, swap):
    """A model of another site count than the state raises ``ValueError``
    before any contraction, in both modes of ``estimate_energy`` and in a
    Metropolis ``gradient_estimate``."""
    p, m = random_peps(4, 4, 2, 2, seed=0), heisenberg(3, 3)
    if swap:
        p, m = random_peps(3, 3, 2, 2, seed=0), heisenberg(4, 4)
    calls = count_calls(monkeypatch, "boundary_absorb", "_close_strip")
    for mode in ("fixed", "dynamic"):
        with pytest.raises(ValueError, match="sites"):
            estimate_energy(p, m, mode, 2, n_sweeps=10, n_warmup=2)
    with pytest.raises(ValueError, match="sites"):
        gradient_estimate(p, m, 2, n_sweeps=10, n_warmup=2)
    assert calls == {"boundary_absorb": 0, "_close_strip": 0}


# Work of the pinned instance below, per mode: (boundary_absorb calls,
# _close_strip calls). A chain per evaluator, each amplitude closed alone,
# made (32, 160) and (103, 210). A change that loses the shared memo or
# splits the stacked closures changes them.
WORK = {"fixed": (16, 82), "dynamic": (67, 131)}


@pytest.mark.parametrize("mode", ["fixed", "dynamic"])
def test_work_counts_are_pinned(monkeypatch, mode):
    """A seeded 3x3 OBC, D=2, chi=2 estimate of 2 chains x 20 sweeps makes
    exactly the pinned number of absorbs and closures."""
    p = random_peps(3, 3, 2, 2, seed=3)
    calls = count_calls(monkeypatch, "boundary_absorb", "_close_strip")
    estimate_energy(p, heisenberg(3, 3), mode, 2, n_sweeps=20, n_warmup=5, n_chains=2, seed=0)
    assert (calls["boundary_absorb"], calls["_close_strip"]) == WORK[mode]
