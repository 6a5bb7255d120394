"""Markov-chain Monte Carlo over tensor network amplitudes.

Energy and gradient estimators follow the standard importance-sampling form:
configurations are drawn with probability proportional to the squared
amplitude modulus, the per-configuration local energy sums amplitude ratios
over the configurations reachable by one two-site term, and moves exchange
antiparallel nearest-neighbor pairs so the total magnetization is conserved.
One sweep proposes every such pair once, in a fixed order; observables are
measured after each sweep. Exact energies and gradients use :class:`tnflab.ed.Sector`.

The chain loop (:func:`metropolis_sweep`) keeps the whole Markov history:
a chain's checked configuration and its amplitude. The two amplitude
semantics differ in one rule, the evaluator's ``closure_row(site)``, the
row a contraction closes at when ``site`` is the last site a move changed
(``max(i, j)`` for an exchange of ``(i, j)``, ``n_sites - 1`` for a chain's
first configuration): ``plan.mid`` for the fixed schedule, ``site // cols``
(the last row that differs from the chain's configuration) for the dynamic
one. Proposals and local-energy neighbours both follow it; a sample's
neighbours close their memo misses in stacked closures. One evaluator, so
one memo, serves every chain of an estimate; its keys (a side and the rows
it covers; a closure row and the configuration) are pure, so a chain reads
the bits it would compute itself.

Gradients are defined for the fixed schedule only, where the
amplitude is one deterministic, piecewise smooth function of the tensors.
The estimator needs one weighted sum of the log-derivatives, so it is one
exact reverse-mode vector-Jacobian product of ``ln psi`` over the distinct
configurations of the sample (:func:`tnflab.peps.fixed_table_vjp`): one
taped walk and one reverse pass, no per-configuration derivatives and no
memo of them. Parameters of rows that feed a truncation
whose boundary singular values are degenerate (relative gap below
:data:`tnflab.adjoint.TRUNCATION_GAP`), or a rank-deficient boundary, have no
derivative there; they get 0 and are counted in
:attr:`GradientInfo.zeroed_params`.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence

import numpy as np

from .ed import Sector, sector_hamiltonian
from .errors import NumericalAbortError
from .models import Model, neel_config, nn_pairs
from .peps import (
    DynamicCache,
    FixedEvaluator,
    FixedPlan,
    Peps,
    as_config,
    fixed_table,
    fixed_table_vjp,
    peps_from_params,
    peps_to_params,
)
from .tensor import AmplitudeValue, rescaled

__all__ = [
    "ChainState",
    "EnergyEstimate",
    "local_energy",
    "metropolis_sweep",
    "estimate_energy",
    "enumerate_energy",
    "gradient_estimate",
    "GradientInfo",
    "sgd_optimize",
]

# Sweeps per block in the blocking estimate of an energy's standard error.
BLOCK_LEN = 50


def _local_energy(model: Model, cfg: np.ndarray, amp0: AmplitudeValue, amps: Iterator) -> complex:
    """The E_loc sum of the checked ``cfg`` of amplitude ``amp0``; ``amps``
    yields the amplitude after each antiparallel coupling's exchange, in order."""
    if amp0.is_zero:
        raise ValueError("local energy undefined on a zero-amplitude configuration")
    e = 0.0 + 0.0j
    for i, j, c in model.couplings:
        if cfg[i] == cfg[j]:
            e += 0.25 * c
        else:
            e -= 0.25 * c
            amp1 = next(amps)
            if not amp1.is_zero:
                e += 0.5 * c * amp1.ratio(amp0)
    return e


def local_energy(model: Model, amplitude_fn: Callable, n) -> complex:
    """E_loc(n): sum over configurations one Hamiltonian term away.

    ``amplitude_fn`` maps a configuration to an :class:`AmplitudeValue`.
    Ratios come from the mantissa/log pairs; connected configurations with
    zero amplitude contribute nothing. Requires a nonzero amplitude at ``n``.
    ``n`` is read by :func:`tnflab.mps.as_config`, so an entry that is not an
    integer in ``[0, 2)`` raises ``ValueError``.
    """
    cfg = as_config(n, model.n_sites, 2)
    sites = np.arange(cfg.size)  # an exchange of an antiparallel pair flips both
    moved = (cfg ^ ((sites == i) | (sites == j)) for i, j, _ in model.couplings if cfg[i] != cfg[j])
    return _local_energy(model, cfg, amplitude_fn(cfg), map(amplitude_fn, moved))


@dataclass
class ChainState:
    """One Markov chain: configuration, its amplitude, RNG, and evaluator.

    The configuration is the chain's whole history; the evaluator gives its
    closure-row rule and memo, and may serve the chains of an estimate one
    after another. It is never shared between threads.
    """

    config: np.ndarray
    amp: AmplitudeValue
    rng: np.random.Generator
    evaluator: object
    accepted: int = 0
    proposed: int = 0


def metropolis_sweep(chain: ChainState, move_schedule: Sequence[tuple[int, int]]) -> ChainState:
    """One pass over the move schedule, exchanging antiparallel pairs.

    Acceptance probability is min(1, |amp1/amp0|^2); proposals into
    zero-amplitude configurations are always rejected. The proposal of
    ``(i, j)`` closes at the evaluator's ``closure_row(max(i, j))``.
    ``chain.config`` is read by :func:`tnflab.mps.as_config`. Mutates and
    returns ``chain``.
    """
    ev = chain.evaluator
    cfg = chain.config = as_config(chain.config, ev.peps.n_sites, ev.peps.phys_dim)
    for i, j in move_schedule:
        if cfg[i] == cfg[j]:
            continue
        chain.proposed += 1
        n1 = cfg.copy()
        n1[i], n1[j] = n1[j], n1[i]
        amp1 = ev._closed(n1, ev.closure_row(max(i, j)))
        ratio = amp1.abs_ratio_sq(chain.amp)
        if ratio >= 1.0 or chain.rng.random() < ratio:
            chain.accepted += 1
            chain.config = cfg = n1
            chain.amp = amp1
    return chain


@dataclass
class EnergyEstimate:
    """Monte Carlo energy with blocking error bars.

    ``mean``/``stderr`` are total energies; per-site values divide by the
    site count. ``series`` keeps the per-sweep local energies of every chain
    for diagnostics.
    """

    mean: float
    stderr: float
    n_samples: int
    n_sites: int
    series: list[np.ndarray]
    acceptance: float
    warnings: list[str] = field(default_factory=list)

    @property
    def per_site(self) -> float:
        return self.mean / self.n_sites


def _make_evaluator(peps: Peps, mode: str, chi: int):
    if mode == "fixed":
        return FixedEvaluator(peps, FixedPlan.for_lattice(peps.rows, peps.cols, chi))
    if mode == "dynamic":
        return DynamicCache(peps, chi)
    raise ValueError(f"mode must be 'fixed' or 'dynamic', got {mode!r}")


def _chain_rng(seed: int, chain: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, chain]))


def _blocking_stderr(values: np.ndarray) -> float:
    n = values.size
    if n < 2:
        return 0.0
    n_blocks = n // BLOCK_LEN
    if n_blocks >= 2:
        blocks = values[: n_blocks * BLOCK_LEN].reshape(n_blocks, BLOCK_LEN).mean(axis=1)
        return float(np.std(blocks, ddof=1) / math.sqrt(n_blocks))
    return float(np.std(values, ddof=1) / math.sqrt(n))


def _check_count(name: str, value, least: int) -> None:
    """Raise ``ValueError`` naming ``name`` unless ``value`` is an integer
    (not a bool) of at least ``least``."""
    if isinstance(value, bool) or not hasattr(value, "__index__") or value < least:
        raise ValueError(f"{name} must be an integer of at least {least}, got {value!r}")


def _chain_args(peps: Peps, model: Model, n_sweeps: int, n_warmup: int | None, initial_config=None):
    """Checked warm-up length and start configuration of a chain of
    ``model`` on ``peps``, which must have the model's site count."""
    if model.n_sites != peps.n_sites:
        raise ValueError(f"model has {model.n_sites} sites, state has {peps.n_sites}")
    _check_count("n_sweeps", n_sweeps, 1)
    if n_warmup is None:
        # 10% of the run with a floor of 100 sweeps, but never starve short
        # runs: at most half the sweeps go to warmup.
        n_warmup = min(max(100, n_sweeps // 10), n_sweeps // 2)
    _check_count("n_warmup", n_warmup, 0)
    if n_warmup >= n_sweeps:
        raise ValueError(f"n_warmup must be below n_sweeps ({n_sweeps}), got {n_warmup}")
    if initial_config is None:
        initial_config = neel_config(model.rows, model.cols)
    return n_warmup, as_config(initial_config, model.n_sites, 2)


def _chain_samples(
    evaluator,
    model: Model,
    n_sweeps: int,
    n_warmup: int,
    seed: int,
    chain_index: int,
    cfg0: np.ndarray,
) -> Iterator[ChainState]:
    """Yield the chain after each post-warm-up sweep.

    The chain starts at the checked ``cfg0`` and draws from the (seed,
    chain-index) stream; the same state object is yielded every time, so
    read what you need before advancing.
    """
    amp0 = evaluator._closed(cfg0, evaluator.closure_row(cfg0.size - 1))
    if amp0.is_zero:
        raise ValueError("initial configuration has zero amplitude; pass initial_config")
    chain = ChainState(cfg0.copy(), amp0, _chain_rng(seed, chain_index), evaluator)
    schedule = nn_pairs(model.rows, model.cols, model.boundary)
    for sweep in range(n_sweeps):
        metropolis_sweep(chain, schedule)
        if sweep >= n_warmup:
            yield chain


def _chain_energies(evaluator, model: Model, *chain_args) -> Iterator[tuple[ChainState, complex]]:
    """Yield the chain of :func:`_chain_samples` (same arguments after
    ``model``) and its local energy after each post-warm-up sweep. Each
    sample's neighbours close at their exchange's closure row, their memo
    misses in stacked closures with the bits each gives alone."""
    i, j = np.array([(i, j) for i, j, _ in model.couplings], np.int64).reshape(-1, 2).T
    # Exchanging an antiparallel pair of spins flips both: XOR with the pair's mask.
    pair = np.arange(len(i))
    masks = np.zeros((len(i), model.n_sites), np.uint8)
    masks[pair, i] = masks[pair, j] = 1
    rows = np.array([evaluator.closure_row(site) for site in np.maximum(i, j).tolist()], np.int64)
    for chain in _chain_samples(evaluator, model, *chain_args):
        cfg = chain.config
        moves = np.flatnonzero(cfg[i] != cfg[j])
        amps = evaluator._close_misses(cfg.astype(np.uint8) ^ masks[moves], rows[moves].tolist())
        yield chain, _local_energy(model, cfg, chain.amp, iter(amps))


def estimate_energy(
    peps: Peps,
    model: Model,
    mode: str,
    chi: int,
    n_sweeps: int,
    n_warmup: int | None = None,
    n_chains: int = 1,
    seed: int = 0,
    initial_config=None,
    n_threads: int = 1,
) -> EnergyEstimate:
    """Average E_loc over post-warmup sweeps across independent chains.

    Deterministic for fixed (seed, n_chains): every chain draws from its own
    (seed, chain-index) stream and chains run one after another in index
    order, all reading one evaluator's memo. Each chain's series is, bit for
    bit, the one it gives alone on a fresh evaluator. A ``model`` of
    another site count than ``peps`` raises ``ValueError``. ``n_sweeps`` (at least 1),
    ``n_warmup`` (below ``n_sweeps``; ``None`` picks 10% of the run, at
    least 100 sweeps and at most half) and ``n_chains`` (at least 1) must
    be integers, not bools. ``n_threads`` is accepted and ignored: a thread
    pool made runs slower, since the GIL serializes the small numpy calls.
    A non-finite mean raises :class:`NumericalAbortError`.
    """
    _check_count("n_chains", n_chains, 1)
    n_warmup, cfg0 = _chain_args(peps, model, n_sweeps, n_warmup, initial_config)
    evaluator = _make_evaluator(peps, mode, chi)
    series = []
    accepted = proposed = 0
    for k in range(n_chains):
        energies = []
        for chain, e in _chain_energies(evaluator, model, n_sweeps, n_warmup, seed, k, cfg0):
            energies.append(e.real)
        series.append(np.array(energies))
        accepted += chain.accepted
        proposed += chain.proposed
    all_vals = np.concatenate(series)
    mean = float(np.mean(all_vals))
    if not math.isfinite(mean):
        raise NumericalAbortError(f"energy estimate is not finite: {mean}")
    block_errs = [_blocking_stderr(s) for s in series]
    # Chains are independent; their squared errors add in quadrature.
    stderr = math.sqrt(sum(e**2 for e in block_errs)) / max(1, len(block_errs))
    warnings = []
    if proposed > 0 and accepted == 0:
        warnings.append("frozen chain: every proposal was rejected")
    return EnergyEstimate(
        mean=mean,
        stderr=stderr,
        n_samples=all_vals.size,
        n_sites=model.n_sites,
        series=series,
        acceptance=(accepted / proposed) if proposed else 0.0,
        warnings=warnings,
    )


def _sector_state(peps: Peps, model: Model, plan: FixedPlan):
    """The configurations of ``Sector(model.n_sites)``, their amplitudes ``psi``
    at the largest amplitude's scale (one :func:`tnflab.peps.fixed_table`),
    ``H psi`` and the Rayleigh quotient."""
    configs = Sector(model.n_sites).configs
    psi = rescaled(*fixed_table(peps, plan, configs))
    h_psi = sector_hamiltonian(model) @ psi
    norm = np.vdot(psi, psi).real
    if norm == 0.0:
        raise ValueError("state has no weight in the requested sector")
    return configs, psi, h_psi, float(np.vdot(psi, h_psi).real / norm)


def enumerate_energy(peps: Peps, model: Model, chi: int) -> float:
    """Rayleigh quotient over the half-filling sector (no sampling).

    Contracts every configuration in the sector the chains walk on the fixed
    schedule of :func:`estimate_energy`'s ``"fixed"`` mode into one amplitude
    vector ``psi`` and returns ``<psi|H|psi> / <psi|psi>`` with the sector
    Hamiltonian: the sampled estimator's infinite-statistics limit.
    """
    return _sector_state(peps, model, FixedPlan.for_lattice(peps.rows, peps.cols, chi))[3]


@dataclass
class GradientInfo:
    energy: float
    n_samples: int
    zeroed_params: int


def gradient_estimate(
    peps: Peps,
    model: Model,
    chi: int,
    n_sweeps: int = 200,
    n_warmup: int | None = None,
    seed: int = 0,
    sampling: str = "metropolis",
) -> tuple[np.ndarray, GradientInfo]:
    """Energy gradient over the flattened parameters (fixed schedule only).

    g_k = 2 Re sum_n c_n conj(O_k(n)) with c_n = w_n (E_loc(n) - <E_loc>) / sum_n w_n and
    O_k = d ln psi / d theta_k the exact reverse-mode log-derivative, over the distinct
    configurations ``n`` of the sample: one vector-Jacobian product of ``ln psi`` seeded with
    ``2 c_n``, which :func:`tnflab.peps.fixed_table_vjp` computes in one taped walk and one
    reverse pass over the sample's table. ``sampling="enumerate"`` (small lattices and tests)
    takes each sector configuration of nonzero weight ``w_n = |psi_n|^2``, with
    ``E_loc = (H psi)_n / psi_n`` and ``<E_loc>`` = :func:`enumerate_energy`, all from one
    amplitude vector. ``"metropolis"`` takes the distinct configurations of chain 0 of
    :func:`estimate_energy` with the same seed, from the Neel configuration, on a model with
    the state's site count, each weighted by its visit count; ``<E_loc>`` averages
    :func:`local_energy` over the samples in chain order. ``zeroed_params`` sums, over
    samples, the parameters left at 0 because they feed a degenerate truncation. A
    non-finite energy raises :class:`NumericalAbortError`.
    """
    plan = FixedPlan.for_lattice(peps.rows, peps.cols, chi)
    if sampling == "enumerate":
        configs, psi, h_psi, e_mean = _sector_state(peps, model, plan)
        weights = np.abs(psi) ** 2
        live = np.flatnonzero(weights)
        table, counts, w, e_loc = configs[live], np.ones(len(live), np.int64), weights[live], h_psi[live] / psi[live]
    elif sampling == "metropolis":
        n_warmup, cfg0 = _chain_args(peps, model, n_sweeps, n_warmup)
        chain = _chain_energies(FixedEvaluator(peps, plan), model, n_sweeps, n_warmup, seed, 0, cfg0)
        # E_loc is a pure function of the configuration on the fixed schedule: one per distinct one.
        seen: dict[bytes, int] = {}
        rows, energies, visits = [], [], []
        sum_e = 0.0
        for sample, e in chain:
            k = seen.setdefault(sample.config.tobytes(), len(seen))
            if k == len(rows):
                rows.append(sample.config)
                energies.append(e)
                visits.append(0)
            visits[k] += 1
            sum_e += e.real
        table, counts, e_loc = np.array(rows), np.array(visits), np.array(energies)
        w, e_mean = counts.astype(float), sum_e / int(counts.sum())
    else:
        raise ValueError(f"unknown sampling {sampling!r}")
    if not math.isfinite(e_mean):
        raise NumericalAbortError(f"energy estimate is not finite: {e_mean}")
    grad, zeroed = fixed_table_vjp(peps, plan, table, 2.0 * w * (e_loc - e_mean) / w.sum())
    return grad, GradientInfo(energy=e_mean, n_samples=int(counts.sum()), zeroed_params=int(counts @ zeroed))


def sgd_optimize(
    peps: Peps,
    model: Model,
    chi: int,
    learning_rate: float,
    iterations: int,
    seed: int = 0,
    n_sweeps: int = 200,
    sampling: str = "metropolis",
) -> tuple[Peps, list[float]]:
    """Stochastic gradient descent on the flattened tensors.

    Returns the best-energy state seen and the per-iteration energy trace;
    each iteration's chain warms up by :func:`gradient_estimate`'s default
    rule. Aborts with :class:`NumericalAbortError` when the energy rises
    more than ten times its initial magnitude above the start. Bad ``iterations``
    or ``learning_rate`` (not a finite real) raise ``ValueError`` first.
    """
    _check_count("iterations", iterations, 0)
    real = isinstance(learning_rate, numbers.Real) and not isinstance(learning_rate, bool)
    if not (real and math.isfinite(learning_rate)):
        raise ValueError(f"learning_rate must be a finite real number, got {learning_rate!r}")
    params = peps_to_params(peps)
    current = peps
    trace: list[float] = []
    best_energy = math.inf
    best = peps
    e0 = None
    for it in range(iterations):
        grad, info = gradient_estimate(
            current,
            model,
            chi,
            n_sweeps=n_sweeps,
            seed=seed + it,
            sampling=sampling,
        )
        trace.append(info.energy)
        if e0 is None:
            e0 = info.energy
        if info.energy > e0 + 10.0 * abs(e0) + 1e-9:
            raise NumericalAbortError(
                f"energy diverged at iteration {it}: {info.energy:.6f} from {e0:.6f}"
            )
        if info.energy < best_energy:
            best_energy = info.energy
            best = current
        params = params - learning_rate * grad
        current = peps_from_params(peps, params)
    return best, trace
