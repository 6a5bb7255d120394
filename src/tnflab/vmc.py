"""Markov-chain Monte Carlo over tensor network amplitudes.

Energy and gradient estimators follow the standard importance-sampling form:
configurations are drawn with probability proportional to the squared
amplitude modulus, the per-configuration local energy sums amplitude ratios
over the configurations reachable by one two-site term, and moves exchange
antiparallel nearest-neighbor pairs so the total magnetization is conserved.
One sweep proposes every such pair once, in a fixed order; observables are
measured after each sweep. Exact energies and gradients use :class:`tnflab.ed.Sector`.

Both amplitude semantics plug in through a small evaluator interface:
``peek(n)`` returns the amplitude without touching history,
``commit(n, amp)`` records an accepted move (a no-op for the fixed
schedule) and ``prefetch(table)`` memoizes the amplitudes ``peek`` would
give a table of configurations, closing the memo's misses in stacked
closures; each sample's neighbours go through it before its local energy.
One evaluator, so one memo of environments and amplitudes, serves every
chain of an estimate. Both memo keys (a side and the rows it covers; a
closure row and the configuration) are pure, so a chain reads the bits it
would compute itself. A dynamic chain keeps its own history over the shared
memo, and that history starts cold at the chain's first configuration.

Gradients are defined for the fixed schedule only, where the
amplitude is one deterministic, piecewise smooth function of the tensors.
Its log-derivatives are exact reverse-mode derivatives
(:func:`tnflab.peps.log_derivatives`): one taped contraction and one reverse
pass per distinct configuration, while a byte-bounded memo holds it. Parameters of rows that feed a truncation
whose boundary singular values are degenerate (relative gap below
:data:`tnflab.adjoint.TRUNCATION_GAP`), or a rank-deficient boundary, have no
derivative there; they get 0 and are counted in
:attr:`GradientInfo.zeroed_params`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence

import numpy as np

from .ed import Sector, sector_hamiltonian
from .errors import NumericalAbortError
from .models import Model, neel_config, nn_pairs
from . import peps as peps_module
from .peps import (
    DynamicCache,
    FixedEvaluator,
    FixedPlan,
    Peps,
    as_config,
    fixed_table,
    log_derivatives,
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


def local_energy(model: Model, amplitude_fn: Callable, n) -> complex:
    """E_loc(n): sum over configurations one Hamiltonian term away.

    ``amplitude_fn`` maps a configuration to an :class:`AmplitudeValue`.
    Ratios come from the mantissa/log pairs; connected configurations with
    zero amplitude contribute nothing. Requires a nonzero amplitude at ``n``.
    ``n`` is read by :func:`tnflab.mps.as_config`, so an entry that is not an
    integer in ``[0, 2)`` raises ``ValueError``.
    """
    cfg = as_config(n, model.n_sites, 2)
    amp0 = amplitude_fn(cfg)
    if amp0.is_zero:
        raise ValueError("local energy undefined on a zero-amplitude configuration")
    e = 0.0 + 0.0j
    for i, j, c in model.couplings:
        if cfg[i] == cfg[j]:
            e += 0.25 * c
        else:
            e -= 0.25 * c
            n2 = cfg.copy()
            n2[i], n2[j] = n2[j], n2[i]
            amp1 = amplitude_fn(n2)
            if not amp1.is_zero:
                e += 0.5 * c * amp1.ratio(amp0)
    return e


@dataclass
class ChainState:
    """One Markov chain: configuration, its amplitude, RNG, and evaluator.

    ``evaluator`` may serve the chains of an estimate one after another; a
    dynamic cache then holds one chain's history at a time. It is never
    shared between threads.
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
    zero-amplitude configurations are always rejected. Mutates and returns
    ``chain``.
    """
    cfg = chain.config
    for i, j in move_schedule:
        if cfg[i] == cfg[j]:
            continue
        chain.proposed += 1
        n1 = cfg.copy()
        n1[i], n1[j] = n1[j], n1[i]
        amp1 = chain.evaluator.peek(n1)
        ratio = amp1.abs_ratio_sq(chain.amp)
        if ratio >= 1.0 or chain.rng.random() < ratio:
            chain.accepted += 1
            chain.evaluator.commit(n1, amp1)
            chain.config = n1
            chain.amp = amp1
            cfg = n1
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


def _chain_args(model: Model, n_sweeps: int, n_warmup: int | None, initial_config=None):
    """Checked warm-up length and start configuration of a chain."""
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

    The chain starts at ``cfg0`` (committed to the evaluator) and draws from
    the (seed, chain-index) stream; the same state object is yielded every
    time, so read what you need before advancing.
    """
    amp0 = evaluator.peek(cfg0)
    if amp0.is_zero:
        raise ValueError("initial configuration has zero amplitude; pass initial_config")
    evaluator.commit(cfg0, amp0)
    chain = ChainState(cfg0.copy(), amp0, _chain_rng(seed, chain_index), evaluator)
    schedule = nn_pairs(model.rows, model.cols, model.boundary)
    for sweep in range(n_sweeps):
        metropolis_sweep(chain, schedule)
        if sweep >= n_warmup:
            yield chain


def _chain_energies(evaluator, model: Model, *chain_args) -> Iterator[tuple[ChainState, complex]]:
    """Yield the chain of :func:`_chain_samples` (same arguments after
    ``model``) and its :func:`local_energy` after each post-warm-up sweep.

    The configuration and its neighbours one exchange away go to the
    evaluator's ``prefetch`` first, which closes the memo misses among them
    in stacked closures, so the local energy reads memo hits with the bits
    it would compute alone.
    """
    i, j = np.array([(i, j) for i, j, _ in model.couplings], np.int64).reshape(-1, 2).T
    # Exchanging an antiparallel pair of spins flips both: XOR with the pair's
    # mask. Row 0 flips nothing, so the table starts with the configuration.
    masks = np.zeros((len(i) + 1, model.n_sites), np.uint8)
    pair = np.arange(1, len(i) + 1)
    masks[pair, i] = masks[pair, j] = 1
    for chain in _chain_samples(evaluator, model, *chain_args):
        cfg = chain.config
        moves = np.flatnonzero(np.concatenate(([True], cfg[i] != cfg[j])))
        evaluator.prefetch(cfg.astype(np.uint8) ^ masks[moves])
        yield chain, local_energy(model, evaluator.peek, cfg)


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
    bit, the one it gives alone on a fresh evaluator; a dynamic chain's
    history starts cold, as on a fresh cache. ``n_sweeps`` (at least 1),
    ``n_warmup`` (below ``n_sweeps``; ``None`` picks 10% of the run, at
    least 100 sweeps and at most half) and ``n_chains`` (at least 1) must
    be integers, not bools. ``n_threads`` is accepted and ignored: a thread
    pool made runs slower, since the GIL serializes the small numpy calls.
    A non-finite mean raises :class:`NumericalAbortError`.
    """
    _check_count("n_chains", n_chains, 1)
    n_warmup, cfg0 = _chain_args(model, n_sweeps, n_warmup, initial_config)
    evaluator = _make_evaluator(peps, mode, chi)
    series = []
    accepted = proposed = 0
    for k in range(n_chains):
        if mode == "dynamic":
            evaluator.reset_history()
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

    g_k = 2 Re(<E_loc O_k*> - <E_loc><O_k*>) with O_k = d ln psi / d theta_k the exact
    reverse-mode log-derivative (:func:`tnflab.peps.log_derivatives`), computed once per
    distinct configuration. ``sampling="enumerate"`` (small lattices and tests) weights each sector
    configuration by ``|psi_k|^2``, with ``E_loc = (H psi)_k / psi_k`` and ``<E_loc>`` =
    :func:`enumerate_energy`, all from one amplitude vector. ``"metropolis"`` averages
    :func:`local_energy` over chain 0 of :func:`estimate_energy` with the same seed, from
    the Neel configuration. A repeated configuration reuses its ``O_k``, bit for bit, from a
    memo held under :data:`tnflab.peps.MEMO_MAX_BYTES`, which empties when a store would pass it.
    ``zeroed_params`` sums, over samples, the parameters left at 0 because they feed a
    degenerate truncation. A non-finite energy raises :class:`NumericalAbortError`.
    """
    plan = FixedPlan.for_lattice(peps.rows, peps.cols, chi)
    if sampling == "enumerate":
        configs, psi, h_psi, e_mean = _sector_state(peps, model, plan)
        weights = np.abs(psi) ** 2
        samples = ((configs[k], weights[k], h_psi[k] / psi[k]) for k in np.flatnonzero(weights))
    elif sampling == "metropolis":
        n_warmup, cfg0 = _chain_args(model, n_sweeps, n_warmup)
        chain = _chain_energies(FixedEvaluator(peps, plan), model, n_sweeps, n_warmup, seed, 0, cfg0)
        samples = ((s.config, 1.0, e) for s, e in chain)
    else:
        raise ValueError(f"unknown sampling {sampling!r}")

    n_params = peps_to_params(peps).size
    sum_w = 0.0
    sum_e = 0.0
    sum_o = np.zeros(n_params, dtype=complex)
    sum_eo = np.zeros(n_params, dtype=complex)
    zeroed = 0
    n_samples = 0
    # O_k(n) is a pure function of n. The memo counts each entry's key and
    # O_k bytes, and a store that would pass peps.MEMO_MAX_BYTES empties it.
    memo: dict[bytes, tuple[np.ndarray, int]] = {}
    memo_bytes = 0
    # E_loc is complex per configuration (only its average is real); the
    # gradient needs the full complex value against O_k*.
    for cfg, w, e in samples:
        if (key := cfg.tobytes()) in memo:
            o, z = memo[key]
        else:
            _, o, z = log_derivatives(peps, cfg, plan)
            size = len(key) + o.nbytes
            if memo_bytes + size <= peps_module.MEMO_MAX_BYTES:
                memo[key] = o, z
                memo_bytes += size
            else:
                memo, memo_bytes = {}, 0
        oc = np.conj(o)
        sum_w += w
        sum_e += w * e.real
        sum_o += w * oc
        sum_eo += w * e * oc
        zeroed += z
        n_samples += 1

    if sampling == "metropolis":
        e_mean = sum_e / sum_w
    if not math.isfinite(e_mean):
        raise NumericalAbortError(f"energy estimate is not finite: {e_mean}")
    o_mean = sum_o / sum_w
    eo_mean = sum_eo / sum_w
    grad = 2.0 * np.real(eo_mean - e_mean * o_mean)
    return grad, GradientInfo(energy=e_mean, n_samples=n_samples, zeroed_params=zeroed)


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
    more than ten times its initial magnitude above the start.
    """
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
