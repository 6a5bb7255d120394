"""Markov-chain Monte Carlo over tensor network amplitudes.

Energy and gradient estimators follow the standard importance-sampling form:
configurations are drawn with probability proportional to the squared
amplitude modulus, the per-configuration local energy sums amplitude ratios
over the configurations reachable by one two-site term, and moves exchange
antiparallel nearest-neighbor pairs so the total magnetization is conserved.
One sweep proposes every such pair once, in a fixed order; observables are
measured after each sweep.

Both amplitude semantics plug in through a small evaluator interface:
``peek(n)`` returns the amplitude without touching history and
``commit(n, amp)`` records an accepted move (a no-op for the fixed
schedule). Gradients are defined for the fixed schedule only and use central
finite differences of the log-amplitude, which is well defined because the
fixed-schedule amplitude is deterministic and piecewise smooth.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from itertools import combinations
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import NumericalAbortError
from .models import Model, neel_config, nn_pairs
from .peps import (
    DynamicCache,
    FixedEvaluator,
    FixedPlan,
    Peps,
    peps_from_params,
    peps_to_params,
)
from .tensor import AmplitudeValue

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

# Finite-difference step for log-derivatives: relative, with absolute floor.
FD_STEP_REL = 1e-5
FD_STEP_FLOOR = 1e-7
# Discarded-weight jump between probes that marks a truncation degeneracy.
DEGENERACY_JUMP = 0.1
# Sweeps per block in the blocking estimate of an energy's standard error.
BLOCK_LEN = 50


def local_energy(model: Model, amplitude_fn: Callable, n) -> complex:
    """E_loc(n): sum over configurations one Hamiltonian term away.

    ``amplitude_fn`` maps a configuration to an :class:`AmplitudeValue`.
    Ratios come from the mantissa/log pairs; connected configurations with
    zero amplitude contribute nothing. Requires a nonzero amplitude at ``n``.
    """
    cfg = np.asarray(n, dtype=np.int64).reshape(-1)
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

    ``evaluator`` owns any dynamic-contraction cache; one chain, one cache,
    never shared between threads.
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
        ratio = amp1.abs_ratio_sq(chain.amp) if not amp1.is_zero else 0.0
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


def _blocking_stderr(values: np.ndarray, block_len: int) -> float:
    n = values.size
    if n < 2:
        return 0.0
    n_blocks = n // block_len
    if n_blocks >= 2:
        blocks = values[: n_blocks * block_len].reshape(n_blocks, block_len).mean(axis=1)
        return float(np.std(blocks, ddof=1) / math.sqrt(n_blocks))
    return float(np.std(values, ddof=1) / math.sqrt(n))


def _chain_args(model: Model, n_sweeps: int, n_warmup: int | None, initial_config):
    """Checked warm-up length and start configuration of a chain."""
    if n_sweeps < 1:
        raise ValueError("n_sweeps must be positive")
    if n_warmup is None:
        # 10% of the run with a floor of 100 sweeps, but never starve short
        # runs: at most half the sweeps go to warmup.
        n_warmup = min(max(100, n_sweeps // 10), n_sweeps // 2)
    if not 0 <= n_warmup < n_sweeps:
        raise ValueError(f"warmup {n_warmup} must be in [0, n_sweeps)")
    if initial_config is None:
        initial_config = neel_config(model.rows, model.cols)
    return n_warmup, np.asarray(initial_config, dtype=np.int64).reshape(-1)


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
    order. ``n_threads`` is accepted and ignored: a thread pool made runs
    slower, since the GIL serializes the small numpy calls. A non-finite
    mean raises :class:`NumericalAbortError`.
    """
    n_warmup, cfg0 = _chain_args(model, n_sweeps, n_warmup, initial_config)
    series = []
    accepted = proposed = 0
    for k in range(n_chains):
        evaluator = _make_evaluator(peps, mode, chi)
        energies = []
        for chain in _chain_samples(evaluator, model, n_sweeps, n_warmup, seed, k, cfg0):
            energies.append(local_energy(model, evaluator.peek, chain.config).real)
        series.append(np.array(energies))
        accepted += chain.accepted
        proposed += chain.proposed
    all_vals = np.concatenate(series)
    mean = float(np.mean(all_vals))
    if not math.isfinite(mean):
        raise NumericalAbortError(f"energy estimate is not finite: {mean}")
    block_errs = [_blocking_stderr(s, BLOCK_LEN) for s in series]
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


def _sector_weights(
    amplitude_fn: Callable, n_sites: int, n_down: int
) -> list[tuple[np.ndarray, float]]:
    """(configuration, weight) over a magnetization sector in lexicographic
    order of the down sites; the weight is the squared amplitude modulus
    relative to the largest, and zero amplitudes are left out."""
    amps = []
    for downs in combinations(range(n_sites), n_down):
        cfg = np.zeros(n_sites, dtype=np.int64)
        cfg[list(downs)] = 1
        amp = amplitude_fn(cfg)
        if not amp.is_zero:
            amps.append((cfg, amp))
    max_log = max((amp.log_scale for _, amp in amps), default=-math.inf)
    return [
        (cfg, abs(amp.mantissa) ** 2 * math.exp(2.0 * (amp.log_scale - max_log)))
        for cfg, amp in amps
    ]


def enumerate_energy(
    amplitude_fn: Callable, model: Model, n_down: int | None = None
) -> float:
    """Rayleigh quotient over a full magnetization sector (no sampling).

    Enumerates every configuration in the sector, weights by the squared
    amplitude modulus, and averages the local energy. Matches the sampled
    estimator in the infinite-statistics limit and the sector-projected
    expectation value exactly.
    """
    if n_down is None:
        n_down = model.n_sites // 2
    num = 0.0
    den = 0.0
    for cfg, w in _sector_weights(amplitude_fn, model.n_sites, n_down):
        num += w * local_energy(model, amplitude_fn, cfg).real
        den += w
    if den == 0.0:
        raise ValueError("state has no weight in the requested sector")
    return num / den


@dataclass
class GradientInfo:
    energy: float
    n_samples: int
    zeroed_params: int


def _log_derivatives(
    evaluator: FixedEvaluator, peps: Peps, cfg: np.ndarray
) -> tuple[np.ndarray, int]:
    """O_k(n) = d ln amp / d theta_k by central differences, all parameters
    in the order of :func:`peps_to_params`.

    Probes with a truncation-degeneracy signature (discarded-weight jump
    above ``DEGENERACY_JUMP`` between the two probes) get O_k = 0.
    """
    out = np.zeros(peps_to_params(peps).size, dtype=complex)
    zeroed = 0
    k = 0
    for r in range(peps.rows):
        for c in range(peps.cols):
            t = peps.sites[r][c]
            size = t.size
            for part in (1.0, 1.0j):
                for e in range(size):
                    base = t.flat[e]
                    mag = abs(base.real if part == 1.0 else base.imag)
                    h = max(FD_STEP_REL * mag, FD_STEP_FLOOR)
                    tp = t.copy()
                    tp.flat[e] = base + part * h
                    tm = t.copy()
                    tm.flat[e] = base - part * h
                    sp: dict = {}
                    sm: dict = {}
                    ap = evaluator.amplitude_with_site(cfg, (r, c), tp, sp)
                    am = evaluator.amplitude_with_site(cfg, (r, c), tm, sm)
                    jump = abs(sp.get("max_discarded", 0.0) - sm.get("max_discarded", 0.0))
                    if ap.is_zero or am.is_zero or jump > DEGENERACY_JUMP:
                        zeroed += 1
                    else:
                        ratio = (ap.mantissa / am.mantissa) * cmath.exp(
                            complex(ap.log_scale - am.log_scale)
                        )
                        out[k] = cmath.log(ratio) / (2.0 * h)
                    k += 1
    return out, zeroed


def gradient_estimate(
    peps: Peps,
    model: Model,
    chi: int,
    n_sweeps: int = 200,
    n_warmup: int | None = None,
    seed: int = 0,
    sampling: str = "metropolis",
    initial_config=None,
) -> tuple[np.ndarray, GradientInfo]:
    """Energy gradient over the flattened parameters (fixed schedule only).

    g_k = 2 Re(<E_loc O_k*> - <E_loc><O_k*>) with O_k the log-derivative of
    the amplitude. ``sampling`` is ``"metropolis"`` or ``"enumerate"`` (full
    sector enumeration, exact weights; for small lattices and tests). The
    Metropolis chain is chain 0 of :func:`estimate_energy` with the same
    seed. A non-finite energy raises :class:`NumericalAbortError`.
    """
    evaluator = FixedEvaluator(peps, FixedPlan.for_lattice(peps.rows, peps.cols, chi))
    n_params = peps_to_params(peps).size

    sum_w = 0.0
    sum_e = 0.0
    sum_o = np.zeros(n_params, dtype=complex)
    sum_eo = np.zeros(n_params, dtype=complex)
    zeroed = 0
    n_samples = 0

    def accumulate(cfg: np.ndarray, w: float):
        nonlocal sum_w, sum_e, zeroed, n_samples
        # E_loc is complex per configuration (only its average is real);
        # the gradient needs the full complex value against O_k*.
        e = local_energy(model, evaluator.peek, cfg)
        o, z = _log_derivatives(evaluator, peps, cfg)
        oc = np.conj(o)
        sum_w += w
        sum_e += w * e.real
        sum_o[:] += w * oc
        sum_eo[:] += w * e * oc
        zeroed += z
        n_samples += 1

    if sampling == "enumerate":
        for cfg, w in _sector_weights(evaluator.peek, model.n_sites, model.n_sites // 2):
            accumulate(cfg, w)
    elif sampling == "metropolis":
        n_warmup, cfg0 = _chain_args(model, n_sweeps, n_warmup, initial_config)
        for chain in _chain_samples(evaluator, model, n_sweeps, n_warmup, seed, 0, cfg0):
            accumulate(chain.config, 1.0)
    else:
        raise ValueError(f"unknown sampling {sampling!r}")

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
    n_warmup: int | None = None,
    sampling: str = "metropolis",
) -> tuple[Peps, list[float]]:
    """Stochastic gradient descent on the flattened tensors.

    Returns the best-energy state seen and the per-iteration energy trace.
    Aborts with :class:`NumericalAbortError` when the energy rises more than
    ten times its initial magnitude above the start.
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
            n_warmup=n_warmup,
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
