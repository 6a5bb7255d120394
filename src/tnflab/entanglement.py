"""Reduced density matrices, entanglement entropy, and dynamics series.

States are assembled from amplitude enumeration (all 2^L configurations, so
L is guarded) and the reduced density matrix of a contiguous region comes
from summing out the environment. Amplitudes from truncated contractions are
not normalized; the density matrix is normalized to unit trace after
assembly.

The two TNF routes evaluate every configuration in lock step, each chain
bit for bit as alone. ``tnf_transverse`` fills one table per time with
:func:`tnflab.floquet.transverse_table`, which absorbs each row into the
boundaries of all prefixes at once. ``tnf_inverse`` runs the configurations
in blocks of :func:`tnflab.floquet.inverse_time_block` bra chains, blocks
outer and times inner, through :func:`tnflab.floquet.inverse_time_series`.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import DataError, ResourceLimitError
from .floquet import (
    MAX_DENSE_SITES,
    FloquetParams,
    config_index,
    conventional_states,
    exact_states,
    inverse_time_block,
    inverse_time_series,
    mpo_amplitude,
    mpo_states,
    tnf_amplitude_inverse_time,  # noqa: F401  a binding perfbench/tracer.py requires
    tnf_amplitude_transverse,  # noqa: F401  a binding perfbench/tracer.py requires
    transverse_amplitudes,
    transverse_table,
)
from .mps import mps_amplitude
from .peps import _check_chi, as_config
from .tensor import AmplitudeValue

__all__ = [
    "EntanglementData",
    "dense_state_from_amplitudes",
    "rdm_from_amplitudes",
    "rdm_from_dense",
    "entropy_and_spectrum",
    "entanglement_dynamics",
    "bulk_entropy_sweep",
    "METHODS",
]

_TRACE_TOL = 1e-6
METHODS = ("exact", "mps", "tnf_transverse", "tnf_inverse", "mpo")


def dense_state_from_amplitudes(amplitude_fn: Callable, n_sites: int) -> np.ndarray:
    """Enumerate all 2^L amplitudes into a dense vector (site 0 most
    significant), rescaled by the largest log factor; not normalized."""
    return _dense_state([amplitude_fn(cfg) for cfg in _configs(n_sites)])


def _configs(n_sites: int) -> np.ndarray:
    """All 2^L configurations in index order, one per row."""
    if n_sites > MAX_DENSE_SITES:
        raise ResourceLimitError(f"amplitude enumeration guarded to {MAX_DENSE_SITES} sites")
    return (np.arange(1 << n_sites, dtype=np.int64)[:, None] >> np.arange(n_sites - 1, -1, -1)) & 1


def _dense_state(amps: list[AmplitudeValue]) -> np.ndarray:
    """Amplitudes in index order as :func:`dense_state_from_amplitudes` returns them."""
    logs = [None if a.is_zero else a.log_scale for a in amps]
    top = max((lg for lg in logs if lg is not None), default=-math.inf)
    return np.array([0j if lg is None else a.mantissa * math.exp(lg - top) for a, lg in zip(amps, logs)],
                    dtype=complex)


def _inverse_tables(params: FloquetParams, chi: int, t_max: int) -> list[list[AmplitudeValue]]:
    """``tnf_inverse`` amplitudes of all configurations in index order, one list
    per t = 0..t_max: lock-step blocks outer, times inner."""
    configs = _configs(params.n_sites)
    size = inverse_time_block(params, chi, t_max)
    tables: list[list[AmplitudeValue]] = [[] for _ in range(t_max + 1)]
    for start in range(0, len(configs), size):
        for table, amps in zip(tables, inverse_time_series(params, chi, configs[start : start + size])):
            table.extend(amps)
    return tables


def _inverse_amplitude(params: FloquetParams, chi: int, t: int) -> Callable:
    """``tnf_inverse`` at time ``t`` as a function of ``n``; the first call
    evaluates every configuration through :func:`_inverse_tables`."""
    table: list[AmplitudeValue] = []

    def amplitude(n) -> AmplitudeValue:
        if not table:
            table.extend(_inverse_tables(params, chi, t)[t])
        return table[config_index(as_config(n, params.n_sites, 2))]

    return amplitude


def rdm_from_dense(psi: np.ndarray, n_sites: int, region: tuple[int, int]) -> np.ndarray:
    """Reduced density matrix of the contiguous region (start, size),
    normalized to unit trace."""
    start, size = region
    if not (0 <= start and size >= 1 and start + size <= n_sites):
        raise ValueError(f"region {region} not contiguous within {n_sites} sites")
    before = 1 << start
    inside = 1 << size
    after = 1 << (n_sites - start - size)
    block = psi.reshape(before, inside, after)
    rho = np.einsum("xay,xby->ab", block, np.conj(block))
    tr = float(np.real(np.trace(rho)))
    if tr <= 0:
        raise DataError("state has zero norm; no density matrix")
    return rho / tr


def rdm_from_amplitudes(
    amplitude_fn: Callable, n_sites: int, region: tuple[int, int]
) -> np.ndarray:
    """Density matrix of a contiguous region from enumerated amplitudes."""
    psi = dense_state_from_amplitudes(amplitude_fn, n_sites)
    return rdm_from_dense(psi, n_sites, region)


def entropy_and_spectrum(rho: np.ndarray, top: int = 40) -> tuple[float, np.ndarray, int]:
    """Von Neumann entropy (natural log) and the descending spectrum.

    Eigenvalues are clipped at zero inside the entropy sum; the returned
    count reports how many were clipped. The spectrum keeps the ``top``
    largest eigenvalues. Trace deviations beyond ``1e-6`` raise
    :class:`DataError`.
    """
    tr = float(np.real(np.trace(rho)))
    if abs(tr - 1.0) > _TRACE_TOL:
        raise DataError(f"density matrix trace {tr} deviates from 1")
    vals = np.linalg.eigvalsh(rho)[::-1]
    clipped = int(np.sum(vals < 0))
    pos = np.clip(vals, 0.0, None)
    nz = pos[pos > 0]
    entropy = float(-np.sum(nz * np.log(nz))) + 0.0  # avoid -0.0
    return entropy, vals[:top].copy(), clipped


def _amplitude_functions(params: FloquetParams, method: str, chi: int | None) -> Iterator[Callable]:
    """Configuration -> AmplitudeValue for one method at t = 0, 1, ...: a state
    route advances its state one period per t, and each TNF route evaluates
    every configuration in lock step on its first call at a time. Raises
    ``ValueError`` for an unknown method, or a truncated method without a
    positive integer ``chi``."""
    _check_method(method, chi)
    if method == "exact":
        return (partial(_dense_amplitude, psi) for psi in exact_states(params))
    if method == "mps":
        return (partial(_mps_amplitude, *state) for state in conventional_states(params, chi))
    if method == "mpo":
        return (partial(mpo_amplitude, *state) for state in mpo_states(params, chi))
    if method == "tnf_transverse":
        return transverse_amplitudes(params, chi)
    return map(partial(_inverse_amplitude, params, chi), itertools.count())


def _check_method(method: str, chi: int | None) -> None:
    """Raise ``ValueError`` for an unknown method, or a truncated method
    without a positive integer ``chi``."""
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    if method != "exact":
        try:
            _check_chi(chi)
        except ValueError as err:
            raise ValueError(f"truncated methods need a positive chi: {err}") from None


def _amplitude_function(params: FloquetParams, method: str, chi: int | None, t: int) -> Callable:
    """The function of :func:`_amplitude_functions` at time ``t``."""
    fns = _amplitude_functions(params, method, chi)
    if t < 0:
        raise ValueError(f"number of periods must be nonnegative, got {t}")
    return next(itertools.islice(fns, t, None))


def _dense_amplitude(psi: np.ndarray, cfg) -> AmplitudeValue:
    return AmplitudeValue.from_parts(complex(psi.flat[config_index(cfg)]))


def _mps_amplitude(sites: list[np.ndarray], log: float, cfg) -> AmplitudeValue:
    return AmplitudeValue.from_parts(mps_amplitude(sites, cfg), log)


@dataclass
class EntanglementData:
    """Entropy and spectrum series over Floquet steps for one method."""

    method: str
    chi: int | None
    times: list[int] = field(default_factory=list)
    entropies: list[float] = field(default_factory=list)
    spectra: list[np.ndarray] = field(default_factory=list)


def entanglement_dynamics(
    params: FloquetParams, method: str, chi: int | None = None
) -> EntanglementData:
    """Entropy S(t) and the 40 largest eigenvalues of the left half chain
    (sites ``0 .. L//2 - 1``) for t = 0..t_max with one amplitude method.

    Truncated methods give unnormalized states; each density matrix is
    normalized before the entropy is taken. An unknown method, or a
    truncated one without a positive ``chi``, raises ``ValueError``.
    """
    n = params.n_sites
    out = EntanglementData(method=method, chi=None if method == "exact" else chi)
    _check_method(method, chi)
    if method == "tnf_inverse":  # configuration blocks outer, times inner
        states = map(_dense_state, _inverse_tables(params, chi, params.t_max))
    elif method == "tnf_transverse":
        # One table per time, one alive at a time, read in index order: looking
        # each configuration up through transverse_amplitudes instead took 31 ms
        # against 26 ms at L=8, t_max=4, chi=2 (one core of a 2-vCPU Xeon VM).
        states = (_dense_state(transverse_table(params, chi, t)) for t in range(params.t_max + 1))
    else:  # one state per time, one alive at a time
        fns = itertools.islice(_amplitude_functions(params, method, chi), params.t_max + 1)
        states = (dense_state_from_amplitudes(fn, n) for fn in fns)
    for t, psi in enumerate(states):
        rho = rdm_from_dense(psi, n, (0, n // 2))
        s, spec, _ = entropy_and_spectrum(rho)
        out.times.append(t)
        out.entropies.append(s)
        out.spectra.append(spec)
    return out


def bulk_entropy_sweep(
    params: FloquetParams,
    method: str,
    t: int,
    chi: int | None = None,
    sizes: Sequence[int] | None = None,
) -> list[tuple[int, float]]:
    """Entropy of centered bulk regions versus region size at fixed time,
    the volume-law/area-law diagnostic. Raises ``ValueError`` as
    :func:`entanglement_dynamics` does, and for a negative ``t``."""
    n = params.n_sites
    if sizes is None:
        sizes = range(1, n)
    fn = _amplitude_function(params, method, chi, t)
    psi = dense_state_from_amplitudes(fn, n)
    out = []
    for size in sizes:
        start = (n - size) // 2
        rho = rdm_from_dense(psi, n, (start, size))
        s, _, _ = entropy_and_spectrum(rho)
        out.append((size, s))
    return out
