"""Reduced density matrices, entanglement entropy, and dynamics series.

States are assembled from amplitude enumeration (all 2^L configurations, so
L is guarded) and the reduced density matrix of a contiguous region comes
from summing out the environment. Amplitudes from truncated contractions are
not normalized; the density matrix is normalized to unit trace after
assembly.

Every method reaches its states through one stream of amplitude tables, all
2^L configurations in index order per time. The state routes advance one
state a period per time and read it out only at the times asked for, in one
stacked :func:`tnflab.mps.chain_values` pass over all prefixes; the
two TNF routes evaluate every configuration in lock step, each chain bit for
bit as alone. ``tnf_transverse`` fills one table per time with
:func:`tnflab.floquet.transverse_table`, one :func:`tnflab.peps.fixed_table`
walk that absorbs each distinct prefix once. ``tnf_inverse`` runs the
configurations in blocks of :func:`tnflab.floquet.inverse_time_block` bra
chains, blocks outer and times inner, through
:func:`tnflab.floquet.inverse_time_series`.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import DataError
from .floquet import (
    FloquetParams,
    _check_periods,
    _configs,
    conventional_states,
    exact_states,
    inverse_time_block,
    inverse_time_series,
    mpo_states,
    tnf_amplitude_inverse_time,  # noqa: F401  a binding perfbench/tracer.py requires
    tnf_amplitude_transverse,  # noqa: F401  a binding perfbench/tracer.py requires
    transverse_table,
)
from .mps import chain_values
from .peps import _check_chi
from .tensor import rescaled, table_from_parts

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
    amps = [amplitude_fn(cfg) for cfg in _configs(n_sites)]
    return rescaled(np.array([a.mantissa for a in amps], complex), np.array([a.log_scale for a in amps]))


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


def _tables(
    params: FloquetParams, method: str, chi: int | None, times: range
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Amplitude tables of all 2^L configurations in index order, one per t in
    ``times``, by the route of the module docstring. Raises ``ValueError`` for
    an unknown method, a truncated method without a positive integer ``chi``,
    or a negative start."""
    _check_method(method, chi)
    _check_periods(times.start)
    if method == "tnf_transverse":
        return (transverse_table(params, chi, t) for t in times)
    if method == "tnf_inverse":  # lock-step blocks outer, times inner, then each time's blocks joined
        configs, size = _configs(params.n_sites), inverse_time_block(params, chi, times.stop - 1)
        blocks = [list(itertools.islice(inverse_time_series(params, chi, configs[k : k + size]), times.stop))
                  for k in range(0, len(configs), size)]
        return (tuple(map(np.concatenate, zip(*tables))) for tables in list(zip(*blocks))[times.start :])
    if method == "exact":
        return (table_from_parts(psi.reshape(-1), 0.0)
                for psi in itertools.islice(exact_states(params), times.start, times.stop))
    _configs(params.n_sites)  # the enumeration guard, before any state is built
    if method == "mps":
        states = conventional_states(params, chi)
    else:  # <n| M |0...0>: each MPO site read at input 0
        states = (([w[:, :, 0] for w in sites], log) for sites, log in mpo_states(params, chi))
    return (_basis_table(*state) for state in itertools.islice(states, times.start, times.stop))


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


def _basis_table(sites: list[np.ndarray], log: float) -> tuple[np.ndarray, np.ndarray]:
    """``mps_amplitude(sites, n)`` at scale ``log`` for every configuration
    ``n`` in index order, bit for bit, in one stacked readout: the matrices
    of site ``i`` run along axis ``i``, so each prefix's product is formed once."""
    mats = [np.moveaxis(s, 1, 0).reshape(s.shape[1:2] + (1,) * (len(sites) - 1 - i) + s.shape[::2])
            for i, s in enumerate(sites)]  # leading axes broadcast
    return table_from_parts(chain_values(mats).reshape(-1), log)


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
    tables = _tables(params, method, chi, range(params.t_max + 1))
    for t, psi in enumerate(rescaled(*table) for table in tables):
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
    :func:`entanglement_dynamics` does, and for a ``t`` that is not a
    nonnegative integer."""
    n = params.n_sites
    if sizes is None:
        sizes = range(1, n)
    _check_periods(t)
    [table] = _tables(params, method, chi, range(t, t + 1))
    psi = rescaled(*table)
    out = []
    for size in sizes:
        start = (n - size) // 2
        rho = rdm_from_dense(psi, n, (start, size))
        s, _, _ = entropy_and_spectrum(rho)
        out.append((size, s))
    return out
