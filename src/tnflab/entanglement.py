"""Reduced density matrices, entanglement entropy, and dynamics series.

States are assembled from amplitude enumeration (all 2^L configurations, so
L is guarded) and the reduced density matrix of a contiguous region comes
from summing out the environment. Amplitudes from truncated contractions are
not normalized; the density matrix is normalized to unit trace after
assembly.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import DataError, ResourceLimitError
from .floquet import (
    FloquetParams,
    config_index,
    evolve_conventional,
    exact_evolve,
    mpo_amplitude,
    mpo_mpo_inverse,
    tnf_amplitude_inverse_time,
    tnf_amplitude_transverse,
)
from .mps import mps_amplitude
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

_MAX_SITES = 14
_TRACE_TOL = 1e-6
METHODS = ("exact", "mps", "tnf_transverse", "tnf_inverse", "mpo")


def dense_state_from_amplitudes(amplitude_fn: Callable, n_sites: int) -> np.ndarray:
    """Enumerate all 2^L amplitudes into a dense vector (site 0 most
    significant), rescaled by the largest log factor; not normalized."""
    if n_sites > _MAX_SITES:
        raise ResourceLimitError(f"amplitude enumeration guarded to {_MAX_SITES} sites")
    dim = 1 << n_sites
    amps = []
    max_log = -math.inf
    for idx in range(dim):
        cfg = [(idx >> (n_sites - 1 - c)) & 1 for c in range(n_sites)]
        a = amplitude_fn(np.array(cfg, dtype=np.int64))
        amps.append(a)
        if not a.is_zero:
            max_log = max(max_log, a.log_scale)
    psi = np.zeros(dim, dtype=complex)
    if math.isinf(max_log):
        return psi
    for idx, a in enumerate(amps):
        if not a.is_zero:
            psi[idx] = a.mantissa * math.exp(a.log_scale - max_log)
    return psi


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


def _amplitude_function(params: FloquetParams, method: str, chi: int | None, t: int):
    """Configuration -> AmplitudeValue for one method at fixed time."""
    if method == "exact":
        psi = exact_evolve(params, t)
        return lambda cfg: AmplitudeValue.from_parts(complex(psi[config_index(cfg)]))
    if method == "mps":
        sites, log = evolve_conventional(params, chi, t)
        return lambda cfg: AmplitudeValue.from_parts(mps_amplitude(sites, cfg), log)
    if method == "tnf_transverse":
        return lambda cfg: tnf_amplitude_transverse(params, cfg, chi, t)
    if method == "tnf_inverse":
        return lambda cfg: tnf_amplitude_inverse_time(params, cfg, chi, t)
    if method == "mpo":
        sites, log = mpo_mpo_inverse(params, chi, t)
        return lambda cfg: mpo_amplitude(sites, log, cfg)
    raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")


@dataclass
class EntanglementData:
    """Entropy and spectrum series over Floquet steps for one method."""

    method: str
    chi: int | None
    times: list[int] = field(default_factory=list)
    entropies: list[float] = field(default_factory=list)
    spectra: list[np.ndarray] = field(default_factory=list)


def entanglement_dynamics(
    params: FloquetParams,
    method: str,
    chi: int | None = None,
    region: tuple[int, int] | None = None,
    top: int = 40,
) -> EntanglementData:
    """Entropy S(t) and spectrum for t = 0..t_max with one amplitude method.

    ``region`` defaults to the half chain (0, L//2). Truncated methods give
    unnormalized states; each density matrix is normalized before the
    entropy is taken.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    if method != "exact" and (chi is None or chi < 1):
        raise ValueError("truncated methods need a positive chi")
    n = params.n_sites
    if region is None:
        region = (0, n // 2)
    out = EntanglementData(method=method, chi=None if method == "exact" else chi)
    for t in range(params.t_max + 1):
        fn = _amplitude_function(params, method, chi, t)
        rho = rdm_from_amplitudes(fn, n, region)
        s, spec, _ = entropy_and_spectrum(rho, top=top)
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
    the volume-law/area-law diagnostic."""
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
