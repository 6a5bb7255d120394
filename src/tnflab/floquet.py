"""Kicked-Ising Floquet dynamics as a (1+1)D tensor network.

One period applies the Ising phase layer (bond ZZ rotations and the
longitudinal field, all diagonal) followed by the transverse kick. The
period operator is held as an exact MPO (bond dimension at most 4, in
practice 2) built by SVD-splitting the two-qubit gates with the singular
values shared as square roots between the sites.

Amplitudes ``<n| F^t |0...0>`` come from five contraction routes:

* :func:`exact_evolve` - dense state vector, the benchmark (L <= 14).
* :func:`evolve_conventional` - MPS compressed to ``chi`` after every
  period (contraction along the time direction).
* :func:`tnf_amplitude_transverse` - fixed column-by-column contraction
  along the spatial direction; the boundary runs along the time axis and is
  compressed to ``chi`` after each column.
* :func:`tnf_amplitude_inverse_time` - the bra ``<n|`` absorbs period
  layers from the final step backward, compressed to ``chi`` per layer.
* :func:`mpo_mpo_inverse` - compresses ``F^t`` itself as an MPO
  (amplitude-independent isometries), then sandwiches ``<n| M |0>``.

The per-configuration routes take an optional ``walk`` dict, kept across one
enumeration and reset when ``(params, chi)`` changes. It holds the period MPO,
per ``t`` the last configuration's column boundaries (at most ``L - 1``; the
next call reuses their shared prefix), and its bra chain, period count and log
(a later ``t`` continues them). Values are bit-identical with or without it.
"""
from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import ResourceLimitError
from .mps import apply_mpo, compress, contract_mps_chain, mps_amplitude, product_mps
from .peps import BoundaryMps, as_config, boundary_absorb
from .tensor import AmplitudeValue, svd_split

__all__ = [
    "FloquetParams",
    "PRESETS",
    "build_floquet_mpo",
    "exact_evolve",
    "exact_states",
    "evolve_conventional",
    "conventional_states",
    "tnf_amplitude_transverse",
    "tnf_amplitude_inverse_time",
    "mpo_mpo_inverse",
    "mpo_states",
    "mpo_amplitude",
    "config_index",
    "MAX_DENSE_SITES",
]

# Largest chain held as a dense 2^L state vector or enumerated in full.
MAX_DENSE_SITES = 14


@dataclass(frozen=True)
class FloquetParams:
    """Chain length, couplings (Ising J, kick g, longitudinal h), and the
    number of periods a dynamics run covers."""

    n_sites: int
    j: float
    g: float
    h: float
    t_max: int = 0

    def __post_init__(self):
        for name, low in (("n_sites", 2), ("t_max", 0)):
            value = getattr(self, name)
            if isinstance(value, bool) or not hasattr(value, "__index__") or value < low:
                raise ValueError(f"{name} must be an integer of at least {low}, got {value!r}")
        for name in ("j", "g", "h"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real) or not math.isfinite(value):
                raise ValueError(f"{name} must be a finite real number, got {value!r}")


PRESETS = {
    "maximally_chaotic": {"j": math.pi / 4, "g": math.pi / 4, "h": 0.5},
    "less_chaotic": {"j": 0.7, "g": 0.5, "h": 0.5},
}


def _single_site_rotation(params: FloquetParams) -> np.ndarray:
    """exp(i g X) exp(i h Z): the kick after the longitudinal phase."""
    rz = np.diag([np.exp(1j * params.h), np.exp(-1j * params.h)])
    rx = math.cos(params.g) * np.eye(2) + 1j * math.sin(params.g) * np.array([[0, 1], [1, 0]])
    return rx @ rz


def _zz_gate(j: float) -> np.ndarray:
    """exp(i J Z.Z) as (out1, in1, out2, in2)."""
    z = np.array([1.0, -1.0])
    phases = np.exp(1j * j * np.outer(z, z))  # (s1, s2)
    g = np.zeros((2, 2, 2, 2), dtype=complex)
    s = np.arange(2)
    g[s[:, None], s[:, None], s, s] = phases
    return g


def _split_zz(j: float) -> tuple[np.ndarray, np.ndarray]:
    """SVD split of the two-qubit gate, square roots of the singular values
    absorbed symmetrically. Left piece (out, in, k), right piece (k, out, in)."""
    split = svd_split(_zz_gate(j), 2, 4)
    root = np.sqrt(split.singulars)
    left = split.isometry * root[None, None, :]
    right = root[:, None, None] * split.right
    return left, right


def build_floquet_mpo(params: FloquetParams) -> list[np.ndarray]:
    """Exact one-period MPO, site tensors ``(left, out, in, right)``.

    Bond gates live on even links (0-indexed) and odd links; every internal
    link is covered by exactly one gate, so the bond dimension equals the
    gate's operator rank (2 for generic J, 1 for J=0). The chain ends take
    an identity in place of the missing gate piece.
    """
    n = params.n_sites
    left_piece, right_piece = _split_zz(params.j)
    eye = np.eye(2, dtype=complex)
    rot = _single_site_rotation(params)
    sites = []
    for c in range(n):
        # (kl, o, m) x (m, i, kr) summed over the shared physical leg; the
        # left-link piece acts after the right-link piece (both are
        # diagonal, so the order is conventional).
        from_left = right_piece if c > 0 else eye[None]
        to_right = left_piece if c < n - 1 else eye[:, :, None]
        w = np.einsum("aom,mib->aoib", from_left, to_right)
        w = np.einsum("om,amib->aoib", rot, w)
        sites.append(np.ascontiguousarray(w))
    return sites


def config_index(n) -> int:
    """Dense index of a configuration, site 0 most significant."""
    idx = 0
    for v in np.asarray(n, dtype=np.int64).reshape(-1):
        idx = (idx << 1) | int(v)
    return idx


def _check_periods(t: int) -> None:
    if t < 0:
        raise ValueError(f"number of periods must be nonnegative, got {t}")


def _diagonal_phases(params: FloquetParams) -> np.ndarray:
    """exp(i J sum z z') over all configurations, shaped (2,)*L.

    Only the bond part: the longitudinal field is carried by the per-site
    rotation, exactly as in the MPO construction.
    """
    n = params.n_sites
    z = np.array([1.0, -1.0])
    phase = np.zeros((2,) * n)
    for c in range(n - 1):
        shape = [1] * n
        shape[c] = 2
        shape[c + 1] = 2
        phase = phase + params.j * np.multiply.outer(z, z).reshape(shape)
    return np.exp(1j * phase)


def exact_states(params: FloquetParams) -> Iterator[np.ndarray]:
    """:func:`exact_evolve` at t = 0, 1, ..., shaped ``(2,) * L``, advanced one period per step."""
    n = params.n_sites
    if n > MAX_DENSE_SITES:
        raise ResourceLimitError(f"dense simulation guarded to {MAX_DENSE_SITES} sites, got {n}")
    psi = np.zeros((2,) * n, dtype=complex)
    psi[(0,) * n] = 1.0
    rot = _single_site_rotation(params)
    while True:
        yield psi
        psi = psi * _diagonal_phases(params)
        for c in range(n):
            psi = np.moveaxis(np.tensordot(rot, psi, axes=([1], [c])), 0, c)


def exact_evolve(params: FloquetParams, t: int) -> np.ndarray:
    """|psi(t)> = F^t |0...0> by dense gate application, normalized."""
    _check_periods(t)
    return next(itertools.islice(exact_states(params), t, None)).reshape(-1)


def _evolve(
    sites: list[np.ndarray], mpo: list[np.ndarray], chi: int, t: int, log: float = 0.0
) -> tuple[list[np.ndarray], float]:
    """The chain ``sites`` after ``t`` MPO layers, compressed to ``chi`` after
    each; returns it and ``log`` plus the log factors taken out."""
    _check_periods(t)
    for _ in range(t):
        sites = apply_mpo(sites, mpo)
        sites, lf = compress(sites, chi)
        log += lf
    return sites, log


def conventional_states(params: FloquetParams, chi: int) -> Iterator[tuple[list[np.ndarray], float]]:
    """:func:`evolve_conventional` at t = 0, 1, ..., advanced one period per step."""
    sites, log = product_mps([np.array([1.0, 0.0], dtype=complex)] * params.n_sites), 0.0
    mpo = build_floquet_mpo(params)
    while True:
        yield sites, log
        sites, log = _evolve(sites, mpo, chi, 1, log)


def evolve_conventional(params: FloquetParams, chi: int, t: int) -> tuple[list[np.ndarray], float]:
    """MPS after t periods of MPO application with compression to ``chi``.

    Returns the chain and the accumulated log norm factor; amplitudes are
    ``mps_amplitude(sites, n) * exp(log)``.
    """
    _check_periods(t)
    return next(itertools.islice(conventional_states(params, chi), t, None))


def _walk_for(walk: dict | None, params: FloquetParams, chi: int) -> dict:
    """``walk`` (a new one for None), reset unless built for ``(params, chi)``."""
    walk = {} if walk is None else walk
    if walk.get("key") != (params, chi):
        walk.clear()
        walk.update(key=(params, chi), mpo=build_floquet_mpo(params))
    return walk


def _delta_amplitude(cfg: np.ndarray) -> AmplitudeValue:
    return AmplitudeValue.from_parts(1.0) if not np.any(cfg) else AmplitudeValue.zero()


def _column_tensors(
    mpo: list[np.ndarray], cfg: np.ndarray, c: int, t: int
) -> list[np.ndarray]:
    """Column ``c`` of the (1+1)D network as absorb-ready rank-4 tensors.

    The chain runs along the time axis, capped by |0> below and <n_c| above;
    tensor legs are (toward absorbed columns, earlier time, toward remaining
    columns, later time).
    """
    e0 = np.array([1.0, 0.0], dtype=complex)
    cap = np.eye(2, dtype=complex)[cfg[c]]
    out = []
    for tau in range(t):
        x = mpo[c].transpose(0, 2, 3, 1)  # (l, i, r, o)
        if tau == 0:
            x = np.tensordot(x, e0, axes=([1], [0]))[:, None]  # (l, 1, r, o)
        if tau == t - 1:
            x = np.tensordot(x, cap, axes=([3], [0]))[..., None]  # (l, i, r, 1)
        out.append(np.ascontiguousarray(x))
    return out


def tnf_amplitude_transverse(
    params: FloquetParams, n, chi: int, t: int, walk: dict | None = None
) -> AmplitudeValue:
    """<n| F^t |0...0> by column-by-column contraction along space.

    A deterministic fixed schedule: the time-axis boundary is compressed to
    ``chi`` after each column, the final column is absorbed exactly and the
    chain collapsed. The isometries depend on ``n`` through the bra caps but
    their positions never do.
    A ``walk`` (module docstring) skips the shared column prefix, bit for bit.
    """
    cfg = as_config(n, params.n_sites, 2)
    _check_periods(t)
    if t == 0:
        return _delta_amplitude(cfg)
    walk = _walk_for(walk, params, chi)
    prev, kept = walk.get(t, (cfg, []))
    same = np.append(prev[: len(kept)] == cfg[: len(kept)], False)
    kept = kept[: int(np.argmin(same))]  # boundaries of the shared prefix
    for c in range(len(kept), params.n_sites):
        cap = chi if c < params.n_sites - 1 else None
        column = _column_tensors(walk["mpo"], cfg, c, t)
        kept.append(boundary_absorb(kept[-1] if kept else None, column, cap, "top"))
    walk[t] = (cfg.copy(), kept[:-1])
    val = contract_mps_chain(kept[-1].sites)
    return AmplitudeValue.from_parts(val, kept[-1].log_scale)


def tnf_amplitude_inverse_time(
    params: FloquetParams, n, chi: int, t: int, walk: dict | None = None
) -> AmplitudeValue:
    """<n| F^t |0...0> absorbing period layers from the final step backward.

    The bra configuration seeds the boundary, so the isometry entries are
    amplitude dependent; the schedule itself is fixed.
    A ``walk`` (module docstring) continues the last chain, bit for bit.
    """
    cfg = as_config(n, params.n_sites, 2)
    if t == 0:
        return _delta_amplitude(cfg)
    walk = _walk_for(walk, params, chi)
    prev = walk.get("bra")
    if prev is None or not np.array_equal(prev[0], cfg) or prev[1] > t:
        prev = (cfg, 0, product_mps([np.eye(2, dtype=complex)[b] for b in cfg]), 0.0)
    _, done, bra, log = prev
    bra_mpo = [w.transpose(0, 2, 1, 3) for w in walk["mpo"]]  # act on the bra side
    bra, log = _evolve(bra, bra_mpo, chi, t - done, log)
    walk["bra"] = (cfg.copy(), t, bra, log)
    val = mps_amplitude(bra, [0] * params.n_sites)
    return AmplitudeValue.from_parts(val, log)


def mpo_states(params: FloquetParams, chi: int) -> Iterator[tuple[list[np.ndarray], float]]:
    """:func:`mpo_mpo_inverse` at t = 0, 1, ..., advanced one period per step."""
    yield [np.eye(2, dtype=complex)[None, :, :, None] for _ in range(params.n_sites)], 0.0
    # F as a boundary (outputs open, inputs as faces); earlier layers attach by their outputs.
    acc = BoundaryMps(build_floquet_mpo(params))
    layer = [w.transpose(1, 0, 2, 3) for w in acc.sites]
    while True:
        yield acc.sites, acc.log_scale
        acc = boundary_absorb(acc, layer, chi, "top")


def mpo_mpo_inverse(params: FloquetParams, chi: int, t: int) -> tuple[list[np.ndarray], float]:
    """Compress F^t as an MPO, absorbing layers from the final step backward.

    The isometries are amplitude independent: the operator is compressed
    before any configuration is attached. Returns (sites, log_scale); use
    :func:`mpo_amplitude` to evaluate configurations.
    """
    _check_periods(t)
    return next(itertools.islice(mpo_states(params, chi), t, None))


def mpo_amplitude(sites: list[np.ndarray], log_scale: float, n) -> AmplitudeValue:
    """<n| M |0...0> for a compressed evolution operator."""
    cfg = as_config(n, len(sites), 2)
    val = mps_amplitude([w[:, :, 0, :] for w in sites], cfg)
    return AmplitudeValue.from_parts(val, log_scale)
