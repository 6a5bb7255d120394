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
* :func:`tnf_amplitude_transverse` - the Floquet PEPS (:func:`floquet_peps`)
  contracted as :func:`transverse_table` contracts every configuration, on a
  table of one: columns contracted one by one along the spatial direction,
  the boundary running along the time axis and compressed to ``chi`` after
  each column.
* :func:`tnf_amplitude_inverse_time` - the bra ``<n|`` absorbs period
  layers from the final step backward, compressed to ``chi`` per layer.
* :func:`mpo_mpo_inverse` - compresses ``F^t`` itself as an MPO
  (amplitude-independent isometries), then sandwiches ``<n| M |0>``.

Every time-direction route takes one layer step, ``_advance``: a stack of
chains held as top boundaries absorbs the period MPO through
:func:`tnflab.peps.boundary_absorb` and is compressed to ``chi``.
Enumerations run in lock step without changing a bit: each chain of a
stack gets the bits it gets alone. :func:`transverse_table` fills the table
of one ``t`` with one :func:`tnflab.peps.fixed_table` walk over the Floquet
PEPS, which absorbs each distinct prefix ``n[:r]`` once.
:func:`inverse_time_series` advances a block of bra chains, one per
configuration, a period per ``t`` (one stacked layer step per period), as
the state routes ``conventional_states`` and ``mpo_states`` advance their
single chain; :func:`inverse_time_block` sizes the blocks to
:data:`tnflab.peps.BLOCK_BYTES` at the widest bonds a run can reach.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import ResourceLimitError, check_int, check_real
from .mps import Chains, as_configs, chain_values, mps_amplitude
from .mps import compress  # noqa: F401  a binding perfbench/tracer.py requires
from .peps import (
    _LAYOUT,
    BLOCK_BYTES,
    FixedPlan,
    Peps,
    _in_compress_order,
    as_config,
    boundary_absorb,
    fixed_table,
)
from .tensor import AmplitudeValue, svd_split, table_from_parts, table_value

__all__ = [
    "FloquetParams",
    "PRESETS",
    "build_floquet_mpo",
    "exact_evolve",
    "exact_states",
    "evolve_conventional",
    "conventional_states",
    "floquet_peps",
    "tnf_amplitude_transverse",
    "transverse_table",
    "tnf_amplitude_inverse_time",
    "inverse_time_series",
    "inverse_time_block",
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
        check_int("n_sites", self.n_sites, 2)
        check_int("t_max", self.t_max, 0)
        for name in ("j", "g", "h"):
            check_real(name, getattr(self, name))


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
    [(_, split)] = svd_split(_zz_gate(j)[None], 2, 4)
    root = np.sqrt(split.singulars[0])
    left = split.isometry[0] * root[None, None, :]
    right = root[:, None, None] * split.right[0]
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


def _configs(n_sites: int) -> np.ndarray:
    """All 2^L configurations in index order, one per row."""
    if n_sites > MAX_DENSE_SITES:
        raise ResourceLimitError(f"amplitude enumeration guarded to {MAX_DENSE_SITES} sites, got {n_sites}")
    return (np.arange(1 << n_sites, dtype=np.int64)[:, None] >> np.arange(n_sites - 1, -1, -1)) & 1


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
    check_int("number of periods", t, 0)
    return next(itertools.islice(exact_states(params), t, None)).reshape(-1)


def _advance(parts: list[Chains], layer: list[np.ndarray], chi: int) -> list[Chains]:
    """The top boundary stacks ``parts`` one ``layer`` on (sites ``(up, left,
    down, right)``, views of the MPO whose layout the products round with,
    shared by every chain), compressed to ``chi``; log factors grow."""
    return [part for stack in parts for part in boundary_absorb(
        stack, [np.broadcast_to(t, (len(stack.rows),) + t.shape) for t in layer], chi, "top")]


def conventional_states(params: FloquetParams, chi: int) -> Iterator[tuple[list[np.ndarray], float]]:
    """:func:`evolve_conventional` at t = 0, 1, ..., advanced one period per step."""
    check_int("chi", chi, 1)
    e0 = np.array([1.0, 0.0], dtype=complex).reshape(1, 1, 1, 1, 2)  # a top boundary stack of one
    parts = [Chains([0], [e0] * params.n_sites, [0.0])]
    layer = [w.transpose(2, 0, 1, 3) for w in build_floquet_mpo(params)]  # in meets the state
    while True:
        [(_, sites, log)] = parts
        yield [_in_compress_order(s, "top")[0, :, 0] for s in sites], log[0]
        parts = _advance(parts, layer, chi)


def evolve_conventional(params: FloquetParams, chi: int, t: int) -> tuple[list[np.ndarray], float]:
    """MPS after t periods of MPO application with compression to ``chi``.

    Returns the chain and the accumulated log norm factor; amplitudes are
    ``mps_amplitude(sites, n) * exp(log)``.
    """
    check_int("number of periods", t, 0)
    return next(itertools.islice(conventional_states(params, chi), t, None))


def floquet_peps(params: FloquetParams, t: int) -> Peps:
    """The (1+1)D network of ``<n| F^t |0...0>`` as an ``L x t`` open PEPS.

    Row ``c`` is site ``c`` and column ``tau`` period ``tau``; site legs
    ``(up, left, down, right)`` are the period MPO's ``(left, in, right, out)``,
    with ``|0>`` folded into column 0. The out leg of column ``t - 1`` is the
    physical leg and earlier columns ignore theirs, so ``n`` reads as
    ``np.repeat(n, t)``. The transverse route closes the strip at row ``L - 1``.
    """
    check_int("number of periods", t, 0)
    if t < 1:
        raise ValueError(f"the Floquet PEPS needs at least one period, got {t}")
    e0 = np.array([1.0, 0.0], dtype=complex)
    sites = []
    for w in build_floquet_mpo(params):
        x = w.transpose(0, 2, 3, 1)  # (l, in, r, out)
        row = []
        for tau in range(t):
            y = np.tensordot(x, e0, axes=([1], [0]))[:, None] if tau == 0 else x
            y = y[:, :, :, None, :] if tau == t - 1 else np.repeat(y[..., None], 2, axis=4)
            row.append(np.ascontiguousarray(y))
        sites.append(row)
    return Peps(params.n_sites, t, 2, max(max(s.shape[:4]) for row in sites for s in row), sites)


def tnf_amplitude_transverse(params: FloquetParams, n, chi: int, t: int) -> AmplitudeValue:
    """<n| F^t |0...0> by column-by-column contraction along space.

    :func:`transverse_table`'s walk over the table of ``n`` alone: the
    time-axis boundary is compressed to ``chi`` after each of the first
    ``L - 1`` columns and closed exactly against the last. The isometries
    depend on ``n`` through the bra caps but their positions never do.
    """
    cfg = as_config(n, params.n_sites, 2)
    check_int("number of periods", t, 0)
    check_int("chi", chi, 1)
    return table_value(*_transverse(params, chi, t, cfg[None]))


def transverse_table(params: FloquetParams, chi: int, t: int) -> tuple[np.ndarray, np.ndarray]:
    """:func:`tnf_amplitude_transverse` of all ``2^L`` configurations at time
    ``t`` in index order as an amplitude table, bit for bit."""
    check_int("chi", chi, 1)
    check_int("number of periods", t, 0)
    return _transverse(params, chi, t, _configs(params.n_sites))


def _transverse(params: FloquetParams, chi: int, t: int, table: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The amplitude table of the configurations ``table`` at time ``t``: one
    :func:`tnflab.peps.fixed_table` over :func:`floquet_peps` closed at row
    ``L - 1``, each configuration read as ``np.repeat(n, t)``."""
    if t == 0:
        return table_from_parts(~table.any(axis=1), 0.0)
    plan = FixedPlan(params.n_sites, t, chi, params.n_sites - 1)
    return fixed_table(floquet_peps(params, t), plan, np.repeat(table.astype(np.uint8), t, axis=1))


def inverse_time_block(params: FloquetParams, chi: int, t_max: int) -> int:
    """Configurations per block of :func:`inverse_time_series` run to ``t_max``
    periods: as many as fit :data:`tnflab.peps.BLOCK_BYTES` with the period
    MPO applied to chains whose bonds are as wide as ``chi``, the chain
    length and ``t_max`` allow (a chain ``t`` periods old has bonds of at
    most ``w**t`` for MPO bond ``w``; applied bonds multiply); at least one."""
    check_int("chi", chi, 1)
    check_int("number of periods", t_max, 0)
    n = params.n_sites
    mpo = build_floquet_mpo(params)
    reach = max(w.shape[0] for w in mpo) ** max(t_max - 1, 0)
    edges = [1, *(min(chi, 2**c, 2 ** (n - c), reach) for c in range(1, n)), 1]
    chain = 16 * sum(edges[c] * w.shape[0] * w.shape[1] * edges[c + 1] * w.shape[3] for c, w in enumerate(mpo))
    return max(1, BLOCK_BYTES // chain)


def inverse_time_series(params: FloquetParams, chi: int, configs) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """:func:`tnf_amplitude_inverse_time` of each configuration of the table
    ``configs`` (read by :func:`tnflab.mps.as_configs`) at t = 0, 1, ..., one
    amplitude table per t. The block's bra chains, one per configuration,
    advance in lock step: one stacked absorb of the period layer (compressed
    to ``chi``) per period and one stacked overlap with ``|0...0>``, each
    chain bit for bit as alone. Size blocks with :func:`inverse_time_block`."""
    check_int("chi", chi, 1)
    return _lockstep(params, chi, as_configs(configs, params.n_sites, 2))


def _lockstep(params: FloquetParams, chi: int, cfgs: np.ndarray) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    layer = [w.transpose(1, 0, 2, 3) for w in build_floquet_mpo(params)]  # out meets the bra
    yield table_from_parts(~cfgs.any(axis=1), 0.0)
    # Each chain starts as the first period's layer projected on its configuration.
    parts = boundary_absorb(None, [w[b][:, None] for w, b in zip(layer, cfgs.T)], chi, "top")
    while True:
        mantissa, log_scale = np.empty(len(cfgs), complex), np.empty(len(cfgs))
        for rows, sites, log in parts:
            # mps_amplitude(chain, [0] * L) per chain, bit for bit.
            values = chain_values([_in_compress_order(s, "top")[:, :, 0, 0, :] for s in sites])
            mantissa[rows], log_scale[rows] = table_from_parts(values, log)
        yield mantissa, log_scale
        parts = _advance(parts, layer, chi)


def tnf_amplitude_inverse_time(params: FloquetParams, n, chi: int, t: int) -> AmplitudeValue:
    """<n| F^t |0...0> absorbing period layers from the final step backward.

    The bra configuration seeds the boundary, so the isometry entries are
    amplitude dependent; the schedule itself is fixed. A block of one in
    :func:`inverse_time_series`.
    """
    check_int("number of periods", t, 0)
    return table_value(*next(itertools.islice(inverse_time_series(params, chi, [n]), t, None)))


def mpo_states(params: FloquetParams, chi: int) -> Iterator[tuple[list[np.ndarray], float]]:
    """:func:`mpo_mpo_inverse` at t = 0, 1, ..., advanced one period per step."""
    check_int("chi", chi, 1)
    yield [np.eye(2, dtype=complex)[None, :, :, None] for _ in range(params.n_sites)], 0.0
    # F as a top boundary stack of one (outputs open, inputs as faces); earlier layers attach by their outputs.
    mpo = build_floquet_mpo(params)
    yield mpo, 0.0
    acc = [Chains([0], [w[None].transpose(_LAYOUT["top"]) for w in mpo], [0.0])]
    layer = [w.transpose(1, 0, 2, 3) for w in mpo]
    while True:
        [(_, sites, log)] = acc = _advance(acc, layer, chi)
        yield [_in_compress_order(s, "top")[0] for s in sites], log[0]


def mpo_mpo_inverse(params: FloquetParams, chi: int, t: int) -> tuple[list[np.ndarray], float]:
    """Compress F^t as an MPO, absorbing layers from the final step backward.

    The isometries are amplitude independent: the operator is compressed
    before any configuration is attached. Returns (sites, log_scale); use
    :func:`mpo_amplitude` to evaluate configurations.
    """
    check_int("number of periods", t, 0)
    return next(itertools.islice(mpo_states(params, chi), t, None))


def mpo_amplitude(sites: list[np.ndarray], log_scale: float, n) -> AmplitudeValue:
    """<n| M |0...0> for a compressed evolution operator; ``n`` is read by
    :func:`tnflab.mps.as_config` (``ValueError``)."""
    return AmplitudeValue.from_parts(mps_amplitude([w[:, :, 0, :] for w in sites], n), log_scale)
