"""PEPS on rectangular lattices and the two amplitude semantics.

A state is a grid of rank-5 site tensors with index convention
``(up, left, down, right, phys)``. Open-boundary edge sites carry extent-1
dummy bonds so every site is rank 5. Periodic lattices wrap in both
directions.

Amplitudes for a basis configuration come in three flavors:

* :func:`amplitude_fixed` / :class:`FixedEvaluator` - boundary contraction
  with a configuration-independent schedule (:class:`FixedPlan`): top and
  bottom boundaries are absorbed toward a fixed middle row, compressing to
  ``chi`` after each absorption, and the three-layer middle strip is closed
  exactly. Deterministic: the same ``(peps, n, plan)`` always yields the
  identical value, for any ``chi``.
* :class:`DynamicCache` - the standard reuse-friendly evaluation: the
  contraction closes at the last row where the configuration changed since
  the chain's base configuration, over the same prefix memo as
  :class:`FixedEvaluator`, so the value depends on the Markov history at
  finite ``chi``.
* :func:`exact_amplitude` - untruncated row-by-row contraction, the small
  lattice oracle.

Periodic wrap bonds are handled by unrolling each cyclic row into an open
row with doubled horizontal bonds and by keeping the vertical wrap legs open,
paired into the boundary physical legs until the final closure.
"""
from __future__ import annotations

import io
import struct
from dataclasses import dataclass

import numpy as np

from .errors import CacheStateError, DimensionError, ResourceLimitError
from .mps import compress
from .tensor import AmplitudeValue, renormalize

__all__ = [
    "Peps",
    "product_peps",
    "random_peps",
    "project_config",
    "FixedPlan",
    "boundary_absorb",
    "BoundaryMps",
    "amplitude_fixed",
    "FixedEvaluator",
    "DynamicCache",
    "exact_amplitude",
    "save_peps",
    "load_peps",
    "peps_to_params",
    "peps_from_params",
]


# ---------------------------------------------------------------------------
# State container


@dataclass
class Peps:
    """Grid of rank-5 site tensors ``(up, left, down, right, phys)``."""

    rows: int
    cols: int
    phys_dim: int
    bond_dim: int
    sites: list[list[np.ndarray]]
    boundary: str = "obc"

    def __post_init__(self):
        if self.boundary not in ("obc", "pbc"):
            raise ValueError(f"boundary must be 'obc' or 'pbc', got {self.boundary!r}")
        self.validate()

    def validate(self):
        # Rank and bond matching, including wrap bonds for PBC.
        for r in range(self.rows):
            for c in range(self.cols):
                t = self.sites[r][c]
                if t.ndim != 5:
                    raise DimensionError(f"site ({r},{c}) has rank {t.ndim}, expected 5")
                if t.shape[4] != self.phys_dim:
                    raise DimensionError(f"site ({r},{c}) physical extent {t.shape[4]}")
                if c + 1 < self.cols or self.boundary == "pbc":
                    nb = self.sites[r][(c + 1) % self.cols]
                    if t.shape[3] != nb.shape[1]:
                        raise DimensionError(f"horizontal bond mismatch at ({r},{c})")
                elif t.shape[3] != 1:
                    raise DimensionError(f"open right bond at ({r},{c}) must have extent 1")
                if r + 1 < self.rows or self.boundary == "pbc":
                    nb = self.sites[(r + 1) % self.rows][c]
                    if t.shape[2] != nb.shape[0]:
                        raise DimensionError(f"vertical bond mismatch at ({r},{c})")
                elif t.shape[2] != 1:
                    raise DimensionError(f"open down bond at ({r},{c}) must have extent 1")
                if self.boundary == "obc":
                    if c == 0 and t.shape[1] != 1:
                        raise DimensionError(f"open left bond at ({r},{c}) must have extent 1")
                    if r == 0 and t.shape[0] != 1:
                        raise DimensionError(f"open up bond at ({r},{c}) must have extent 1")

    @property
    def n_sites(self) -> int:
        return self.rows * self.cols

    def copy(self) -> "Peps":
        return Peps(
            self.rows,
            self.cols,
            self.phys_dim,
            self.bond_dim,
            [[t.copy() for t in row] for row in self.sites],
            self.boundary,
        )


def _as_config(n, n_sites: int, phys_dim: int) -> np.ndarray:
    n = np.asarray(n, dtype=np.int64).reshape(-1)
    if n.size != n_sites:
        raise ValueError(f"configuration has {n.size} entries, lattice has {n_sites} sites")
    if np.any(n < 0) or np.any(n >= phys_dim):
        raise ValueError("configuration entry out of range for the physical dimension")
    return n


def product_peps(rows: int, cols: int, phys_dim: int, config) -> Peps:
    """D=1 product state with amplitude 1 on ``config`` and 0 elsewhere."""
    cfg = _as_config(config, rows * cols, phys_dim)
    sites = []
    for r in range(rows):
        row = []
        for c in range(cols):
            t = np.zeros((1, 1, 1, 1, phys_dim), dtype=complex)
            t[0, 0, 0, 0, cfg[r * cols + c]] = 1.0
            row.append(t)
        sites.append(row)
    return Peps(rows, cols, phys_dim, 1, sites, "obc")


def random_peps(
    rows: int,
    cols: int,
    phys_dim: int,
    bond_dim: int,
    seed: int,
    boundary: str = "obc",
) -> Peps:
    """Gaussian random PEPS, each site normalized to unit Frobenius norm."""
    rng = np.random.default_rng(seed)
    sites = []
    for r in range(rows):
        row = []
        for c in range(cols):
            if boundary == "pbc":
                up = left = down = right = bond_dim
            else:
                up = bond_dim if r > 0 else 1
                down = bond_dim if r + 1 < rows else 1
                left = bond_dim if c > 0 else 1
                right = bond_dim if c + 1 < cols else 1
            shape = (up, left, down, right, phys_dim)
            t = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            row.append(t / np.linalg.norm(t))
        sites.append(row)
    return Peps(rows, cols, phys_dim, bond_dim, sites, boundary)


def project_config(peps: Peps, n) -> list[list[np.ndarray]]:
    """Fix every physical index to the configuration value; rank-4 grid."""
    cfg = _as_config(n, peps.n_sites, peps.phys_dim)
    return [
        [peps.sites[r][c][:, :, :, :, cfg[r * peps.cols + c]] for c in range(peps.cols)]
        for r in range(peps.rows)
    ]


# ---------------------------------------------------------------------------
# Row handling: PBC rows are unrolled into open rows with doubled bonds


def _unroll_row(row: list[np.ndarray]) -> list[np.ndarray]:
    """Cut the horizontal wrap bond and route it through the row.

    The cyclic row becomes an open row whose interior bonds carry the pair
    (original bond, wrap bond); contracted with anything, it reproduces the
    cyclic row exactly.
    """
    ncols = len(row)
    w = row[0].shape[1]
    if ncols == 1:
        t = row[0]
        return [np.einsum("uwdw->ud", t).reshape(t.shape[0], 1, t.shape[2], 1)]
    out = []
    for c, t in enumerate(row):
        u, l, d, r = t.shape
        if c == 0:
            a = t.transpose(0, 2, 3, 1).reshape(u, 1, d, r * w)
        elif c == ncols - 1:
            a = t.transpose(0, 1, 3, 2).reshape(u, l * w, d, 1)
        else:
            a = np.einsum("uldr,wx->ulwdrx", t, np.eye(w)).reshape(u, l * w, d, r * w)
        out.append(np.ascontiguousarray(a))
    return out


def _row(peps: Peps, cfg: np.ndarray, r: int, patch=None) -> list[np.ndarray]:
    """Row ``r`` projected on ``cfg``, unrolled on periodic lattices.

    ``patch`` is an optional ``((row, col), tensor)`` replacing one site.
    """
    c0 = r * peps.cols
    row = [peps.sites[r][c][:, :, :, :, cfg[c0 + c]] for c in range(peps.cols)]
    if patch is not None and patch[0][0] == r:
        (_, c), tensor = patch
        row[c] = tensor[:, :, :, :, cfg[c0 + c]]
    return _unroll_row(row) if peps.boundary == "pbc" else row


def _contraction_rows(peps: Peps, n) -> list[list[np.ndarray]]:
    cfg = _as_config(n, peps.n_sites, peps.phys_dim)
    return [_row(peps, cfg, r) for r in range(peps.rows)]


# ---------------------------------------------------------------------------
# Boundary MPS


@dataclass
class BoundaryMps:
    """Boundary accumulated over absorbed rows.

    ``sites`` are rank-3 ``(left, open*face, right)`` where ``face`` is the
    vertical leg toward the unabsorbed rows and ``open`` is a wrap leg kept
    until closure (extent 1 for open lattices).
    """

    sites: list[np.ndarray]
    open_dims: tuple[int, ...]
    face_dims: tuple[int, ...]
    log_scale: float = 0.0

    def site4(self, c: int) -> np.ndarray:
        s = self.sites[c]
        return s.reshape(s.shape[0], self.open_dims[c], self.face_dims[c], s.shape[2])


def boundary_absorb(
    bmps: BoundaryMps | None,
    row: list[np.ndarray],
    chi: int | None,
    side: str = "top",
    stats: dict | None = None,
) -> BoundaryMps:
    """Absorb one lattice row into the boundary and compress to ``chi``.

    ``side`` is the direction the boundary grew from: a top boundary
    contracts its face legs with the row's up legs, a bottom boundary with
    the row's down legs. ``bmps=None`` starts a boundary from ``row``, whose
    outward legs stay open. Scale factors accumulate in ``log_scale``.
    """
    if bmps is None:
        sites, opens, faces = [], [], []
        for t in row:
            u, l, d, r = t.shape
            if side == "top":
                sites.append(np.ascontiguousarray(t.transpose(1, 0, 2, 3)).reshape(l, u * d, r))
                opens.append(u)
                faces.append(d)
            else:
                sites.append(np.ascontiguousarray(t.transpose(1, 2, 0, 3)).reshape(l, d * u, r))
                opens.append(d)
                faces.append(u)
        sites, lf = compress(sites, chi, stats)
        return BoundaryMps(sites, tuple(opens), tuple(faces), lf)
    if len(row) != len(bmps.sites):
        raise DimensionError("row length does not match boundary length")
    new_sites, faces = [], []
    for c, t in enumerate(row):
        s = bmps.site4(c)  # (l, o, f, r)
        if side == "top":
            if s.shape[2] != t.shape[0]:
                raise DimensionError(f"face/up extent mismatch at column {c}")
            m = np.tensordot(s, t, axes=([2], [0]))  # (l, o, r, l2, d2, r2)
            face = t.shape[2]
        else:
            if s.shape[2] != t.shape[2]:
                raise DimensionError(f"face/down extent mismatch at column {c}")
            m = np.tensordot(s, t, axes=([2], [2]))  # (l, o, r, u2, l2, r2)
            m = m.transpose(0, 1, 2, 4, 3, 5)  # (l, o, r, l2, u2, r2)
            face = t.shape[0]
        l, o, r, l2, f2, r2 = m.shape
        m = m.transpose(0, 3, 1, 4, 2, 5).reshape(l * l2, o * f2, r * r2)
        new_sites.append(np.ascontiguousarray(m))
        faces.append(face)
    new_sites, lf = compress(new_sites, chi, stats)
    return BoundaryMps(new_sites, bmps.open_dims, tuple(faces), bmps.log_scale + lf)


def _absorb_rows(rows: list[list[np.ndarray]], side: str, chi: int | None) -> BoundaryMps | None:
    """Boundary from absorbing ``rows`` in order; None when there are none."""
    env = None
    for row in rows:
        env = boundary_absorb(env, row, chi, side)
    return env


def _close_strip(
    top: BoundaryMps | None, mid: list[np.ndarray], bottom: BoundaryMps | None
) -> AmplitudeValue:
    """Exactly contract (top boundary, middle row, bottom boundary).

    Open wrap legs pair top-to-bottom; with a missing boundary the middle
    row's outward legs pair with the surviving boundary's open legs (or with
    each other on a single-row lattice). Columns are contracted left to
    right with running renormalization.
    """
    log = (top.log_scale if top else 0.0) + (bottom.log_scale if bottom else 0.0)
    vec = None
    for c, m in enumerate(mid):
        if top is not None and bottom is not None:
            a = top.site4(c)  # (lt, o, x, rt)
            b = bottom.site4(c)  # (lb, o, y, rb)
            t = np.tensordot(a, m, axes=([2], [0]))  # (lt, o, rt, lm, y, rm)
            t = np.tensordot(t, b, axes=([1, 4], [1, 2]))  # (lt, rt, lm, rm, lb, rb)
            t = t.transpose(0, 2, 4, 1, 3, 5)
            t = t.reshape(a.shape[0] * m.shape[1] * b.shape[0], -1)
        elif top is not None:
            a = top.site4(c)
            # The middle row is the last row: its down legs pair with the
            # boundary's open wrap legs.
            t = np.tensordot(a, m, axes=([2, 1], [0, 2]))  # (lt, rt, lm, rm)
            t = t.transpose(0, 2, 1, 3).reshape(a.shape[0] * m.shape[1], -1)
        elif bottom is not None:
            b = bottom.site4(c)
            t = np.tensordot(m, b, axes=([2, 0], [2, 1]))  # (lm, rm, lb, rb)
            t = t.transpose(0, 2, 1, 3).reshape(m.shape[1] * b.shape[0], -1)
        else:
            t = np.einsum("ucuq->cq", m)  # single-row lattice: trace the wrap
        vec = t[0] if vec is None else vec @ t
        nrm, lf, z = renormalize(vec)
        if z:
            return AmplitudeValue.zero()
        vec, log = nrm, log + lf
    return AmplitudeValue.from_parts(complex(vec.reshape(-1)[0]), log)


# ---------------------------------------------------------------------------
# Fixed-schedule amplitude (the consistent contraction)


@dataclass(frozen=True)
class FixedPlan:
    """Configuration-independent boundary-absorption schedule.

    Rows ``[0, mid)`` are absorbed downward, rows ``(mid, rows-1]`` upward,
    and the strip at ``mid`` is closed exactly. A pure function of
    ``(rows, cols, chi, mid)``: serializing the plan yields the same bytes for
    every configuration of a lattice. :meth:`for_lattice` closes at the
    middle row.
    """

    rows: int
    cols: int
    chi: int
    mid: int

    def __post_init__(self):
        if self.chi < 1:
            raise ValueError(f"chi must be positive, got {self.chi}")
        if not 0 <= self.mid < self.rows:
            raise ValueError(f"mid must be in [0, {self.rows}), got {self.mid}")

    @classmethod
    def for_lattice(cls, rows: int, cols: int, chi: int) -> "FixedPlan":
        return cls(rows, cols, chi, rows // 2)

    @property
    def steps(self) -> tuple[tuple[str, int], ...]:
        return tuple(
            [("top", r) for r in range(self.mid)]
            + [("bottom", r) for r in range(self.rows - 1, self.mid, -1)]
            + [("close", self.mid)]
        )

    def serialize(self) -> str:
        body = ";".join(f"{s}:{r}" for s, r in self.steps)
        return f"v1 rows={self.rows} cols={self.cols} chi={self.chi} mid={self.mid} {body}"


def amplitude_fixed(peps: Peps, n, plan: FixedPlan) -> AmplitudeValue:
    """TNF amplitude of ``n`` under the fixed schedule ``plan``."""
    if (plan.rows, plan.cols) != (peps.rows, peps.cols):
        raise ValueError("plan lattice extents do not match the state")
    rows = _contraction_rows(peps, n)
    top = _absorb_rows(rows[: plan.mid], "top", plan.chi)
    bottom = _absorb_rows(rows[: plan.mid : -1], "bottom", plan.chi)
    return _close_strip(top, rows[plan.mid], bottom)


class _BoundaryStack:
    """Prefix-memoized boundary environments and closed amplitudes.

    A boundary is a deterministic function of the rows it covers, so one
    dict serves every closure row: environments are keyed by (side, the
    configuration of the rows covered) and amplitudes by (closure row,
    configuration). Reused values are bit-identical to recomputed ones. The
    memo is emptied whenever it grows past ``max_entries``.
    """

    def __init__(self, peps: Peps, chi: int, max_entries: int = 20000):
        if chi < 1:
            raise ValueError(f"chi must be positive, got {chi}")
        self.peps = peps
        self.chi = chi
        self.max_entries = max_entries
        self._memo: dict[tuple, object] = {}

    def clear(self) -> None:
        """Forget every memoized environment and amplitude."""
        self._memo.clear()

    def _env(
        self, cfg: np.ndarray, side: str, mid: int, patch=None, stats: dict | None = None
    ) -> BoundaryMps | None:
        """Boundary over the rows above (``"top"``) or below ``mid``.

        Environments are reused and stored up to the row of ``patch``; from
        there on the rows are patched, absorbed afresh with ``stats`` and
        never stored.
        """
        cols = self.peps.cols
        if side == "top":
            order = range(mid)
            keys = [(side, cfg[: (r + 1) * cols].tobytes()) for r in order]
        else:
            order = range(self.peps.rows - 1, mid, -1)
            keys = [(side, cfg[r * cols :].tobytes()) for r in order]
        stored = len(order)
        if patch is not None and patch[0][0] in order:
            stored = order.index(patch[0][0])
        env, start = None, 0
        for k in range(stored - 1, -1, -1):
            if keys[k] in self._memo:
                env, start = self._memo[keys[k]], k + 1
                break
        for k in range(start, len(order)):
            row = _row(self.peps, cfg, order[k], patch)
            env = boundary_absorb(env, row, self.chi, side, stats if k >= stored else None)
            if k < stored:
                self._memo[keys[k]] = env
        return env

    def _closed(self, cfg: np.ndarray, mid: int) -> AmplitudeValue:
        """Amplitude of ``cfg`` with the strip closed at row ``mid``."""
        key = (mid, cfg.tobytes())
        amp = self._memo.get(key)
        if amp is None:
            if len(self._memo) > self.max_entries:
                self._memo.clear()
            top = self._env(cfg, "top", mid)
            bottom = self._env(cfg, "bottom", mid)
            amp = _close_strip(top, _row(self.peps, cfg, mid), bottom)
            self._memo[key] = amp
        return amp


class FixedEvaluator(_BoundaryStack):
    """Amplitude evaluator for the fixed schedule with pure-function memoing.

    Boundary environments are deterministic functions of the row
    configurations they summarize, so reusing them across configurations
    returns bit-identical values to recomputation. This is what makes
    Metropolis sweeps and local-energy sums affordable; semantics are
    exactly those of :func:`amplitude_fixed`.
    """

    def __init__(self, peps: Peps, plan: FixedPlan, max_entries: int = 20000):
        if (plan.rows, plan.cols) != (peps.rows, peps.cols):
            raise ValueError("plan lattice extents do not match the state")
        super().__init__(peps, plan.chi, max_entries)
        self.plan = plan

    def amplitude(self, n) -> AmplitudeValue:
        return self._closed(_as_config(n, self.peps.n_sites, self.peps.phys_dim), self.plan.mid)

    def peek(self, n) -> AmplitudeValue:
        """Alias of :meth:`amplitude`; mirrors the dynamic-cache interface."""
        return self.amplitude(n)

    def commit(self, n, amp: AmplitudeValue | None = None) -> None:
        """No-op: the fixed schedule has no history."""

    def amplitude_with_site(
        self, n, site: tuple[int, int], tensor: np.ndarray, stats: dict | None = None
    ) -> AmplitudeValue:
        """Amplitude with one site tensor replaced, sharing cached environments.

        The replacement is transient (nothing about it is memoized); rows on
        the far side of the replaced row reuse the standard environments, so
        parameter sweeps cost only the strip between the site and the middle
        row. ``stats`` sees only the patched absorptions. Values equal
        ``amplitude_fixed`` on the modified state.
        """
        cfg = _as_config(n, self.peps.n_sites, self.peps.phys_dim)
        patch, mid = (tuple(site), tensor), self.plan.mid
        top = self._env(cfg, "top", mid, patch, stats)
        bottom = self._env(cfg, "bottom", mid, patch, stats)
        return _close_strip(top, _row(self.peps, cfg, mid, patch), bottom)


# ---------------------------------------------------------------------------
# Dynamic (history-dependent) amplitude, the standard VMC reuse scheme


class DynamicCache(_BoundaryStack):
    """Reusable boundary environments for one Markov chain.

    Single-owner mutable state: one cache per chain, never shared between
    threads. The contraction closes at the last row where the evaluated
    configuration differs from the cache's base configuration (the last
    row on a cold cache), over the same memo as the fixed schedule. The
    closure row follows the Markov history, which is what makes the
    resulting amplitude history-dependent at finite ``chi``.
    """

    def __init__(self, peps: Peps, chi: int):
        super().__init__(peps, chi)
        self.base: np.ndarray | None = None
        self.base_amp: AmplitudeValue | None = None

    def peek(self, n) -> AmplitudeValue:
        """Amplitude of ``n`` relative to the current base, without rebasing."""
        cfg = _as_config(n, self.peps.n_sites, self.peps.phys_dim)
        if self.base is None:
            self.base = cfg.copy()
            self.base_amp = self._closed(cfg, self.peps.rows - 1)
            return self.base_amp
        diff = np.nonzero(cfg != self.base)[0]
        if diff.size == 0:
            return self.base_amp
        return self._closed(cfg, int(diff[-1]) // self.peps.cols)

    def commit(self, n, amp: AmplitudeValue) -> None:
        """Rebase onto ``n``; the memoized environments stay valid."""
        cfg = _as_config(n, self.peps.n_sites, self.peps.phys_dim)
        if self.base is None:
            raise CacheStateError("commit on a cold cache")
        self.base = cfg.copy()
        self.base_amp = amp

    def amplitude(self, n) -> AmplitudeValue:
        """Evaluate and rebase in one step (one move of the Markov history)."""
        amp = self.peek(n)
        self.commit(n, amp)
        return amp


# ---------------------------------------------------------------------------
# Exact oracle


def exact_amplitude(peps: Peps, n) -> AmplitudeValue:
    """Untruncated row-by-row contraction. Guarded to small lattices."""
    if peps.n_sites > 36 or peps.bond_dim > 4:
        raise ResourceLimitError(
            f"exact amplitude guarded to <=36 sites and D<=4, got "
            f"{peps.n_sites} sites at D={peps.bond_dim}"
        )
    rows = _contraction_rows(peps, n)
    return _close_strip(_absorb_rows(rows[:-1], "top", None), rows[-1], None)


# ---------------------------------------------------------------------------
# Parameter flattening (for gradient-based optimization)


def peps_to_params(peps: Peps) -> np.ndarray:
    """Flatten all site tensors into a real vector (real parts, then imag,
    per site, row-major)."""
    parts = []
    for row in peps.sites:
        for t in row:
            parts.append(t.real.reshape(-1))
            parts.append(t.imag.reshape(-1))
    return np.concatenate(parts)


def peps_from_params(template: Peps, params: np.ndarray) -> Peps:
    """Inverse of :func:`peps_to_params` with shapes from ``template``."""
    out = template.copy()
    k = 0
    for r in range(template.rows):
        for c in range(template.cols):
            size = template.sites[r][c].size
            shape = template.sites[r][c].shape
            re = params[k : k + size].reshape(shape)
            im = params[k + size : k + 2 * size].reshape(shape)
            out.sites[r][c] = re + 1j * im
            k += 2 * size
    if k != params.size:
        raise ValueError(f"parameter vector length {params.size}, expected {k}")
    return out


# ---------------------------------------------------------------------------
# Serialization (binary, little-endian, versioned)

_MAGIC = b"TNFPEPS\x00"
_VERSION = 1


def save_peps(peps: Peps, path) -> None:
    """Checkpoint format: versioned header, then per-site extents and
    row-major complex128 data, all little-endian."""
    buf = io.BytesIO()
    buf.write(_MAGIC)
    buf.write(
        struct.pack(
            "<IIIIIB",
            _VERSION,
            peps.rows,
            peps.cols,
            peps.phys_dim,
            peps.bond_dim,
            1 if peps.boundary == "pbc" else 0,
        )
    )
    for row in peps.sites:
        for t in row:
            buf.write(struct.pack("<5I", *t.shape))
            buf.write(np.ascontiguousarray(t, dtype="<c16").tobytes())
    with open(path, "wb") as fh:
        fh.write(buf.getvalue())


def load_peps(path) -> Peps:
    with open(path, "rb") as fh:
        data = fh.read()
    if data[: len(_MAGIC)] != _MAGIC:
        raise ValueError("not a PEPS checkpoint (bad magic)")
    off = len(_MAGIC)
    version, rows, cols, phys, bond, pbc = struct.unpack_from("<IIIIIB", data, off)
    if version != _VERSION:
        raise ValueError(f"unsupported checkpoint version {version}")
    off += struct.calcsize("<IIIIIB")
    sites = []
    for _ in range(rows):
        row = []
        for _ in range(cols):
            shape = struct.unpack_from("<5I", data, off)
            off += struct.calcsize("<5I")
            count = int(np.prod(shape))
            t = np.frombuffer(data, dtype="<c16", count=count, offset=off).reshape(shape)
            off += count * 16
            row.append(t.astype(complex))
        sites.append(row)
    return Peps(rows, cols, phys, bond, sites, "pbc" if pbc else "obc")
