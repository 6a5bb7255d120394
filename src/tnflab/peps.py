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
  contraction closes at the row of the last site the Markov history changed
  (the last row for its first configuration), over the same prefix memo as
  :class:`FixedEvaluator`, so the value depends on the Markov history at
  finite ``chi``. Each evaluator's ``closure_row`` is its one rule.
* :func:`exact_amplitude` - the same schedule closed at the last row with
  no compression, the small-lattice oracle.

Periodic wrap bonds are handled by unrolling each cyclic row into an open
row with doubled horizontal bonds and by keeping the vertical wrap legs open,
paired into the boundary physical legs until the final closure.

The boundary engine (:func:`boundary_absorb` and the strip closure) works on
stacks: every array carries a leading axis over independent contractions,
each of which gets the bits it gets alone. :func:`fixed_table`'s walk is
behind every fixed-schedule amplitude outside the evaluators' memo: it stacks
every distinct prefix of a level and every closure of a table into one
amplitude table, and a single amplitude (:func:`amplitude_fixed`,
:func:`exact_amplitude`, the Floquet transverse route) is a table of one,
whose products run on plain 2-D matrices. :func:`fixed_table_vjp` (the
gradient estimators', and :func:`log_derivatives` twice) is that walk with a
tape per slice, each pulled back as the walk goes; it walks the bottom side
twice, untaped for the kept bottom boundaries, then taped. The evaluators'
memo closes its misses (a Monte Carlo sample's neighbours, each at its own
closure row) in one closure per closure row and boundary shape. Boundaries
keep their legs in the order the next contraction reads them, so memoized
and gathered ones are read without a copy.
"""
from __future__ import annotations

import functools
import io
import math
import operator
import struct
from dataclasses import dataclass, replace

import numpy as np

from .adjoint import Tape, einsum_backward
from .errors import CacheStateError, DimensionError, ResourceLimitError, check_int
from .mps import Chains, as_config, as_configs, compress
from .tensor import AmplitudeValue, renormalize, stack_dot, table_from_parts, table_value

__all__ = [
    "Peps",
    "product_peps",
    "random_peps",
    "project_config",
    "as_config",
    "FixedPlan",
    "boundary_absorb",
    "amplitude_fixed",
    "fixed_table",
    "fixed_table_vjp",
    "BLOCK_BYTES",
    "log_derivatives",
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
    """Grid of rank-5 sites ``(up, left, down, right, phys)``; no bond exceeds ``bond_dim``."""

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
        # Rank, the bond_dim bound, and bond matching, including wrap bonds for PBC.
        for r in range(self.rows):
            for c in range(self.cols):
                t = self.sites[r][c]
                if t.ndim != 5:
                    raise DimensionError(f"site ({r},{c}) has rank {t.ndim}, expected 5")
                if t.shape[4] != self.phys_dim:
                    raise DimensionError(f"site ({r},{c}) physical extent {t.shape[4]}")
                if max(t.shape[:4]) > self.bond_dim:
                    raise DimensionError(f"site ({r},{c}) bond exceeds bond_dim {self.bond_dim}")
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
        return replace(self, sites=[[t.copy() for t in row] for row in self.sites])


def product_peps(rows: int, cols: int, phys_dim: int, config) -> Peps:
    """D=1 product state with amplitude 1 on ``config`` and 0 elsewhere."""
    cfg = as_config(config, rows * cols, phys_dim).reshape(rows, cols)
    basis = np.eye(phys_dim, dtype=complex).reshape(phys_dim, 1, 1, 1, 1, phys_dim)
    return Peps(rows, cols, phys_dim, 1, [[basis[b].copy() for b in row] for row in cfg], "obc")


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
    cfg = as_config(n, peps.n_sites, peps.phys_dim)
    return [
        [peps.sites[r][c][:, :, :, :, cfg[r * peps.cols + c]] for c in range(peps.cols)]
        for r in range(peps.rows)
    ]


# ---------------------------------------------------------------------------
# Row handling: PBC rows are unrolled into open rows with doubled bonds


def _unroll_row(row: list[np.ndarray], tape: Tape | None = None) -> list[np.ndarray]:
    """Cut the horizontal wrap bond of each row of a stack and route it through the row.

    The cyclic row becomes an open row whose interior bonds carry the pair
    (original bond, wrap bond); contracted with anything, it reproduces the
    cyclic row exactly.
    """
    ncols = len(row)
    w = row[0].shape[2]
    eye = np.eye(w)
    if ncols == 1:
        t = row[0]
        n, u, _, d, _ = t.shape
        out = [np.einsum("Yuwdw->Yud", t).reshape(n, u, 1, d, 1)]
        if tape is not None:
            tape.record([t, None], out, einsum_backward("uvdw,vw->ud", [t, eye]))
        return out
    out = []
    for c, t in enumerate(row):
        n, u, l, d, r = t.shape
        if c == 0:
            a = t.transpose(0, 1, 3, 4, 2).reshape(n, u, 1, d, r * w)
            spec, ops = "uwdr->udrw", [t]
        elif c == ncols - 1:
            a = t.transpose(0, 1, 2, 4, 3).reshape(n, u, l * w, d, 1)
            spec, ops = "uldw->ulwd", [t]
        else:
            a = np.einsum("Yuldr,wx->Yulwdrx", t, eye).reshape(n, u, l * w, d, r * w)
            spec, ops = "uldr,wx->ulwdrx", [t, eye]
        out.append(np.ascontiguousarray(a))
        if tape is not None:
            tape.record([t, None][: len(ops)], out[-1:], einsum_backward(spec, ops))
    return out


def _row(peps: Peps, cfg: np.ndarray, r: int, patch=None) -> list[np.ndarray]:
    """Row ``r`` projected on ``cfg`` as a stack of one, unrolled on periodic
    lattices. ``patch`` is an optional ``((row, col), tensor)`` replacing one
    site."""
    ks = cfg[r * peps.cols : (r + 1) * peps.cols].tolist()
    row = [site[None, ..., k] for site, k in zip(peps.sites[r], ks)]
    if patch is not None and patch[0][0] == r:
        (_, c), tensor = patch
        row[c] = tensor[None, ..., ks[c]]
    return _unroll_row(row) if peps.boundary == "pbc" else row


def _row_shapes(peps: Peps, r: int) -> list[tuple]:
    """The ``(up, left, down, right)`` extents of each site of row ``r``, as
    :func:`_row` gives them."""
    return [t.shape[1:] for t in _row(peps, np.zeros(peps.n_sites, int), r)]


# ---------------------------------------------------------------------------
# Boundary MPS stacks

# Where each side's boundaries keep their legs, from compress's (count, left,
# open, face, right): as the next contraction reads them as a matrix. An absorb
# into a top boundary and a closure between two boundaries read a stored (often
# memoized) boundary without copying it, and on open lattices so does every
# closure; only an absorb into a bottom boundary copies its sites.
_LAYOUT = {"top": (0, 1, 2, 4, 3), "bottom": (0, 2, 3, 1, 4)}
_COMPRESS_ORDER = {side: tuple(int(k) for k in np.argsort(axes)) for side, axes in _LAYOUT.items()}


def _in_compress_order(site: np.ndarray, side: str) -> np.ndarray:
    """A stored boundary site of ``side`` as a contiguous copy in compress's
    leg order ``(count, left, open, face, right)``."""
    return np.ascontiguousarray(site.transpose(_COMPRESS_ORDER[side]))


def _products(count: int):
    """The leading shape of the matrices of a stack of ``count`` chains, and
    their product: a stack of one multiplies plain 2-D matrices with
    ``np.dot`` itself (a stacked ``np.matmul`` costs a microsecond more on
    these small matrices), a larger stack runs :func:`tnflab.tensor.stack_dot`."""
    return ((), np.dot) if count == 1 else ((count,), stack_dot)


def boundary_absorb(
    stack: Chains | None,
    row: list[np.ndarray],
    chi: int | None,
    side: str = "top",
    tape: Tape | None = None,
) -> list[Chains]:
    """Absorb one lattice row into each boundary of a stack and compress to ``chi``.

    A boundary stack is a :class:`tnflab.mps.Chains`: ``rows`` label its
    boundaries, ``log`` holds each one's log scale, and each site carries a
    leading axis over them and the legs ``left``, ``right``, ``face`` (the
    vertical leg toward the unabsorbed rows) and ``open`` (a wrap leg kept
    until closure, extent 1 on open lattices). A top boundary keeps them as
    ``(count, left, open, right, face)``, a bottom boundary as ``(count,
    open, face, left, right)``. ``row`` holds one ``(count, up, left, down,
    right)`` site per column: each boundary absorbs its own row. A top
    boundary contracts its face legs with the row's up legs, a bottom
    boundary with the row's down legs. ``stack=None`` starts boundaries
    labelled ``0 .. count-1`` from ``row``, whose outward legs stay open.

    Returns the parts :func:`tnflab.mps.compress` splits the stack into
    (by kept rank, or an exactly-zero site), labels carried along and log
    scales grown by the factors taken out. Each boundary gets the bits it
    gets alone; a single boundary is a stack of one. A ``tape`` records
    every step (see :mod:`tnflab.adjoint`).
    """
    count = len(row[0])
    if stack is None:
        axes = (0, 2, 1, 3, 4) if side == "top" else (0, 2, 3, 1, 4)  # (l, open, face, r)
        sites = [np.ascontiguousarray(t.transpose(axes)) for t in row]
        if tape is not None:
            spec = "abcd->" + "".join("abcd"[a - 1] for a in axes[1:])
            for t, s in zip(row, sites):
                tape.record([t], [s], einsum_backward(spec, [t]))
        labels, log = range(count), [0.0] * count
    else:
        if len(row) != len(stack.sites):
            raise DimensionError("row length does not match boundary length")
        labels, log = stack.rows, stack.log
        lead, dot = _products(count)
        # The face meets the row's up leg from the top, its down leg from the bottom.
        # ``legs`` puts that leg first; ``perm`` orders the product (l, l2, o, f2, r, r2).
        if side == "top":
            leg, legs, perm, spec = 1, (0, 1, 2, 3, 4), (0, 3, 1, 4, 2, 5), "ache,hbdg->abcdeg"
        else:
            leg, legs, perm, spec = 3, (0, 3, 1, 2, 4), (0, 4, 1, 3, 2, 5), "ache,dbhg->abcdeg"
        sites = []
        for c, (s, t0) in enumerate(zip(stack.sites, row)):
            # (l, o, r, f) of each boundary: a view of a top site, a copy of a bottom one.
            a = s if side == "top" else s.transpose(0, 3, 1, 4, 2)
            n, l, o, r, f = a.shape
            if f != t0.shape[leg]:
                raise DimensionError(f"face extent {f} does not meet the row at column {c}")
            # np.tensordot(s, t0, axes=([face], [leg])) per boundary written out, bit for bit.
            t = t0.transpose(legs)
            m = dot(a.reshape(lead + (l * o * r, f)), t.reshape(lead + (f, -1)))
            # The stack axis rides along with the boundary's left leg.
            m = m.reshape((n * l, o, r) + t.shape[2:]).transpose(perm)  # (l, l2, o, f2, r, r2)
            _, l2, o, f2, r, r2 = m.shape
            sites.append(np.ascontiguousarray(m.reshape(n, l * l2, o, f2, r * r2)))
            if tape is not None:
                read = tape.recorded(s)
                tape.record([read, t0], sites[-1:], einsum_backward(spec, [read, t0]))
    axes, parts = _LAYOUT[side], []
    for part in compress(sites, chi, tape):
        laid = [np.ascontiguousarray(s.transpose(axes)) for s in part.sites]
        if tape is not None:  # steps that read these record compress's own arrays
            tape.relaid.update((id(x), (x, s)) for s, x in zip(part.sites, laid))
        log_scales = [log[j] + lf for j, lf in zip(part.rows, part.log)]
        parts.append(Chains([labels[j] for j in part.rows], laid, log_scales))
    return parts


# Each closure column as one einsum over (top site, middle site, bottom
# site), keyed by which boundaries exist; output rows then columns.
_CLOSE_SPECS = {
    (True, True): "LoxR,xMyN,BoyC->LMBRNC",
    (True, False): "LoxR,xMoN->LMRN",
    (False, True): "oMyN,BoyC->MBNC",
}


def _close_strip(
    top: Chains | None,
    mid: list[np.ndarray],
    bottom: Chains | None,
    tape: Tape | None = None,
) -> tuple[np.ndarray, list[float]]:
    """Exactly contract (top boundary, middle row, bottom boundary) for each
    chain of a stack: raw values and log scales, as ``from_parts`` takes them.

    ``mid`` holds one ``(count, up, left, down, right)`` site per column; the
    boundary stacks, where given, hold the same chains in the same order.
    Open wrap legs pair top-to-bottom; with a missing boundary the middle
    row's outward legs pair with the surviving boundary's open legs (or with
    each other on a single-row lattice). Columns are contracted left to
    right with running renormalization, each chain bit for bit as alone. A
    ``tape`` records every step; the last one makes the final one-entry
    vectors whose entries are the raw values.
    """
    count = len(mid[0])
    lead, dot = _products(count)
    vec = None
    # Each chain's log scale adds these up in order: its boundaries' scales,
    # then each column's factor.
    factors = [top.log if top is not None else [0.0] * count,
               bottom.log if bottom is not None else [0.0] * count]
    # Each dot below is the np.tensordot named above it written out, with
    # its transposes, reshapes and dot, so the bits are the tensordot's. The
    # stack axis rides along with the first leg of each intermediate.
    for c, m in enumerate(mid):
        n, u, lm, d, rm = m.shape
        if top is not None and bottom is not None:
            a, b = top.sites[c], bottom.sites[c]
            _, lt, o, rt, x = a.shape
            _, _, y, lb, rb = b.shape
            # np.tensordot(a, m, axes=([x], [0])): (lt, o, rt, lm, y, rm)
            t = dot(a.reshape(lead + (lt * o * rt, x)), m.reshape(lead + (u, -1)))
            t = t.reshape(n * lt, o, rt, lm, y, rm).transpose(0, 2, 3, 5, 1, 4)
            # np.tensordot(t, b, axes=([1, 4], [o, y])): (lt, rt, lm, rm, lb, rb)
            t = dot(t.reshape(lead + (lt * rt * lm * rm, o * y)), b.reshape(lead + (o * y, lb * rb)))
            t = t.reshape(n * lt, rt, lm, rm, lb, rb).transpose(0, 2, 4, 1, 3, 5).reshape(lead + (lt * lm * lb, -1))
        elif top is not None:
            a = top.sites[c]
            _, lt, o, rt, x = a.shape
            # The middle row is the last row: its down legs pair with the
            # boundary's open wrap legs.
            # np.tensordot(a, m, axes=([x, o], [0, 2])): (lt, rt, lm, rm)
            a = a.transpose(0, 1, 3, 4, 2).reshape(lead + (lt * rt, x * o))
            t = dot(a, m.transpose(0, 1, 3, 2, 4).reshape(lead + (u * d, lm * rm))).reshape(n * lt, rt, lm, rm)
            t = t.transpose(0, 2, 1, 3).reshape(lead + (lt * lm, -1))
        elif bottom is not None:
            b = bottom.sites[c]
            _, o, y, lb, rb = b.shape
            # np.tensordot(m, b, axes=([2, 0], [y, o])): (lm, rm, lb, rb)
            b = b.transpose(0, 2, 1, 3, 4).reshape(lead + (y * o, lb * rb))
            t = dot(m.transpose(0, 2, 4, 3, 1).reshape(lead + (lm * rm, d * u)), b).reshape(n * lm, rm, lb, rb)
            t = t.transpose(0, 2, 1, 3).reshape(lead + (lm * lb, -1))
        else:
            t = np.einsum("Yucuq->Ycq", m).reshape(lead + (lm, rm))  # single-row lattice: trace the wrap
        new = t[..., :1, :] if vec is None else vec @ t  # (1, columns) per chain
        nrm, lf, z = renormalize(new)
        if False not in z:  # every chain is zero (a zero chain stays zero)
            return np.zeros(count, complex), [0.0] * count
        if tape is not None:
            _record_column(tape, c, top, m, bottom, t, vec, nrm, lf)
        vec = nrm
        factors.append(lf)
    # The last column's right bonds are 1.
    return vec.reshape(count), [functools.reduce(operator.add, fs) for fs in zip(*factors)]


def _close_one(top: Chains | None, mid: list[np.ndarray], bottom: Chains | None) -> AmplitudeValue:
    """:func:`_close_strip` of a stack of one, as its amplitude."""
    values, [log] = _close_strip(top, mid, bottom)
    [value] = values.tolist()
    return AmplitudeValue.from_parts(value, log)


def _record_column(tape: Tape, c: int, top, m, bottom, t, vec, nrm, lf: list[float]) -> None:
    """Record closure column ``c`` of a stack: ``t`` from the column's
    tensors, then the running vectors ``nrm`` (each rescaled by ``exp(-lf)``)
    from ``vec`` and ``t``; ``vec`` is ``None`` at the first column, which
    reads row 0 of ``t``."""
    if top is None and bottom is None:
        inputs, ops, spec = [m, None], [m, np.eye(m.shape[1])], "ucvq,uv->cq"
    else:
        inputs = [tape.recorded(top.sites[c])] if top is not None else []
        inputs += [m] + ([tape.recorded(bottom.sites[c])] if bottom is not None else [])
        ops, spec = inputs, _CLOSE_SPECS[(top is not None, bottom is not None)]
    tape.record(inputs, [t], einsum_backward(spec, ops))
    mats = t.reshape((len(m),) + t.shape[-2:])
    prev = np.eye(1, mats.shape[1])[0] if vec is None else vec.reshape(len(m), -1)
    tape.record([vec, t], [nrm], einsum_backward("i,ij->j", [prev, mats], [math.exp(-x) for x in lf]))


# ---------------------------------------------------------------------------
# Fixed-schedule amplitude (the consistent contraction)


@dataclass(frozen=True)
class FixedPlan:
    """Configuration-independent boundary-absorption schedule.

    Rows ``[0, mid)`` are absorbed downward, rows ``(mid, rows-1]`` upward,
    and the strip at ``mid`` is closed exactly. The plan is its four numbers
    ``(rows, cols, chi, mid)`` and holds nothing of a configuration, so every
    configuration of a lattice is contracted on the same schedule.
    :meth:`for_lattice` closes at the middle row.
    """

    rows: int
    cols: int
    chi: int
    mid: int

    def __post_init__(self):
        for name, lowest in (("rows", 1), ("cols", 1), ("chi", 1), ("mid", 0)):
            check_int(name, getattr(self, name), lowest)
        if self.mid >= self.rows:
            raise ValueError(f"mid must be in [0, {self.rows}), got {self.mid}")

    @classmethod
    def for_lattice(cls, rows: int, cols: int, chi: int) -> "FixedPlan":
        return cls(rows, cols, chi, rows // 2)


def _check_plan(peps: Peps, plan: FixedPlan) -> None:
    if (plan.rows, plan.cols) != (peps.rows, peps.cols):
        raise ValueError("plan lattice extents do not match the state")


def amplitude_fixed(peps: Peps, n, plan: FixedPlan) -> AmplitudeValue:
    """TNF amplitude of ``n`` under the fixed schedule ``plan``: row 0 of
    :func:`fixed_table` of the table of ``n`` alone."""
    _check_plan(peps, plan)
    cfg = as_config(n, peps.n_sites, peps.phys_dim)
    return table_value(*_table(peps, plan.mid, plan.chi, cfg[None])[:2])


# Bytes one lock-step stack may take: a :func:`fixed_table` stack a ``rows``-th,
# counted by its largest products (a walk holds one per level); an inverse-time
# block of MPO-applied bra chains all of it.
BLOCK_BYTES = 8 << 20


def fixed_table(peps: Peps, plan: FixedPlan, configs) -> tuple[np.ndarray, np.ndarray]:
    """The amplitude of each row of the table ``configs`` under the schedule
    ``plan``, in order, as an amplitude table (see :mod:`tnflab.tensor`).

    The configurations share the plan's schedule, so one walk on the stacked
    engine (:func:`_walk`) absorbs each distinct prefix of rows
    ``0 .. mid-1`` and each distinct suffix of rows ``mid+1 ..`` once, then
    gathers each configuration's two boundaries by index and closes them in
    stacked closures. Every distinct bottom boundary is kept; the top side
    runs depth first and closes as it goes. A stack holds as many chains as
    fit a ``rows``-th of :data:`BLOCK_BYTES` at its own shapes, and at least
    one. Each chain gets the bits it gets alone, so a row's amplitude is
    :func:`amplitude_fixed`'s (a table of one) whatever else the table holds.
    The table is read by :func:`tnflab.mps.as_configs`.
    """
    _check_plan(peps, plan)
    return _table(peps, plan.mid, plan.chi, as_configs(configs, peps.n_sites, peps.phys_dim))[:2]


def fixed_table_vjp(peps: Peps, plan: FixedPlan, configs, cotangent) -> tuple[np.ndarray, np.ndarray]:
    """The gradient of ``Re sum_k conj(cotangent[k]) ln psi_k`` over the real
    parameters in :func:`peps_to_params` order, ``psi_k`` the amplitude
    :func:`fixed_table` gives row ``k`` of ``configs``, and per row the
    number of real parameters its contraction leaves at 0 (the zeroed rule):
    a truncation degenerate for a configuration
    (:func:`tnflab.adjoint.degenerate_cut`) sends nothing back through its
    chain, so on each side of the closure row the entries ``t[..., n_s]``
    read by the rows absorbed up to that side's last such truncation get 0
    and are counted; a zero amplitude contributes nothing, and every entry
    it reads is counted.

    :func:`fixed_table`'s walk and closures with a tape per absorb slice and
    per closure stack, each pulled back right after its children (see
    :func:`_walk`): a gather pulls back as a scatter-add into its parent
    stack, each distinct prefix boundary once with the summed cotangent of
    its children, and a projected row into the physical slices of its site
    tensors. The kept bottom boundaries hold no tape, which bounds memory, so
    the bottom side is walked twice: untaped for them, and taped after the
    top. Each configuration's degenerate truncations drop only its own
    contributions. The sum runs in another order than one reverse pass per
    configuration, so the bits differ from that sum's. ``cotangent`` holds
    one finite number per table row, else ``ValueError`` is raised before any
    contraction.
    """
    _check_plan(peps, plan)
    table = as_configs(configs, peps.n_sites, peps.phys_dim)
    seed = np.asarray(cotangent)
    if seed.shape != (len(table),) or seed.dtype.kind not in "iufc" or not np.isfinite(seed).all():
        raise ValueError(f"cotangent must hold one finite number per table row ({len(table)})")
    return _table(peps, plan.mid, plan.chi, table, seed.astype(complex))[2:]


def _table(peps: Peps, mid: int, chi: int | None, table: np.ndarray, cotangent=None):
    """The amplitude table of the checked ``table`` with the strip closed at
    row ``mid`` and each absorption compressed to ``chi`` (exact for
    ``None``), then two ``None``. Given ``cotangent``, the last two are
    :func:`fixed_table_vjp` of it: the gradient and each row's zeroed
    count."""
    (b_part, b_pos), bottoms, below = np.zeros((2, len(table)), np.int64), [], range(peps.rows - 1, mid, -1)

    def keep(bottom, pos, cfgs, _):  # every distinct bottom boundary, and where each row's is
        b_part[cfgs], b_pos[cfgs] = len(bottoms), pos
        bottoms.append(bottom)

    _walk(peps, table, below, chi, "bottom", keep)
    mantissa, log_scale = np.empty(len(table), complex), np.empty(len(table))
    shapes = _row_shapes(peps, mid)
    grads = None
    if cotangent is not None:
        grads = [[np.zeros(t.shape, complex) for t in row] for row in peps.sites]
        b_bars = [_zero_bars(bottom, "bottom") for bottom in bottoms]
        zeroed = np.zeros(len(table), np.int64)

    def close(top, pos, cfgs, top_zeroed):
        bar = None if grads is None else _zero_bars(top, "top")
        if grads is not None:
            zeroed[cfgs] = top_zeroed[pos]
        for part, at, picked in _closure_cuts(peps, shapes, top, pos, cfgs, b_part, bottoms):
            tape = None if grads is None else Tape()
            ends = _gather(top, at, "top", tape), _gather(bottoms[part], b_pos[picked], "bottom", tape)
            values, logs = _close_strip(ends[0], _stacked_row(peps, table[picked], mid, tape), ends[1], tape)
            mantissa[picked], log_scale[picked] = table_from_parts(values, logs)
            if tape is None or not values.any():
                continue
            live = values != 0
            vec = tape.ops[-1][1][0]
            seed = np.where(live, cotangent[picked], 0) / np.conj(np.where(live, values, 1))
            bars = tape.backward({id(vec): seed.reshape((1,) + vec.shape)})
            _pull_row(grads, peps, tape, bars, table[picked], mid)
            _pull_gather(bar, ends[0], at, tape, bars)
            _pull_gather(b_bars[part], ends[1], b_pos[picked], tape, bars)
        return bar

    def reopen(bottom, pos, cfgs, bottom_zeroed):
        zeroed[cfgs] += bottom_zeroed[pos]
        return None if bottom is None else b_bars[b_part[cfgs[0]]]

    _walk(peps, table, range(mid), chi, "top", close, grads)
    if grads is None:
        return mantissa, log_scale, None, None
    _walk(peps, table, below, chi, "bottom", reopen, grads)
    zeroed[mantissa == 0] = _row_sizes(peps, range(peps.rows))[-1]
    grad = np.concatenate([p for row in grads for g in row for p in (g.real.ravel(), g.imag.ravel())])
    return mantissa, log_scale, grad, zeroed


def _closure_cuts(peps: Peps, shapes: list[tuple], top, pos, cfgs, b_part, bottoms):
    """The closure stacks of the configurations ``cfgs`` under the top stack
    ``top`` (``pos`` their places in it) on a middle row of site shapes
    ``shapes``: per stack, the bottom part it reads, and the places and
    table rows of its configurations."""
    order = np.argsort(b_part[cfgs], kind="stable")  # a closure stack reads one bottom part
    pos, cfgs = pos[order], cfgs[order]
    edges = np.flatnonzero(np.diff(b_part[cfgs], prepend=-1, append=-1)).tolist()
    for lo, hi in zip(edges, edges[1:]):
        part = b_part[cfgs[lo]]
        step = _stack_size(peps, top, shapes, bottoms[part])
        for k in range(lo, hi, step):
            cut = slice(k, min(k + step, hi))
            yield part, pos[cut], cfgs[cut]


def _levels(peps: Peps, table: np.ndarray, rows: range) -> list[tuple]:
    """The prefix levels of the checked ``table`` along ``rows`` (the rows
    one side absorbs, in order): per row, the table row of one configuration
    of each distinct prefix, the first child of each prefix of the level
    before and the row's site shapes; then the configurations under each
    last prefix and where each prefix's start.

    Prefixes are numbered in lexicographic order, so each parent's children
    are consecutive. One stable sort of the table by the side's sites, first
    site first, orders every level, and a level's prefixes start where one
    of its sites changes along that order.
    """
    cols = peps.cols
    sites = [c for r in rows for c in range(r * cols, (r + 1) * cols)]
    order = np.lexsort([table[:, c] for c in reversed(sites)]) if sites else np.arange(len(table))
    start = np.zeros(len(table), bool)
    start[:1] = True
    starts, levels = np.zeros(1, np.intp), []
    for r in rows:
        for c in range(r * cols, (r + 1) * cols):
            site = table[order, c]
            start[1:] |= site[1:] != site[:-1]
        parents, starts = starts, np.flatnonzero(start)
        first = np.append(np.searchsorted(starts, parents), len(starts))
        levels.append((order[starts], first, r, _row_shapes(peps, r)))
    levels.append((order, np.append(starts, len(table)), None, None))
    return levels


def _children(first: np.ndarray, stack: Chains | None) -> tuple[np.ndarray, np.ndarray]:
    """The child prefixes of the boundaries of ``stack`` (of the root for
    ``None``), in order, and the place of each one's parent in the stack."""
    parents = np.zeros(1, np.intp) if stack is None else np.asarray(stack.rows)
    lo, n = first[parents], first[parents + 1] - first[parents]
    pos = np.repeat(np.arange(len(n)), n)
    return pos, np.arange(len(pos)) + (lo - np.cumsum(n) + n)[pos]


def _walk(peps: Peps, table: np.ndarray, rows: range, chi: int, side: str, last, grads=None):
    """Depth first over the distinct prefixes of the table along ``rows``
    (see :func:`_levels`), calling ``last(stack, pos, cfgs, zeroed)`` on each
    stack of the last level's boundaries (``None`` for no rows), with the
    place of each configuration's boundary in it and the configurations
    under it.

    A level absorbs a stack's children in slices of :func:`_stack_size`, in
    order, so a level holds one slice's boundaries at a time. Given
    ``grads``, each slice is taped and pulled back right after its children:
    ``zeroed`` holds each boundary's zeroed-parameter count (that of the rows
    up to its deepest degenerate truncation), ``last`` returns the
    cotangents of the stack's sites (compress's leg order, see
    :func:`_zero_bars`), and the rows' cotangents are added into ``grads``.
    Without it nothing of the reverse pass is kept, and ``zeroed`` is ``None``.
    """
    levels = _levels(peps, table, rows)
    sizes = None if grads is None else _row_sizes(peps, rows)

    def visit(k, stack, zeroed):
        held, first, r, shapes = levels[k]
        pos, child = _children(first, stack)
        if r is None:
            return last(stack, pos, held[child], zeroed)
        bar = None if grads is None else _zero_bars(stack, side)
        step = _stack_size(peps, *((stack, shapes, None) if side == "top" else (None, shapes, stack)))
        for j in range(0, len(child), step):
            at, kids = pos[j : j + step], child[j : j + step]
            tape = None if grads is None else Tape()
            gathered, cfgs = _gather(stack, at, side, tape), table[held[kids]]
            seeds = {}
            for part in boundary_absorb(gathered, _stacked_row(peps, cfgs, r, tape), chi, side, tape):
                below = Chains(kids[part.rows].tolist(), part.sites, part.log)
                if tape is None:
                    visit(k + 1, below, None)
                    continue
                made = [tape.recorded(s) for s in part.sites]
                flags = tape.degenerate.get(id(made[0]), False)  # a zero part has no record
                got = visit(k + 1, below, np.where(flags, sizes[k], zeroed[at[part.rows]]))
                seeds.update((id(m), g[None]) for m, g in zip(made, got))
            if tape is not None:
                bars = tape.backward(seeds)
                _pull_row(grads, peps, tape, bars, cfgs, r)
                _pull_gather(bar, gathered, at, tape, bars)
        return bar

    visit(0, None, None if grads is None else np.zeros(1, np.int64))
    del visit  # its self-reference would keep the levels alive until a collection


def _row_sizes(peps: Peps, rows: range) -> np.ndarray:
    """The real parameters the configuration reads in the first ``k + 1`` of
    ``rows``, for each ``k``."""
    return np.cumsum([0] + [2 * sum(t.size for t in peps.sites[r]) // peps.phys_dim for r in rows])[1:]


def _zero_bars(stack: Chains | None, side: str) -> list[np.ndarray] | None:
    """Zero cotangents of the sites of ``stack``, in compress's leg order."""
    if stack is None:
        return None
    return [np.zeros(s.transpose(_COMPRESS_ORDER[side]).shape, complex) for s in stack.sites]


def _pull_gather(bar, gathered: Chains | None, pos: np.ndarray, tape: Tape, bars: dict) -> None:
    """Scatter-add the cotangents of the ``gathered`` sites into ``bar``,
    those of the stack they were gathered from at ``pos``."""
    if gathered is None:
        return
    for acc, s in zip(bar, gathered.sites):
        g = bars.get(id(tape.recorded(s)))
        if g is not None:
            np.add.at(acc, pos, g.reshape((len(pos),) + acc.shape[1:]))


def _pull_row(grads, peps: Peps, tape: Tape, bars: dict, cfgs: np.ndarray, r: int) -> None:
    """Add the cotangents of the projected sites of row ``r`` of ``cfgs``
    into the physical slices of ``grads``."""
    hot = cfgs[:, r * peps.cols : (r + 1) * peps.cols].T == np.arange(peps.phys_dim)[:, None, None]
    for c, g in enumerate(grads[r]):
        bar = bars.get(id(tape.leaves[(r, c)]))
        if bar is not None:
            g += (hot[:, c].astype(float) @ bar.reshape(len(cfgs), -1)).T.reshape(g.shape)


def _gather(stack: Chains | None, pos: np.ndarray, side: str, tape: Tape | None) -> Chains | None:
    """The boundaries of ``stack`` at ``pos``, repeats and all, as one stack
    labelled ``0 .. len(pos)-1``; its sites stay contiguous in their layout.
    A ``tape``'s steps then read each gathered site of ``side`` in
    compress's leg order."""
    if stack is None:
        return None
    gathered = Chains(list(range(len(pos))), [s[pos] for s in stack.sites], [stack.log[i] for i in pos.tolist()])
    if tape is not None:
        tape.relaid.update((id(s), (s, s.transpose(_COMPRESS_ORDER[side]))) for s in gathered.sites)
    return gathered


def _stacked_row(peps: Peps, cfgs: np.ndarray, r: int, tape: Tape | None = None) -> list[np.ndarray]:
    """:func:`_row` of each configuration of the table ``cfgs`` as one stack.
    Each chain's site is laid out as a slice of a site, as :func:`_row`
    reads it, so products with an extent of 1 round as alone. A ``tape``
    keeps the projected sites as its leaves."""
    row = []
    for c, site in enumerate(peps.sites[r]):
        sliced = np.empty((len(cfgs),) + site.shape, site.dtype)
        sliced[..., 0] = site.transpose(4, 0, 1, 2, 3)[cfgs[:, r * peps.cols + c]]
        row.append(sliced[..., 0])
    if tape is not None:
        tape.leaves.update(((r, c), t) for c, t in enumerate(row))
    return _unroll_row(row, tape) if peps.boundary == "pbc" else row


def _stack_size(peps: Peps, top: Chains | None, shapes: list[tuple], bottom: Chains | None) -> int:
    """How many chains one absorb into a boundary stack (``top`` or
    ``bottom``), or one closure between two, takes on a row of site shapes
    ``shapes``: as many as fit a ``rows``-th of :data:`BLOCK_BYTES`, and at
    least one. A chain counts the bytes of its largest arrays: per column,
    the product of the top boundary (else the bottom one) with the row over
    the face legs, and the bonds of all three layers."""
    total = 0
    for c, (u, l, d, r) in enumerate(shapes):
        lt, o, rt, _ = top.sites[c][0].shape if top is not None else (1, 1, 1, u)
        o2, _, lb, rb = bottom.sites[c][0].shape if bottom is not None else (1, d, 1, 1)
        face = lt * o * rt * l * d * r if top is not None else o2 * lb * rb * u * l * r
        total += max(face, lt * rt * l * r * lb * rb)
    return max(1, BLOCK_BYTES // peps.rows // (16 * total))


def log_derivatives(peps: Peps, n, plan: FixedPlan) -> tuple[AmplitudeValue, np.ndarray, int]:
    """The amplitude of ``n`` (bit for bit :func:`amplitude_fixed`'s),
    ``O_k = d ln psi(n) / d theta_k`` for every real parameter in
    :func:`peps_to_params` order, and how many of them
    :func:`fixed_table_vjp`'s zeroed rule leaves at 0: two passes of that
    walk over the table of ``n`` alone, with cotangents 1 (``Re O_k``) and
    ``1j`` (``Im O_k``)."""
    _check_plan(peps, plan)
    table = as_config(n, peps.n_sites, peps.phys_dim)[None]
    (m, log, re, zeroed), (_, _, im, _) = (_table(peps, plan.mid, plan.chi, table, np.array([c], complex))
                                           for c in (1, 1j))
    return table_value(m, log), re + 1j * im, int(zeroed[0])


# Bytes each memo of a :class:`_BoundaryStack` may hold, as it counts them: room for the
# amplitudes of all 12,870 4x4 half-filling configurations (2.6 MiB) that a Metropolis
# chain on that lattice can visit. Enumerations run on :func:`fixed_table` and keep no memo.
MEMO_MAX_BYTES = 3 << 20
# Object bytes beyond key data and arrays per amplitude entry (key, dict slot, value),
# per environment entry (key tuple, dict slot, boundary) and per boundary site (view
# and owner), fitted with tracemalloc to within 10% on 4x4, 6x6 and Floquet memos.
_AMP_BYTES, _ENV_BYTES, _SITE_BYTES = 195, 300, 250


class _BoundaryStack:
    """Prefix-memoized boundary environments and closed amplitudes.

    A boundary is a deterministic function of the rows it covers, so one
    memo of environments, keyed by (side, the configuration of the rows
    covered), serves every closure row; a second memo keys amplitudes by
    (closure row, configuration). Reused values are bit-identical to
    recomputed ones. An entry counts its key's bytes plus ``_AMP_BYTES`` or
    ``_ENV_BYTES``, and an environment adds each site's owning array's
    ``nbytes`` plus ``_SITE_BYTES``. A store that would push a memo past
    ``MEMO_MAX_BYTES`` empties that memo alone instead.
    """

    def __init__(self, peps: Peps, chi: int):
        check_int("chi", chi, 1)
        self.peps = peps
        self.chi = chi
        self._envs: dict[tuple, Chains] = {}
        self._env_bytes = 0
        self._amps: dict[bytes, AmplitudeValue] = {}
        # Amplitude keys: the closure row's tag, then the configuration as its narrowest integers.
        self._key_type = np.min_scalar_type(peps.phys_dim - 1)
        self._row_tags = [r.to_bytes(4, "little") for r in range(peps.rows)]
        self._amp_capacity = MEMO_MAX_BYTES // (4 + peps.n_sites * self._key_type.itemsize + _AMP_BYTES)

    def _env(self, cfg: np.ndarray, side: str, mid: int) -> Chains | None:
        """Boundary over the rows above (``"top"``) or below ``mid``, built
        on the longest stored prefix; each new prefix is offered to the memo."""
        cols = self.peps.cols
        order = range(mid) if side == "top" else range(self.peps.rows - 1, mid, -1)
        # Keys of the longest prefixes first, down to the longest one stored.
        keys = [None] * len(order)
        env, start = None, 0
        for k in range(len(order) - 1, -1, -1):
            r = order[k]
            keys[k] = (side, (cfg[: (r + 1) * cols] if side == "top" else cfg[r * cols :]).tobytes())
            if keys[k] in self._envs:
                env, start = self._envs[keys[k]], k + 1
                break
        for k in range(start, len(order)):
            [env] = boundary_absorb(env, _row(self.peps, cfg, order[k]), self.chi, side)
            size = len(keys[k][1]) + _ENV_BYTES + sum(
                (s if s.base is None else s.base).nbytes + _SITE_BYTES for s in env.sites)
            if self._env_bytes + size <= MEMO_MAX_BYTES:
                self._envs[keys[k]] = env
                self._env_bytes += size
            else:
                self._envs, self._env_bytes = {}, 0
        return env

    def _closed(self, cfg: np.ndarray, mid: int) -> AmplitudeValue:
        """Amplitude of ``cfg`` with the strip closed at row ``mid``."""
        key = self._row_tags[mid] + cfg.astype(self._key_type).tobytes()
        amp = self._amps.get(key)
        if amp is None:
            top, bottom = self._env(cfg, "top", mid), self._env(cfg, "bottom", mid)
            amp = _close_one(top, _row(self.peps, cfg, mid), bottom)
            self._store(key, amp)
        return amp

    def _store(self, key: bytes, amp: AmplitudeValue) -> None:
        """Offer ``amp`` to the amplitude memo, which empties when full."""
        if len(self._amps) < self._amp_capacity:
            self._amps[key] = amp
        else:
            self._amps.clear()

    def _close_misses(self, table: np.ndarray, mids) -> list[AmplitudeValue]:
        """The amplitude of each row of the checked table ``table`` (as
        :func:`tnflab.mps.as_configs` gives it) closed at its row of
        ``mids``, bit for bit :meth:`_closed`'s; the memo's misses among
        them are memoized.

        Each miss builds its environments through :meth:`_env`; the misses
        of one closure row whose boundaries share their site shapes close in
        one stacked :func:`_close_strip`, laid out as :func:`fixed_table`
        lays out its stacks: the row from :func:`_stacked_row`, each
        boundary's sites concatenated along the stack axis.
        """
        raw, width, tags = table.tobytes(), table.shape[1] * table.itemsize, self._row_tags
        keys = [tags[mid] + raw[i * width : (i + 1) * width] for i, mid in enumerate(mids)]
        amps = {key: self._amps.get(key) for key in keys}
        misses = {key: i for i, key in enumerate(keys) if amps[key] is None}  # one per repeat
        groups: dict[tuple, list] = {}
        for key, i in misses.items():
            mid, cfg = mids[i], table[i].astype(np.int64)
            top, bottom = self._env(cfg, "top", mid), self._env(cfg, "bottom", mid)
            shapes = tuple(None if env is None else tuple(s.shape for s in env.sites) for env in (top, bottom))
            groups.setdefault((mid,) + shapes, []).append((key, i, top, bottom))
        for (mid, *_), group in groups.items():
            closed, picks, tops, bottoms = zip(*group)
            row = _stacked_row(self.peps, table[list(picks)], mid)
            values, log = _close_strip(_concat(tops), row, _concat(bottoms))
            for key, value, lg in zip(closed, values.tolist(), log):
                amps[key] = AmplitudeValue.from_parts(value, lg)
                self._store(key, amps[key])
        return [amps[key] for key in keys]


def _concat(envs) -> Chains | None:
    """The stacks of one ``envs`` (all ``None``, or sharing their site
    shapes) as one stack, each site contiguous along the stack axis."""
    if envs[0] is None:
        return None
    sites = [np.concatenate(column) for column in zip(*(env.sites for env in envs))]
    return Chains(list(range(len(envs))), sites, [env.log[0] for env in envs])


class FixedEvaluator(_BoundaryStack):
    """Amplitude evaluator for the fixed schedule with pure-function memoing.

    Boundary environments are deterministic functions of the row
    configurations they summarize, so reusing them across configurations
    returns bit-identical values to recomputation. This is what makes
    Metropolis sweeps and local-energy sums affordable; semantics are
    exactly those of :func:`amplitude_fixed`. The evaluator holds no
    history: its closure row is ``plan.mid`` whatever a move changed, so
    one serves any number of chains, one after another.
    """

    def __init__(self, peps: Peps, plan: FixedPlan):
        _check_plan(peps, plan)
        super().__init__(peps, plan.chi)
        self.plan = plan

    def closure_row(self, site: int) -> int:
        """The row a contraction closes at after a move that last changed
        ``site``: always ``plan.mid``."""
        return self.plan.mid

    def amplitude(self, n) -> AmplitudeValue:
        return self._closed(as_config(n, self.peps.n_sites, self.peps.phys_dim), self.plan.mid)

    def amplitude_with_site(
        self, n, site: tuple[int, int], tensor: np.ndarray, stats: dict | None = None
    ) -> AmplitudeValue:
        """Amplitude with one site tensor replaced, sharing cached environments.

        The replacement is transient (nothing about it is memoized); rows on
        the far side of the replaced row reuse the standard environments, so
        parameter sweeps cost only the strip between the site and the middle
        row. ``stats["max_discarded"]`` receives the largest discarded weight
        of the patched absorptions. Values equal ``amplitude_fixed`` on the
        modified state.
        """
        peps, mid = self.peps, self.plan.mid
        r0, c0 = map(operator.index, site)
        if not (0 <= r0 < peps.rows and 0 <= c0 < peps.cols):
            raise ValueError(f"site {(r0, c0)} is not on the {peps.rows}x{peps.cols} lattice")
        cfg = as_config(n, peps.n_sites, peps.phys_dim)
        patch = ((r0, c0), tensor)
        tape = None if stats is None else Tape()
        top = self._env(cfg, "top", min(r0, mid))
        for r in range(min(r0, mid), mid):
            [top] = boundary_absorb(top, _row(peps, cfg, r, patch), self.chi, "top", tape)
        bottom = self._env(cfg, "bottom", max(r0, mid))
        for r in range(max(r0, mid), mid, -1):
            [bottom] = boundary_absorb(bottom, _row(peps, cfg, r, patch), self.chi, "bottom", tape)
        if tape is not None:
            stats["max_discarded"] = tape.max_discarded
        return _close_one(top, _row(peps, cfg, mid, patch), bottom)


# ---------------------------------------------------------------------------
# Dynamic (history-dependent) amplitude, the standard VMC reuse scheme


class DynamicCache(_BoundaryStack):
    """Dynamic amplitudes: a contraction closes at the row of the last site
    the Markov history changed (:meth:`closure_row`; the last row for the
    history's first configuration), so at finite ``chi`` the amplitude
    depends on the history. The memo is the fixed schedule's, keyed by the
    closure row, so it stays pure. The chains of :mod:`tnflab.vmc` keep
    their own history and share one cache; :meth:`peek` and :meth:`commit`
    walk one history held here as a base configuration. Mutable state,
    never shared between threads.
    """

    def __init__(self, peps: Peps, chi: int):
        super().__init__(peps, chi)
        self.base: np.ndarray | None = None
        self.base_amp: AmplitudeValue | None = None

    def closure_row(self, site: int) -> int:
        """The row a contraction closes at after a move that last changed
        ``site``: the row of ``site``."""
        return site // self.peps.cols

    def peek(self, n) -> AmplitudeValue:
        """Amplitude of ``n`` relative to the current base, without rebasing;
        a cold cache takes ``n`` as its first configuration."""
        cfg = as_config(n, self.peps.n_sites, self.peps.phys_dim)
        if self.base is None:
            self.base = cfg.copy()
            self.base_amp = self._closed(cfg, self.closure_row(cfg.size - 1))
            return self.base_amp
        diff = np.nonzero(cfg != self.base)[0]
        if diff.size == 0:
            return self.base_amp
        return self._closed(cfg, self.closure_row(int(diff[-1])))

    def commit(self, n, amp: AmplitudeValue) -> None:
        """Rebase onto ``n``; the memoized environments stay valid."""
        cfg = as_config(n, self.peps.n_sites, self.peps.phys_dim)
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


# Largest array :func:`exact_amplitude` may build, in bytes.
EXACT_MAX_BYTES = 1 << 27


def _exact_peak(peps: Peps) -> int:
    """Entries of the largest array :func:`exact_amplitude` builds, from the
    site shapes alone: an absorbed row's sites before compression and the
    closure columns, with every boundary bond at its exact-rank bound (the
    product of the (open, face) extents on the smaller side)."""
    peak, legs, bonds = 0, None, None  # legs: (open, face) per column
    for r in range(peps.rows):
        row = _row_shapes(peps, r)
        row_bonds = [row[0][1]] + [s[3] for s in row]
        if r == peps.rows - 1:  # the closure
            if bonds is not None:
                peak = max(peak, max(bonds[c] * lm * bonds[c + 1] * rm
                                     for c, (_, lm, _, rm) in enumerate(row)))
            break
        if legs is None:
            legs, bonds = [(u, d) for u, _, d, _ in row], row_bonds
        else:
            legs = [(o, d) for (o, _), (_, _, d, _) in zip(legs, row)]
            bonds = [b * rb for b, rb in zip(bonds, row_bonds)]
            peak = max(peak, max(bonds[c] * o * f * bonds[c + 1] for c, (o, f) in enumerate(legs)))
        sizes = [o * f for o, f in legs]
        bonds = [min(b, math.prod(sizes[:c]), math.prod(sizes[c:])) if 0 < c < len(sizes) else b
                 for c, b in enumerate(bonds)]
    return peak


def exact_amplitude(peps: Peps, n) -> AmplitudeValue:
    """Untruncated row-by-row contraction: the table walk of ``n`` alone,
    closed at the last row with no compression. Raises
    :class:`ResourceLimitError`, before any contraction, when its largest
    array would exceed :data:`EXACT_MAX_BYTES`."""
    need = 16 * _exact_peak(peps)
    if need > EXACT_MAX_BYTES:
        raise ResourceLimitError(
            f"exact amplitude would build a {need / 2**20:.0f} MiB array, over the "
            f"{EXACT_MAX_BYTES >> 20} MiB guard"
        )
    cfg = as_config(n, peps.n_sites, peps.phys_dim)
    return table_value(*_table(peps, peps.rows - 1, None, cfg[None])[:2])


# ---------------------------------------------------------------------------
# Parameter flattening (for gradient-based optimization)


def peps_to_params(peps: Peps) -> np.ndarray:
    """Flatten all site tensors into a real vector (real parts, then imag,
    per site, row-major)."""
    return np.concatenate([p for row in peps.sites for t in row for p in (t.real.ravel(), t.imag.ravel())])


def peps_from_params(template: Peps, params: np.ndarray) -> Peps:
    """Inverse of :func:`peps_to_params` with shapes from ``template``."""
    out, k = template.copy(), 0
    for row in out.sites:
        for c, t in enumerate(row):
            re, im = params[k : k + 2 * t.size].reshape((2,) + t.shape)
            row[c] = re + 1j * im
            k += 2 * t.size
    if k != params.size:
        raise ValueError(f"parameter vector length {params.size}, expected {k}")
    return out


# ---------------------------------------------------------------------------
# Serialization (binary, little-endian, versioned)

_MAGIC = b"TNFPEPS\x00"
_VERSION = 1


def save_peps(peps: Peps, path) -> None:
    """Checkpoint format: versioned header, then per-site extents and
    row-major complex128 data, all little-endian. A state changed since it
    was made is checked again, so the header never claims a false shape."""
    peps.validate()
    buf = io.BytesIO()
    buf.write(_MAGIC)
    pbc = 1 if peps.boundary == "pbc" else 0
    buf.write(struct.pack("<IIIIIB", _VERSION, peps.rows, peps.cols, peps.phys_dim, peps.bond_dim, pbc))
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
