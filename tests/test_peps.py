"""PEPS states, fixed-schedule amplitudes, boundary contraction, exact oracle."""
import dataclasses
import itertools
import math
import tracemalloc
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tnflab.peps as peps_module
from tnflab.ed import Sector
from tnflab.errors import DimensionError, ResourceLimitError
from tnflab.mps import Chains, as_configs, compress
from tnflab.peps import (
    EXACT_MAX_BYTES,
    DynamicCache,
    FixedEvaluator,
    FixedPlan,
    Peps,
    _close_one,
    _close_strip,
    _exact_peak,
    _row,
    _unroll_row,
    amplitude_fixed,
    as_config,
    boundary_absorb,
    exact_amplitude,
    fixed_table,
    load_peps,
    product_peps,
    project_config,
    random_peps,
    save_peps,
)
from tnflab.tensor import AmplitudeValue, renormalize, svd_split, table_from_parts


BOUNDARIES = ("obc", "pbc")


def bits(a):
    return (a.mantissa, a.log_scale, a.is_zero)


class Boundary(NamedTuple):
    """One boundary: rank-4 ``(left, open, face, right)`` sites and its log scale."""

    sites: list
    log_scale: float


def engine_stack(b: Boundary | None, side: str) -> Chains | None:
    """A rank-4 boundary as the engine's stack of one, in the layout it keeps on ``side``."""
    if b is None:
        return None
    return Chains([0], [s[None].transpose(peps_module._LAYOUT[side]) for s in b.sites], [b.log_scale])


def absorb(bmps, row, chi, side="top") -> Boundary:
    """``boundary_absorb`` of a stack of one on the rank-4 ``row``, its
    boundaries read and returned as rank-4 sites."""
    [part] = boundary_absorb(engine_stack(bmps, side), [t[None] for t in row], chi, side)
    return Boundary([peps_module._in_compress_order(s, side)[0] for s in part.sites], part.log[0])


def close(top, mid, bottom) -> AmplitudeValue:
    """``_close_one`` (a stack of one) on rank-4 boundaries and row."""
    return _close_one(engine_stack(top, "top"), [t[None] for t in mid], engine_stack(bottom, "bottom"))


def count_absorbs(monkeypatch) -> list[int]:
    """Count the ``boundary_absorb`` calls made in :mod:`tnflab.peps`, in the
    returned one-item list."""
    count, absorb = [0], peps_module.boundary_absorb

    def counted(*args, **kwargs):
        count[0] += 1
        return absorb(*args, **kwargs)

    monkeypatch.setattr(peps_module, "boundary_absorb", counted)
    return count


def memo_footprint(ev) -> tuple[int, int]:
    """Bytes of the environment and amplitude memos, counted entry by entry."""
    def owner(a):
        return a if a.base is None else a.base

    envs = sum(len(key[1]) + peps_module._ENV_BYTES
               + sum(owner(s).nbytes + peps_module._SITE_BYTES for s in env.sites)
               for key, env in ev._envs.items())
    return envs, sum(len(key) + peps_module._AMP_BYTES for key in ev._amps)


def brute_force_amplitude(peps, n):
    """Sum over every bond index of the projected network (OBC and PBC)."""
    net = project_config(peps, n)
    labels = {}

    def lab(x):
        return labels.setdefault(x, len(labels))

    ops = []
    rows, cols, pbc = peps.rows, peps.cols, peps.boundary == "pbc"
    for r in range(rows):
        for c in range(cols):
            up = ("v", (r - 1) % rows if pbc else r - 1, c)
            down = ("v", r, c)
            left = ("h", r, (c - 1) % cols if pbc else c - 1)
            right = ("h", r, c)
            if not pbc:
                if r == 0:
                    up = ("du", r, c)
                if r == rows - 1:
                    down = ("dd", r, c)
                if c == 0:
                    left = ("dl", r, c)
                if c == cols - 1:
                    right = ("dr", r, c)
            ops.append(net[r][c])
            ops.append([lab(up), lab(left), lab(down), lab(right)])
    return complex(np.einsum(*ops, optimize=True).item())


class TestProductPeps:
    def test_amplitude_on_and_off(self):
        cfg = [0, 1, 1, 0]
        p = product_peps(2, 2, 2, cfg)
        plan = FixedPlan.for_lattice(2, 2, 4)
        assert abs(amplitude_fixed(p, cfg, plan).value - 1.0) < 1e-14
        assert amplitude_fixed(p, [0, 0, 0, 0], plan).is_zero

    def test_norm_over_all_configs(self):
        p = product_peps(2, 2, 2, [0, 1, 1, 0])
        plan = FixedPlan.for_lattice(2, 2, 4)
        total = 0.0
        for cfg in itertools.product(range(2), repeat=4):
            a = amplitude_fixed(p, list(cfg), plan)
            if not a.is_zero:
                total += abs(a.value) ** 2
        assert abs(total - 1.0) < 1e-12


class TestProjectConfig:
    def test_is_physical_slice(self):
        p = random_peps(2, 3, 2, 2, seed=0)
        n = [0, 1, 1, 0, 1, 0]
        net = project_config(p, n)
        for r in range(2):
            for c in range(3):
                assert np.array_equal(net[r][c], p.sites[r][c][:, :, :, :, n[r * 3 + c]])

    def test_out_of_range_entry(self):
        p = random_peps(2, 2, 2, 2, seed=0)
        with pytest.raises(ValueError):
            project_config(p, [0, 1, 2, 0])

    @pytest.mark.parametrize("bad", [0.9, math.nan])
    def test_non_integer_entry_rejected(self, bad):
        """A non-integer entry is an error, not a truncated site value;
        integer-valued floats and bools read as integers."""
        p = random_peps(2, 2, 2, 2, seed=0)
        plan = FixedPlan.for_lattice(2, 2, 2)
        with pytest.raises(ValueError, match="integers"):
            amplitude_fixed(p, [bad, 0, 0, 0], plan)
        want = bits(amplitude_fixed(p, [1, 0, 0, 1], plan))
        assert bits(amplitude_fixed(p, [1.0, 0.0, 0.0, 1.0], plan)) == want
        assert bits(amplitude_fixed(p, np.array([True, False, False, True]), plan)) == want

    @pytest.mark.parametrize(
        "bad",
        [
            np.array([-1, 0, 0, 1], dtype=np.int8),
            np.array([2, 0, 0, 1], dtype=np.uint8),
            [math.inf, 0, 0, 1],
            np.array([1 + 0j, 0, 0, 1]),
            [0, 1, 1],
        ],
        ids=["int8-negative", "uint8-too-large", "inf", "complex", "wrong-length"],
    )
    def test_as_config_rejects(self, bad):
        p = random_peps(2, 2, 2, 2, seed=0)
        with pytest.raises(ValueError):
            as_config(bad, 4, 2)
        with pytest.raises(ValueError):
            amplitude_fixed(p, bad, FixedPlan.for_lattice(2, 2, 2))

    def test_narrow_integer_dtypes_give_int64_bits(self):
        p = random_peps(2, 2, 2, 2, seed=0, boundary="pbc")
        plan = FixedPlan.for_lattice(2, 2, 2)
        want = bits(amplitude_fixed(p, np.array([0, 1, 1, 0], dtype=np.int64), plan))
        for dtype in (bool, np.uint8):
            assert bits(amplitude_fixed(p, np.array([0, 1, 1, 0], dtype=dtype), plan)) == want

    def test_product_network_multiplies_to_amplitude(self):
        cfg = [1, 0, 0, 1]
        p = product_peps(2, 2, 2, cfg)
        net = project_config(p, cfg)
        prod = 1.0
        for row in net:
            for t in row:
                prod *= t.reshape(-1)[0]
        assert abs(prod - 1.0) < 1e-14


class TestExactAmplitude:
    def test_chain_is_matrix_product(self):
        p = random_peps(1, 5, 2, 3, seed=1)
        n = [0, 1, 1, 0, 1]
        net = project_config(p, n)
        mat = None
        for t in net[0]:
            m = t[0, :, 0, :]  # (left, right)
            mat = m if mat is None else mat @ m
        want = mat[0, 0]
        got = exact_amplitude(p, n)
        assert abs(got.value - want) / abs(want) < 1e-12

    def test_3x3_brute_force(self):
        p = random_peps(3, 3, 2, 2, seed=2)
        n = [0, 1, 0, 1, 0, 1, 1, 0, 1]
        want = brute_force_amplitude(p, n)
        got = exact_amplitude(p, n).value
        assert abs(got - want) / abs(want) < 1e-11

    def test_pbc_brute_force(self):
        p = random_peps(3, 3, 2, 2, seed=3, boundary="pbc")
        n = [0, 1, 0, 1, 1, 0, 0, 1, 0]
        want = brute_force_amplitude(p, n)
        got = exact_amplitude(p, n).value
        assert abs(got - want) / abs(want) < 1e-11

    def test_resource_guard(self):
        """5x5 PBC at D=4 would build a 4 GiB boundary site: refused from
        the shapes, before any contraction allocates."""
        p = random_peps(5, 5, 2, 4, seed=0, boundary="pbc")
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError, match="4096 MiB"):
                exact_amplitude(p, [0, 1] * 12 + [0])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_guard_admits_the_largest_lattices_in_use(self):
        """4x4 PBC at D=3, larger than any lattice the tests contract
        exactly, needs 8 MiB; it and 6x6 OBC at D=4 stay admitted."""
        for rows, cols, bond, boundary in ((4, 4, 3, "pbc"), (6, 6, 4, "obc")):
            p = random_peps(rows, cols, 2, bond, seed=0, boundary=boundary)
            assert 16 * _exact_peak(p) <= EXACT_MAX_BYTES

    @pytest.mark.parametrize("boundary, rows, cols, peaks", [
        ("obc", 3, 1, [1, 2, 3]), ("obc", 2, 2, [1, 4, 9]), ("obc", 3, 3, [1, 32, 243]),
        ("pbc", 3, 1, [1, 4, 9]), ("pbc", 2, 2, [1, 16, 81]), ("pbc", 3, 3, [1, 1024, 59049]),
    ])
    def test_guard_peak_pinned(self, boundary, rows, cols, peaks):
        """The guard's entry count at D 1-3, pinned: periodic rows are
        counted unrolled, with the wrap bond riding along."""
        assert [_exact_peak(random_peps(rows, cols, 2, d, seed=0, boundary=boundary)) for d in (1, 2, 3)] == peaks

    @pytest.mark.parametrize("boundary, vertical, horizontal, peak", [
        ("obc", 2, 3, 72), ("obc", 3, 2, 48), ("pbc", 2, 3, 5184), ("pbc", 3, 2, 2304),
    ])
    def test_guard_peak_reads_each_bond_direction(self, boundary, vertical, horizontal, peak):
        """A 3x3 state whose vertical and horizontal bonds differ in extent:
        the guard reads each from its own legs."""
        def ext(k, n, bond):
            return bond if boundary == "pbc" or 0 < k < n else 1
        sites = [[np.ones((ext(r, 3, vertical), ext(c, 3, horizontal), ext(r + 1, 3, vertical),
                           ext(c + 1, 3, horizontal), 2), complex) for c in range(3)] for r in range(3)]
        assert _exact_peak(Peps(3, 3, 2, max(vertical, horizontal), sites, boundary)) == peak


class TestBoundaryAbsorb:
    def test_no_truncation_matches_direct_contraction(self):
        rng = np.random.default_rng(4)
        p = random_peps(2, 4, 2, 2, seed=4)
        n = [0, 1, 0, 1, 1, 0, 1, 0]
        net = project_config(p, n)
        b0 = absorb(None, net[0], None)
        b1 = absorb(b0, net[1], 64)
        # close with nothing below: contract face legs (extent 1) away
        val = 1.0
        mat = None
        for c, s in enumerate(b1.sites):
            m = s.reshape(s.shape[0], s.shape[2])
            mat = m if mat is None else mat @ m
        got = complex(mat[0, 0]) * math.exp(b1.log_scale)
        want = brute_force_amplitude(p, n)
        assert abs(got - want) / abs(want) < 1e-10

    def test_d1_row_changes_boundary_by_scalar(self):
        p = product_peps(3, 4, 2, [0, 1] * 6)
        n = [0, 1] * 6
        net = project_config(p, n)
        b0 = absorb(None, net[0], 4)
        b1 = absorb(b0, net[1], 4)
        # D=1: bond structure unchanged, sites proportional
        for s0, s1 in zip(b0.sites, b1.sites):
            assert s0.shape == s1.shape

    def test_against_two_row_svd_oracle(self):
        """4-site row, D=2, chi=2: independent re-implementation that forms
        the two-row tensor explicitly and truncates each bond by SVD in the
        same sweep order."""
        p = random_peps(2, 4, 2, 2, seed=5)
        n = [0, 1, 1, 0, 1, 0, 0, 1]
        net = project_config(p, n)
        chi = 2

        got = absorb(absorb(None, net[0], chi), net[1], chi)

        # oracle: same math written straight-line on raw arrays

        def compress_oracle(sites, cap):
            sites = [s.copy() for s in sites]
            log = 0.0
            for i in range(len(sites) - 1):
                l, ph, r = sites[i].shape
                q, rm = np.linalg.qr(sites[i].reshape(l * ph, r))
                sites[i] = q.reshape(l, ph, q.shape[1])
                sites[i + 1] = np.tensordot(rm, sites[i + 1], axes=([1], [0]))
            for i in range(len(sites) - 1, 0, -1):
                t, lf, _ = renormalize_one(sites[i])
                log += lf
                l, ph, r = t.shape
                sp = split_one(t, 1, min(cap, min(l, ph * r)))
                k = sp.singulars.size
                sites[i] = sp.right.reshape(k, ph, r)
                sites[i - 1] = np.tensordot(sites[i - 1], sp.isometry * sp.singulars, axes=([2], [0]))
            t, lf, _ = renormalize_one(sites[0])
            sites[0] = t
            log += lf
            return sites, log

        row0 = [t[:, :, :, :].transpose(1, 0, 2, 3).reshape(t.shape[1], t.shape[0] * t.shape[2], t.shape[3]) for t in net[0]]
        sites0, log0 = compress_oracle(row0, chi)
        merged = []
        for c in range(4):
            s = sites0[c].reshape(sites0[c].shape[0], 1, net[0][c].shape[2], sites0[c].shape[2])
            t = net[1][c]
            m = np.tensordot(s, t, axes=([2], [0]))  # (l, o, r, l2, d2, r2)
            m = m.transpose(0, 3, 1, 4, 2, 5)
            l, l2, o, d2, r, r2 = m.shape
            merged.append(m.reshape(l * l2, o * d2, r * r2))
        sites1, log1 = compress_oracle(merged, chi)

        for a, b in zip(got.sites, sites1):
            assert np.allclose(a, b, atol=1e-12), "boundary sites differ from oracle"
        assert abs(got.log_scale - (log0 + log1)) < 1e-10


# The np.tensordot bodies that compress, boundary_absorb and _close_strip had
# before their contractions were written out as np.dot; kept as bitwise oracles.
# They call the stacked primitives on stacks of one.


def renormalize_one(t):
    out, [lf], [zero] = renormalize(t[None])
    return out[0], lf, zero


def split_one(t, n_left, chi):
    [(_, split)] = svd_split(t[None], n_left, chi)
    return SimpleNamespace(isometry=split.isometry[0], singulars=split.singulars[0], right=split.right[0])


def tensordot_compress(sites, chi):
    sites = [np.asarray(s, dtype=complex) for s in sites]
    log_factor = 0.0
    for i in range(len(sites) - 1):
        shape = sites[i].shape
        q, rmat = np.linalg.qr(sites[i].reshape(-1, shape[-1]))
        sites[i] = q.reshape(shape[:-1] + q.shape[1:])
        sites[i + 1] = np.tensordot(rmat, sites[i + 1], axes=([1], [0]))
    for i in range(len(sites) - 1, 0, -1):
        t, lf, zero = renormalize_one(sites[i])
        if zero:
            return sites, 0.0
        log_factor += lf
        split = split_one(t, 1, chi if chi is not None else t.shape[0])
        sites[i] = split.right
        carry = split.isometry * split.singulars
        sites[i - 1] = np.tensordot(sites[i - 1], carry, axes=([-1], [0]))
    t, lf, zero = renormalize_one(sites[0])
    if not zero:
        sites[0] = t
        log_factor += lf
    return sites, log_factor


def tensordot_absorb(bmps, row, chi, side):
    if bmps is None:
        axes = (1, 0, 2, 3) if side == "top" else (1, 2, 0, 3)
        sites, lf = tensordot_compress([np.ascontiguousarray(t.transpose(axes)) for t in row], chi)
        return Boundary(sites, lf)
    leg, perm = (0, (0, 3, 1, 4, 2, 5)) if side == "top" else (2, (0, 4, 1, 3, 2, 5))
    new_sites = []
    for s, t in zip(bmps.sites, row):
        m = np.tensordot(s, t, axes=([2], [leg])).transpose(perm)
        l, l2, o, f2, r, r2 = m.shape
        new_sites.append(np.ascontiguousarray(m.reshape(l * l2, o, f2, r * r2)))
    new_sites, lf = tensordot_compress(new_sites, chi)
    return Boundary(new_sites, bmps.log_scale + lf)


def tensordot_close(top, mid, bottom):
    log = (top.log_scale if top else 0.0) + (bottom.log_scale if bottom else 0.0)
    vec = None
    for c, m in enumerate(mid):
        if top is not None and bottom is not None:
            a, b = top.sites[c], bottom.sites[c]
            t = np.tensordot(a, m, axes=([2], [0]))
            t = np.tensordot(t, b, axes=([1, 4], [1, 2]))
            t = t.transpose(0, 2, 4, 1, 3, 5)
            t = t.reshape(a.shape[0] * m.shape[1] * b.shape[0], -1)
        elif top is not None:
            a = top.sites[c]
            t = np.tensordot(a, m, axes=([2, 1], [0, 2]))
            t = t.transpose(0, 2, 1, 3).reshape(a.shape[0] * m.shape[1], -1)
        elif bottom is not None:
            b = bottom.sites[c]
            t = np.tensordot(m, b, axes=([2, 0], [2, 1]))
            t = t.transpose(0, 2, 1, 3).reshape(m.shape[1] * b.shape[0], -1)
        else:
            t = np.einsum("ucuq->cq", m)
        vec = t[0] if vec is None else vec @ t
        nrm, lf, z = renormalize_one(vec)
        if z:
            return AmplitudeValue.zero()
        vec, log = nrm, log + lf
    return AmplitudeValue.from_parts(complex(vec.reshape(-1)[0]), log)


def boundary_bits(b):
    return [(s.shape, s.tobytes()) for s in b.sites], b.log_scale.hex()


@pytest.mark.parametrize("boundary", BOUNDARIES)
@pytest.mark.parametrize("closure", ["both", "top", "bottom", "single-row"])
@given(data=st.data())
@settings(max_examples=12, deadline=None)
def test_contractions_equal_tensordot_oracle_bitwise(boundary, closure, data):
    """Starting, continuing (from the top and from the bottom) and closing
    give the tensordot bodies' bits at chi 1-4 and None, and so does a state
    with one zeroed site slice, whose amplitude is exactly zero."""
    if closure == "single-row":
        rows, mid = 1, 0
    elif closure == "both":
        rows = data.draw(st.integers(3, 4))
        mid = data.draw(st.integers(1, rows - 2))
    else:
        rows = data.draw(st.integers(2, 4))
        mid = rows - 1 if closure == "top" else 0
    cols = data.draw(st.integers(1, 3))
    bond = data.draw(st.integers(1, 3))
    p = random_peps(rows, cols, 2, bond, seed=data.draw(st.integers(0, 2**16)), boundary=boundary)
    n_sites = rows * cols
    cfg = np.array(data.draw(st.lists(st.integers(0, 1), min_size=n_sites, max_size=n_sites)))
    zeroed = p.copy()
    r0, c0 = data.draw(st.integers(0, rows - 1)), data.draw(st.integers(0, cols - 1))
    zeroed.sites[r0][c0][..., cfg[r0 * cols + c0]] = 0
    for state in (p, zeroed):
        grid = [[t[0] for t in _row(state, cfg, r)] for r in range(rows)]
        for chi in (1, 2, 3, 4, None):
            top = ref_top = bottom = ref_bottom = None
            for r in range(mid):
                top = absorb(top, grid[r], chi, "top")
                ref_top = tensordot_absorb(ref_top, grid[r], chi, "top")
                assert boundary_bits(top) == boundary_bits(ref_top), (chi, r)
            for r in range(rows - 1, mid, -1):
                bottom = absorb(bottom, grid[r], chi, "bottom")
                ref_bottom = tensordot_absorb(ref_bottom, grid[r], chi, "bottom")
                assert boundary_bits(bottom) == boundary_bits(ref_bottom), (chi, r)
            got = close(top, grid[mid], bottom)
            assert bits(got) == bits(tensordot_close(ref_top, grid[mid], ref_bottom)), chi
            assert got.is_zero == (state is zeroed), chi


def stack_bits(part, pos):
    """Bits of chain ``pos`` of a boundary stack ``part``."""
    return [(s[pos].shape, s[pos].tobytes()) for s in part.sites], part.log[pos].hex()


@pytest.mark.parametrize("boundary", BOUNDARIES)
@pytest.mark.parametrize("closure", ["both", "top", "bottom", "single-row"])
@given(data=st.data())
@settings(max_examples=8, deadline=None)
def test_stacked_contractions_give_each_chain_its_bits_alone(boundary, closure, data):
    """A stack of boundaries absorbs and closes each chain with the bits it
    gets alone, as a stack of one, at chi 1-4 and None. The chains are
    random states, a bond-1 state padded to the bond dimension (its kept
    ranks differ from the others') and a state with an exactly-zero site
    slice; the rows are rank-5 slices of one configuration, or copies of
    each chain's own configuration."""
    if closure == "single-row":
        rows, mid = 1, 0
    elif closure == "both":
        rows = data.draw(st.integers(3, 4))
        mid = data.draw(st.integers(1, rows - 2))
    else:
        rows = data.draw(st.integers(2, 4))
        mid = rows - 1 if closure == "top" else 0
    cols, bond = data.draw(st.integers(1, 3)), data.draw(st.integers(2, 3))
    seeds = data.draw(st.lists(st.integers(0, 2**16), min_size=2, max_size=4))
    states = [random_peps(rows, cols, 2, bond, seed=s, boundary=boundary) for s in seeds]
    low = random_peps(rows, cols, 2, 1, seed=seeds[0], boundary=boundary)
    for r, c in itertools.product(range(rows), range(cols)):
        padded = np.zeros(states[0].sites[r][c].shape, complex)
        padded[:1, :1, :1, :1] = low.sites[r][c]
        low.sites[r][c] = padded
    config = st.lists(st.integers(0, 1), min_size=rows * cols, max_size=rows * cols).map(np.array)
    cfg = data.draw(config)
    zeroed = states[-1].copy()
    r0, c0 = data.draw(st.integers(0, rows - 1)), data.draw(st.integers(0, cols - 1))
    zeroed.sites[r0][c0][..., cfg[r0 * cols + c0]] = 0
    states += [low, zeroed]
    every = list(range(len(states)))
    if data.draw(st.booleans(), label="slices"):
        # One configuration: each column of a row is a rank-5 slice of the chains' stacked sites.
        sites = [[np.stack([p.sites[r][c] for p in states]) for c in range(cols)] for r in range(rows)]

        def row(r, idx):
            out = [sites[r][c][idx][..., cfg[r * cols + c]] for c in range(cols)]
            return _unroll_row(out) if boundary == "pbc" else out
    else:
        cfgs = [data.draw(config) for _ in states[:-1]] + [cfg]
        grids = [[_row(p, n, r) for r in range(rows)] for p, n in zip(states, cfgs)]

        def row(r, idx):
            return [np.concatenate([grids[i][r][c] for i in idx]) for c in range(cols)]

    for chi in (1, 2, 3, 4, None):
        sides = {}
        for side, order in (("top", range(mid)), ("bottom", range(rows - 1, mid, -1))):
            parts = alone = None
            for r in order:
                if parts is None:
                    parts = boundary_absorb(None, row(r, every), chi, side)
                    alone = [boundary_absorb(None, row(r, [i]), chi, side)[0] for i in every]
                else:
                    parts = [q for part in parts for q in boundary_absorb(part, row(r, part.rows), chi, side)]
                    alone = [boundary_absorb(a, row(r, [i]), chi, side)[0] for i, a in enumerate(alone)]
                assert sorted(j for part in parts for j in part.rows) == every
                for part in parts:
                    for pos, j in enumerate(part.rows):
                        assert stack_bits(part, pos) == stack_bits(alone[j], 0), (chi, side, r, j)
            if parts is not None:
                # (part, position in it) of each chain
                sides[side] = (parts, {j: (k, pos) for k, part in enumerate(parts) for pos, j in enumerate(part.rows)})

        def take(side, idx):
            """The boundaries of the chains ``idx``, which share one part, as one stack."""
            if side not in sides:
                return None
            parts, where = sides[side]
            part, pos = parts[where[idx[0]][0]], [where[side_j][1] for side_j in idx]
            return Chains(idx, [s[pos] for s in part.sites], [part.log[p] for p in pos])

        # Close every group of chains whose boundaries lie in the same parts as one stack.
        groups = {}
        for j in every:
            groups.setdefault(tuple(where[j][0] for _, where in sides.values()), []).append(j)
        amps = {}
        for idx in groups.values():
            table = table_from_parts(*_close_strip(take("top", idx), row(mid, idx), take("bottom", idx)))
            for j, got in zip(idx, table_bits(table)):
                want = _close_one(take("top", [j]), row(mid, [j]), take("bottom", [j]))
                assert got == exact_bits(want), (chi, j)
                amps[j] = want
        assert amps[every[-1]].is_zero, chi


def exact_bits(a):
    m = complex(a.mantissa)
    return m.real.hex(), m.imag.hex(), float(a.log_scale).hex(), a.is_zero


def table_bits(table):
    """``exact_bits`` of each entry of the amplitude table ``(mantissa, log_scale)``."""
    return [(m.real.hex(), m.imag.hex(), lg.hex(), m == 0) for m, lg in zip(*(x.tolist() for x in table))]


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_fixed_table_matches_each_configuration_alone(data):
    """One table walk gives every row of a configuration table the bits of
    ``amplitude_fixed``, at every closure row and chi 1-4, on open
    and periodic lattices down to one row or one column. The rows are a
    shuffled subset with repeats; a product state gives exactly-zero
    amplitudes; a budget of one byte runs every stack as one chain."""
    boundary = data.draw(st.sampled_from(BOUNDARIES), label="boundary")
    rows, cols = data.draw(st.integers(1, 4), label="rows"), data.draw(st.integers(1, 4), label="cols")
    n_sites = rows * cols
    config = st.lists(st.integers(0, 1), min_size=n_sites, max_size=n_sites)
    if boundary == "obc" and data.draw(st.booleans(), label="product"):
        state = product_peps(rows, cols, 2, data.draw(config, label="support"))
    else:
        bond = data.draw(st.integers(1, 3 if boundary == "obc" and n_sites <= 9 else 2), label="bond")
        state = random_peps(rows, cols, 2, bond, seed=data.draw(st.integers(0, 2**16)), boundary=boundary)
    distinct = data.draw(st.lists(config, min_size=1, max_size=12, unique_by=tuple), label="distinct")
    configs = data.draw(st.permutations(distinct + data.draw(st.lists(st.sampled_from(distinct), max_size=6))))
    if state.bond_dim == 1:
        configs.append(data.draw(config))
    with pytest.MonkeyPatch.context() as patch:
        if data.draw(st.booleans(), label="split"):
            patch.setattr(peps_module, "BLOCK_BYTES", 1)
        for mid, chi in itertools.product(range(rows), range(1, 5)):
            plan = FixedPlan(rows, cols, chi, mid)
            got = table_bits(fixed_table(state, plan, np.array(configs)))
            assert got == [exact_bits(amplitude_fixed(state, n, plan)) for n in configs], (mid, chi)


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_stacked_misses_match_single_closures(data):
    """``_close_misses`` returns, and memoizes, the amplitude of each
    (configuration, closure row) with the bits of ``amplitude_fixed`` on the
    plan closing at that row and of a single ``DynamicCache`` closure, at
    chi 1-4 on open and periodic lattices down to one row or one column. The
    list repeats configurations and mixes closure rows, so its misses span
    several shape groups; an entry memoized beforehand is returned as it was."""
    boundary = data.draw(st.sampled_from(BOUNDARIES), label="boundary")
    rows, cols = data.draw(st.integers(1, 4), label="rows"), data.draw(st.integers(1, 4), label="cols")
    n_sites = rows * cols
    bond = data.draw(st.integers(1, 3 if boundary == "obc" and n_sites <= 9 else 2), label="bond")
    state = random_peps(rows, cols, 2, bond, seed=data.draw(st.integers(0, 2**16)), boundary=boundary)
    chi = data.draw(st.integers(1, 4), label="chi")
    config = st.lists(st.integers(0, 1), min_size=n_sites, max_size=n_sites)
    distinct = data.draw(st.lists(config, min_size=1, max_size=8, unique_by=tuple), label="distinct")
    entry = st.tuples(st.sampled_from(distinct), st.integers(0, rows - 1))
    entries = data.draw(st.lists(entry, min_size=1, max_size=16), label="entries")
    stack = DynamicCache(state, chi)
    pre_cfg, pre_mid = data.draw(st.sampled_from(entries), label="memoized")
    pre = stack._closed(as_config(pre_cfg, n_sites, 2), pre_mid)
    table = as_configs([cfg for cfg, _ in entries], n_sites, 2)
    amps = stack._close_misses(table, [mid for _, mid in entries])
    assert amps[entries.index((pre_cfg, pre_mid))] is pre
    for (cfg, mid), row, got in zip(entries, table, amps):
        assert stack._amps[stack._row_tags[mid] + row.tobytes()] is got
        want = amplitude_fixed(state, cfg, FixedPlan(rows, cols, chi, mid))
        alone = DynamicCache(state, chi)._closed(as_config(cfg, n_sites, 2), mid)
        assert exact_bits(got) == exact_bits(want) == exact_bits(alone), (cfg, mid)


def test_stacked_misses_close_one_stack_per_row_and_shape(monkeypatch):
    """The misses of one closure row with equal boundary shapes close in one
    stacked closure: the neighbours of the Neel configuration of a random
    3x3 state close in one closure per row, and a second pass closes none
    and returns the same amplitudes."""
    state = random_peps(3, 3, 2, 2, seed=4)
    cfg = np.array([0, 1, 0, 1, 0, 1, 0, 1, 0])
    table = []
    for i, j in ((0, 1), (1, 2), (3, 4), (4, 5), (6, 7), (0, 3), (4, 7), (5, 8)):
        n = cfg.copy()
        n[[i, j]] = n[[j, i]]
        table.append(n)
    table = as_configs(table * 3, 9, 2)
    mids = [0] * 8 + [1] * 8 + [2] * 8
    sizes, close = [], peps_module._close_strip

    def counted(top, mid, bottom, tape=None):
        sizes.append(len(mid[0]))
        return close(top, mid, bottom, tape)

    monkeypatch.setattr(peps_module, "_close_strip", counted)
    stack = DynamicCache(state, 2)
    first = stack._close_misses(table, mids)
    assert sizes == [8, 8, 8]
    assert all(a is b for a, b in zip(stack._close_misses(table, mids), first))
    assert sizes == [8, 8, 8]


def half_padded_state(seed):
    """A 3x3 D=2 state whose sites read at physical value 0 are zero-padded
    D=1 tensors: a boundary's kept rank depends on its spins, so the walk's
    stacks split into parts of several ranks."""
    p = random_peps(3, 3, 2, 2, seed=seed)
    for row in p.sites:
        for t in row:
            for axis in range(4):
                t[(slice(None),) * axis + (slice(1, None),) + (slice(None),) * (3 - axis) + (0,)] = 0.0
    return p


def test_fixed_table_closes_against_bottom_parts_of_several_ranks():
    """Every closure stack reads one bottom part, also where the bottom
    boundaries split by kept rank: the sector table gets the bits of
    ``amplitude_fixed`` at every closure row and chi 1-4."""
    p = half_padded_state(8)
    configs = Sector(9).configs
    for mid, chi in itertools.product(range(3), range(1, 5)):
        plan = FixedPlan(3, 3, chi, mid)
        bottoms = []
        peps_module._walk(p, as_configs(configs, 9, 2), range(2, mid, -1), chi, "bottom",
                          lambda bottom, *_: bottoms.append(bottom))
        if mid == 0 and chi == 2:
            assert len({b.sites[0].shape for b in bottoms}) > 1
        got = table_bits(fixed_table(p, plan, configs))
        assert got == [exact_bits(amplitude_fixed(p, n, plan)) for n in configs], (mid, chi)


@pytest.mark.parametrize("bad", [0.9, math.nan, 2, "width"])
def test_fixed_table_rejects_a_bad_table_whole(bad):
    """A bad entry anywhere, or rows of the wrong width, raise one
    ``ValueError`` for the whole table, as ``as_config`` does for one
    configuration; nothing is contracted."""
    p = random_peps(2, 3, 2, 2, seed=1)
    plan = FixedPlan.for_lattice(2, 3, 2)
    table = np.zeros((4, 7 if bad == "width" else 6))
    if bad != "width":
        table[2, 5] = bad
        with pytest.raises(ValueError):
            as_config(table[2], 6, 2)
    with pytest.raises(ValueError):
        fixed_table(p, plan, table)
    mantissa, log_scale = fixed_table(p, plan, np.zeros((0, 6), int))
    assert (mantissa.shape, mantissa.dtype, log_scale.shape, log_scale.dtype) == ((0,), complex, (0,), float)


class TestAmplitudeFixed:
    def test_exact_limit_4x4_d3(self):
        p = random_peps(4, 4, 2, 3, seed=6)
        n = [0, 1] * 8
        plan = FixedPlan.for_lattice(4, 4, 27)
        got = amplitude_fixed(p, n, plan)
        want = exact_amplitude(p, n)
        assert abs(got.value - want.value) / abs(want.value) < 1e-10

    def test_straight_line_reimplementation_chi2(self):
        """The schedule written out longhand: rows absorbed to the middle,
        exact closure; values must match the library path."""
        p = random_peps(4, 4, 2, 3, seed=7)
        n = [0, 1, 1, 0] * 4
        chi = 2
        plan = FixedPlan.for_lattice(4, 4, chi)
        got = amplitude_fixed(p, n, plan)

        net = project_config(p, n)
        top = absorb(None, net[0], chi, "top")
        top = absorb(top, net[1], chi, "top")
        bottom = absorb(None, net[3], chi, "bottom")
        vec = None
        log = top.log_scale + bottom.log_scale
        for c in range(4):
            a = top.sites[c]
            m = net[2][c]
            b = bottom.sites[c]
            t = np.einsum("aoxp,xcyq,eoyr->acepqr", a, m, b)
            t = t.reshape(a.shape[0] * m.shape[1] * b.shape[0], -1)
            vec = t[0] if vec is None else vec @ t
            mx = np.max(np.abs(vec))
            vec = vec / mx
            log += math.log(mx)
        want = vec.reshape(-1)[0] * np.exp(0.0)
        got_val = got.mantissa * np.exp(got.log_scale - log)
        assert abs(got_val - want) / abs(want) < 1e-10

    def test_positive_scale_invariance(self):
        p = random_peps(3, 3, 2, 2, seed=8)
        plan = FixedPlan.for_lattice(3, 3, 2)
        c = 3.0
        scaled = p.copy()
        scaled.sites[1][1] = scaled.sites[1][1] * c
        for n in ([0, 1, 0, 1, 0, 1, 0, 1, 0], [1, 0, 1, 0, 1, 0, 1, 0, 1]):
            a = amplitude_fixed(p, n, plan)
            b = amplitude_fixed(scaled, n, plan)
            assert abs(b.ratio(a) - c) < 1e-11

    def test_plan_is_configuration_independent(self):
        plan = FixedPlan.for_lattice(4, 4, 3)
        assert dataclasses.astuple(plan) == (4, 4, 3, 2)
        assert plan.mid == 2

    def test_plan_checks_chi_and_closure_row(self):
        assert FixedPlan(4, 4, 3, 2) == FixedPlan.for_lattice(4, 4, 3)
        bad = [(4, 4, 0, 2), (4, 4, 2, 4), (4, 4, 2, -1), (3, 3, 2, 1.5), (3, 3, 2, True),
               (3.0, 3, 2, 1), (3, True, 2, 0), (3, 0, 2, 0), (3, "3", 2, 1)]
        for args in bad:
            with pytest.raises(ValueError):
                FixedPlan(*args)
        assert FixedPlan(np.int64(3), 3, np.int32(2), np.int8(1)).mid == 1

    # The memo tests loop over both boundaries inside one test each, so a PBC
    # regression fails the same test id that guards the OBC path.

    def test_evaluator_matches_plain_path_bitwise(self):
        for boundary in BOUNDARIES:
            p = random_peps(3, 4, 2, 2, seed=9, boundary=boundary)
            plan = FixedPlan.for_lattice(3, 4, 2)
            ev = FixedEvaluator(p, plan)
            rng = np.random.default_rng(0)
            for _ in range(12):
                n = rng.integers(0, 2, size=12)
                assert bits(ev.amplitude(n)) == bits(amplitude_fixed(p, n, plan)), boundary

    def test_consistency_under_shuffling(self):
        for boundary in BOUNDARIES:
            p = random_peps(3, 3, 2, 2, seed=10, boundary=boundary)
            plan = FixedPlan.for_lattice(3, 3, 2)
            rng = np.random.default_rng(1)
            configs = [rng.integers(0, 2, size=9) for _ in range(60)]
            first = [FixedEvaluator(p, plan).amplitude(n) for n in configs]
            order = rng.permutation(len(configs))
            ev = FixedEvaluator(p, plan)
            second = {int(i): ev.amplitude(configs[int(i)]) for i in order}
            for i, a in enumerate(first):
                assert bits(a) == bits(second[i]), boundary

    def test_bits_survive_memo_flushes(self, monkeypatch):
        """A tiny budget flushes both memos every few evaluations; the values
        must not depend on what was flushed."""
        for boundary in BOUNDARIES:
            p = random_peps(4, 3, 2, 2, seed=15, boundary=boundary)
            plan = FixedPlan.for_lattice(4, 3, 2)
            rng = np.random.default_rng(3)
            configs = [rng.integers(0, 2, size=12) for _ in range(20)]
            history = configs + configs[::-1]
            fixed = [bits(amplitude_fixed(p, n, plan)) for n in history]
            with monkeypatch.context() as m:
                absorbs = count_absorbs(m)
                full = DynamicCache(p, 2)
                dynamic = [bits(full.amplitude(n)) for n in history]
                unbounded, absorbs[0] = absorbs[0], 0
                m.setattr(peps_module, "MEMO_MAX_BYTES", 4 << 10)
                ev, cache = FixedEvaluator(p, plan), DynamicCache(p, 2)
                assert [bits(ev.amplitude(n)) for n in history] == fixed, boundary
                absorbs[0] = 0
                assert [bits(cache.amplitude(n)) for n in history] == dynamic, boundary
                # Both memos were emptied along the way.
                assert absorbs[0] > unbounded, boundary
                assert ev._amp_capacity < len(configs) <= len(full._amps), boundary
                assert cache._amp_capacity == ev._amp_capacity, boundary

    def test_amplitude_eviction_keeps_the_environments(self, monkeypatch):
        """A budget that holds the 3x4 sector's environments but not its
        amplitudes makes exactly the unbounded pass's absorbs, with the
        same bits."""
        p = random_peps(3, 4, 2, 2, seed=5)
        plan = FixedPlan.for_lattice(3, 4, 2)
        configs = Sector(12).configs
        absorbs, full = count_absorbs(monkeypatch), FixedEvaluator(p, plan)
        want = [bits(full.amplitude(n)) for n in configs]
        unbounded, absorbs[0] = absorbs[0], 0
        monkeypatch.setattr(peps_module, "MEMO_MAX_BYTES", 64 << 10)
        ev = FixedEvaluator(p, plan)
        assert [bits(ev.amplitude(n)) for n in configs] == want
        assert ev._amp_capacity < len(configs)  # C(12, 6) configurations: amplitudes were evicted
        assert absorbs[0] == unbounded

    @pytest.mark.parametrize("budget", [0, 1000, 3000, 8 << 10])
    def test_counted_footprint_stays_within_the_budget(self, monkeypatch, budget):
        monkeypatch.setattr(peps_module, "MEMO_MAX_BYTES", budget)
        for boundary in BOUNDARIES:
            p = random_peps(4, 3, 2, 2, seed=15, boundary=boundary)
            plan = FixedPlan.for_lattice(4, 3, 2)
            rng = np.random.default_rng(4)
            evaluators = [FixedEvaluator(p, plan), DynamicCache(p, 2)]
            for _ in range(40):
                n = rng.integers(0, 2, size=12)
                evaluators[0].amplitude_with_site(n, (0, 1), p.sites[0][1])
                for ev in evaluators:
                    ev.amplitude(n)
                    envs, amps = memo_footprint(ev)
                    assert envs == ev._env_bytes <= budget and amps <= budget, boundary

    def test_counted_footprint_tracks_the_allocations(self):
        """Each memo's counted bytes are within a quarter of what freeing it
        returns to tracemalloc, so the budget bounds real memory."""
        p = random_peps(4, 4, 2, 3, seed=1)
        rng = np.random.default_rng(0)
        configs = [rng.integers(0, 2, size=16) for _ in range(400)]
        for ev in (FixedEvaluator(p, FixedPlan.for_lattice(4, 4, 4)), DynamicCache(p, 2)):
            tracemalloc.start()
            try:
                for n in configs:
                    ev.amplitude(n)
                counted = memo_footprint(ev)
                freed = []
                for name in ("_envs", "_amps"):
                    before = tracemalloc.get_traced_memory()[0]
                    setattr(ev, name, {})
                    freed.append(before - tracemalloc.get_traced_memory()[0])
            finally:
                tracemalloc.stop()
            for c, f in zip(counted, freed):
                assert 0.8 < f / c < 1.25, (type(ev).__name__, c, f)

    def test_amplitude_with_site_equals_full_recompute(self):
        for boundary in BOUNDARIES:
            p = random_peps(4, 3, 2, 2, seed=11, boundary=boundary)
            plan = FixedPlan.for_lattice(4, 3, 2)
            ev = FixedEvaluator(p, plan)
            rng = np.random.default_rng(2)
            n = rng.integers(0, 2, size=12)
            ev.amplitude(n)  # warm the memo the patched evaluations share
            for site in ((0, 1), (1, 2), (2, 0), (3, 1)):
                t = p.sites[site[0]][site[1]].copy()
                t.flat[0] += 0.1
                modified = p.copy()
                modified.sites[site[0]][site[1]] = t
                warm, cold = {}, {}
                a = ev.amplitude_with_site(n, site, t, warm)
                c = FixedEvaluator(p, plan).amplitude_with_site(n, site, t, cold)
                b = amplitude_fixed(modified, n, plan)
                assert bits(a) == bits(b) == bits(c), (boundary, site)
                assert warm == cold, (boundary, site)

    def test_amplitude_with_site_rejects_sites_off_the_lattice(self):
        p = random_peps(3, 3, 2, 2, seed=16)
        ev = FixedEvaluator(p, FixedPlan.for_lattice(3, 3, 2))
        n = [0, 1] * 4 + [0]
        for site in ((5, 0), (3, 0), (-1, 0), (0, 5), (0, -1)):
            with pytest.raises(ValueError, match=rf"site \({site[0]}, {site[1]}\).*3x3"):
                ev.amplitude_with_site(n, site, p.sites[0][0], {})
        assert ev._envs == ev._amps == {}  # refused before any contraction


class TestSerialization:
    def test_round_trip(self, tmp_path):
        p = random_peps(3, 2, 2, 3, seed=12, boundary="pbc")
        path = tmp_path / "state.tnp"
        save_peps(p, path)
        q = load_peps(path)
        assert (q.rows, q.cols, q.phys_dim, q.bond_dim, q.boundary) == (3, 2, 2, 3, "pbc")
        for r in range(3):
            for c in range(2):
                assert np.array_equal(p.sites[r][c], q.sites[r][c])

    def test_false_header_not_written(self, tmp_path):
        p = random_peps(3, 3, 2, 3, seed=0)
        p.bond_dim = 2  # the header would claim D=2 for D=3 bonds
        path = tmp_path / "state.tnp"
        with pytest.raises(DimensionError):
            save_peps(p, path)
        assert not path.exists()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.tnp"
        path.write_bytes(b"NOTPEPS!" + b"\0" * 64)
        with pytest.raises(ValueError):
            load_peps(path)


class TestValidation:
    def test_bond_mismatch_rejected(self):
        p = random_peps(2, 2, 2, 2, seed=13)
        sites = [[t.copy() for t in row] for row in p.sites]
        sites[0][0] = np.zeros((1, 1, 3, 2, 2), dtype=complex)
        with pytest.raises(DimensionError):
            Peps(2, 2, 2, 2, sites, "obc")

    def test_bond_wider_than_bond_dim_rejected(self):
        sites = random_peps(2, 2, 2, 5, seed=13, boundary="pbc").sites
        with pytest.raises(DimensionError):
            Peps(2, 2, 2, 1, sites, "pbc")

    def test_plan_lattice_mismatch(self):
        p = random_peps(2, 2, 2, 2, seed=14)
        with pytest.raises(ValueError):
            amplitude_fixed(p, [0, 0, 0, 0], FixedPlan.for_lattice(3, 3, 2))
