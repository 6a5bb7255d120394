"""Shared MPS machinery: MPO application, compression, amplitudes."""
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tnflab.adjoint import Tape
from tnflab.errors import DimensionError
from tnflab.floquet import PRESETS, FloquetParams, inverse_time_series
from tnflab.mps import apply_mpo, compress, mps_amplitude
import tnflab.peps as peps_module
from tnflab.peps import FixedPlan, fixed_table, random_peps


def compress_chain(chain, chi, tape=None):
    """:func:`compress` of one chain, as a stack of one: its sites and log factor."""
    [part] = compress([s[None] for s in chain], chi, tape)
    assert part.rows == [0]
    return [s[0] for s in part.sites], float(part.log[0])


def mps_to_dense(sites):
    """Dense state vector of one chain of ``(l, p, r)`` sites, site 0 the most
    significant index."""
    out = sites[0]
    for s in sites[1:]:
        out = np.tensordot(out, s, axes=([out.ndim - 1], [0]))
    return out.reshape(-1)


def mpo_to_dense(mpo):
    """Dense operator matrix (out x in) of ``(l, out, in, r)`` MPO sites, site 0
    the most significant index."""
    out = mpo[0]
    for w in mpo[1:]:
        out = np.tensordot(out, w, axes=([out.ndim - 1], [0]))
    # axes: (l, o1, i1, o2, i2, ..., r)
    n = (out.ndim - 2) // 2
    perm = [0] + [1 + 2 * k for k in range(n)] + [2 + 2 * k for k in range(n)] + [out.ndim - 1]
    out = out.transpose(perm)
    return out.reshape(math.prod(out.shape[1 : 1 + n]), math.prod(out.shape[1 + n : 1 + 2 * n]))


def random_mps(rng, n, phys, bond):
    sites = []
    left = 1
    for i in range(n):
        right = bond if i + 1 < n else 1
        sites.append(
            rng.standard_normal((left, phys, right)) + 1j * rng.standard_normal((left, phys, right))
        )
        left = right
    return sites


def test_product_and_amplitude():
    v0 = np.array([1.0, 0.0])
    v1 = np.array([0.0, 1.0])
    sites = [np.asarray(v, dtype=complex).reshape(1, 2, 1) for v in (v0, v1, v0)]
    assert abs(mps_amplitude(sites, [0, 1, 0]) - 1.0) < 1e-15
    assert abs(mps_amplitude(sites, [1, 1, 0])) < 1e-15


def test_apply_mpo_matches_dense():
    rng = np.random.default_rng(0)
    mps = random_mps(rng, 4, 2, 3)
    mpo = []
    left = 1
    for i in range(4):
        right = 2 if i + 1 < 4 else 1
        mpo.append(rng.standard_normal((left, 2, 2, right)) + 0j)
        left = right
    dense = mpo_to_dense(mpo) @ mps_to_dense(mps)
    assert np.allclose(mps_to_dense(apply_mpo(mps, mpo)), dense, atol=1e-12)


def test_apply_mpo_length_mismatch():
    rng = np.random.default_rng(1)
    mps = random_mps(rng, 3, 2, 2)
    with pytest.raises(DimensionError):
        apply_mpo(mps, [np.zeros((1, 2, 2, 1))] * 4)


def test_compress_exact_when_chi_large():
    rng = np.random.default_rng(2)
    mps = random_mps(rng, 5, 2, 3)
    dense = mps_to_dense(mps)
    out, log = compress_chain(mps, 16)
    assert np.allclose(mps_to_dense(out) * np.exp(log), dense, rtol=1e-10, atol=1e-12)


def test_compress_none_canonicalizes_without_loss():
    rng = np.random.default_rng(3)
    mps = random_mps(rng, 4, 2, 4)
    dense = mps_to_dense(mps)
    out, log = compress_chain(mps, None)
    assert np.allclose(mps_to_dense(out) * np.exp(log), dense, rtol=1e-10, atol=1e-12)


def test_compress_truncation_quality():
    # Truncating to the dominant Schmidt rank keeps most of the weight.
    rng = np.random.default_rng(4)
    mps = random_mps(rng, 6, 2, 4)
    dense = mps_to_dense(mps)
    out, log = compress_chain(mps, 2)
    approx = mps_to_dense(out) * np.exp(log)
    overlap = abs(np.vdot(dense, approx)) / (np.linalg.norm(dense) * np.linalg.norm(approx))
    assert overlap > 0.5


def test_compress_respects_chi():
    rng = np.random.default_rng(5)
    mps = random_mps(rng, 6, 2, 5)
    out, _ = compress_chain(mps, 3)
    assert all(s.shape[2] <= 3 for s in out[:-1])


def reference_compress(chain, chi):
    """One chain compressed straight from the recipe on plain matrices, as
    its sites and log factor: a left-to-right QR sweep, then from the right
    each site rescaled to unit max-abs entry (its log added up) and split by
    an SVD cut at ``chi`` and the 1e-12 relative floor, each kept pair turned
    so that the largest-magnitude entry of its left vector (the lowest on a
    tie) is real and positive. An exactly-zero site stops the sweep; the
    chain then keeps its log factor only when that site is site 0."""
    sites = [np.asarray(s, complex) for s in chain]
    for i in range(len(sites) - 1):
        a, b = sites[i], sites[i + 1]
        q, r = np.linalg.qr(a.reshape(-1, a.shape[-1]))
        sites[i] = q.reshape(a.shape[:-1] + q.shape[1:])
        sites[i + 1] = np.dot(r, b.reshape(b.shape[0], -1)).reshape(r.shape[:1] + b.shape[1:])
    log = 0.0
    for i in range(len(sites) - 1, -1, -1):
        top = float(np.max(np.abs(sites[i])))
        if top == 0.0:
            return sites, log if i == 0 else 0.0
        t = sites[i] / top
        log += math.log(top)
        if i == 0:
            return [t] + sites[1:], log
        u, s, vh = np.linalg.svd(t.reshape(t.shape[0], -1), full_matrices=False)
        k = min(chi or t.shape[0], int(np.sum(s > s[0] * 1e-12)))
        u, vh = u[:, :k], vh[:k]
        for j in range(k):
            pivot = u[int(np.argmax(np.abs(u[:, j]))), j]
            phase = pivot / abs(pivot)
            u[:, j] = u[:, j] / phase
            vh[j] = vh[j] * phase
        sites[i] = vh.reshape((k,) + t.shape[1:])
        prev = sites[i - 1]
        sites[i - 1] = np.dot(prev.reshape(-1, prev.shape[-1]), u * s[:k]).reshape(prev.shape[:-1] + (k,))


def _padded_chain(rng, n, phys, bond):
    """A bond-1 chain zero-padded to bond ``bond``: every matrix is rank deficient."""
    chain = []
    for i in range(n):
        left, right = (1 if i == 0 else bond), (1 if i == n - 1 else bond)
        s = np.zeros((left, phys, right), complex)
        s[0, :, 0] = rng.standard_normal(phys) + 1j * rng.standard_normal(phys)
        chain.append(s)
    return chain


def _rank5_chain(rng, side, bonds, open_, face):
    """A chain of rank-5 boundary sites ``(left, open, face, right)`` as
    compress reads them from a stored boundary of ``side``: views, in
    compress's leg order, of arrays kept in the side's layout."""
    chain = []
    for left, right in zip(bonds, bonds[1:]):
        shape = (1, left, open_, face, right)
        site = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        stored = np.ascontiguousarray(site.transpose(peps_module._LAYOUT[side]))
        chain.append(stored.transpose(peps_module._COMPRESS_ORDER[side])[0])
    return chain


@pytest.mark.parametrize("chi", [1, 2, 3, 4, None])
def test_compress_of_one_chain_matches_the_plain_matrix_reference(chi):
    """A stack of one compresses to the reference's bits: rank-3 chains, real
    and complex, rank-5 boundary sites read in both sides' layouts, a chain
    with an exactly-zero site (in the middle and at site 0), a bond-1 chain
    zero-padded to rank deficiency, and that chain with a 1e-9 perturbation."""
    rng = np.random.default_rng(11)
    chains = [random_mps(rng, n, phys, bond) for n, phys, bond in ((2, 2, 2), (4, 2, 3), (5, 3, 4), (6, 2, 5))]
    chains.append([s.real + 0j for s in random_mps(rng, 4, 2, 4)])
    chains += [_rank5_chain(rng, side, bonds, open_, 3) for side in ("top", "bottom")
               for bonds, open_ in (([1, 3, 9, 4, 1], 1), ([2, 4, 5, 2], 2))]
    for at in (2, 0):
        holed = random_mps(rng, 4, 2, 3)
        holed[at] = np.zeros_like(holed[at])
        chains.append(holed)
    chains.append(_padded_chain(rng, 5, 2, 3))
    # A second product state at 1e-9 of the first: Schmidt values that only the 1e-12 floor keeps.
    faint = _padded_chain(rng, 5, 2, 3)
    for i, s in enumerate(faint):
        s[min(i, 1), :, 0 if i == len(faint) - 1 else 1] = rng.standard_normal(2) * (1e-9 if i == 0 else 1.0)
    chains.append(faint)
    for chain in chains:
        got, log = compress_chain(chain, chi)
        want, want_log = reference_compress(chain, chi)
        assert _bits(got) == _bits(want)
        assert log.hex() == float(want_log).hex()


@pytest.mark.parametrize("chi", [1, 2, None])
@pytest.mark.parametrize("zero_site", [None, 2])
def test_compress_any_rank_matches_rank3(chi, zero_site):
    """A chain of rank-4 sites (l, a, b, r) compresses to the same bits as
    the chain with (a, b) merged into one physical leg."""
    rng = np.random.default_rng(6)
    chain4 = [s.reshape(s.shape[0], 2, 3, s.shape[2]) for s in random_mps(rng, 5, 6, 4)]
    if zero_site is not None:
        chain4[zero_site] = np.zeros_like(chain4[zero_site])
    chain3 = [s.reshape(s.shape[0], 6, s.shape[3]) for s in chain4]
    tape4, tape3 = Tape(), Tape()
    out4, log4 = compress_chain(chain4, chi, tape4)
    out3, log3 = compress_chain(chain3, chi, tape3)
    assert log4 == log3 and tape4.max_discarded == tape3.max_discarded
    for a, b in zip(out4, out3):
        assert a.ndim == 4 and a.shape[1:3] == (2, 3)
        assert np.array_equal(a.reshape(b.shape), b)


def _bits(chain):
    return [(s.shape, s.tobytes()) for s in chain]


def test_stacked_compress_matches_each_chain_alone():
    """A stack mixing kept ranks at a bond (a product chain beside entangled
    ones of the same shapes), an all-zero chain and a chain with one zero
    site compresses every chain to the bits it gets alone, at each chi."""
    rng = np.random.default_rng(7)
    entangled = [random_mps(rng, 5, 2, 3) for _ in range(3)]
    product = [np.zeros((s.shape[0], 2, s.shape[2]), dtype=complex) for s in entangled[0]]
    for s in product:
        s[0, :, 0] = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    zero = [np.zeros_like(s) for s in entangled[0]]
    holed = [s.copy() for s in entangled[1]]
    holed[2][:] = 0
    chains = [entangled[0], product, zero, entangled[1], holed, entangled[2]]
    stack = [np.stack(sites) for sites in zip(*chains)]
    for chi in (1, 2, 3, None):
        parts = compress(stack, chi)
        assert sorted(r for part in parts for r in part.rows) == list(range(len(chains)))
        if chi != 1:
            assert len(parts) > 2  # the stack split by kept rank, not only by zero chains
        for part in parts:
            for j, row in enumerate(part.rows):
                want, log = compress_chain(chains[row], chi)
                assert _bits([s[j] for s in part.sites]) == _bits(want)
                assert float(part.log[j]).hex() == log.hex()


def test_tape_records_each_part_of_a_stack():
    """A taped stack that splits by kept rank records one step per swept
    part, with a degeneracy flag per chain, and none for its zero chain;
    pulled back, each chain gets the cotangents it gets taped alone."""
    rng = np.random.default_rng(8)
    entangled = [random_mps(rng, 4, 2, 2) for _ in range(2)]
    product = [np.zeros_like(s) for s in entangled[0]]
    for s in product:
        s[0, :, 0] = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    chains = [entangled[0], product, [np.zeros_like(s) for s in entangled[0]], entangled[1]]
    stack = [np.stack(sites) for sites in zip(*chains)]
    tape = Tape()
    parts = compress(stack, 2, tape)
    swept = [part for part in parts if 2 not in part.rows]
    assert len(swept) == 2 and len(tape.ops) == 2
    flags = {tuple(part.rows): tape.degenerate[id(part.sites[0])].tolist() for part in swept}
    assert flags == {(0, 3): [False, False], (1,): [True]}
    seeds = {id(s): rng.standard_normal((1,) + s.shape) + 0j for part in swept for s in part.sites}
    bars = tape.backward(seeds)
    for part in swept:
        for j, row in enumerate(part.rows):
            alone = Tape()
            [one] = compress([s[row : row + 1] for s in stack], 2, alone)
            want = alone.backward({id(a): seeds[id(s)][:, j : j + 1] for a, s in zip(one.sites, part.sites)})
            for site, a in zip(stack, alone.ops[0][0]):
                got = bars[id(site)].reshape((1,) + site.shape)[:, row]
                if id(a) not in want:
                    assert not np.any(got)
                else:
                    assert np.allclose(got, want[id(a)].reshape(got.shape), rtol=1e-12, atol=1e-12)
    assert not np.any(bars[id(stack[0])].reshape((1,) + stack[0].shape)[:, 2])


def test_tape_pulls_back_a_part_with_a_singular_chain():
    """At chi=1 a zero-padded chain, whose QR factors are singular, shares a
    part with a regular one: it is flagged and gets no cotangent, and the
    regular chain gets the cotangents it gets taped alone."""
    rng = np.random.default_rng(0)
    regular = random_mps(rng, 3, 2, 3)
    padded = [s.copy() for s in random_mps(rng, 3, 2, 3)]
    padded[0][..., 1:] = padded[1][1:] = padded[1][..., 1:] = padded[2][1:] = 0
    stack = [np.stack(sites) for sites in zip(regular, padded)]
    tape = Tape()
    [part] = compress(stack, 1, tape)
    assert tape.degenerate[id(part.sites[0])].tolist() == [False, True]
    seeds = {id(s): rng.standard_normal((1,) + s.shape) + 0j for s in part.sites}
    bars = tape.backward(seeds)
    alone = Tape()
    [one] = compress([s[:1] for s in stack], 1, alone)
    want = alone.backward({id(a): seeds[id(s)][:, :1] for a, s in zip(one.sites, part.sites)})
    for site, a in zip(stack, alone.ops[0][0]):
        got = bars[id(site)].reshape((1,) + site.shape)
        assert not np.any(got[:, 1])
        assert np.allclose(got[:, 0], want[id(a)].reshape(got[:, 0].shape), rtol=1e-12, atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 5), st.integers(1, 3), st.sampled_from([1, 2, 3, None]), st.integers(0, 2**32 - 1))
def test_stacked_compress_matches_alone_hypothesis(n, count, chi, seed):
    """Random stacks of small chains, some of low rank or real, one chain
    at a time against the stack, bit for bit."""
    rng = np.random.default_rng(seed)
    bonds = [1] + rng.integers(1, 4, size=n - 1).tolist() + [1]
    phys = int(rng.integers(1, 3))
    chains = []
    for k in range(count):
        chain = [rng.standard_normal((bonds[i], phys, bonds[i + 1])) + 0j for i in range(n)]
        if k % 2:
            chain = [s + 1j * rng.standard_normal(s.shape) for s in chain]
        if rng.random() < 0.3:
            chain[int(rng.integers(n))][..., 0] = 0
        chains.append(chain)
    stack = [np.stack(sites) for sites in zip(*chains)]
    seen = []
    for part in compress(stack, chi):
        for j, row in enumerate(part.rows):
            want, log = compress_chain(chains[row], chi)
            assert _bits([s[j] for s in part.sites]) == _bits(want)
            assert float(part.log[j]).hex() == log.hex()
            seen.append(row)
    assert sorted(seen) == list(range(count))


def test_mps_amplitude_checks_config():
    rng = np.random.default_rng(9)
    sites = random_mps(rng, 6, 2, 2)
    want = mps_amplitude(sites, [0, 1, 1, 0, 1, 0])
    assert mps_amplitude(sites, np.array([0.0, 1.0, 1.0, 0.0, 1.0, 0.0])) == want
    bads = ([0, 1, 0, 1], [0, 1, 1, 0, 1, 0, 1], [0.7, 1, 1, 0, 1, 0], [0, 2, 1, 0, 1, 0], [0, -1, 1, 0, 1, 0])
    for bad in bads:
        with pytest.raises(ValueError, match="configuration"):
            mps_amplitude(sites, bad)


def _fixed_table(table):
    return [fixed_table(random_peps(2, 3, 2, 2, seed=1), FixedPlan.for_lattice(2, 3, 2), table)]


def _inverse_time_series(table):
    return list(itertools.islice(inverse_time_series(FloquetParams(6, **PRESETS["less_chaotic"]), 2, table), 2))


@pytest.mark.parametrize("route, empty", [(_fixed_table, [0]), (_inverse_time_series, [0, 0])])
@pytest.mark.parametrize("bad", [0.9, math.nan, 2, "width", "empty"])
def test_both_table_routes_read_a_table_alike(route, empty, bad):
    """``as_configs`` reads the table on both routes: a bad entry anywhere or
    rows of the wrong width raise one ``ValueError`` for the whole table, and
    an empty list gives amplitude tables of the lengths ``empty``."""
    if bad == "empty":
        tables = route([])
        assert [len(mantissa) for mantissa, _ in tables] == empty
        assert all(m.dtype == complex and lg.dtype == float and len(lg) == 0 for m, lg in tables)
        return
    table = np.zeros((4, 7 if bad == "width" else 6))
    if bad != "width":
        table[2, 5] = bad
    with pytest.raises(ValueError, match="configuration"):
        route(table)
