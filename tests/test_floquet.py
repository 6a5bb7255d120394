"""Kicked-Ising period operator and amplitude contraction routes."""
import itertools
import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from tnflab.entanglement import bulk_entropy_sweep, entanglement_dynamics, entropy_and_spectrum, rdm_from_dense
from tnflab.errors import ResourceLimitError
import tnflab.floquet as floquet
from tnflab.floquet import (
    PRESETS,
    FloquetParams,
    build_floquet_mpo,
    config_index,
    evolve_conventional,
    exact_evolve,
    floquet_peps,
    inverse_time_block,
    inverse_time_series,
    mpo_amplitude,
    mpo_mpo_inverse,
    tnf_amplitude_inverse_time,
    tnf_amplitude_transverse,
    transverse_table,
)
from tnflab.mps import apply_mpo, compress, mps_amplitude, mps_to_dense, mpo_to_dense
import tnflab.peps as peps_module
from tnflab.peps import BLOCK_BYTES, FixedPlan, amplitude_fixed
from tnflab.tensor import AmplitudeValue

Z = np.diag([1.0, -1.0])
X = np.array([[0.0, 1.0], [1.0, 0.0]])


def _bits(a):
    m = complex(a.mantissa)
    return (m.real.hex(), m.imag.hex(), float(a.log_scale).hex(), a.is_zero)


def table_bits(table):
    """``_bits`` of each entry of the amplitude table ``(mantissa, log_scale)``."""
    return [(m.real.hex(), m.imag.hex(), lg.hex(), m == 0) for m, lg in zip(*(x.tolist() for x in table))]


def dense_period_operator(params):
    """Direct product of the gate sequence: bond phases, longitudinal
    rotations, then the transverse kick."""
    n = params.n_sites
    dim = 2**n
    op = np.eye(dim, dtype=complex)

    def embed(mat, sites):
        mats = [np.eye(2, dtype=complex)] * n
        total = None
        if len(sites) == 1:
            mats[sites[0]] = mat
        else:
            pass
        out = mats[0]
        for m in mats[1:]:
            out = np.kron(out, m)
        return out

    # two-site ZZ phases
    for j in range(n - 1):
        mats = [np.eye(2, dtype=complex)] * n
        zz = scipy.linalg.expm(1j * params.j * np.kron(Z, Z))
        left = np.eye(2**j)
        right = np.eye(2 ** (n - j - 2))
        op = np.kron(np.kron(left, zz), right) @ op
    for j in range(n):
        op = embed(scipy.linalg.expm(1j * params.h * Z), [j]) @ op
    for j in range(n):
        op = embed(scipy.linalg.expm(1j * params.g * X), [j]) @ op
    return op


class TestMpo:
    def test_identity_at_zero_couplings(self):
        for n in (2, 4, 6):
            p = FloquetParams(n, 0.0, 0.0, 0.0)
            dense = mpo_to_dense(build_floquet_mpo(p))
            assert np.allclose(dense, np.eye(2**n), atol=1e-14)

    def test_zero_j_is_bond_one(self):
        p = FloquetParams(5, 0.0, 0.5, 0.3)
        mpo = build_floquet_mpo(p)
        assert all(w.shape[0] == 1 and w.shape[3] == 1 for w in mpo)

    def test_l2_against_gate_product(self):
        p = FloquetParams(2, 0.7, 0.5, 0.5)
        dense = mpo_to_dense(build_floquet_mpo(p))
        want = dense_period_operator(p)
        assert np.max(np.abs(dense - want)) < 1e-12

    def test_l5_against_gate_product(self):
        p = FloquetParams(5, **PRESETS["maximally_chaotic"])
        dense = mpo_to_dense(build_floquet_mpo(p))
        want = dense_period_operator(p)
        assert np.max(np.abs(dense - want)) < 1e-12

    def test_bond_dimension_bound(self):
        p = FloquetParams(8, **PRESETS["less_chaotic"])
        mpo = build_floquet_mpo(p)
        assert all(max(w.shape[0], w.shape[3]) <= 4 for w in mpo)

    def test_unitarity(self):
        p = FloquetParams(6, **PRESETS["maximally_chaotic"])
        dense = mpo_to_dense(build_floquet_mpo(p))
        assert np.max(np.abs(dense @ dense.conj().T - np.eye(64))) < 1e-12


class TestExactEvolve:
    def test_t0_initial_state(self):
        p = FloquetParams(6, **PRESETS["maximally_chaotic"])
        psi = exact_evolve(p, 0)
        want = np.zeros(64)
        want[0] = 1.0
        assert np.allclose(psi, want)

    def test_norm_preserved(self):
        p = FloquetParams(8, **PRESETS["less_chaotic"])
        assert abs(np.linalg.norm(exact_evolve(p, 20)) - 1) < 1e-12

    def test_norm_drift_90_steps(self):
        p = FloquetParams(10, **PRESETS["less_chaotic"])
        assert abs(np.linalg.norm(exact_evolve(p, 90)) - 1) < 1e-12

    def test_against_dense_mpo_powers(self):
        p = FloquetParams(10, **PRESETS["maximally_chaotic"])
        m = mpo_to_dense(build_floquet_mpo(p))
        psi_ref = np.zeros(1024, dtype=complex)
        psi_ref[0] = 1.0
        for _ in range(5):
            psi_ref = m @ psi_ref
        assert np.max(np.abs(exact_evolve(p, 5) - psi_ref)) < 1e-12

    def test_site_guard(self):
        with pytest.raises(ResourceLimitError):
            exact_evolve(FloquetParams(15, 0.1, 0.1, 0.1), 1)


class TestConventionalMps:
    def test_lossless_chi(self):
        p = FloquetParams(8, **PRESETS["maximally_chaotic"])
        sites, log = evolve_conventional(p, 16, 6)
        v = mps_to_dense(sites) * math.exp(log)
        psi = exact_evolve(p, 6)
        fid = abs(np.vdot(v, psi)) / np.linalg.norm(v)
        assert abs(1 - fid) < 1e-8

    def test_zero_j_chi1_exact(self):
        p = FloquetParams(8, 0.0, 0.5, 0.7)
        sites, log = evolve_conventional(p, 1, 10)
        v = mps_to_dense(sites) * math.exp(log)
        psi = exact_evolve(p, 10)
        fid = abs(np.vdot(v, psi)) / np.linalg.norm(v)
        assert abs(1 - fid) < 1e-10

    def test_truncated_run_regression(self):
        # self-consistency fixture: frozen lower bound for this chi=4 run
        # (measured 0.8504 once, then fixed as the regression floor)
        p = FloquetParams(10, **PRESETS["less_chaotic"])
        sites, log = evolve_conventional(p, 4, 8)
        v = mps_to_dense(sites) * math.exp(log)
        psi = exact_evolve(p, 8)
        fid = abs(np.vdot(v, psi)) / np.linalg.norm(v)
        assert fid > 0.84


def transverse_oracle(params, n, chi, t):
    """Second implementation of the transverse schedule: columns as explicit
    time-axis chains, absorbed left to right with the shared compressor."""
    mpo = build_floquet_mpo(params)
    e0 = np.array([1.0, 0.0], dtype=complex)
    L = params.n_sites

    def column(c):
        cap = np.zeros(2, dtype=complex)
        cap[n[c]] = 1.0
        site = mpo[c]
        col = []
        for tau in range(t):
            x = site
            if tau == 0:
                x = np.tensordot(x, e0, axes=([2], [0]))  # (l, o, r)
                if t == 1:
                    x = np.tensordot(x, cap, axes=([1], [0]))
                    col.append(x.reshape(x.shape[0], 1, x.shape[1], 1))
                else:
                    col.append(x.transpose(0, 2, 1)[:, None, :, :])
            elif tau == t - 1:
                x = np.tensordot(x, cap, axes=([1], [0]))
                col.append(x[:, :, :, None])
            else:
                col.append(x.transpose(0, 2, 3, 1))
        return col

    boundary = None
    log = 0.0
    for c in range(L):
        col = column(c)
        if boundary is None:
            chain = [w[0].reshape(w.shape[1], w.shape[2], w.shape[3]) for w in col]
        else:
            chain = []
            for s, w in zip(boundary, col):
                m = np.tensordot(s, w, axes=([1], [0]))  # (l, r, l2, d, r2)
                m = m.transpose(0, 2, 3, 1, 4)
                l, l2, d, r, r2 = m.shape
                chain.append(m.reshape(l * l2, d, r * r2))
        cap = chi if c < L - 1 else None
        [part] = compress([s[None] for s in chain], cap)  # a stack of one
        chain, lf = [s[0] for s in part.sites], float(part.log[0])
        log += lf
        boundary = chain
    mat = None
    for s in boundary:
        m = s[:, 0, :]
        mat = m if mat is None else mat @ m
    return complex(mat[0, 0]) * math.exp(log)


class TestTnfTransverse:
    def test_t0_delta(self):
        p = FloquetParams(6, **PRESETS["maximally_chaotic"])
        assert abs(tnf_amplitude_transverse(p, [0] * 6, 4, 0).value - 1) < 1e-14
        assert tnf_amplitude_transverse(p, [1, 0, 0, 0, 0, 0], 4, 0).is_zero

    def test_exact_limit(self):
        p = FloquetParams(10, **PRESETS["maximally_chaotic"])
        psi = exact_evolve(p, 4)
        rng = np.random.default_rng(0)
        for _ in range(6):
            n = rng.integers(0, 2, size=10)
            got = tnf_amplitude_transverse(p, n, 64, 4)
            want = psi[config_index(n)]
            assert abs(got.value - want) / abs(want) < 1e-8

    def test_matches_independent_schedule_oracle(self):
        worst = 0.0
        for n_sites in range(6, 11):
            p = FloquetParams(n_sites, **PRESETS["maximally_chaotic"])
            rng = np.random.default_rng(n_sites)
            for t, chi in itertools.product((1, 2, 4, 6), (1, 2, 3, 4)):
                for n in rng.integers(0, 2, size=(2, n_sites)):
                    got = tnf_amplitude_transverse(p, n, chi, t)
                    want = transverse_oracle(p, n, chi, t)
                    worst = max(worst, abs(got.value - want) / abs(want))
        assert worst < 1e-12

    def test_is_amplitude_fixed_on_the_floquet_peps(self):
        """Row c is site c and column tau period tau; only the last column
        reads the configuration, so any entries elsewhere give the same bits."""
        rng = np.random.default_rng(5)
        for preset, n_sites, t, chi in itertools.product(sorted(PRESETS), (2, 3, 6), (1, 2, 5), (1, 3)):
            p = FloquetParams(n_sites, **PRESETS[preset])
            peps = floquet_peps(p, t)
            assert (peps.rows, peps.cols, peps.phys_dim, peps.boundary) == (n_sites, t, 2, "obc")
            plan = FixedPlan(n_sites, t, chi, n_sites - 1)
            for n in rng.integers(0, 2, size=(3, n_sites)):
                grid = rng.integers(0, 2, size=(n_sites, t))
                grid[:, -1] = n
                assert _bits(tnf_amplitude_transverse(p, n, chi, t)) == _bits(amplitude_fixed(peps, grid, plan))
        with pytest.raises(ValueError, match="period"):
            floquet_peps(p, 0)


class TestTnfInverseTime:
    def test_t0_delta(self):
        p = FloquetParams(6, **PRESETS["less_chaotic"])
        assert abs(tnf_amplitude_inverse_time(p, [0] * 6, 4, 0).value - 1) < 1e-14
        assert tnf_amplitude_inverse_time(p, [0, 1, 0, 0, 0, 0], 4, 0).is_zero

    def test_exact_limit(self):
        p = FloquetParams(10, **PRESETS["maximally_chaotic"])
        psi = exact_evolve(p, 4)
        rng = np.random.default_rng(2)
        for _ in range(6):
            n = rng.integers(0, 2, size=10)
            got = tnf_amplitude_inverse_time(p, n, 64, 4)
            want = psi[config_index(n)]
            assert abs(got.value - want) / abs(want) < 1e-8

    def test_matches_independent_layer_oracle(self):
        """Layer-by-layer bra absorption written out with raw numpy: a
        product-state bra, then compress(apply_mpo(...)) per period, bit for bit."""
        for preset, chi in itertools.product(sorted(PRESETS), (1, 2, 3)):
            p = FloquetParams(8, **PRESETS[preset])
            mpo = build_floquet_mpo(p)
            rng = np.random.default_rng(3)
            for _ in range(3):
                n = rng.integers(0, 2, size=8)
                caps = []
                for c in range(8):
                    v = np.zeros(2, dtype=complex)
                    v[n[c]] = 1.0
                    caps.append(v)
                bra = [v.reshape(1, 2, 1) for v in caps]  # a product-state bra
                log = 0.0
                for t in range(1, 6):
                    applied = apply_mpo(bra, [w.transpose(0, 2, 1, 3) for w in mpo])
                    [part] = compress([s[None] for s in applied], chi)  # a stack of one
                    bra = [s[0] for s in part.sites]
                    log += float(part.log[0])
                    want = AmplitudeValue.from_parts(mps_amplitude(bra, [0] * 8), log)
                    assert _bits(tnf_amplitude_inverse_time(p, n, chi, t)) == _bits(want)


class TestMpoMpo:
    def test_identity_at_t0(self):
        p = FloquetParams(6, **PRESETS["less_chaotic"])
        sites, log = mpo_mpo_inverse(p, 4, 0)
        assert abs(mpo_amplitude(sites, log, [0] * 6).value - 1) < 1e-14
        assert mpo_amplitude(sites, log, [1] + [0] * 5).is_zero

    def test_exact_limit(self):
        p = FloquetParams(10, **PRESETS["maximally_chaotic"])
        psi = exact_evolve(p, 4)
        sites, log = mpo_mpo_inverse(p, 64, 4)
        rng = np.random.default_rng(4)
        for _ in range(6):
            n = rng.integers(0, 2, size=10)
            got = mpo_amplitude(sites, log, n)
            want = psi[config_index(n)]
            assert abs(got.value - want) / abs(want) < 1e-8

    def test_isometries_amplitude_independent(self):
        # the compressed operator is built once; amplitudes are read off it
        p = FloquetParams(8, **PRESETS["less_chaotic"])
        sites, log = mpo_mpo_inverse(p, 4, 6)
        a = mpo_amplitude(sites, log, [0] * 8)
        b = mpo_amplitude(sites, log, [1, 0, 1, 0, 1, 0, 1, 0])
        c = mpo_amplitude(sites, log, [0] * 8)
        assert (a.mantissa, a.log_scale) == (c.mantissa, c.log_scale)
        assert not np.array_equal(a.mantissa, b.mantissa)


@pytest.mark.parametrize(
    "route",
    [
        lambda p, n: exact_evolve(p, -1),
        lambda p, n: evolve_conventional(p, 2, -1),
        lambda p, n: tnf_amplitude_transverse(p, n, 2, -1),
        lambda p, n: tnf_amplitude_inverse_time(p, n, 2, -1),
        lambda p, n: mpo_mpo_inverse(p, 2, -1),
    ],
    ids=["exact", "conventional", "transverse", "inverse_time", "mpo_mpo"],
)
def test_negative_periods_rejected(route):
    p = FloquetParams(4, **PRESETS["maximally_chaotic"])
    with pytest.raises(ValueError, match="periods"):
        route(p, [0, 1, 0, 1])


@pytest.mark.parametrize("chi", [0, -1, None])
def test_nonpositive_chi_rejected_at_every_time(chi):
    """t = 0 is no shortcut around a bad chi, on either TNF route, table,
    series or bulk sweep."""
    p = FloquetParams(4, **PRESETS["maximally_chaotic"])
    for t in (0, 1, 2):
        for route in (tnf_amplitude_inverse_time, tnf_amplitude_transverse):
            with pytest.raises(ValueError, match="chi"):
                route(p, [0, 1, 0, 1], chi, t)
        with pytest.raises(ValueError, match="chi"):
            transverse_table(p, chi, t)
        for method in ("tnf_transverse", "tnf_inverse"):
            with pytest.raises(ValueError, match="chi"):
                bulk_entropy_sweep(p, method, t, chi=chi)
    with pytest.raises(ValueError, match="chi"):
        inverse_time_series(p, chi, [[0, 1, 0, 1]])


CHI_ROUTES = {
    "transverse": lambda p, chi: tnf_amplitude_transverse(p, [0, 1, 0, 1], chi, 2),
    "inverse_time": lambda p, chi: tnf_amplitude_inverse_time(p, [0, 1, 0, 1], chi, 2),
    "conventional": lambda p, chi: evolve_conventional(p, chi, 2),
    "mpo_mpo": lambda p, chi: mpo_mpo_inverse(p, chi, 2),
    "transverse_table": lambda p, chi: transverse_table(p, chi, 2),
    "bulk_entropy_sweep": lambda p, chi: bulk_entropy_sweep(p, "tnf_transverse", 2, chi=chi),
    "inverse_time_series": lambda p, chi: inverse_time_series(p, chi, [[0, 1, 0, 1]]),
    "inverse_time_block": lambda p, chi: inverse_time_block(p, chi, 2),
    "fixed_plan": lambda p, chi: FixedPlan(p.n_sites, 2, chi, p.n_sites - 1),
    "entanglement": lambda p, chi: entanglement_dynamics(p, "tnf_transverse", chi=chi),
}


@pytest.mark.parametrize("route", CHI_ROUTES.values(), ids=CHI_ROUTES.keys())
@pytest.mark.parametrize("chi", [2.5, 2.0, True, "2", np.float64(2.0)])
def test_non_integer_chi_rejected_on_every_route(route, chi):
    """A bool or non-integer chi is a ValueError naming chi, not a value or
    a bare TypeError; numpy integers pass."""
    p = FloquetParams(4, **PRESETS["maximally_chaotic"], t_max=2)
    with pytest.raises(ValueError, match="chi"):
        route(p, chi)
    route(p, np.int64(2))


PERIOD_ROUTES = {
    "exact": exact_evolve,
    "conventional": lambda p, t: evolve_conventional(p, 2, t),
    "transverse": lambda p, t: tnf_amplitude_transverse(p, [0, 1, 0, 1], 2, t),
    "inverse_time": lambda p, t: tnf_amplitude_inverse_time(p, [0, 1, 0, 1], 2, t),
    "mpo_mpo": lambda p, t: mpo_mpo_inverse(p, 2, t),
    "transverse_table": lambda p, t: transverse_table(p, 2, t),
    "floquet_peps": floquet_peps,
    "inverse_time_block": lambda p, t: inverse_time_block(p, 2, t),
    "bulk_entropy_sweep": lambda p, t: bulk_entropy_sweep(p, "mps", t, chi=2),
}


@pytest.mark.parametrize("route", PERIOD_ROUTES.values(), ids=PERIOD_ROUTES.keys())
@pytest.mark.parametrize("t", [2.5, 2.0, True, "2", np.float64(1.0)])
def test_non_integer_periods_rejected_on_every_route(route, t):
    """A bool or non-integer period count is a ValueError naming the periods,
    not islice's bare ValueError, a bare TypeError or a silent 1; numpy
    integers pass."""
    p = FloquetParams(4, **PRESETS["maximally_chaotic"])
    with pytest.raises(ValueError, match="periods"):
        route(p, t)
    route(p, np.int64(2))


COUPLINGS = {**PRESETS, "zero_j": {"j": 0.0, "g": 0.4, "h": 0.3}}


@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_block_series_matches_each_configuration_alone(data):
    """A lock-step block, repeats and all, gives every configuration the
    bits of ``tnf_amplitude_inverse_time`` (a block of one) at t = 0..4."""
    n_sites = data.draw(st.integers(2, 7), label="n_sites")
    couplings = COUPLINGS[data.draw(st.sampled_from(sorted(COUPLINGS)), label="couplings")]
    chi = data.draw(st.integers(1, 4), label="chi")
    p = FloquetParams(n_sites, **couplings)
    cfg = st.lists(st.integers(0, 1), min_size=n_sites, max_size=n_sites)
    configs = data.draw(st.lists(cfg, min_size=1, max_size=12), label="configs")
    for t, table in zip(range(5), inverse_time_series(p, chi, configs)):
        assert table_bits(table) == [_bits(tnf_amplitude_inverse_time(p, n, chi, t)) for n in configs]


def applied_chain_bytes(params, chi):
    """Bytes of one bra chain after the period MPO, every bond at the widest
    extent chi and the Schmidt rank across it allow."""
    n = params.n_sites
    mpo = build_floquet_mpo(params)
    left = [min(chi, 2**c, 2 ** (n - c)) * w.shape[0] for c, w in enumerate(mpo)]
    shapes = [(left[c], w.shape[1], left[c + 1] if c + 1 < n else 1) for c, w in enumerate(mpo)]
    return sum(math.prod(shape) for shape in shapes) * 16


def test_block_size_fits_the_byte_budget():
    """No block at L = 14, chi = 64 holds more applied chain bytes than the
    budget, while the benchmark's L = 8 enumeration runs as one block. At
    t_max = 10 the bonds can reach chi."""
    wide = FloquetParams(14, **PRESETS["maximally_chaotic"])
    rows = inverse_time_block(wide, 64, 10)
    assert 1 <= rows < 2**14
    assert rows * applied_chain_bytes(wide, 64) <= BLOCK_BYTES
    for chi in (2, 4):
        assert inverse_time_block(FloquetParams(8, **PRESETS["maximally_chaotic"]), chi, 4) >= 2**8


def test_block_size_follows_the_bonds_t_max_reaches():
    """At L = 12, chi = 32, a run to t_max = 2 gets larger blocks than a run
    long enough for chi to bind, still within the budget at the bonds it can
    reach (a chain t periods old has bonds of at most 2^t)."""
    p = FloquetParams(12, **PRESETS["maximally_chaotic"])
    unbounded, short = inverse_time_block(p, 32, 12), inverse_time_block(p, 32, 2)
    assert unbounded == 19 and short > unbounded
    n, mpo = p.n_sites, build_floquet_mpo(p)
    left = [min(32, 2**c, 2 ** (n - c), 2) * w.shape[0] for c, w in enumerate(mpo)] + [1]
    chain = sum(left[c] * w.shape[1] * left[c + 1] for c, w in enumerate(mpo)) * 16
    assert short * chain <= BLOCK_BYTES < (short + 1) * chain


def test_block_chains_stay_within_the_shape_bound(monkeypatch):
    """The absorbed chains a block really holds, period after period, never
    outgrow the shape bound the block size is computed from: per column, a
    chain's ``(l, open, r)`` legs (none before the first period) times the
    layer's ``(left, down, right)``."""
    p = FloquetParams(6, **PRESETS["maximally_chaotic"])
    seen = []
    absorb = floquet.boundary_absorb

    def spy(stack, row, chi, side):
        legs = [()] * len(row) if stack is None else [s.shape[1:4] for s in stack.sites]
        seen.append(16 * sum(math.prod(a) * math.prod(t.shape[2:]) for a, t in zip(legs, row)))
        return absorb(stack, row, chi, side)

    monkeypatch.setattr(floquet, "boundary_absorb", spy)
    configs = list(itertools.product((0, 1), repeat=6))
    list(itertools.islice(inverse_time_series(p, 3, configs), 10))
    assert seen and max(seen) <= applied_chain_bytes(p, 3)


@pytest.mark.parametrize(
    "kwargs, field",
    [
        ({"n_sites": 1}, "n_sites"),
        ({"n_sites": 4.0}, "n_sites"),
        ({"n_sites": True}, "n_sites"),
        ({"t_max": -1}, "t_max"),
        ({"t_max": 2.5}, "t_max"),
        ({"j": math.nan}, "j"),
        ({"g": math.inf}, "g"),
        ({"h": "0.5"}, "h"),
        ({"h": 1j}, "h"),
        ({"j": False}, "j"),
    ],
)
def test_params_rejected_naming_the_field(kwargs, field):
    args = {"n_sites": 4, "j": 0.1, "g": 0.1, "h": 0.1, "t_max": 1, **kwargs}
    with pytest.raises(ValueError, match=field):
        FloquetParams(**args)


def test_params_accept_numpy_numbers():
    p = FloquetParams(np.int64(4), np.float64(0.1), 0.1, 1, t_max=np.int32(2))
    assert p.n_sites == 4 and p.t_max == 2


ROUTES = {"tnf_transverse": tnf_amplitude_transverse, "tnf_inverse": tnf_amplitude_inverse_time}


def fresh_state(route, params, chi, t):
    """Dense state (site 0 most significant) with every amplitude from a
    fresh call of ``route``, rescaled by the largest log factor."""
    amps = [route(params, n, chi, t) for n in itertools.product((0, 1), repeat=params.n_sites)]
    top = max((a.log_scale for a in amps if not a.is_zero), default=-math.inf)
    return np.array([0j if a.is_zero else a.mantissa * math.exp(a.log_scale - top) for a in amps])


@pytest.mark.parametrize("method", sorted(ROUTES))
@given(data=st.data())
@settings(max_examples=10, deadline=None)
def test_enumeration_matches_fresh_calls_bitwise(method, data):
    """``entanglement_dynamics`` and ``bulk_entropy_sweep`` give the entropies
    and spectra of states built from fresh per-call amplitudes, bit for bit."""
    n_sites = data.draw(st.integers(2, 6), label="n_sites")
    preset = data.draw(st.sampled_from(sorted(PRESETS)), label="preset")
    p = FloquetParams(n_sites, **PRESETS[preset], t_max=data.draw(st.integers(0, 4), label="t_max"))
    chi = data.draw(st.integers(1, 3), label="chi")
    route = ROUTES[method]
    states = [fresh_state(route, p, chi, t) for t in range(p.t_max + 1)]
    dynamics = entanglement_dynamics(p, method, chi=chi)
    for t, psi in enumerate(states):
        s, spec, _ = entropy_and_spectrum(rdm_from_dense(psi, n_sites, (0, n_sites // 2)))
        assert (dynamics.entropies[t].hex(), dynamics.spectra[t].tobytes()) == (s.hex(), spec.tobytes())
    t = data.draw(st.integers(0, p.t_max), label="t")
    want = [
        (size, entropy_and_spectrum(rdm_from_dense(states[t], n_sites, ((n_sites - size) // 2, size)))[0].hex())
        for size in range(1, n_sites)
    ]
    assert [(size, s.hex()) for size, s in bulk_entropy_sweep(p, method, t, chi=chi)] == want


@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_transverse_table_matches_each_configuration_alone(data):
    """The lock-step table gives every configuration the bits of
    ``tnf_amplitude_transverse`` (a stack of one), whole or with the byte
    budget so small that every level's stack splits down to single prefixes."""
    n_sites = data.draw(st.integers(2, 7), label="n_sites")
    couplings = COUPLINGS[data.draw(st.sampled_from(sorted(COUPLINGS)), label="couplings")]
    chi = data.draw(st.integers(1, 4), label="chi")
    t = data.draw(st.integers(0, 4), label="t")
    p = FloquetParams(n_sites, **couplings)
    with pytest.MonkeyPatch.context() as patch:
        if data.draw(st.booleans(), label="split"):
            patch.setattr(peps_module, "BLOCK_BYTES", 1)
        table = table_bits(transverse_table(p, chi, t))
    assert len(table) == 2**n_sites
    for n in itertools.product((0, 1), repeat=n_sites):
        assert table[config_index(n)] == _bits(tnf_amplitude_transverse(p, n, chi, t))


def test_transverse_stacks_split_by_the_byte_budget(monkeypatch):
    """Each absorbed stack (two children per prefix) stays within its level's
    share of the budget unless it holds a single prefix, and the budget does
    not move a bit."""
    p = FloquetParams(7, **PRESETS["maximally_chaotic"])
    want = table_bits(transverse_table(p, 3, 4))
    sizes = []

    def spy(stack, row, chi, side="top", tape=None):
        if stack is not None and len(row[0]) > 2:  # absorbed sites: (l, o, r) x (l2, d, r2) per chain
            sizes.append(16 * len(row[0]) * sum(s[0].size // s.shape[4] * (t[0].size // t.shape[1])
                                                for s, t in zip(stack.sites, row)))
        return absorb(stack, row, chi, side, tape)

    absorb = peps_module.boundary_absorb
    monkeypatch.setattr(peps_module, "boundary_absorb", spy)
    monkeypatch.setattr(peps_module, "BLOCK_BYTES", 16384 * 7)
    assert table_bits(transverse_table(p, 3, 4)) == want
    assert len(sizes) > 8 and max(sizes) <= 16384


@pytest.mark.parametrize("route", ROUTES.values(), ids=ROUTES.keys())
@pytest.mark.parametrize("bad", [0.9, math.nan])
def test_non_integer_configuration_rejected(route, bad):
    """A non-integer entry is an error, not a truncated site value."""
    p = FloquetParams(4, **PRESETS["maximally_chaotic"])
    with pytest.raises(ValueError, match="integers"):
        route(p, [bad, 0, 0, 0], 2, 0)
    assert _bits(route(p, [1.0, 0.0, 1.0, 0.0], 2, 2)) == _bits(route(p, [1, 0, 1, 0], 2, 2))
