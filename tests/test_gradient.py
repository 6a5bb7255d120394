"""Gradient estimation and stochastic gradient descent."""
import cmath
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tnflab.peps
import tnflab.vmc
import tnflab.ed
from tnflab.adjoint import Tape
from tnflab.errors import NumericalAbortError
from tnflab.models import heisenberg, neel_config
from tnflab.peps import (
    FixedEvaluator,
    FixedPlan,
    fixed_table,
    fixed_table_vjp,
    log_derivatives,
    peps_from_params,
    peps_to_params,
    product_peps,
    random_peps,
)
from tnflab.simple_update import simple_update
from tnflab.vmc import (
    GradientInfo,
    enumerate_energy,
    estimate_energy,
    gradient_estimate,
    sgd_optimize,
)
from tnflab.ed import ground_energy


# The finite-difference oracle: central differences of the log-amplitude with
# a relative step and an absolute floor, probing only the entries an amplitude
# reads.
FD_STEP_REL = 1e-5
FD_STEP_FLOOR = 1e-7
# Discarded-weight jump between the two probes that marks a truncation degeneracy.
DEGENERACY_JUMP = 0.1


def fd_log_derivatives(evaluator, peps, cfg):
    """O_k(n) = d ln amp / d theta_k by central differences, all parameters in
    the order of ``peps_to_params``. A probe pair with a zero amplitude or a
    discarded-weight jump above ``DEGENERACY_JUMP`` gives NaN; unread entries
    get what their probes would give."""
    out = np.zeros(peps_to_params(peps).size, dtype=complex)
    k = 0
    a0 = evaluator.amplitude(cfg)
    for r in range(peps.rows):
        for c in range(peps.cols):
            t = peps.sites[r][c]
            for part in (1.0, 1.0j):
                for e in range(t.size):
                    base = t.flat[e]
                    mag = abs(base.real if part == 1.0 else base.imag)
                    h = max(FD_STEP_REL * mag, FD_STEP_FLOOR)
                    if e % peps.phys_dim == cfg[r * peps.cols + c]:
                        tp = t.copy()
                        tp.flat[e] = base + part * h
                        tm = t.copy()
                        tm.flat[e] = base - part * h
                        sp, sm = {}, {}
                        ap = evaluator.amplitude_with_site(cfg, (r, c), tp, sp)
                        am = evaluator.amplitude_with_site(cfg, (r, c), tm, sm)
                        jump = abs(sp.get("max_discarded", 0.0) - sm.get("max_discarded", 0.0))
                    else:  # unread: both probes would return a0 bit for bit, with no jump
                        ap, am, jump = a0, a0, 0.0
                    if ap.is_zero or am.is_zero or jump > DEGENERACY_JUMP:
                        out[k] = np.nan
                    else:
                        out[k] = cmath.log(ap.ratio(am)) / (2.0 * h)
                    k += 1
    return out


def bits(a):
    return (a.mantissa, a.log_scale, a.is_zero)


def assert_matches_oracle(p, cfg, chi):
    """Reverse-mode O_k(n) against the finite-difference oracle, to 1e-6
    relative to max(1, |O_fd|), skipping parameters the oracle flags; the
    amplitude on the tape is the memoized amplitude, bit for bit."""
    plan = FixedPlan.for_lattice(p.rows, p.cols, chi)
    ev = FixedEvaluator(p, plan)
    amp, o, zeroed = log_derivatives(p, cfg, plan)
    assert bits(amp) == bits(ev.amplitude(cfg))
    want = fd_log_derivatives(ev, p, cfg)
    ok = np.isfinite(want)
    assert np.all(np.isfinite(o)) and zeroed == 0
    err = np.abs(o - want)[ok] / np.maximum(1.0, np.abs(want[ok]))
    assert err.max(initial=0.0) < 1e-6, err.max()
    return o, want


def chain_configs(peps, model, chi, n_sweeps, n_warmup, seed):
    """The configurations a Metropolis ``gradient_estimate`` samples, in order."""
    ev = FixedEvaluator(peps, FixedPlan.for_lattice(peps.rows, peps.cols, chi))
    n_warmup, cfg0 = tnflab.vmc._chain_args(peps, model, n_sweeps, n_warmup)
    chain = tnflab.vmc._chain_samples(ev, model, n_sweeps, n_warmup, seed, 0, cfg0)
    return [(s.config.copy(), tnflab.vmc.local_energy(model, ev.amplitude, s.config)) for s in chain]


def oracle_metropolis_gradient(peps, model, chi, n_sweeps, n_warmup, seed):
    """The Metropolis gradient with the derivatives of every sample taken
    afresh, summed in the library's order."""
    plan = FixedPlan.for_lattice(peps.rows, peps.cols, chi)
    n_params = peps_to_params(peps).size
    sum_w, sum_e, zeroed = 0.0, 0.0, 0
    sum_o = np.zeros(n_params, dtype=complex)
    sum_eo = np.zeros(n_params, dtype=complex)
    samples = chain_configs(peps, model, chi, n_sweeps, n_warmup, seed)
    for cfg, e in samples:
        _, o, z = log_derivatives(peps, cfg, plan)
        oc = np.conj(o)
        sum_w += 1.0
        sum_e += 1.0 * e.real
        sum_o += 1.0 * oc
        sum_eo += 1.0 * e * oc
        zeroed += z
    e_mean = sum_e / sum_w
    grad = 2.0 * np.real(sum_eo / sum_w - e_mean * (sum_o / sum_w))
    return grad, GradientInfo(energy=e_mean, n_samples=len(samples), zeroed_params=zeroed)


@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_log_derivatives_match_the_finite_difference_oracle(data):
    """Open and periodic lattices, 1xN and Nx1 included, chi below and at the
    bond rank, phys_dim 2 and 3."""
    rows = data.draw(st.integers(1, 3), label="rows")
    cols = data.draw(st.integers(1, 3), label="cols")
    boundary = data.draw(st.sampled_from(("obc", "pbc")), label="boundary")
    # Doubled wrap bonds make large PBC lattices at D=3 take seconds without adding a code path.
    bond = data.draw(st.integers(1, 2 if boundary == "pbc" and rows * cols > 4 else 3), label="bond")
    chi = data.draw(st.integers(1, 4), label="chi")
    phys = data.draw(st.integers(2, 3), label="phys_dim")
    seed = data.draw(st.integers(0, 999), label="seed")
    p = random_peps(rows, cols, phys, bond, seed=seed, boundary=boundary)
    site = st.integers(0, phys - 1)
    cfg = np.array(data.draw(st.lists(site, min_size=rows * cols, max_size=rows * cols), label="cfg"))
    assert_matches_oracle(p, cfg, chi)


def test_log_derivatives_of_the_benchmark_state():
    """The 3x3 D=2 simple-update state the gradient benchmark samples, at chi=2."""
    m = heisenberg(3, 3)
    p = simple_update(random_peps(3, 3, 2, 2, seed=42), m, tau=0.05, steps=200)
    rng = np.random.default_rng(0)
    for cfg in [neel_config(3, 3)] + [rng.permutation(neel_config(3, 3)) for _ in range(2)]:
        assert_matches_oracle(p, cfg, 2)


def degenerate_row_state(weights, seed):
    """2x2 OBC D=3 state whose top boundary, on every configuration, holds
    the singular values ``weights``: row 0 is diag(weights) then the
    identity across its bond, for both physical values; row 1 is random."""
    p = random_peps(2, 2, 2, 3, seed=seed)
    diag = np.zeros((1, 1, 3, 3, 2), dtype=complex)
    eye = np.zeros((1, 3, 3, 1, 2), dtype=complex)
    for k, w in enumerate(weights):
        diag[0, 0, k, k, :] = w
        eye[0, k, k, 0, :] = 1.0
    p.sites[0] = [diag, eye]
    return p


@pytest.mark.parametrize("chi", [2, 3])
def test_degenerate_kept_pair_is_finite_and_matches_the_oracle(chi):
    """The top boundary keeps an exactly degenerate pair (1, 1), with the 0.5
    below it discarded at chi=2 and kept at chi=3."""
    p = degenerate_row_state((1.0, 1.0, 0.5), seed=5)
    cfg = np.array([0, 1, 1, 0])
    o, _ = assert_matches_oracle(p, cfg, chi)
    assert np.any(o[: 2 * p.sites[0][0].size] != 0)


def test_degenerate_truncation_zeroes_and_counts_its_rows():
    """chi=1 cuts between the exactly degenerate pair (1, 1): the read entries
    of row 0, which feeds that truncation, get 0 and are counted; the other
    rows match the oracle."""
    p = degenerate_row_state((1.0, 1.0, 0.5), seed=5)
    plan = FixedPlan.for_lattice(2, 2, 1)
    cfg = np.array([0, 1, 1, 0])
    amp, o, zeroed = log_derivatives(p, cfg, plan)
    row0 = 2 * (p.sites[0][0].size + p.sites[0][1].size)
    assert zeroed == row0 // p.phys_dim
    assert not np.any(o[:row0])
    want = fd_log_derivatives(FixedEvaluator(p, plan), p, cfg)[row0:]
    assert np.all(np.isfinite(want))
    assert np.max(np.abs(o[row0:] - want) / np.maximum(1.0, np.abs(want))) < 1e-6
    _, info = gradient_estimate(p, heisenberg(2, 2), 1, sampling="enumerate")
    assert info.zeroed_params == zeroed * info.n_samples > 0


def test_dropped_zero_mode_zeroes_its_rows():
    """Site (0, 1) has rank 1 across (left, down), so the top boundary's
    truncation at chi=2 drops a zero singular value that any perturbation
    brings back as a kept mode: the tape holds no derivative for it, so row 0
    gets 0 and is counted, and row 1 matches the oracle."""
    p = random_peps(2, 2, 2, 2, seed=3)
    rng = np.random.default_rng(3)
    a, b = rng.standard_normal((2, 2, 2)) + 1j * rng.standard_normal((2, 2, 2))
    p.sites[0][1] = np.einsum("lp,dp->ldp", a, b).reshape(1, 2, 2, 1, 2)
    cfg = np.array([0, 1, 1, 0])
    plan = FixedPlan.for_lattice(2, 2, 2)
    _, o, zeroed = log_derivatives(p, cfg, plan)
    row0 = 2 * (p.sites[0][0].size + p.sites[0][1].size)
    assert zeroed == row0 // p.phys_dim and not np.any(o[:row0])
    want = fd_log_derivatives(FixedEvaluator(p, plan), p, cfg)[row0:]
    assert np.max(np.abs(o[row0:] - want) / np.maximum(1.0, np.abs(want))) < 1e-6


def test_zero_amplitude_has_no_derivatives():
    """Every read parameter of a zero amplitude gets 0 and is counted."""
    p = product_peps(2, 2, 2, [0, 1, 1, 0])
    amp, o, zeroed = log_derivatives(p, [1, 1, 1, 1], FixedPlan.for_lattice(2, 2, 1))
    assert amp.is_zero and zeroed == 2 * p.n_sites and not np.any(o)


def test_rank_deficient_boundaries_zero_their_rows():
    """A D=1 state zero-padded to D=2 has rank-deficient boundaries (a
    singular QR factor, zero modes the rank floor drops): nothing comes back
    through them, so rows 0 and 2, which feed them, get 0 and are counted,
    and the closure row matches the oracle."""
    p = random_peps(3, 3, 2, 2, seed=8)
    for row in p.sites:
        for t in row:
            for axis in range(4):
                t[(slice(None),) * axis + (slice(1, None),)] = 0.0
    cfg = np.array([0, 1, 1, 0, 1, 0, 0, 1, 0])
    plan = FixedPlan.for_lattice(3, 3, 2)
    _, o, zeroed = log_derivatives(p, cfg, plan)
    size = [2 * sum(t.size for t in row) for row in p.sites]
    assert zeroed == (size[0] + size[2]) // p.phys_dim
    assert not np.any(o[: size[0]]) and not np.any(o[size[0] + size[1] :])
    want = fd_log_derivatives(FixedEvaluator(p, plan), p, cfg)[size[0] : size[0] + size[1]]
    assert np.max(np.abs(o[size[0] : size[0] + size[1]] - want) / np.maximum(1.0, np.abs(want))) < 1e-6


def oracle_table_gradient(peps, plan, table, cotangent):
    """``fixed_table_vjp`` the per-configuration way: ``Re conj(c) O_k`` of
    each row's :func:`log_derivatives`, summed in order, and each row's
    zeroed count."""
    grad, zeroed = np.zeros(peps_to_params(peps).size), []
    for cfg, c in zip(table, cotangent):
        _, o, z = log_derivatives(peps, cfg, plan)
        grad += np.real(np.conj(c) * o)
        zeroed.append(z)
    return grad, np.array(zeroed)


def oracle_enumerate_gradient(peps, model, chi):
    """The enumerated gradient with every sector configuration's derivatives
    taken afresh, summed in sector order."""
    plan = FixedPlan.for_lattice(peps.rows, peps.cols, chi)
    configs, psi, h_psi, e_mean = tnflab.vmc._sector_state(peps, model, plan)
    n_params = peps_to_params(peps).size
    sum_w, zeroed, n = 0.0, 0, 0
    sum_o = np.zeros(n_params, dtype=complex)
    sum_eo = np.zeros(n_params, dtype=complex)
    for k in np.flatnonzero(np.abs(psi) ** 2):
        w, e = abs(psi[k]) ** 2, h_psi[k] / psi[k]
        _, o, z = log_derivatives(peps, configs[k], plan)
        sum_w += w
        sum_o += w * np.conj(o)
        sum_eo += w * e * np.conj(o)
        zeroed += z
        n += 1
    grad = 2.0 * np.real(sum_eo / sum_w - e_mean * (sum_o / sum_w))
    return grad, GradientInfo(energy=e_mean, n_samples=n, zeroed_params=zeroed)


def assert_close_gradient(got, want):
    """``(gradient, info)`` pairs: the gradients within ``1e-10 * max|g|``, the
    infos equal."""
    (g, info), (g_want, info_want) = got, want
    assert info == info_want
    assert np.max(np.abs(g - g_want)) <= 1e-10 * np.max(np.abs(g_want))


@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_table_pass_matches_the_per_configuration_oracle(data):
    """One taped walk over a random table with repeats, against the sum of
    each row's log-derivatives: open and periodic lattices up to 3x3, D 1-3,
    chi 1-4, phys_dim 2 and 3, each closure row."""
    rows = data.draw(st.integers(1, 3), label="rows")
    cols = data.draw(st.integers(1, 3), label="cols")
    boundary = data.draw(st.sampled_from(("obc", "pbc")), label="boundary")
    bond = data.draw(st.integers(1, 2 if boundary == "pbc" and rows * cols > 4 else 3), label="bond")
    chi = data.draw(st.integers(1, 4), label="chi")
    phys = data.draw(st.integers(2, 3), label="phys_dim")
    mid = data.draw(st.integers(0, rows - 1), label="mid")
    seed = data.draw(st.integers(0, 999), label="seed")
    p = random_peps(rows, cols, phys, bond, seed=seed, boundary=boundary)
    rng = np.random.default_rng(seed)
    table = rng.integers(0, phys, size=(data.draw(st.integers(1, 12), label="n"), rows * cols))
    table = table[rng.integers(0, len(table), size=len(table) + 4)]
    cotangent = rng.standard_normal(len(table)) + 1j * rng.standard_normal(len(table))
    plan = FixedPlan(rows, cols, chi, mid)
    g, zeroed = fixed_table_vjp(p, plan, table, cotangent)
    want, want_zeroed = oracle_table_gradient(p, plan, table, cotangent)
    assert np.array_equal(zeroed, want_zeroed)
    assert np.max(np.abs(g - want)) <= 1e-10 * np.max(np.abs(want))


def zero_padded_state(seed):
    """A 3x3 D=1 state zero-padded to D=2: rank-deficient boundaries."""
    p = random_peps(3, 3, 2, 2, seed=seed)
    for row in p.sites:
        for t in row:
            for axis in range(4):
                t[(slice(None),) * axis + (slice(1, None),)] = 0.0
    return p


def half_padded_state(seed):
    """A 3x3 D=2 state whose sites read at physical value 0 are zero-padded
    D=1 tensors: stacks mix degenerate and regular chains."""
    p = random_peps(3, 3, 2, 2, seed=seed)
    for row in p.sites:
        for t in row:
            for axis in range(4):
                t[(slice(None),) * axis + (slice(1, None),) + (slice(None),) * (3 - axis) + (0,)] = 0.0
    return p


def holed_state():
    """A 3x3 state whose site (1, 1) reads 0 at physical value 1: every
    configuration with that spin up has amplitude 0."""
    p = random_peps(3, 3, 2, 2, seed=4)
    p.sites[1][1][..., 1] = 0.0
    return p


FIXED_CASES = [
    pytest.param(holed_state, 2, id="zero amplitudes"),
    pytest.param(lambda: degenerate_row_state((1.0, 1.0, 0.5), seed=5), 1, id="degenerate truncation"),
    pytest.param(lambda: zero_padded_state(8), 2, id="zero-padded D1 to D2"),
    pytest.param(lambda: half_padded_state(8), 2, id="zero-padded on one spin"),
]


@pytest.mark.parametrize("make,chi", FIXED_CASES)
def test_table_pass_zeroes_what_the_oracle_zeroes(make, chi):
    """Zero amplitudes, a degenerate truncation and rank-deficient boundaries:
    each row's zeroed count, the gradient and its exact zeros are the
    per-configuration oracle's, in a table and in both estimators."""
    p = make()
    m = heisenberg(p.rows, p.cols)
    plan = FixedPlan.for_lattice(p.rows, p.cols, chi)
    table = tnflab.ed.Sector(p.n_sites).configs
    cotangent = np.random.default_rng(1).standard_normal(len(table)) + 0.5j
    g, zeroed = fixed_table_vjp(p, plan, table, cotangent)
    want, want_zeroed = oracle_table_gradient(p, plan, table, cotangent)
    assert np.array_equal(zeroed, want_zeroed) and zeroed.any()
    assert np.array_equal(g == 0, want == 0)
    assert np.max(np.abs(g - want)) <= 1e-10 * np.max(np.abs(want))
    for got, want in ((gradient_estimate(p, m, chi, sampling="enumerate"), oracle_enumerate_gradient(p, m, chi)),
                      (gradient_estimate(p, m, chi, n_sweeps=30, n_warmup=10, seed=2),
                       oracle_metropolis_gradient(p, m, chi, 30, 10, 2))):
        assert_close_gradient(got, want)
        assert np.array_equal(got[0] == 0, want[0] == 0)


@pytest.mark.parametrize("rows,cols", [(2, 3), (3, 3)])
@pytest.mark.parametrize("boundary", ["obc", "pbc"])
def test_empty_table_gives_a_zero_gradient(rows, cols, boundary):
    """No configurations at any closure row, the last one included (where the
    bottom side has no rows): a zero gradient and no counts, as
    ``fixed_table`` gives two empty arrays."""
    p = random_peps(rows, cols, 2, 2, seed=1, boundary=boundary)
    for mid in range(rows):
        plan = FixedPlan(rows, cols, 2, mid)
        g, zeroed = fixed_table_vjp(p, plan, [], [])
        assert g.shape == peps_to_params(p).shape and not g.any()
        assert zeroed.shape == (0,) and zeroed.dtype == np.int64
        assert [a.shape for a in fixed_table(p, plan, [])] == [(0,), (0,)]


@pytest.mark.parametrize("bad", [
    pytest.param([1.0, np.nan], id="nan"),
    pytest.param([np.inf, 1.0], id="inf"),
    pytest.param([1.0, complex(0.0, -np.inf)], id="complex inf"),
    pytest.param([1.0, 2.0, 3.0], id="wrong length"),
    pytest.param([[1.0, 2.0]], id="2-D"),
    pytest.param(["1", "2"], id="strings"),
])
def test_cotangent_must_hold_one_finite_number_per_row(monkeypatch, bad):
    """A cotangent that is not one finite number per table row raises a
    ``ValueError`` that names it, before any contraction."""
    p = random_peps(2, 3, 2, 2, seed=1)
    plan = FixedPlan.for_lattice(2, 3, 2)
    table = np.array([[0, 1, 0, 1, 0, 1], [1, 0, 1, 0, 1, 0]])

    def contracted(*args, **kwargs):
        raise AssertionError("contracted before the cotangent was checked")

    with monkeypatch.context() as patch:
        patch.setattr(tnflab.peps, "boundary_absorb", contracted)
        patch.setattr(tnflab.peps, "_close_strip", contracted)
        with pytest.raises(ValueError, match="cotangent"):
            fixed_table_vjp(p, plan, table, bad)
    want = fixed_table_vjp(p, plan, table, [1.0, 2.0])
    for good in ([1, 2], np.array([1.0, 2.0], np.float32), [1 + 0j, 2 + 0j]):
        got = fixed_table_vjp(p, plan, table, good)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


@pytest.mark.parametrize("rows,cols", [(3, 3), (4, 3)])
@pytest.mark.parametrize("boundary", ["obc", "pbc"])
def test_both_tables_walk_one_schedule(monkeypatch, rows, cols, boundary):
    """``fixed_table_vjp`` walks ``fixed_table``'s schedule: on a table with
    a repeated row, at two closure rows and with stacks small enough to
    slice, its top-side absorbs and closure stacks are ``fixed_table``'s, of
    the same sizes, rows and order, taped; and where ``fixed_table`` walks
    the bottom side once, the vjp walks it twice, untaped (for the kept
    bottoms) and then taped (for the reverse pass)."""
    p = random_peps(rows, cols, 2, 2, seed=3, boundary=boundary)
    table = np.random.default_rng(3).integers(0, 2, size=(24, rows * cols))
    table = np.vstack([table, table[5:6]])
    calls = []
    absorb, close = tnflab.peps.boundary_absorb, tnflab.peps._close_strip
    size = lambda stack: None if stack is None else len(stack.rows)
    row_bits = lambda row: b"".join(t.tobytes() for t in row)

    def absorbed(stack, row, chi, side="top", tape=None):
        calls.append(("absorb", side, size(stack), len(row[0]), row_bits(row), tape is not None))
        return absorb(stack, row, chi, side, tape)

    def closed(top, mid, bottom, tape=None):
        calls.append(("close", size(top), size(bottom), len(mid[0]), row_bits(mid), tape is not None))
        return close(top, mid, bottom, tape)

    monkeypatch.setattr(tnflab.peps, "boundary_absorb", absorbed)
    monkeypatch.setattr(tnflab.peps, "_close_strip", closed)
    monkeypatch.setattr(tnflab.peps, "BLOCK_BYTES", 1 << 15)
    cotangent = np.ones(len(table))
    for mid in (1, 2):
        plan = FixedPlan(rows, cols, 2, mid)
        calls.clear()
        fixed_table(p, plan, table)
        table_calls = calls[:]
        calls.clear()
        fixed_table_vjp(p, plan, table, cotangent)
        bottom = [c for c in table_calls if c[:2] == ("absorb", "bottom")]
        assert not any(c[-1] for c in table_calls)
        assert [c[:-1] for c in calls] == [c[:-1] for c in table_calls + bottom]
        assert [c[-1] for c in calls] == [False] * len(bottom) + [True] * (len(calls) - len(bottom))
        # Stacks were sliced: some absorb takes fewer children than its level has.
        assert sum(c[0] == "close" for c in table_calls) > 1


# 30 sweeps, 10 of them warm-up: 20 samples of 4, 8 and 5 distinct configurations.
REVISITING_CHAINS = [
    pytest.param(2, 2, "obc", 2, 4, 3, id="2x2 obc D2 chi4"),
    pytest.param(2, 3, "obc", 2, 2, 5, id="2x3 obc D2 chi2"),
    pytest.param(2, 2, "pbc", 2, 2, 1, id="2x2 pbc D2 chi2"),
]


@pytest.mark.parametrize("rows,cols,boundary,bond,chi,seed", REVISITING_CHAINS)
def test_probes_once_per_distinct_configuration(monkeypatch, rows, cols, boundary, bond, chi, seed):
    """The Metropolis gradient makes no taped single-configuration
    contraction and no patched amplitude: one taped walk closes each
    distinct sampled configuration once, and each taped slice of it (the one
    top row's absorb, the one closure stack) gets one reverse pass."""
    m = heisenberg(rows, cols, boundary)
    p = random_peps(rows, cols, 2, bond, seed=seed, boundary=boundary)
    samples = [cfg.tobytes() for cfg, _ in chain_configs(p, m, chi, 30, 10, seed)]
    assert len(set(samples)) < len(samples), "the chain must revisit configurations"
    calls = Counter()
    forward, absorb, close = tnflab.peps._schedule_amplitude, tnflab.peps.boundary_absorb, tnflab.peps._close_strip
    backward = Tape.backward

    def counted(peps, n, mid, chi, tape=None):
        calls["single taped"] += tape is not None
        return forward(peps, n, mid, chi, tape)

    def absorbed(stack, row, chi, side="top", tape=None):
        calls["taped absorbs"] += tape is not None
        return absorb(stack, row, chi, side, tape)

    def closed(top, mid, bottom, tape=None):
        if tape is not None:
            calls["taped closures"] += 1
            calls["closed"] += len(mid[0])
        return close(top, mid, bottom, tape)

    def pulled(self, seeds):
        calls["reverse passes"] += 1
        return backward(self, seeds)

    def probe(self, n, *args, **kwargs):
        calls["patched"] += 1

    monkeypatch.setattr(tnflab.peps, "_schedule_amplitude", counted)
    monkeypatch.setattr(tnflab.peps, "boundary_absorb", absorbed)
    monkeypatch.setattr(tnflab.peps, "_close_strip", closed)
    monkeypatch.setattr(Tape, "backward", pulled)
    monkeypatch.setattr(FixedEvaluator, "amplitude_with_site", probe)
    gradient_estimate(p, m, chi, n_sweeps=30, n_warmup=10, seed=seed)
    assert calls == {"taped absorbs": 1, "taped closures": 1, "closed": len(set(samples)), "reverse passes": 2}


@pytest.mark.parametrize("rows,cols,boundary,bond,chi,seed", REVISITING_CHAINS)
def test_revisiting_chain_matches_the_per_sample_oracle(rows, cols, boundary, bond, chi, seed):
    """Weighting each distinct configuration by its visits gives the
    gradient of taking every sample's derivatives afresh, to rounding (the
    sums run in another order), and the same energy, sample count and
    zeroed count."""
    m = heisenberg(rows, cols, boundary)
    p = random_peps(rows, cols, 2, bond, seed=seed, boundary=boundary)
    assert_close_gradient(gradient_estimate(p, m, chi, n_sweeps=30, n_warmup=10, seed=seed),
                          oracle_metropolis_gradient(p, m, chi, 30, 10, seed))


@pytest.mark.parametrize("boundary", ["obc", "pbc"])
@pytest.mark.parametrize("bond", [2, 3])
def test_both_samplings_match_the_oracle_on_3x3(boundary, bond):
    """3x3 simple-update states at chi 1-4: both estimators against the
    per-configuration oracle."""
    m = heisenberg(3, 3, boundary)
    p = simple_update(random_peps(3, 3, 2, bond, seed=bond, boundary=boundary), m, tau=0.05, steps=20)
    for chi in (1, 2, 3, 4):
        assert_close_gradient(gradient_estimate(p, m, chi, sampling="enumerate"),
                              oracle_enumerate_gradient(p, m, chi))
        assert_close_gradient(gradient_estimate(p, m, chi, n_sweeps=30, n_warmup=10, seed=chi),
                              oracle_metropolis_gradient(p, m, chi, 30, 10, chi))


class TestGradient:
    def test_matches_finite_difference_of_rayleigh_quotient(self):
        """Enumeration-sampled estimator against central differences of the
        exactly enumerated energy, well under 1e-6."""
        m = heisenberg(2, 2)
        p = random_peps(2, 2, 2, 2, seed=9)
        chi = 4
        g, info = gradient_estimate(p, m, chi, sampling="enumerate")
        params = peps_to_params(p)
        rng = np.random.default_rng(0)
        for k in rng.choice(params.size, size=8, replace=False):
            h = 1e-5 * max(abs(params[k]), 1e-2)
            up = params.copy()
            up[k] += h
            dn = params.copy()
            dn[k] -= h
            fd = (
                enumerate_energy(peps_from_params(p, up), m, chi)
                - enumerate_energy(peps_from_params(p, dn), m, chi)
            ) / (2 * h)
            assert abs(g[k] - fd) < 1e-6, f"param {k}: {g[k]} vs {fd}"

    def test_stationary_at_two_site_minimum(self):
        """Converge a 2-site problem, then check the gradient is numerically
        zero at the optimum."""
        m = heisenberg(1, 2)
        p = random_peps(1, 2, 2, 2, seed=1)
        p = simple_update(p, m, tau=0.05, steps=400)
        best, _ = sgd_optimize(p, m, chi=2, learning_rate=0.2, iterations=60, sampling="enumerate")
        g, info = gradient_estimate(best, m, chi=2, sampling="enumerate")
        assert abs(info.energy + 0.75) < 1e-3
        assert np.linalg.norm(g) < 5e-3, f"|g| = {np.linalg.norm(g)}"

    def test_positive_rescale_leaves_other_sites_direction(self):
        m = heisenberg(2, 2)
        p = random_peps(2, 2, 2, 2, seed=2)
        scaled = p.copy()
        scaled.sites[0][0] = scaled.sites[0][0] * 2.0
        g1, _ = gradient_estimate(p, m, chi=4, sampling="enumerate")
        g2, _ = gradient_estimate(scaled, m, chi=4, sampling="enumerate")
        size00 = 2 * p.sites[0][0].size
        rest1 = g1[size00:]
        rest2 = g2[size00:]
        cos = np.dot(rest1, rest2) / (np.linalg.norm(rest1) * np.linalg.norm(rest2))
        assert cos > 1 - 1e-8

    def test_metropolis_sampling_agrees_with_enumeration(self):
        m = heisenberg(2, 2)
        p = random_peps(2, 2, 2, 2, seed=3)
        g_enum, _ = gradient_estimate(p, m, chi=4, sampling="enumerate")
        g_mc, _ = gradient_estimate(p, m, chi=4, sampling="metropolis", n_sweeps=4000, seed=0)
        cos = np.dot(g_enum, g_mc) / (np.linalg.norm(g_enum) * np.linalg.norm(g_mc))
        assert cos > 0.95, f"cosine {cos}"

    def test_metropolis_samples_the_estimate_energy_chain(self):
        """Same seed and warm-up: the gradient's samples are the one-chain
        fixed-schedule energy estimate's samples."""
        m = heisenberg(2, 2)
        p = random_peps(2, 2, 2, 2, seed=3)
        _, info = gradient_estimate(p, m, chi=4, n_sweeps=40, n_warmup=10, seed=7)
        est = estimate_energy(p, m, "fixed", 4, n_sweeps=40, n_warmup=10, seed=7)
        assert info.n_samples == est.n_samples == 30
        assert abs(info.energy - est.mean) <= 1e-12 * abs(est.mean)

    def test_enumerate_energy_is_enumerate_energy(self):
        m = heisenberg(2, 2)
        p = random_peps(2, 2, 2, 2, seed=9)
        _, info = gradient_estimate(p, m, chi=2, sampling="enumerate")
        assert info.energy == enumerate_energy(p, m, 2)

    def test_non_finite_energy_aborts(self):
        m = heisenberg(1, 4)
        p = random_peps(1, 4, 2, 2, seed=8)
        p.sites[0][1][0, 0, 0, 0, 0] = np.nan
        for sampling in ("metropolis", "enumerate"):
            with pytest.raises(NumericalAbortError):
                gradient_estimate(p, m, chi=2, n_sweeps=10, n_warmup=2, sampling=sampling)


class TestSgd:
    def test_zero_learning_rate_is_identity(self):
        m = heisenberg(2, 2)
        p = random_peps(2, 2, 2, 2, seed=4)
        best, trace = sgd_optimize(p, m, chi=2, learning_rate=0.0, iterations=3, sampling="enumerate")
        for r in range(2):
            for c in range(2):
                assert np.array_equal(best.sites[r][c], p.sites[r][c])

    def test_2x2_reaches_ground_state(self):
        m = heisenberg(2, 2)
        e_ed = ground_energy(m)
        p = random_peps(2, 2, 2, 2, seed=9)
        best, trace = sgd_optimize(p, m, chi=4, learning_rate=0.1, iterations=150, sampling="enumerate")
        e = enumerate_energy(best, m, 4)
        assert (e - e_ed) / abs(e_ed) < 0.01, f"final {e} vs ED {e_ed}"

    def test_divergence_abort(self, monkeypatch):
        m = heisenberg(2, 2)
        p = random_peps(2, 2, 2, 2, seed=5)
        energies = iter([-0.05, 50.0])

        def fake_gradient(*args, **kwargs):
            e = next(energies)
            n = peps_to_params(p).size
            return np.zeros(n), GradientInfo(energy=e, n_samples=1, zeroed_params=0)

        monkeypatch.setattr(tnflab.vmc, "gradient_estimate", fake_gradient)
        with pytest.raises(NumericalAbortError):
            tnflab.vmc.sgd_optimize(p, m, chi=2, learning_rate=0.1, iterations=5)

    @pytest.mark.parametrize(
        "iterations, learning_rate, name",
        [(-1, 0.1, "iterations"), (1.5, 0.1, "iterations"), (True, 0.1, "iterations"),
         (2, float("nan"), "learning_rate"), (2, float("inf"), "learning_rate"), (2, "0.1", "learning_rate")],
    )
    def test_bad_arguments_rejected_before_any_contraction(self, monkeypatch, iterations, learning_rate, name):
        monkeypatch.setattr(tnflab.vmc, "gradient_estimate", None)
        p = random_peps(2, 2, 2, 2, seed=6)
        with pytest.raises(ValueError, match=name):
            sgd_optimize(p, heisenberg(2, 2), chi=2, learning_rate=learning_rate, iterations=iterations)

    def test_deterministic_given_seed(self):
        m = heisenberg(2, 2)
        p = random_peps(2, 2, 2, 2, seed=6)
        b1, t1 = sgd_optimize(p, m, chi=2, learning_rate=0.05, iterations=3, seed=11, n_sweeps=40)
        b2, t2 = sgd_optimize(p, m, chi=2, learning_rate=0.05, iterations=3, seed=11, n_sweeps=40)
        assert t1 == t2
        for r in range(2):
            for c in range(2):
                assert np.array_equal(b1.sites[r][c], b2.sites[r][c])
