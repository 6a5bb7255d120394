"""Gauge-fixed SVD and scale management."""
import itertools
import math
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tnflab.errors import NumericalAbortError, check_int, check_real
from tnflab.floquet import FloquetParams, transverse_table
from tnflab.tensor import (
    AmplitudeValue,
    _gauge_fix,
    renormalize,
    rescaled,
    stack_dot,
    svd_split,
    table_from_parts,
    table_value,
)


def split_one(t, n_left, chi):
    """:func:`svd_split` of the stack of one ``t[None]``, read at its one tensor."""
    [(rows, s)] = svd_split(np.asarray(t)[None], n_left, chi)
    assert rows == [0]
    return SimpleNamespace(isometry=s.isometry[0], singulars=s.singulars[0], right=s.right[0],
                           discarded_weight=s.discarded_weight[0])


class TestSvdSplit:
    def test_rank_one(self):
        u = np.array([3.0, 4.0]) / 5.0
        v = np.array([0.6, -0.8])
        s = split_one(np.outer(u, v), 1, 4)
        assert s.singulars.shape == (1,)
        assert abs(s.singulars[0] - 1.0) < 1e-12
        assert s.discarded_weight < 1e-20

    def test_identity_chi_one_tie_break(self):
        s = split_one(np.eye(2, dtype=complex), 1, 1)
        assert np.allclose(s.singulars, [1.0])
        assert abs(s.discarded_weight - 0.5) < 1e-12
        # canonical ordering: the first kept vector pivots on the lowest flat index
        assert np.allclose(s.isometry.reshape(-1), [1.0, 0.0])

    def test_non_finite_input_aborts(self):
        for bad in (np.nan, np.inf):
            m = np.eye(3, dtype=complex)
            m[1, 2] = bad
            with pytest.raises(NumericalAbortError):
                svd_split(m[None], 1, 2)

    def test_full_rank_reconstruction(self):
        rng = np.random.default_rng(3)
        m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        s = split_one(m, 1, 4)
        rec = (s.isometry * s.singulars) @ s.right
        assert np.linalg.norm(rec - m) / np.linalg.norm(m) < 1e-12

    def test_multi_index_reconstruction(self):
        rng = np.random.default_rng(4)
        t = rng.standard_normal((2, 3, 2, 2)) + 1j * rng.standard_normal((2, 3, 2, 2))
        s = split_one(t.transpose(0, 2, 1, 3), 2, 64)
        rec = np.tensordot(s.isometry * s.singulars, s.right, axes=([2], [0]))
        # isometry carries (axis0, axis2); right carries (axis1, axis3)
        rec = rec.transpose(0, 2, 1, 3)
        assert np.linalg.norm(rec - t) / np.linalg.norm(t) < 1e-10

    def test_isometry_property(self):
        rng = np.random.default_rng(5)
        t = rng.standard_normal((6, 5)) + 1j * rng.standard_normal((6, 5))
        s = split_one(t, 1, 3)
        gram = s.isometry.conj().T @ s.isometry
        assert np.linalg.norm(gram - np.eye(s.singulars.size)) < 1e-10

    def test_descending_nonnegative(self):
        rng = np.random.default_rng(6)
        s = split_one(rng.standard_normal((8, 8)), 1, 5)
        assert np.all(s.singulars >= 0)
        assert np.all(np.diff(s.singulars) <= 0)

    def test_determinism_bit_identical(self):
        rng = np.random.default_rng(7)
        t = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        a = split_one(t, 1, 3)
        b = split_one(t.copy(), 1, 3)
        assert np.array_equal(a.isometry, b.isometry)
        assert np.array_equal(a.singulars, b.singulars)
        assert np.array_equal(a.right, b.right)

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            svd_split(np.eye(2)[None], 1, 0)
        with pytest.raises(ValueError):
            svd_split(np.eye(2)[None], 0, 2)
        with pytest.raises(ValueError):
            svd_split(np.eye(2)[None], 2, 2)

    def test_zero_tensor(self):
        s = split_one(np.zeros((3, 3)), 1, 2)
        assert s.singulars.shape == (1,)
        assert s.singulars[0] == 0.0
        gram = s.isometry.conj().T @ s.isometry
        assert np.allclose(gram, np.eye(1))


def gauge_fix_per_column(u, vh):
    """The per-column loop that ``_gauge_fix`` replaced, kept as its bitwise oracle."""
    for k in range(u.shape[1]):
        col = u[:, k]
        i = int(np.argmax(np.abs(col)))
        pivot = col[i]
        if pivot == 0:
            continue
        phase = pivot / abs(pivot)
        u[:, k] = col / phase
        vh[k, :] = vh[k, :] * phase


def assert_gauge_fix_matches_loop(u, vh, kept=None):
    """Both fixes on copies of ``u[:, :kept]`` and ``vh[:kept]``, the strided
    views svd_split passes (as stacks of one), agree bit for bit; returns the
    fixed copies."""
    kept = u.shape[1] if kept is None else kept
    got_u, got_vh = u.copy(), vh.copy()
    _gauge_fix(got_u[None, :, :kept], got_vh[None, :kept])
    want_u, want_vh = u.copy(), vh.copy()
    gauge_fix_per_column(want_u[:, :kept], want_vh[:kept])
    assert got_u.tobytes() == want_u.tobytes()
    assert got_vh.tobytes() == want_vh.tobytes()
    return got_u, got_vh


class TestGaugeFix:
    def test_matches_per_column_loop_bitwise(self):
        """Columns scaled from 1e-3 to 1e3, on the strided views svd_split passes."""
        rng = np.random.default_rng(12)
        for _ in range(3000):
            m, n = rng.integers(1, 17, size=2)
            k = min(m, n)
            scale = 10.0 ** rng.uniform(-3, 3, k)
            u = (rng.standard_normal((m, k)) + 1j * rng.standard_normal((m, k))) * scale
            vh = rng.standard_normal((k, n)) + 1j * rng.standard_normal((k, n))
            assert_gauge_fix_matches_loop(u, vh, int(rng.integers(1, k + 1)))

    def test_zero_pivot_column_left_unchanged(self):
        rng = np.random.default_rng(13)
        u = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
        u[:, 1] = 0
        vh = rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))
        got_u, got_vh = assert_gauge_fix_matches_loop(u, vh)
        assert got_u[:, 1].tobytes() == u[:, 1].tobytes()
        assert got_vh[1].tobytes() == vh[1].tobytes()

    def test_tie_goes_to_lowest_index(self):
        u = np.array([[0.5], [1j], [-1.0], [0.2j]])
        vh = np.array([[1.0 + 2.0j, -0.5j]])
        got_u, _ = assert_gauge_fix_matches_loop(u, vh)
        assert got_u[1, 0] == 1.0 and got_u[2, 0] == 1j


def renormalize_one(t):
    """:func:`renormalize` of the stack of one ``t[None]``, read at its one tensor."""
    out, [log], [zero] = renormalize(t[None])
    return out[0], log, zero


class TestRenormalize:
    def test_max_entry_four(self):
        t = np.array([1.0, -4.0, 2.0])
        out, log, zero = renormalize_one(t)
        assert not zero
        assert np.allclose(out, t / 4.0)
        assert abs(log - math.log(4.0)) < 1e-15

    def test_already_normalized(self):
        t = np.array([0.5, 1.0])
        out, log, zero = renormalize_one(t)
        assert log == 0.0 and not zero
        assert np.array_equal(out, t)

    def test_chained_log_accumulation(self):
        # product of 50 scalars of 0.1, renormalizing after each factor
        total = 0.0
        t = np.array([1.0])
        for _ in range(50):
            out, log, _ = renormalize_one(t * 0.1)
            total += log
            t = out
        assert abs(total - 50 * math.log(0.1)) < 1e-12

    def test_zero_flagged(self):
        t = np.zeros((2, 2))
        out, log, zero = renormalize_one(t)
        assert zero and log == 0.0
        assert np.array_equal(out, t)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_aborts_without_warning(self, bad):
        t = np.array([[1.0, bad], [0.5, 2.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalAbortError):
                renormalize(t[None])

    @given(st.floats(min_value=1e-6, max_value=1e6))
    @settings(max_examples=50, deadline=None)
    def test_max_abs_is_one(self, scale):
        t = np.array([scale, -scale / 3.0])
        out, log, zero = renormalize_one(t)
        assert not zero
        assert abs(np.max(np.abs(out)) - 1.0) < 1e-14
        assert np.allclose(out * math.exp(log), t, rtol=1e-12)


def every_other(x):
    """``x`` as a view on every other entry of a larger stack: neither matrix axis has unit stride."""
    big = np.zeros(x.shape[:1] + tuple(2 * d for d in x.shape[1:]), x.dtype)
    big[:, ::2, ::2] = x
    return big[:, ::2, ::2]


@pytest.mark.parametrize("count", [1, 3])
def test_stack_dot_gives_each_chain_np_dot_bits(count):
    """Every (m, k, n) over {1, 2, 5}: each chain of the stacked product is
    ``np.dot`` of its own matrices, byte for byte, for C-contiguous operands
    and for strided views, where a vector product through ``np.matmul``
    would round differently."""
    rng = np.random.default_rng(count)
    for m, k, n in itertools.product((1, 2, 5), repeat=3):
        a = rng.standard_normal((count, m, k)) + 1j * rng.standard_normal((count, m, k))
        b = rng.standard_normal((count, k, n)) + 1j * rng.standard_normal((count, k, n))
        for x, y in itertools.product((a, every_other(a)), (b, every_other(b))):
            got = stack_dot(x, y)
            assert got.shape == (count, m, n)
            for xm, ym, z in zip(x, y, got):
                assert z.tobytes() == np.dot(xm, ym).tobytes(), (m, k, n)


class TestAmplitudeValue:
    def test_normalization_window(self):
        a = AmplitudeValue.from_parts(123.0 + 4.0j, 2.0)
        assert 0.1 < abs(a.mantissa) <= 10.0
        assert abs(a.value - (123.0 + 4.0j) * math.exp(2.0)) < 1e-9

    def test_zero(self):
        z = AmplitudeValue.zero()
        assert z.is_zero and z.value == 0.0

    def test_ratio(self):
        a = AmplitudeValue.from_parts(2.0, 5.0)
        b = AmplitudeValue.from_parts(4.0, 4.0)
        assert abs(a.ratio(b) - 0.5 * math.e) < 1e-12
        assert abs(a.abs_ratio_sq(b) - 0.25 * math.e**2) < 1e-10

    def test_ratio_against_zero(self):
        with pytest.raises(ZeroDivisionError):
            AmplitudeValue.from_parts(1.0).ratio(AmplitudeValue.zero())


def scalar_rescaled(amps):
    """The scalar rule the tables keep: each live amplitude times
    ``math.exp(log_scale - top)`` at the largest live log scale, a zero as 0j."""
    top = max((a.log_scale for a in amps if not a.is_zero), default=0.0)
    return np.array([0j if a.is_zero else a.mantissa * math.exp(a.log_scale - top) for a in amps], dtype=complex)


# A real or imaginary part: an exact or negative zero, or a magnitude from 1e-130 to 1e130.
PART = st.one_of(st.sampled_from([0.0, -0.0]),
                 st.builds(lambda m, e: m * 10.0**e, st.floats(-10, 10).filter(bool), st.integers(-130, 130)))
ENTRY = st.tuples(st.builds(complex, PART, PART), st.floats(-700, 700))


@given(st.lists(ENTRY, max_size=40))
# Moduli and exponents at which numpy's vector log and exp round away from math's on
# some builds, and a table of zeros alone.
@example([(8.21679200856372 + 0j, 0.0), (0.9655389275047511j, 3.0), (2.3886891388477123e-36 + 0j, 1.0)])
@example([(1 + 0j, 0.0), (1 + 0j, -38.4772340255854), (-1j, -1.5398764381488945)])
@example([(0j, 5.0), (complex(-0.0, -0.0), -700.0), (complex(0.0, -0.0), 700.0)])
@example([(1 + 0j, 0.0), (complex(-0.2, -0.9), -745.0)])  # a part rounds to -0.0 at the subnormal scale
@settings(max_examples=300, deadline=None)
def test_table_rule_matches_from_parts_bitwise(entries):
    """``table_from_parts`` gives each entry the fields of
    ``AmplitudeValue.from_parts``, ``table_value`` reads each entry back as
    that value, and ``rescaled`` gives the vector of the scalar rule, bit for
    bit: signed zeros, subnormals and all."""
    amps = [AmplitudeValue.from_parts(v, lg) for v, lg in entries]
    mantissa, log_scale = table_from_parts(np.array([v for v, _ in entries], complex), [lg for _, lg in entries])
    assert mantissa.dtype == complex and log_scale.dtype == float
    want = np.array([a.mantissa for a in amps], complex), np.array([a.log_scale for a in amps], float)
    assert mantissa.view(np.int64).tolist() == want[0].view(np.int64).tolist()
    assert log_scale.view(np.int64).tolist() == want[1].view(np.int64).tolist()
    assert (mantissa == 0).tolist() == [a.is_zero for a in amps]
    # Float reprs round-trip, so equal reprs are equal bits.
    assert [repr(table_value(m, lg)) for m, lg in zip(mantissa[:, None], log_scale[:, None])] == list(map(repr, amps))
    assert rescaled(mantissa, log_scale).view(np.int64).tolist() == scalar_rescaled(amps).view(np.int64).tolist()


_INT = "count must be an integer of at least"
_REAL = "rate must be a finite real number"


@pytest.mark.parametrize("rule, args, match", [
    *(pytest.param(check_int, ("count", v, least), None, id=f"int-ok-{v!r}")
      for v, least in ((0, 0), (np.int64(1), 1), (np.uint8(1), 1))),
    *(pytest.param(check_int, ("count", v, 1), f"{_INT} 1", id=f"int-bad-{v!r}")
      for v in (True, 2.5, np.float64(2.0), "3", None, 0)),
    pytest.param(check_int, ("count", -1, 0), f"{_INT} 0", id="int-bad-below-0"),
    *(pytest.param(check_real, ("rate", v), None, id=f"real-ok-{v!r}") for v in (0.5, 3, np.float64(0.25))),
    *(pytest.param(check_real, ("rate", v), _REAL, id=f"real-bad-{v!r}")
      for v in (True, math.nan, math.inf, -math.inf, 1j, "0.5", None)),
    # The arguments are checked before the 2^L enumeration guard (a ResourceLimitError).
    pytest.param(transverse_table, (FloquetParams(15, 0.1, 0.2, 0.3), 0, 1), "chi", id="transverse-chi-first"),
])
def test_argument_rules(rule, args, match):
    """Each rule accepts its values and rejects every other with a
    ``ValueError`` naming the argument."""
    if match is None:
        assert rule(*args) is None
    else:
        with pytest.raises(ValueError, match=match):
            rule(*args)
