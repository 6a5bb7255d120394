"""Gauge-fixed SVD and scale management."""
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tnflab.errors import DimensionError, NumericalAbortError
from tnflab.tensor import AmplitudeValue, renormalize, svd_split


class TestSvdSplit:
    def test_rank_one(self):
        u = np.array([3.0, 4.0]) / 5.0
        v = np.array([0.6, -0.8])
        s = svd_split(np.outer(u, v), [0], 4)
        assert s.singulars.shape == (1,)
        assert abs(s.singulars[0] - 1.0) < 1e-12
        assert s.discarded_weight < 1e-20

    def test_identity_chi_one_tie_break(self):
        s = svd_split(np.eye(2, dtype=complex), [0], 1)
        assert np.allclose(s.singulars, [1.0])
        assert abs(s.discarded_weight - 0.5) < 1e-12
        # canonical ordering: the first kept vector pivots on the lowest flat index
        assert np.allclose(s.isometry.reshape(-1), [1.0, 0.0])

    def test_non_finite_input_aborts(self):
        for bad in (np.nan, np.inf):
            m = np.eye(3, dtype=complex)
            m[1, 2] = bad
            with pytest.raises(NumericalAbortError):
                svd_split(m, [0], 2)

    def test_full_rank_reconstruction(self):
        rng = np.random.default_rng(3)
        m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        s = svd_split(m, [0], 4)
        rec = (s.isometry * s.singulars) @ s.right
        assert np.linalg.norm(rec - m) / np.linalg.norm(m) < 1e-12

    def test_multi_index_reconstruction(self):
        rng = np.random.default_rng(4)
        t = rng.standard_normal((2, 3, 2, 2)) + 1j * rng.standard_normal((2, 3, 2, 2))
        s = svd_split(t, [0, 2], 64)
        rec = np.tensordot(s.isometry * s.singulars, s.right, axes=([2], [0]))
        # isometry carries (axis0, axis2); right carries (axis1, axis3)
        rec = rec.transpose(0, 2, 1, 3)
        assert np.linalg.norm(rec - t) / np.linalg.norm(t) < 1e-10

    def test_isometry_property(self):
        rng = np.random.default_rng(5)
        t = rng.standard_normal((6, 5)) + 1j * rng.standard_normal((6, 5))
        s = svd_split(t, [0], 3)
        gram = s.isometry.conj().T @ s.isometry
        assert np.linalg.norm(gram - np.eye(s.singulars.size)) < 1e-10

    def test_descending_nonnegative(self):
        rng = np.random.default_rng(6)
        s = svd_split(rng.standard_normal((8, 8)), [0], 5)
        assert np.all(s.singulars >= 0)
        assert np.all(np.diff(s.singulars) <= 0)

    def test_determinism_bit_identical(self):
        rng = np.random.default_rng(7)
        t = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        a = svd_split(t, [0], 3)
        b = svd_split(t.copy(), [0], 3)
        assert np.array_equal(a.isometry, b.isometry)
        assert np.array_equal(a.singulars, b.singulars)
        assert np.array_equal(a.right, b.right)

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            svd_split(np.eye(2), [0], 0)
        with pytest.raises(ValueError):
            svd_split(np.eye(2), [], 2)
        with pytest.raises(ValueError):
            svd_split(np.eye(2), [0, 1], 2)

    def test_zero_tensor(self):
        s = svd_split(np.zeros((3, 3)), [0], 2)
        assert s.singulars.shape == (1,)
        assert s.singulars[0] == 0.0
        gram = s.isometry.conj().T @ s.isometry
        assert np.allclose(gram, np.eye(1))


class TestRenormalize:
    def test_max_entry_four(self):
        t = np.array([1.0, -4.0, 2.0])
        out, log, zero = renormalize(t)
        assert not zero
        assert np.allclose(out, t / 4.0)
        assert abs(log - math.log(4.0)) < 1e-15

    def test_already_normalized(self):
        t = np.array([0.5, 1.0])
        out, log, zero = renormalize(t)
        assert log == 0.0 and not zero
        assert np.array_equal(out, t)

    def test_chained_log_accumulation(self):
        # product of 50 scalars of 0.1, renormalizing after each factor
        total = 0.0
        t = np.array([1.0])
        for _ in range(50):
            out, log, _ = renormalize(t * 0.1)
            total += log
            t = out
        assert abs(total - 50 * math.log(0.1)) < 1e-12

    def test_zero_flagged(self):
        t = np.zeros((2, 2))
        out, log, zero = renormalize(t)
        assert zero and log == 0.0
        assert np.array_equal(out, t)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_aborts_without_warning(self, bad):
        t = np.array([[1.0, bad], [0.5, 2.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalAbortError):
                renormalize(t)

    @given(st.floats(min_value=1e-6, max_value=1e6))
    @settings(max_examples=50, deadline=None)
    def test_max_abs_is_one(self, scale):
        t = np.array([scale, -scale / 3.0])
        out, log, zero = renormalize(t)
        assert not zero
        assert abs(np.max(np.abs(out)) - 1.0) < 1e-14
        assert np.allclose(out * math.exp(log), t, rtol=1e-12)


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
