"""Dynamic (history-dependent) amplitude cache semantics."""
import numpy as np
import pytest

from tnflab.errors import CacheStateError
from tnflab.peps import (
    DynamicCache,
    FixedPlan,
    amplitude_fixed,
    boundary_absorb,
    exact_amplitude,
    project_config,
    random_peps,
)
from tnflab.peps import _close_strip


def straight_line_cold_amplitude(peps, n, chi):
    """From-scratch contraction with environments built downward and closure
    at the last row: the cold-cache schedule, written independently."""
    net = project_config(peps, n)
    top = boundary_absorb(None, net[0], chi, "top")
    for r in range(1, peps.rows - 1):
        top = boundary_absorb(top, net[r], chi, "top")
    return _close_strip(top, net[-1], None)


class TestColdCache:
    def test_cold_equals_from_scratch(self):
        p = random_peps(4, 4, 2, 3, seed=0)
        n = np.array([0, 1] * 8)
        cache = DynamicCache(p, 2)
        got = cache.amplitude(n)
        want = straight_line_cold_amplitude(p, n, 2)
        assert (got.mantissa, got.log_scale) == (want.mantissa, want.log_scale)

    def test_repeat_evaluation_returns_stored(self):
        p = random_peps(3, 3, 2, 2, seed=1)
        n = np.array([0, 1, 0, 1, 0, 1, 0, 1, 0])
        cache = DynamicCache(p, 2)
        a = cache.amplitude(n)
        b = cache.amplitude(n)
        assert (a.mantissa, a.log_scale) == (b.mantissa, b.log_scale)


class TestExactLimit:
    def test_two_histories_agree_at_large_chi(self):
        p = random_peps(4, 4, 2, 3, seed=2)
        n = np.array([0, 1] * 8)
        n_a = n.copy()
        n_a[[0, 1]] = n_a[[1, 0]]
        n_b = n.copy()
        n_b[[12, 13]] = n_b[[13, 12]]
        chi = 81
        c1 = DynamicCache(p, chi)
        c1.amplitude(n_a)
        a = c1.amplitude(n)
        c2 = DynamicCache(p, chi)
        c2.amplitude(n_b)
        b = c2.amplitude(n)
        assert abs(a.value - b.value) / abs(a.value) < 1e-10
        want = exact_amplitude(p, n)
        assert abs(a.value - want.value) / abs(want.value) < 1e-8


class TestInconsistencyWitness:
    # Frozen fixture: random 4x4 D=3 state, chi=2, two histories reaching the
    # same configuration through moves in different rows.
    SEED = 0
    CHI = 2

    def test_history_dependence_above_threshold(self):
        p = random_peps(4, 4, 2, 3, seed=self.SEED)
        n = np.array([0, 1] * 8)
        n_a = n.copy()
        n_a[[0, 1]] = n_a[[1, 0]]
        n_b = n.copy()
        n_b[[12, 13]] = n_b[[13, 12]]
        c1 = DynamicCache(p, self.CHI)
        c1.amplitude(n_a)
        a = c1.amplitude(n)
        c2 = DynamicCache(p, self.CHI)
        c2.amplitude(n_b)
        b = c2.amplitude(n)
        rel = abs(a.value - b.value) / max(abs(a.value), abs(b.value))
        assert rel > 1e-6, f"histories too consistent: rel={rel}"

    def test_fixed_schedule_has_no_such_dependence(self):
        p = random_peps(4, 4, 2, 3, seed=self.SEED)
        n = np.array([0, 1] * 8)
        plan = FixedPlan.for_lattice(4, 4, self.CHI)
        a = amplitude_fixed(p, n, plan)
        b = amplitude_fixed(p, n, plan)
        assert (a.mantissa, a.log_scale) == (b.mantissa, b.log_scale)


class TestClosureRow:
    @pytest.mark.parametrize("boundary", ["obc", "pbc"])
    def test_peek_is_fixed_schedule_closed_at_last_changed_row(self, boundary):
        """Environments summarize only the rows they cover, so a dynamic
        amplitude equals, bit for bit, the fixed-schedule amplitude whose
        middle row is the last row differing from the base (the last row on
        a cold cache)."""
        rows, cols, chi = 4, 3, 2
        p = random_peps(rows, cols, 2, 2, seed=16, boundary=boundary)
        n = np.array([0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1])
        cache = DynamicCache(p, chi)
        cold = cache.amplitude(n)
        want = amplitude_fixed(p, n, FixedPlan(rows, cols, chi, rows - 1))
        assert (cold.mantissa, cold.log_scale, cold.is_zero) == (
            want.mantissa, want.log_scale, want.is_zero
        )
        # (i, j, last changed row): moves within a row, across two rows, and
        # one spanning the wrap between the first and last rows.
        moves = [(0, 1, 0), (10, 11, 3), (4, 7, 2), (1, 4, 1), (5, 6, 2), (2, 11, 3), (2, 3, 1)]
        for step, (i, j, last_row) in enumerate(moves):
            n1 = n.copy()
            n1[i], n1[j] = n1[j], n1[i]
            assert max(np.nonzero(n1 != cache.base)[0]) // cols == last_row
            got = cache.peek(n1)
            want = amplitude_fixed(p, n1, FixedPlan(rows, cols, chi, last_row))
            assert (got.mantissa, got.log_scale, got.is_zero) == (
                want.mantissa, want.log_scale, want.is_zero
            ), (boundary, step)
            if step % 2 == 0:
                cache.commit(n1, got)
                n = n1


class TestCacheState:
    def test_amplitude_dynamic_rebases(self):
        p = random_peps(3, 3, 2, 2, seed=6)
        cache = DynamicCache(p, 2)
        n0 = np.array([0, 1, 0, 1, 0, 1, 0, 1, 0])
        cache.amplitude(n0)
        assert np.array_equal(cache.base, n0)
        n1 = n0.copy()
        n1[[0, 1]] = n1[[1, 0]]
        cache.amplitude(n1)
        assert np.array_equal(cache.base, n1)

    def test_peek_does_not_rebase(self):
        p = random_peps(3, 3, 2, 2, seed=7)
        cache = DynamicCache(p, 2)
        n0 = np.array([0, 1, 0, 1, 0, 1, 0, 1, 0])
        cache.amplitude(n0)
        assert np.array_equal(cache.base, n0)
        n1 = n0.copy()
        n1[[3, 4]] = n1[[4, 3]]
        cache.peek(n1)
        assert np.array_equal(cache.base, n0)
        cache.amplitude(n1)
        assert np.array_equal(cache.base, n1)

    def test_commit_on_cold_cache_rejected(self):
        p = random_peps(3, 3, 2, 2, seed=3)
        cache = DynamicCache(p, 2)
        n = np.array([0, 1, 0, 1, 0, 1, 0, 1, 0])
        with pytest.raises(CacheStateError):
            cache.commit(n, amplitude_fixed(p, n, FixedPlan.for_lattice(3, 3, 2)))
