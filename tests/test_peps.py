"""PEPS states, fixed-schedule amplitudes, boundary contraction, exact oracle."""
import itertools
import math

import numpy as np
import pytest

from tnflab.errors import DimensionError, ResourceLimitError
from tnflab.mps import compress
from tnflab.peps import (
    BoundaryMps,
    FixedEvaluator,
    FixedPlan,
    Peps,
    amplitude_fixed,
    boundary_absorb,
    exact_amplitude,
    load_peps,
    product_peps,
    project_config,
    random_peps,
    save_peps,
)


BOUNDARIES = ("obc", "pbc")


def bits(a):
    return (a.mantissa, a.log_scale, a.is_zero)


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
        p = random_peps(2, 2, 2, 2, seed=0)
        p.bond_dim = 5
        with pytest.raises(ResourceLimitError):
            exact_amplitude(p, [0, 0, 0, 0])


class TestBoundaryAbsorb:
    def test_no_truncation_matches_direct_contraction(self):
        rng = np.random.default_rng(4)
        p = random_peps(2, 4, 2, 2, seed=4)
        n = [0, 1, 0, 1, 1, 0, 1, 0]
        net = project_config(p, n)
        b0 = boundary_absorb(None, net[0], None, "top")
        b1 = boundary_absorb(b0, net[1], 64, "top")
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
        b0 = boundary_absorb(None, net[0], 4, "top")
        b1 = boundary_absorb(b0, net[1], 4, "top")
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

        got = boundary_absorb(boundary_absorb(None, net[0], chi, "top"), net[1], chi, "top")

        # oracle: same math written straight-line on raw arrays
        from tnflab.tensor import renormalize as renorm, svd_split as split

        def compress_oracle(sites, cap):
            sites = [s.copy() for s in sites]
            log = 0.0
            for i in range(len(sites) - 1):
                l, ph, r = sites[i].shape
                q, rm = np.linalg.qr(sites[i].reshape(l * ph, r))
                sites[i] = q.reshape(l, ph, q.shape[1])
                sites[i + 1] = np.tensordot(rm, sites[i + 1], axes=([1], [0]))
            for i in range(len(sites) - 1, 0, -1):
                t, lf, _ = renorm(sites[i])
                log += lf
                l, ph, r = t.shape
                sp = split(t, [0], min(cap, min(l, ph * r)))
                k = sp.singulars.size
                sites[i] = sp.right.reshape(k, ph, r)
                sites[i - 1] = np.tensordot(sites[i - 1], sp.isometry * sp.singulars, axes=([2], [0]))
            t, lf, _ = renorm(sites[0])
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
        top = boundary_absorb(None, net[0], chi, "top")
        top = boundary_absorb(top, net[1], chi, "top")
        bottom = boundary_absorb(None, net[3], chi, "bottom")
        vec = None
        log = top.log_scale + bottom.log_scale
        for c in range(4):
            a = top.site4(c)
            m = net[2][c]
            b = bottom.site4(c)
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
        assert plan.serialize() == FixedPlan.for_lattice(4, 4, 3).serialize()
        assert plan.mid == 2
        assert plan.steps[-1] == ("close", 2)

    def test_plan_checks_chi_and_closure_row(self):
        assert FixedPlan(4, 4, 3, 2) == FixedPlan.for_lattice(4, 4, 3)
        for chi, mid in ((0, 2), (2, 4), (2, -1)):
            with pytest.raises(ValueError):
                FixedPlan(4, 4, chi, mid)

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

    def test_bits_survive_memo_flushes(self):
        """A tiny ``max_entries`` flushes the memo every few evaluations; the
        values must not depend on what was flushed."""
        for boundary in BOUNDARIES:
            p = random_peps(4, 3, 2, 2, seed=15, boundary=boundary)
            plan = FixedPlan.for_lattice(4, 3, 2)
            rng = np.random.default_rng(3)
            configs = [rng.integers(0, 2, size=12) for _ in range(20)]
            ev = FixedEvaluator(p, plan, max_entries=5)
            for n in configs + configs[::-1]:
                assert bits(ev.amplitude(n)) == bits(amplitude_fixed(p, n, plan)), boundary

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

    def test_plan_lattice_mismatch(self):
        p = random_peps(2, 2, 2, 2, seed=14)
        with pytest.raises(ValueError):
            amplitude_fixed(p, [0, 0, 0, 0], FixedPlan.for_lattice(3, 3, 2))
