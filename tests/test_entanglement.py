"""Reduced density matrices, entropies, spectra, and dynamics series."""
import itertools
import math
from collections import Counter

import numpy as np
import pytest

from tnflab.ed import Sector
from tnflab.entanglement import (
    EntanglementData,
    bulk_entropy_sweep,
    dense_state_from_amplitudes,
    entanglement_dynamics,
    entropy_and_spectrum,
    rdm_from_amplitudes,
    rdm_from_dense,
)
from tnflab.errors import DataError, ResourceLimitError
from tnflab.floquet import (
    PRESETS,
    FloquetParams,
    _diagonal_phases,
    _single_site_rotation,
    build_floquet_mpo,
    config_index,
    conventional_states,
    exact_evolve,
    inverse_time_series,
    mpo_amplitude,
    mpo_states,
    tnf_amplitude_inverse_time,
    tnf_amplitude_transverse,
    transverse_table,
)
from tnflab.mps import Chains, apply_mpo, compress, mps_amplitude
from tnflab import entanglement, peps
from tnflab.peps import FixedPlan, boundary_absorb, fixed_table, product_peps, random_peps
from tnflab.tensor import AmplitudeValue, rescaled


def amp_fn_from_vector(psi, n_sites):
    def fn(cfg):
        idx = 0
        for v in np.asarray(cfg, dtype=np.int64).reshape(-1):
            idx = (idx << 1) | int(v)
        return AmplitudeValue.from_parts(complex(psi[idx]))

    return fn


def amp_bits(a):
    m = complex(a.mantissa)
    return (m.real.hex(), m.imag.hex(), float(a.log_scale).hex(), a.is_zero)


def table_bits(table):
    """``amp_bits`` of each entry of the amplitude table ``(mantissa, log_scale)``."""
    return [(m.real.hex(), m.imag.hex(), lg.hex(), m == 0) for m, lg in zip(*(x.tolist() for x in table))]


class TestRdm:
    def test_product_state_rank_one(self):
        psi = np.zeros(16)
        psi[0b0110] = 1.0
        rho = rdm_from_dense(psi, 4, (0, 2))
        s, spec, _ = entropy_and_spectrum(rho)
        assert abs(s) < 1e-12
        assert abs(spec[0] - 1.0) < 1e-12

    def test_bell_pair(self):
        psi = np.zeros(4)
        psi[0b00] = 1 / math.sqrt(2)
        psi[0b11] = 1 / math.sqrt(2)
        rho = rdm_from_dense(psi, 2, (0, 1))
        assert np.allclose(rho, np.eye(2) / 2, atol=1e-12)
        s, _, _ = entropy_and_spectrum(rho)
        assert abs(s - math.log(2)) < 1e-12

    def test_against_dense_partial_trace_oracle(self):
        p = FloquetParams(10, **PRESETS["maximally_chaotic"])
        psi = exact_evolve(p, 3)
        got = rdm_from_amplitudes(amp_fn_from_vector(psi, 10), 10, (0, 5))
        # oracle: explicit partial trace of the full density matrix
        full = np.outer(psi, np.conj(psi)).reshape(32, 32, 32, 32)
        want = np.trace(full, axis1=1, axis2=3)
        want = want / np.trace(want)
        assert np.max(np.abs(got - want)) < 1e-10

    def test_hermiticity_and_psd(self):
        p = FloquetParams(8, **PRESETS["less_chaotic"])
        psi = exact_evolve(p, 5)
        rho = rdm_from_amplitudes(amp_fn_from_vector(psi, 8), 8, (2, 3))
        assert np.max(np.abs(rho - rho.conj().T)) < 1e-10
        vals = np.linalg.eigvalsh(rho)
        assert vals.min() > -1e-10

    def test_region_validation(self):
        psi = np.ones(16) / 4.0
        with pytest.raises(ValueError):
            rdm_from_dense(psi, 4, (3, 2))

    def test_site_guard(self):
        with pytest.raises(ResourceLimitError):
            dense_state_from_amplitudes(lambda n: AmplitudeValue.from_parts(1.0), 15)


class TestEntropySpectrum:
    def test_maximally_mixed(self):
        s, spec, _ = entropy_and_spectrum(np.eye(2) / 2)
        assert abs(s - math.log(2)) < 1e-14

    def test_pure(self):
        rho = np.zeros((4, 4))
        rho[2, 2] = 1.0
        s, spec, _ = entropy_and_spectrum(rho)
        assert s == 0.0

    def test_random_density_matrix_against_eigendecomposition(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        rho = a @ a.conj().T
        rho = rho / np.trace(rho)
        s, spec, _ = entropy_and_spectrum(rho, top=6)
        vals = np.sort(np.linalg.eigvalsh(rho))[::-1]
        want = -np.sum(vals * np.log(vals))
        assert abs(s - want) < 1e-10
        assert np.allclose(spec, vals, atol=1e-12)

    def test_trace_deviation_rejected(self):
        with pytest.raises(DataError):
            entropy_and_spectrum(np.eye(2))

    def test_spectrum_invariants(self):
        p = FloquetParams(8, **PRESETS["maximally_chaotic"])
        psi = exact_evolve(p, 6)
        rho = rdm_from_amplitudes(amp_fn_from_vector(psi, 8), 8, (0, 4))
        s, spec, _ = entropy_and_spectrum(rho, top=16)
        assert abs(np.sum(np.linalg.eigvalsh(rho)) - 1.0) < 1e-8
        assert np.min(spec) > -1e-10
        assert -1e-8 <= s <= 4 * math.log(2) + 1e-8


class TestDynamics:
    def test_all_methods_zero_entropy_at_t0(self):
        p = FloquetParams(6, **PRESETS["maximally_chaotic"], t_max=0)
        for method, chi in (("exact", None), ("mps", 2), ("tnf_transverse", 2), ("tnf_inverse", 2), ("mpo", 2)):
            data = entanglement_dynamics(p, method, chi=chi)
            assert data.times == [0]
            assert abs(data.entropies[0]) < 1e-10

    def test_mps_sharp_cutoff(self):
        p = FloquetParams(8, **PRESETS["maximally_chaotic"], t_max=0)
        from tnflab.entanglement import _tables

        [table] = _tables(p, "mps", 3, range(8, 9))
        rho = rdm_from_dense(rescaled(*table), 8, (0, 4))
        _, spec, _ = entropy_and_spectrum(rho, top=16)
        assert spec[2] > 1e-8  # chi kept states carry weight
        assert abs(spec[3]) < 1e-12  # eigenvalue chi+1 vanishes

    def test_exact_linear_growth_then_saturation_L14(self):
        """Maximally chaotic point: entropy climbs linearly at ln 2 per step
        and settles below the 7 ln 2 ceiling."""
        p = FloquetParams(14, **PRESETS["maximally_chaotic"], t_max=10)
        data = entanglement_dynamics(p, "exact")
        for t in (2, 3, 4, 5, 6):
            assert abs(data.entropies[t] - (t - 1) * math.log(2)) < 0.05
        assert max(data.entropies) < 7 * math.log(2) + 1e-8
        late = data.entropies[8:]
        assert max(late) - min(late) < 0.6  # saturated plateau

    def test_bulk_sweep_shapes(self):
        p = FloquetParams(8, **PRESETS["maximally_chaotic"])
        out = bulk_entropy_sweep(p, "exact", t=4, sizes=(1, 2, 3))
        assert [size for size, _ in out] == [1, 2, 3]
        assert all(s >= -1e-10 for _, s in out)

    def test_bulk_sweep_rejects_bad_method_chi_and_time(self):
        p = FloquetParams(6, **PRESETS["maximally_chaotic"])
        with pytest.raises(ValueError, match="positive chi"):
            bulk_entropy_sweep(p, "mps", t=2)
        with pytest.raises(ValueError, match="unknown method"):
            bulk_entropy_sweep(p, "nope", t=2, chi=2)
        with pytest.raises(ValueError, match="periods"):
            bulk_entropy_sweep(p, "mpo", t=-1, chi=2)

    def test_unknown_method_rejected(self):
        p = FloquetParams(6, 0.1, 0.1, 0.1, t_max=1)
        with pytest.raises(ValueError):
            entanglement_dynamics(p, "nope", chi=2)


ROUTES = {"tnf_transverse": tnf_amplitude_transverse, "tnf_inverse": tnf_amplitude_inverse_time}


def per_time_states(params, method, chi):
    """Dense states enumerated time by time, each configuration contracted
    afresh by a per-call route."""
    n = params.n_sites
    bits = (np.arange(1 << n)[:, None] >> np.arange(n - 1, -1, -1)) & 1
    states = []
    for t in range(params.t_max + 1):
        amps = [ROUTES[method](params, cfg, chi, t) for cfg in bits]
        max_log = max((a.log_scale for a in amps if not a.is_zero), default=-math.inf)
        psi = np.zeros(1 << n, dtype=complex)
        for idx, a in enumerate(amps):
            if not a.is_zero:
                psi[idx] = a.mantissa * math.exp(a.log_scale - max_log)
        states.append(psi)
    return states


@pytest.mark.parametrize("preset", sorted(PRESETS))
@pytest.mark.parametrize("n_sites", [6, 7])
@pytest.mark.parametrize("method", sorted(ROUTES))
def test_walk_enumeration_matches_per_time_oracle_bitwise(method, n_sites, preset):
    p = FloquetParams(n_sites, **PRESETS[preset], t_max=3)
    for chi in (1, 2, 3):
        data = entanglement_dynamics(p, method, chi=chi)
        states = per_time_states(p, method, chi)
        for t, psi in enumerate(states):
            s, spec, _ = entropy_and_spectrum(rdm_from_dense(psi, n_sites, (0, n_sites // 2)))
            assert data.entropies[t].hex() == s.hex()
            assert data.spectra[t].tobytes() == spec.tobytes()
        if method == "tnf_transverse":
            psi = states[-1]
            want = [
                (size, entropy_and_spectrum(rdm_from_dense(psi, n_sites, ((n_sites - size) // 2, size)))[0].hex())
                for size in range(1, n_sites)
            ]
            assert [(size, s.hex()) for size, s in bulk_entropy_sweep(p, method, t=3, chi=chi)] == want


def fresh_state_amplitude(params, method, chi, t):
    """Amplitude function of a state route at time ``t``, its state built
    from t = 0: the per-time series before states were advanced in place."""
    n = params.n_sites
    mpo = build_floquet_mpo(params)
    if method == "exact":
        psi = np.zeros((2,) * n, dtype=complex)
        psi[(0,) * n] = 1.0
        phases, rot = _diagonal_phases(params), _single_site_rotation(params)
        for _ in range(t):
            psi = psi * phases
            for c in range(n):
                psi = np.moveaxis(np.tensordot(rot, psi, axes=([1], [c])), 0, c)
        flat = psi.reshape(-1)
        return lambda cfg: AmplitudeValue.from_parts(complex(flat[config_index(cfg)]))
    if method == "mps":
        sites, log = [np.array([1.0, 0.0], dtype=complex).reshape(1, 2, 1)] * n, 0.0
        for _ in range(t):
            [part] = compress([s[None] for s in apply_mpo(sites, mpo)], chi)  # a stack of one
            sites = [s[0] for s in part.sites]
            log += float(part.log[0])
        return lambda cfg: AmplitudeValue.from_parts(mps_amplitude(sites, cfg), log)
    if t == 0:
        sites, log = [np.eye(2, dtype=complex)[None, :, :, None] for _ in range(n)], 0.0
    else:
        # F as a top boundary stack of one: outputs open, inputs as faces.
        acc = Chains([0], [w[None].transpose(peps._LAYOUT["top"]) for w in mpo], [0.0])
        for _ in range(t - 1):
            [acc] = boundary_absorb(acc, [w.transpose(1, 0, 2, 3)[None] for w in mpo], chi, "top")
        sites, log = [peps._in_compress_order(s, "top")[0] for s in acc.sites], acc.log[0]
    return lambda cfg: mpo_amplitude(sites, log, cfg)


@pytest.mark.parametrize("preset", sorted(PRESETS))
@pytest.mark.parametrize("n_sites", [6, 7])
@pytest.mark.parametrize("method", ["exact", "mps", "mpo"])
def test_advanced_states_match_per_time_oracle_bitwise(method, n_sites, preset):
    """One state advanced a period per time gives the entropies and spectra,
    and the bulk sweep at every time, of states rebuilt from t = 0, bit for bit."""
    p = FloquetParams(n_sites, **PRESETS[preset], t_max=4)
    for chi in [None] if method == "exact" else [1, 2, 3]:
        data = entanglement_dynamics(p, method, chi=chi)
        assert data.times == list(range(5))
        for t in data.times:
            psi = dense_state_from_amplitudes(fresh_state_amplitude(p, method, chi, t), n_sites)
            s, spec, _ = entropy_and_spectrum(rdm_from_dense(psi, n_sites, (0, n_sites // 2)))
            assert data.entropies[t].hex() == s.hex()
            assert data.spectra[t].tobytes() == spec.tobytes()
            want = [
                (size, entropy_and_spectrum(rdm_from_dense(psi, n_sites, ((n_sites - size) // 2, size)))[0].hex())
                for size in range(1, n_sites)
            ]
            assert [(size, s.hex()) for size, s in bulk_entropy_sweep(p, method, t, chi=chi)] == want


@pytest.mark.parametrize("n_sites", range(2, 9))
@pytest.mark.parametrize("method", ["mps", "mpo"])
def test_state_tables_match_single_configuration_amplitudes_bitwise(method, n_sites):
    """The stacked readout of the ``mps`` and ``mpo`` tables gives every
    configuration the bits of ``mps_amplitude`` / ``mpo_amplitude`` on the
    same state, at chi 1-4 and t 0-4."""
    p = FloquetParams(n_sites, **PRESETS["less_chaotic"], t_max=4)
    configs = [[int(b) for b in format(i, f"0{n_sites}b")] for i in range(1 << n_sites)]
    for chi in range(1, 5):
        tables = entanglement._tables(p, method, chi, range(5))
        states = conventional_states(p, chi) if method == "mps" else mpo_states(p, chi)
        for t, table, (sites, log) in zip(range(5), tables, states):
            if method == "mps":
                want = [AmplitudeValue.from_parts(mps_amplitude(sites, n), log) for n in configs]
            else:
                want = [mpo_amplitude(sites, log, n) for n in configs]
            assert table_bits(table) == list(map(amp_bits, want)), (chi, t)


CHIS = {"exact": None, "mps": 2, "mpo": 2, "tnf_transverse": 2, "tnf_inverse": 2}


@pytest.mark.parametrize("method", sorted(CHIS))
def test_one_table_per_requested_time(method, monkeypatch):
    """``bulk_entropy_sweep`` at t builds the table of t alone, and
    ``entanglement_dynamics`` the tables of t = 0..t_max. A table counts its
    entries, at a state route's ``table_from_parts`` calls, at
    ``transverse_table`` calls, or at the tables each ``inverse_time_series``
    block yields, whose bra chains pass through every earlier period on the
    way to t."""
    p = FloquetParams(5, **PRESETS["less_chaotic"], t_max=3)
    chi, size = CHIS[method], 1 << p.n_sites
    times = []  # the time of each amplitude evaluated; None from a state route
    if method == "tnf_transverse":
        table = entanglement.transverse_table

        def spy(params, chi, t):
            times.extend([t] * size)
            return table(params, chi, t)

        monkeypatch.setattr(entanglement, "transverse_table", spy)
        want = lambda ts: Counter({t: size for t in ts})
    elif method == "tnf_inverse":
        series = entanglement.inverse_time_series

        def spy(params, chi, configs):
            for t, (mantissa, log_scale) in enumerate(series(params, chi, configs)):
                times.extend([t] * len(mantissa))
                yield mantissa, log_scale

        monkeypatch.setattr(entanglement, "inverse_time_series", spy)
        want = lambda ts: Counter({t: size for t in range(max(ts) + 1)})
    else:
        build = entanglement.table_from_parts

        def spy(values, log):
            times.extend([None] * len(values))
            return build(values, log)

        monkeypatch.setattr(entanglement, "table_from_parts", spy)
        want = lambda ts: Counter({None: size * len(ts)})
    for t in range(p.t_max + 1):
        times.clear()
        bulk_entropy_sweep(p, method, t, chi=chi)
        assert Counter(times) == want([t])
    times.clear()
    entanglement_dynamics(p, method, chi=chi)
    assert Counter(times) == want(range(p.t_max + 1))


def test_table_paths_build_no_amplitude_values(monkeypatch):
    """An amplitude table stays two arrays from its closures to its vector:
    ``fixed_table`` (zero amplitudes included), ``transverse_table``,
    ``inverse_time_series`` and ``entanglement_dynamics`` by every method
    construct no ``AmplitudeValue``."""
    built, init = [], AmplitudeValue.__init__

    def counted(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(AmplitudeValue, "__init__", counted)
    assert AmplitudeValue.zero().is_zero and len(built) == 1  # the spy sees a construction
    built.clear()
    p = FloquetParams(5, **PRESETS["less_chaotic"], t_max=3)
    plan = FixedPlan.for_lattice(3, 3, 2)
    fixed_table(random_peps(3, 3, 2, 2, seed=1), plan, Sector(9).configs)
    mantissa, _ = fixed_table(product_peps(3, 3, 2, [0, 1] * 4 + [0]), plan, Sector(9).configs)
    assert 0 < (mantissa == 0).sum() < len(mantissa)
    for t in range(3):
        transverse_table(p, 2, t)
    list(itertools.islice(inverse_time_series(p, 2, list(itertools.product((0, 1), repeat=5))), 4))
    for method, chi in CHIS.items():
        entanglement_dynamics(p, method, chi=chi)
    assert built == []
