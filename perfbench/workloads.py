"""The benchmark's workloads: inputs made from a seed, one timed op, checks.

An op is one top-level library call (or, for ``circuit-exact``, one pass over
a fixed case set) whose work does not depend on how many ops ran before it:
``estimate_energy`` and ``gradient_estimate`` build a fresh evaluator per
call, so memo warm-up happens inside every op. The seed reaches the library
only as generated inputs: Markov-chain seeds, FNN weights and inputs, and
the configurations the checks visit. The simple-update states are part of a
workload's definition and use a fixed seed, because the state sets the
acceptance rate and with it the work per op: across random states the
``vmc-fixed`` acceptance ranged from 0.04 to 0.5 and the op time by 2x.
Default arguments are the benchmark's sizes; the self-test passes tiny ones.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, NamedTuple

import numpy as np

from tnflab.circuit import (
    BitVec,
    CircuitBuilder,
    FnnSpec,
    build_adder,
    build_multiplier,
    build_square,
    compile_fnn,
    eval_amp_circuit,
    eval_binary,
)
from tnflab.ed import ground_energy
from tnflab.entanglement import entanglement_dynamics
from tnflab.floquet import (
    PRESETS,
    FloquetParams,
    config_index,
    exact_evolve,
    tnf_amplitude_transverse,
)
from tnflab.models import heisenberg, neel_config
from tnflab.peps import FixedEvaluator, FixedPlan, amplitude_fixed, random_peps
from tnflab.simple_update import simple_update
from tnflab.vmc import estimate_energy, gradient_estimate

class Check(NamedTuple):
    name: str
    ok: bool
    raised: bool = False  # failed by raising, so no output was produced to be wrong


@dataclass
class Workload:
    name: str
    unit: str  # what an op completes, e.g. "sweeps"
    units_per_op: int
    setup: Callable[[int], Any]  # seed -> inputs (timed as setup_s)
    op: Callable[[Any], Any]  # inputs -> result (the timed call)
    fingerprint: Callable[[Any], Any]  # result -> value every op must repeat exactly
    checks: Callable[[Any, Any], list[Check]]  # (inputs, result) -> named outcomes
    summary: Callable[[Any, Any], str] = lambda inputs, result: ""
    counts: Callable[[Any, Any], dict] = lambda inputs, result: {}  # per-op counts for the trace


def _seeds(seed: int, n: int) -> list[int]:
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(n)]


def _hex(*xs: float) -> tuple[str, ...]:
    return tuple(float(x).hex() for x in xs)


STATE_SEED = 42  # the simple-update start of the variationality acceptance test


def _su_state(rows: int, cols: int, bond: int, steps: int):
    model = heisenberg(rows, cols)
    state = simple_update(random_peps(rows, cols, 2, bond, seed=STATE_SEED), model, tau=0.05,
                          steps=steps)
    return model, state


def _energy_summary(inputs, r) -> str:
    return (
        f"E = {r.mean:.6f} +- {r.stderr:.6f} (E_ED = {inputs['e_ed']:.6f}), "
        f"acceptance {r.acceptance:.3f}"
    )


def vmc_fixed(rows=4, cols=4, bond=3, su_steps=200, chi=4, chains=2, sweeps=300, warmup=30,
              n_configs=64) -> Workload:
    """Fixed-schedule energy estimate; the variational sampler, memo-bound."""

    def setup(seed):
        s_chain, s_configs = _seeds(seed, 2)
        model, state = _su_state(rows, cols, bond, su_steps)
        rng = np.random.default_rng(s_configs)
        configs = [rng.permutation(neel_config(rows, cols)) for _ in range(n_configs)]
        return {
            "model": model,
            "state": state,
            "e_ed": ground_energy(model),
            "chain_seed": s_chain,
            "configs": configs,
            "order": rng.permutation(n_configs),
        }

    def op(x):
        return estimate_energy(x["state"], x["model"], "fixed", chi, n_sweeps=sweeps,
                               n_warmup=warmup, n_chains=chains, seed=x["chain_seed"], n_threads=1)

    def checks(x, r):
        out = [Check("energy >= E_ED - 3 stderr", bool(r.mean >= x["e_ed"] - 3 * r.stderr))]
        plan = FixedPlan.for_lattice(rows, cols, chi)
        fresh = FixedEvaluator(x["state"], plan)
        memo = {int(i): fresh.amplitude(x["configs"][int(i)]) for i in x["order"]}
        for i, cfg in enumerate(x["configs"]):
            a, b = memo[i], amplitude_fixed(x["state"], cfg, plan)
            same = (a.mantissa, a.log_scale, a.is_zero) == (b.mantissa, b.log_scale, b.is_zero)
            out.append(Check(f"memoized amplitude {i} bit-identical to amplitude_fixed", same))
        return out

    return Workload("vmc-fixed", "sweeps", chains * sweeps, setup, op,
                    lambda r: _hex(r.mean, r.stderr, r.acceptance), checks, _energy_summary)


def vmc_dynamic(rows=4, cols=4, bond=3, su_steps=200, chi=2, chains=2, sweeps=100,
                warmup=10) -> Workload:
    """History-dependent energy estimate; the non-variational contrast."""

    def setup(seed):
        (s_chain,) = _seeds(seed, 1)
        model, state = _su_state(rows, cols, bond, su_steps)
        return {"model": model, "state": state, "e_ed": ground_energy(model), "chain_seed": s_chain}

    def op(x):
        return estimate_energy(x["state"], x["model"], "dynamic", chi, n_sweeps=sweeps,
                               n_warmup=warmup, n_chains=chains, seed=x["chain_seed"], n_threads=1)

    def checks(x, r):
        return [
            Check("energy is finite", math.isfinite(r.mean)),
            Check("acceptance in (0, 1)", 0.0 < r.acceptance < 1.0),
        ]

    return Workload("vmc-dynamic", "sweeps", chains * sweeps, setup, op,
                    lambda r: _hex(r.mean, r.stderr, r.acceptance), checks, _energy_summary)


def vmc_gradient(rows=3, cols=3, bond=2, su_steps=200, chi=2, sweeps=30, warmup=10) -> Workload:
    """Finite-difference energy gradient; cold patched contractions."""

    def setup(seed):
        (s_chain,) = _seeds(seed, 1)
        model, state = _su_state(rows, cols, bond, su_steps)
        return {"model": model, "state": state, "e_ed": ground_energy(model), "chain_seed": s_chain}

    def op(x):
        return gradient_estimate(x["state"], x["model"], chi, n_sweeps=sweeps, n_warmup=warmup,
                                 seed=x["chain_seed"], sampling="metropolis")

    def checks(x, r):
        grad, info = r
        return [
            Check("gradient is finite", bool(np.all(np.isfinite(grad)))),
            Check(f"{sweeps - warmup} gradient samples", info.n_samples == sweeps - warmup),
        ]

    def summary(x, r):
        grad, info = r
        return (f"E = {info.energy:.6f} (E_ED = {x['e_ed']:.6f}), |grad| = "
                f"{np.linalg.norm(grad):.6f}, zeroed params {info.zeroed_params}")

    return Workload("vmc-gradient", "samples", sweeps - warmup, setup, op,
                    lambda r: (r[0].tobytes(), _hex(r[1].energy), r[1].zeroed_params),
                    checks, summary, counts=lambda x, r: {"gradient_samples": r[1].n_samples})


ROUTES = ("tnf_transverse", "tnf_inverse")


def floquet_volume(n_sites=8, t_max=4, chi=2, exact_chi=64, n_configs=8) -> Workload:
    """Entanglement dynamics from per-configuration amplitudes, two routes."""
    params = FloquetParams(n_sites, **PRESETS["maximally_chaotic"], t_max=t_max)

    def setup(seed):
        rng = np.random.default_rng(_seeds(seed, 1)[0])
        return {
            "exact": entanglement_dynamics(params, "exact"),
            "mps": entanglement_dynamics(params, "mps", chi=chi),
            "psi": exact_evolve(params, t_max),
            "configs": [rng.integers(0, 2, size=n_sites) for _ in range(n_configs)],
        }

    def op(x):
        return [entanglement_dynamics(params, route, chi=chi) for route in ROUTES]

    def checks(x, r):
        s_max = (n_sites // 2) * math.log(2)
        out = [
            Check(f"{route} S(t={t}) in [0, (L/2) ln 2]", -1e-12 <= s <= s_max + 1e-12)
            for route, data in zip(ROUTES, r)
            for t, s in zip(data.times, data.entropies)
        ]
        out.append(Check("tnf_transverse S(t_max) >= mps S(t_max) at equal chi",
                    r[0].entropies[-1] >= x["mps"].entropies[-1]))
        for n in x["configs"]:
            want = x["psi"][config_index(n)]
            got = tnf_amplitude_transverse(params, n, exact_chi, t_max).value
            out.append(Check(f"tnf_transverse chi={exact_chi} matches exact_evolve at {n.tolist()}",
                        abs(got - want) <= 1e-8 * abs(want)))
        return out

    def summary(x, r):
        return (f"S(t_max): exact {x['exact'].entropies[-1]:.4f}, mps {x['mps'].entropies[-1]:.4f}, "
                + ", ".join(f"{route} {d.entropies[-1]:.4f}" for route, d in zip(ROUTES, r)))

    return Workload("floquet-volume", "amplitudes", len(ROUTES) * (t_max + 1) << n_sites, setup,
                    op, lambda r: [(_hex(*d.entropies), [s.tobytes() for s in d.spectra]) for d in r],
                    checks, summary)


# Activation polynomials (ascending degree) of the three FNN layers. Fixed, so
# the compiled graph, and with it the work per op, does not depend on the seed.
FNN_ACTIVATIONS = [[0.1, 0.3, 0.0, 0.5], [0.0, 1.0, 0.25], [0.2, 1.0]]


def _fnn_reference(spec: FnnSpec, x) -> float:
    """Plain-float forward pass in the circuit's own order (sum then Horner)."""
    y = [float(v) for v in x]
    for w, b, coeffs in zip(spec.weights, spec.biases, spec.activations):
        nxt = []
        for i in range(w.shape[0]):
            u = float(b[i])
            for j in range(w.shape[1]):
                u = u + float(w[i, j]) * y[j]
            p = float(coeffs[-1])
            for c in reversed(coeffs[:-1]):
                p = p * u + float(c)
            nxt.append(p)
        y = nxt
    return y[0]


def _chain(links: int):
    """``w <- w*w + w`` repeated: a 2*links-node composition chain."""
    b = CircuitBuilder()
    w = b.input_amp()
    for _ in range(links):
        w = b.plus(b.times(w, w), w)
    return b.finish([[w]])


def _close(got: float, want: float) -> bool:
    return abs(got - want) <= 1e-12 * max(1.0, abs(want))


def circuit_exact(adder_bits=5, mult_bits=(4, 4), square_bits=5, fnn_widths=(4, 8, 8, 1),
                  fnn_inputs=100, chain_links=300) -> Workload:
    """Exhaustive binary arithmetic, FNN circuits and a deep composition chain."""
    n_cases = (1 << 2 * adder_bits) + (1 << sum(mult_bits)) + (1 << square_bits) + fnn_inputs + 1

    def setup(seed):
        s_fnn, s_inputs, s_chain = _seeds(seed, 3)
        rng = np.random.default_rng(s_fnn)
        widths = list(fnn_widths)
        spec = FnnSpec(
            widths,
            [rng.standard_normal((m, n)) / math.sqrt(n) for n, m in zip(widths, widths[1:])],
            [0.1 * rng.standard_normal(m) for m in widths[1:]],
            FNN_ACTIVATIONS[: len(widths) - 1],
        )
        adder = build_adder(adder_bits)
        mult = build_multiplier(*mult_bits)
        square = build_square(square_bits)
        fnn = compile_fnn(spec)
        chain = _chain(chain_links)
        a, (m, n), s = adder_bits, mult_bits, square_bits
        # (kind, graph, inputs, expected); binary inputs as (value, width) pairs.
        cases = [("binary", adder, ((x, a), (y, a)), x + y) for x in range(1 << a) for y in range(1 << a)]
        cases += [("binary", mult, ((x, m), (y, n)), x * y) for x in range(1 << m) for y in range(1 << n)]
        cases += [("binary", square, ((x, s),), x * x) for x in range(1 << s)]
        rng = np.random.default_rng(s_inputs)
        for _ in range(fnn_inputs):
            x = rng.standard_normal(widths[0])
            cases.append(("amp", fnn, list(x), _fnn_reference(spec, x)))
        x0 = float(np.random.default_rng(s_chain).uniform(1e-6, 1e-3))
        w = x0
        for _ in range(chain_links):
            w = w * w + w
        cases.append(("amp", chain, [x0], w))
        return {"cases": cases}

    def op(x):
        out = []
        for kind, graph, inputs, _ in x["cases"]:
            try:
                if kind == "binary":
                    (z,) = eval_binary(graph, [BitVec.from_int(v, n) for v, n in inputs])
                    out.append(z.to_int())
                else:
                    vals, stats = eval_amp_circuit(graph, inputs)
                    out.append((vals[0], stats.contractions))
            except Exception as exc:  # a case that raises is a failed case, not a crash
                out.append(type(exc).__name__)
        return out

    def checks(x, r):
        out = []
        for i, ((kind, graph, inputs, want), got) in enumerate(zip(x["cases"], r)):
            label = f"case {i} ({kind}, {len(graph.nodes)} nodes)"
            if isinstance(got, str):
                out.append(Check(f"{label} raised {got}", False, raised=True))
            elif kind == "binary":
                out.append(Check(label, got == want))
            else:
                value, contractions = got
                out.append(Check(label, _close(value, want) and contractions <= len(graph.nodes)))
        return out

    def counts(x, r):
        nodes = contractions = 0
        for (kind, graph, _, _), got in zip(x["cases"], r):
            if kind == "amp" and not isinstance(got, str):
                nodes += len(graph.nodes)
                contractions += got[1]
        return {"amp_contractions": contractions, "amp_nodes": nodes}

    return Workload("circuit-exact", "cases", n_cases, setup, op,
                    lambda r: [(_hex(g[0]), g[1]) if isinstance(g, tuple) else g for g in r],
                    checks, counts=counts)


WORKLOADS: dict[str, Callable[[], Workload]] = {
    "vmc-fixed": vmc_fixed,
    "vmc-dynamic": vmc_dynamic,
    "vmc-gradient": vmc_gradient,
    "floquet-volume": floquet_volume,
    "circuit-exact": circuit_exact,
}
