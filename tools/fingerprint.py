"""Print one SHA-256 over the library's outputs, to check bit identity.

    python tools/fingerprint.py [--src DIR] [--items FILE]

Imports ``tnflab`` from ``DIR`` (default: the ``src`` directory of this
checkout) and hashes, in a fixed order, the exact bits of:

* fixed-schedule amplitudes (``mantissa``, ``log_scale``, ``is_zero``) at
  every closure row, with the taped ones and their log-derivatives
  (``peps.log_derivatives``), memoized ones through a ``FixedEvaluator``, patched
  ones at every site with the ``max_discarded`` they report, dynamic-cache
  ones along a move sequence, and exact ones, on open and periodic lattices
  from 1x1 to 5x3 at D 1-3 and chi 1-3;
* the five Floquet routes on every configuration of L = 2, 3 and 6 for
  t = 0..3 and chi = 1..3, with the MPO and MPS site tensors;
* ``entanglement_dynamics``, and ``bulk_entropy_sweep`` at every t = 0..3,
  for all five methods at L = 6, and for both TNF routes at L = 6 on the
  less chaotic couplings and at J = 0 (bond-1 MPO products; chi 1-3);
  ``entanglement_dynamics`` for both TNF routes at the benchmark's size
  (L = 8, t_max = 4, chi 2 and 4), where each route runs all 256
  configurations in lock step;
* ``simple_update`` sites, ``estimate_energy`` in both modes,
  ``gradient_estimate`` with both samplings (on 2x2 OBC at chi=1, and on
  2x3 PBC at D=2 and 2x2 OBC at D=3 with chains that revisit
  configurations), ``ground_energy`` and ``enumerate_energy``;
* binary circuits (adder, multiplier, square at widths 1-4) on every
  input, and amplitude circuits (three networks, one composition of
  discretized functions, a 600-node chain) with memo on and off: the
  output bits, value bits and contraction counts, each graph's JSON text
  and the same evaluations of the graph loaded back from it;
* the data files (every file but ``manifest.json`` and ``timing_*``) that
  ``tnf-lab`` writes for small fixed configs: ``vmc`` (fixed and dynamic,
  two chains; a j1j2 run from a random start; a run from the first run's
  checkpoint), ``floquet`` (all five methods at two chis), ``pareto`` and
  ``circuit`` (all suites), each with its exit code.

It prints one ``sha256 <part> <hash>`` line per part (lattice, floquet,
entanglement, vmc, circuit, cli), then the item count and the SHA-256 over
all items. Run it with ``--src`` at two commits: equal hashes mean the two
builds give the same bits on every item, and the part lines say where they
differ. It calls only long-standing public signatures and command-line
flags, so one copy of this script serves both sides. It takes about 25 s on
one core of a 2-vCPU Xeon VM. ``--items FILE`` also writes one line per item,
its label and the SHA-256 of its payload, so ``diff`` of two commits' files
names the items that moved.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import itertools
import json
import os
import sys
import tempfile
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402


class Digest:
    """SHA-256 over a sequence of items, with an item count, and one more
    SHA-256 over the items of the current part."""

    def __init__(self, items=None):
        self.sha = hashlib.sha256()
        self.part = hashlib.sha256()
        self.count = 0
        self.items = items

    def add(self, label: str, payload: bytes) -> None:
        item = label.encode() + b"\0" + payload + b"\n"
        self.sha.update(item)
        self.part.update(item)
        self.count += 1
        if self.items is not None:
            self.items.write(f"{label} {hashlib.sha256(payload).hexdigest()}\n")

    def amp(self, label: str, a) -> None:
        m = complex(a.mantissa)
        self.add(label, f"{m.real.hex()} {m.imag.hex()} {float(a.log_scale).hex()} {a.is_zero}".encode())

    def num(self, label: str, x) -> None:
        x = complex(x)
        self.add(label, f"{x.real.hex()} {x.imag.hex()}".encode())

    def array(self, label: str, x) -> None:
        x = np.ascontiguousarray(x, dtype=complex)
        self.add(label, repr(x.shape).encode() + x.tobytes())


def lattice_items(d: Digest, tnf) -> None:
    shapes = [(1, 1), (1, 3), (2, 1), (2, 2), (2, 3), (3, 2), (3, 3), (4, 2), (5, 3)]
    for boundary, (rows, cols), bond in itertools.product(("obc", "pbc"), shapes, (1, 2, 3)):
        n = rows * cols
        if boundary == "pbc" and bond == 3 and n > 9:
            continue  # doubled wrap bonds make these slow without adding a code path
        peps = tnf.random_peps(rows, cols, 2, bond, seed=rows * 100 + cols * 10 + bond, boundary=boundary)
        rng = np.random.default_rng(n * 7 + bond)
        configs = [rng.integers(0, 2, size=n) for _ in range(3)]
        tag = f"{boundary} {rows}x{cols} D{bond}"
        for k, cfg in enumerate(configs):
            d.amp(f"{tag} exact {k}", tnf.exact_amplitude(peps, cfg))
        for chi in (1, 2, 3):
            for mid in range(rows):
                plan = tnf.FixedPlan(rows, cols, chi, mid)
                for k, cfg in enumerate(configs):
                    d.amp(f"{tag} chi{chi} mid{mid} fixed {k}", tnf.amplitude_fixed(peps, cfg, plan))
                    amp, grads, zeroed = tnf.peps.log_derivatives(peps, cfg, plan)
                    d.amp(f"{tag} chi{chi} mid{mid} taped {k}", amp)
                    d.array(f"{tag} chi{chi} mid{mid} log-derivatives {k}", grads)
                    d.add(f"{tag} chi{chi} mid{mid} zeroed {k}", str(zeroed).encode())
            plan = tnf.FixedPlan.for_lattice(rows, cols, chi)
            ev = tnf.FixedEvaluator(peps, plan)
            walk = [configs[0]]
            for _ in range(6):
                cfg = walk[-1].copy()
                cfg[rng.integers(0, n)] ^= 1
                walk.append(cfg)
            for k, cfg in enumerate(walk + walk[::-1]):
                d.amp(f"{tag} chi{chi} memo {k}", ev.amplitude(cfg))
            for site in itertools.product(range(rows), range(cols)):
                t = peps.sites[site[0]][site[1]]
                patched = t + 0.01 * (rng.standard_normal(t.shape) + 1j * rng.standard_normal(t.shape))
                for k, cfg in enumerate(configs):
                    stats: dict = {}
                    key = f"{tag} chi{chi} patch {site} {k}"
                    d.amp(key, ev.amplitude_with_site(cfg, site, patched, stats))
                    d.num(f"{key} discarded", stats.get("max_discarded", 0.0))
            cache = tnf.DynamicCache(peps, chi)
            for k, cfg in enumerate(walk):
                d.amp(f"{tag} chi{chi} peek {k}", cache.peek(cfg))
                if k % 2 == 0:
                    d.amp(f"{tag} chi{chi} dynamic {k}", cache.amplitude(cfg))


def floquet_items(d: Digest, tnf) -> None:
    for n_sites, (name, couplings) in itertools.product(
        (2, 3, 6),
        [
            ("maximally_chaotic", tnf.PRESETS["maximally_chaotic"]),
            ("less_chaotic", tnf.PRESETS["less_chaotic"]),
            ("zero_j", {"j": 0.0, "g": 0.4, "h": 0.3}),
        ],
    ):
        params = tnf.FloquetParams(n_sites, **couplings)
        tag = f"L{n_sites} {name}"
        for k, w in enumerate(tnf.build_floquet_mpo(params)):
            d.array(f"{tag} mpo {k}", w)
        configs = [np.array(c) for c in itertools.product((0, 1), repeat=n_sites)]
        for t in range(4):
            d.array(f"{tag} t{t} exact", tnf.exact_evolve(params, t))
            for chi in (1, 2, 3):
                key = f"{tag} t{t} chi{chi}"
                sites, log = tnf.evolve_conventional(params, chi, t)
                d.num(f"{key} mps log", log)
                for k, s in enumerate(sites):
                    d.array(f"{key} mps {k}", s)
                op, op_log = tnf.mpo_mpo_inverse(params, chi, t)
                d.num(f"{key} mpo log", op_log)
                for k, s in enumerate(op):
                    d.array(f"{key} mpo {k}", s)
                for cfg in configs:
                    c = "".join(map(str, cfg))
                    d.amp(f"{key} {c} transverse", tnf.tnf_amplitude_transverse(params, cfg, chi, t))
                    d.amp(f"{key} {c} inverse", tnf.tnf_amplitude_inverse_time(params, cfg, chi, t))
                    d.amp(f"{key} {c} mpo", tnf.mpo_amplitude(op, op_log, cfg))


def entanglement_items(d: Digest, tnf) -> None:
    params = tnf.FloquetParams(6, **tnf.PRESETS["maximally_chaotic"], t_max=3)
    for method, chi in (("exact", None), ("mps", 2), ("tnf_transverse", 2), ("tnf_inverse", 2), ("mpo", 2)):
        data = tnf.entanglement_dynamics(params, method, chi=chi)
        for t, s, spec in zip(data.times, data.entropies, data.spectra):
            d.num(f"dynamics {method} t{t}", s)
            d.array(f"dynamics {method} t{t} spectrum", spec)
        for t in data.times:
            for size, s in tnf.bulk_entropy_sweep(params, method, t, chi=chi):
                d.num(f"bulk {method} t{t} {size}", s)
    for name, couplings in (("less_chaotic", tnf.PRESETS["less_chaotic"]), ("zero_j", {"j": 0.0, "g": 0.4, "h": 0.3})):
        params = tnf.FloquetParams(6, **couplings, t_max=3)
        for method, chi in itertools.product(("tnf_transverse", "tnf_inverse"), (1, 2, 3)):
            tag = f"L6 {name} {method} chi{chi}"
            data = tnf.entanglement_dynamics(params, method, chi=chi)
            for t, s, spec in zip(data.times, data.entropies, data.spectra):
                d.num(f"dynamics {tag} t{t}", s)
                d.array(f"dynamics {tag} t{t} spectrum", spec)
            for t in data.times:
                for size, s in tnf.bulk_entropy_sweep(params, method, t, chi=chi):
                    d.num(f"bulk {tag} t{t} {size}", s)
    params = tnf.FloquetParams(8, **tnf.PRESETS["maximally_chaotic"], t_max=4)
    for method, chi in itertools.product(("tnf_transverse", "tnf_inverse"), (2, 4)):
        data = tnf.entanglement_dynamics(params, method, chi=chi)
        for t, s, spec in zip(data.times, data.entropies, data.spectra):
            d.num(f"dynamics L8 {method} chi{chi} t{t}", s)
            d.array(f"dynamics L8 {method} chi{chi} t{t} spectrum", spec)


def vmc_items(d: Digest, tnf) -> None:
    for boundary, bond in (("obc", 2), ("obc", 3), ("pbc", 2)):
        model = tnf.heisenberg(2, 3, boundary)
        state = tnf.simple_update(tnf.random_peps(2, 3, 2, bond, seed=5, boundary=boundary), model, 0.05, 20)
        tag = f"{boundary} D{bond}"
        for r, row in enumerate(state.sites):
            for c, t in enumerate(row):
                d.array(f"{tag} simple_update {r},{c}", t)
        for mode, chi in itertools.product(("fixed", "dynamic"), (1, 2)):
            est = tnf.estimate_energy(state, model, mode, chi, n_sweeps=30, n_warmup=5, n_chains=2, seed=3)
            d.num(f"{tag} {mode} chi{chi} energy", complex(est.mean, est.stderr))
            d.num(f"{tag} {mode} chi{chi} acceptance", est.acceptance)
            for k, series in enumerate(est.series):
                d.array(f"{tag} {mode} chi{chi} series {k}", series)
    model = tnf.heisenberg(2, 2, "obc")
    state = tnf.simple_update(tnf.random_peps(2, 2, 2, 2, seed=9), model, 0.05, 20)
    # The first state's short chain, then chains of 30 sweeps that revisit configurations.
    gradients = [("", state, model, 1, 8, 2)]
    for rows, cols, boundary, bond, chi in ((2, 3, "pbc", 2, 2), (2, 2, "obc", 3, 2)):
        peps = tnf.random_peps(rows, cols, 2, bond, seed=rows * 10 + bond, boundary=boundary)
        gradients.append((f" {boundary} {rows}x{cols} D{bond}", peps, tnf.heisenberg(rows, cols, boundary), chi, 30, 10))
    for (tag, peps, m, chi, sweeps, warmup), sampling in itertools.product(gradients, ("enumerate", "metropolis")):
        grad, info = tnf.gradient_estimate(peps, m, chi, n_sweeps=sweeps, n_warmup=warmup, seed=4, sampling=sampling)
        d.array(f"gradient{tag} {sampling}", grad)
        d.num(f"gradient{tag} {sampling} energy", info.energy)
        d.add(f"gradient{tag} {sampling} counts", f"{info.n_samples} {info.zeroed_params}".encode())
    d.num("enumerate_energy 2x2", tnf.enumerate_energy(state, model, 2))
    for model in (tnf.heisenberg(2, 3, "pbc"), tnf.heisenberg(3, 3), tnf.j1j2(4, 4, 0.5, "pbc")):
        d.num(f"ground_energy {model.name} {model.rows}x{model.cols}", tnf.ground_energy(model))


_VMC = {
    "version": 1, "kind": "vmc", "seed": 11,
    "lattice": {"rows": 3, "cols": 3, "boundary": "obc"},
    "model": {"name": "heisenberg"},
    "grid": {"bond_dims": [2, 3], "chis": [1, 2], "modes": ["fixed", "dynamic"]},
    "sweeps": 40, "warmup": 10, "chains": 2,
    "init": {"method": "simple_update", "tau": 0.05, "steps": 20},
}

# (kind, name, config); "{out}" in a string is the output directory of the
# first run, so a later run can read its checkpoint.
CLI_RUNS = [
    ("vmc", "vmc", _VMC),
    ("vmc", "vmc_j1j2", {
        **_VMC, "lattice": {"rows": 2, "cols": 3, "boundary": "pbc"},
        "model": {"name": "j1j2", "j2": 0.5}, "init": {"method": "random"},
    }),
    ("vmc", "vmc_file", {
        **_VMC, "grid": {"bond_dims": [2], "chis": [2], "modes": ["fixed"]},
        "init": {"method": "file", "path": "{out}/peps_D2.tnp"},
    }),
    ("floquet", "floquet", {
        "version": 1, "kind": "floquet", "seed": 4, "sites": 6, "t_max": 3,
        "preset": "maximally_chaotic",
        "methods": ["exact", "mps", "tnf_transverse", "tnf_inverse", "mpo"], "chis": [2, 3],
    }),
    ("pareto", "pareto", {
        "version": 1, "kind": "pareto", "seed": 2,
        "lattice": {"rows": 2, "cols": 2, "boundary": "obc"},
        "model": {"name": "heisenberg"},
        "grid": {"bond_dims": [2], "chis": [1, 2]},
        "sgd": {"iterations": 2, "sweeps": 40, "learning_rate": 0.05},
        "sweeps": 80, "timing_amplitudes": 2,
        "init": {"method": "simple_update", "tau": 0.05, "steps": 30},
    }),
    ("circuit", "circuit", {
        "version": 1, "kind": "circuit", "seed": 1,
        "suites": ["adder", "multiplier", "square", "fnn", "memo"],
        "max_bits": {"adder": 3, "multiplier": 3, "square": 3},
        "fnn": {"widths": [2, 3, 1], "n_inputs": 10},
    }),
]


def circuit_items(d: Digest, tnf) -> None:
    from tnflab.circuit import CircuitBuilder, function_table

    def loaded(tag, graph):
        text = graph.to_json()
        d.add(f"{tag} json", text.encode())
        return tnf.CircuitGraph.from_json(text)

    binary = [(f"adder {n}", tnf.build_adder(n)) for n in range(1, 5)]
    binary += [(f"multiplier {m}x{n}", tnf.build_multiplier(m, n))
               for m, n in itertools.product(range(1, 5), repeat=2)]
    binary += [(f"square {n}", tnf.build_square(n)) for n in range(1, 5)]
    for tag, graph in binary:
        back = loaded(tag, graph)
        widths = [len(group) for group in graph.input_groups]
        for values in itertools.product(*(range(1 << w) for w in widths)):
            operands = [tnf.BitVec.from_int(v, w) for v, w in zip(values, widths)]
            for side, g in (("", graph), ("loaded ", back)):
                outs = tnf.eval_binary(g, operands)
                d.add(f"{tag} {side}{values}", repr([o.bits for o in outs]).encode())

    rng = np.random.default_rng(8)
    amp = []
    for widths, acts in (([2, 3, 1], [[0.1, 1.0, 0.5], [0.0, 1.0]]),
                         ([4, 8, 8, 1], [[0.0, 1.0, 0.0, 0.2]] * 3),
                         ([3, 2], [[0.3, -1.0, 0.0, 0.1]])):
        spec = tnf.FnnSpec(
            widths,
            [rng.standard_normal((widths[k + 1], widths[k])) * 0.5 for k in range(len(widths) - 1)],
            [rng.standard_normal(widths[k + 1]) * 0.1 for k in range(len(widths) - 1)],
            acts,
        )
        xs = [list(rng.uniform(-1, 1, widths[0])) for _ in range(4)]
        amp.append((f"fnn {widths}", tnf.compile_fnn(spec), xs))
    grid = np.linspace(-1.0, 1.0, 7)
    f, g = function_table(np.sin, grid), function_table(lambda x: x * x - 0.5, grid[:5])
    expr = ("plus", ("times", ("func", f, "x"), ("func", f, "x")),
            ("times", ("func", g, "y"), ("plus", ("func", f, "x"), ("const", 0.25))))
    amp.append(("amp_function", tnf.build_amp_function(expr, {"x": 7, "y": 5}),
                [list(v) for v in itertools.product(range(7), range(5))]))
    b = CircuitBuilder()
    w = b.input_amp()
    for _ in range(300):
        w = b.plus(b.times(w, w), w)
    amp.append(("chain 600", b.finish([[w]]), [[1e-6], [-3e-4], [0.0]]))
    for tag, graph, inputs in amp:
        back = loaded(tag, graph)
        for k, x in enumerate(inputs):
            for side, gr in (("", graph), ("loaded ", back)):
                for memo in (True, False):
                    values, stats = tnf.eval_amp_circuit(gr, x, memo=memo)
                    text = " ".join(float(v).hex() for v in values) + f" {stats.contractions}"
                    d.add(f"{tag} {side}{k} memo={memo}", text.encode())


def cli_items(d: Digest, tnf) -> None:
    import tnflab.cli

    with tempfile.TemporaryDirectory() as tmp:
        first = Path(tmp) / CLI_RUNS[0][1]
        for kind, name, cfg in CLI_RUNS:
            out = Path(tmp) / name
            config = Path(tmp) / f"{name}.json"
            config.write_text(json.dumps(cfg).replace("{out}", str(first)))
            code = tnflab.cli.main([kind, "--config", str(config), "--out", str(out)])
            d.add(f"cli {name} exit", str(code).encode())
            for f in sorted(out.rglob("*")):
                if f.is_file() and f.name != "manifest.json" and not f.name.startswith("timing_"):
                    d.add(f"cli {name} {f.relative_to(out)}", f.read_bytes())


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", type=Path, default=Path(__file__).resolve().parent.parent / "src",
                    help="directory that holds the tnflab package")
    ap.add_argument("--items", type=Path, help="also write each item's label and payload SHA-256 here")
    args = ap.parse_args(argv)
    sys.path.insert(0, str(args.src.resolve()))
    import tnflab as tnf

    with open(args.items, "w") if args.items else contextlib.nullcontext() as items:
        d = Digest(items)
        for part in (lattice_items, floquet_items, entanglement_items, vmc_items, circuit_items, cli_items):
            d.part = hashlib.sha256()
            part(d, tnf)
            print(f"sha256 {part.__name__.removesuffix('_items')} {d.part.hexdigest()}")
    print(f"items {d.count}")
    print(f"sha256 {d.sha.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
