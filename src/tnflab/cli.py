"""Config-driven experiment runner (``tnf-lab``).

Four experiment kinds: ``vmc`` (energy grids over bond dimensions and
contraction modes), ``floquet`` (entanglement dynamics per method),
``pareto`` (cost-versus-accuracy sweeps), and ``circuit`` (arithmetic and
network-compilation checks). Every field of a versioned JSON config is checked
(numbers finite and in range) before any directory or computation. Data files
are deterministic for a fixed (config, seed), with wall-clock timings confined
to the manifest and ``timing_*`` files. ``--threads`` is accepted and ignored.

Exit codes: 0 success, 2 config error, 3 resource-guard error, 4 numerical
abort.
"""
from __future__ import annotations

import argparse
import itertools
import json
import operator
import os
import struct
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from . import __version__
from .circuit import (
    BitVec,
    FnnSpec,
    build_adder,
    build_multiplier,
    build_square,
    compile_fnn,
    eval_amp_circuit,
    eval_binary,
)
from .ed import ground_energy
from .entanglement import METHODS, entanglement_dynamics
from .errors import ConfigError, NumericalAbortError, ResourceLimitError
from .floquet import FloquetParams, PRESETS
from .models import heisenberg, j1j2, neel_config, nn_pairs
from .peps import FixedEvaluator, FixedPlan, Peps, load_peps, random_peps, save_peps
from .simple_update import simple_update
from .vmc import estimate_energy, sgd_optimize

CONFIG_VERSION = 1


# ---------------------------------------------------------------------------
# Validation helpers (field-path error messages)


def _check(val, kind, where: str, low=None):
    """``val`` as a finite ``kind`` (int or float) of at least ``low``."""
    if isinstance(val, bool) or not isinstance(val, int if kind is int else (int, float)):
        what = "an integer" if kind is int else "a number"
        raise ConfigError(f"{where}: expected {what}, got {type(val).__name__}")
    if not abs(val) <= sys.float_info.max:
        raise ConfigError(f"{where}: must be finite, got {val}")
    if low is not None and val < low:
        raise ConfigError(f"{where}: must be at least {low}, got {val}")
    return kind(val)


def _need(cfg: dict, key: str, kind, path: str, low=None):
    if key not in cfg:
        raise ConfigError(f"{path}.{key}: required field missing")
    val = cfg[key]
    if kind in (int, float):
        return _check(val, kind, f"{path}.{key}", low)
    if not isinstance(val, kind):
        raise ConfigError(f"{path}.{key}: expected {kind.__name__}, got {type(val).__name__}")
    return val


def _opt(cfg: dict, key: str, kind, path: str, default, low=None):
    return _need(cfg, key, kind, path, low) if key in cfg else default


def _int_list(cfg: dict, key: str, path: str, default=None) -> list[int]:
    """A nonempty list of positive integers (``default`` when absent, if given)."""
    if key not in cfg and default is not None:
        return default
    val = _need(cfg, key, list, path)
    if not val:
        raise ConfigError(f"{path}.{key}: expected a nonempty list of integers")
    return [_check(v, int, f"{path}.{key}[{i}]", 1) for i, v in enumerate(val)]


def load_config(path) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except ValueError as exc:  # json.JSONDecodeError, or an integer too long to convert
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config: expected a JSON object")
    version = _need(cfg, "version", int, "config")
    if version != CONFIG_VERSION:
        raise ConfigError(f"config.version: unsupported version {version}")
    kind = _need(cfg, "kind", str, "config")
    if kind not in ("vmc", "floquet", "pareto", "circuit"):
        raise ConfigError(f"config.kind: unknown experiment kind {kind!r}")
    _need(cfg, "seed", int, "config", 0)
    return cfg


# ---------------------------------------------------------------------------
# Output helpers


def _write_text(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        fh.write(text)


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(repr(v) if isinstance(v, float) else str(v) for v in row))
    _write_text(path, "\n".join(lines) + "\n")


def _write_manifest(out_dir: Path, config: dict, timings: dict, files: list[str]) -> None:
    manifest = {
        "artifact_version": __version__,
        "config": config,
        "timings_seconds": timings,
        "files": sorted(files),
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=out_dir, suffix=".manifest")
    try:
        with os.fdopen(fd, "w") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
        os.replace(tmp, out_dir / "manifest.json")
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# ---------------------------------------------------------------------------
# vmc


def _lattice_experiment(cfg: dict, max_sites: int):
    """The checked lattice, model, grid and initial state of a ``vmc`` or
    ``pareto`` config: ``(model, grid, bond_dims, chis, make_peps)``, where
    ``make_peps(bond_dim)`` builds the starting state."""
    lat = _need(cfg, "lattice", dict, "config")
    rows = _need(lat, "rows", int, "config.lattice", 1)
    cols = _need(lat, "cols", int, "config.lattice", 1)
    boundary = _opt(lat, "boundary", str, "config.lattice", "obc")
    if boundary not in ("obc", "pbc"):
        raise ConfigError("config.lattice.boundary: expected 'obc' or 'pbc'")
    if rows * cols > max_sites:
        raise ResourceLimitError(f"lattice {rows}x{cols} exceeds the {max_sites}-site guard")
    mc = _need(cfg, "model", dict, "config")
    name = _need(mc, "name", str, "config.model")
    if name == "heisenberg":
        model = heisenberg(rows, cols, boundary)
    elif name == "j1j2":
        model = j1j2(rows, cols, _need(mc, "j2", float, "config.model"), boundary)
    else:
        raise ConfigError(f"config.model.name: unknown model {name!r}")
    grid = _need(cfg, "grid", dict, "config")
    bond_dims = _int_list(grid, "bond_dims", "config.grid")
    chis = _int_list(grid, "chis", "config.grid")
    seed = cfg["seed"]
    init = _opt(cfg, "init", dict, "config", {})
    method = _opt(init, "method", str, "config.init", "simple_update")
    if method == "file":
        ckpt = _need(init, "path", str, "config.init")
        try:
            loaded = load_peps(ckpt)
        except (OSError, ValueError, struct.error) as exc:
            raise ConfigError(f"config.init.path: cannot load checkpoint {ckpt!r}: {exc}") from exc
        if (loaded.rows, loaded.cols, loaded.boundary) != (rows, cols, boundary):
            raise ConfigError("config.init.path: checkpoint lattice differs from config.lattice")
    elif method == "simple_update":
        tau = _opt(init, "tau", float, "config.init", 0.05)
        if tau <= 0:
            raise ConfigError("config.init.tau: must be positive")
        steps = _opt(init, "steps", int, "config.init", 200, 0)
        edges = set(nn_pairs(rows, cols, boundary))
        if any((i, j) not in edges for i, j, _ in model.couplings):
            raise ConfigError(
                "config.init.method: simple_update needs nearest-neighbour couplings only, "
                f"and model {model.name!r} has others; use 'random' or 'file'"
            )
    elif method != "random":
        raise ConfigError(f"config.init.method: unknown method {method!r}")

    def make_peps(bond_dim: int) -> Peps:
        if method == "file":
            return loaded
        p = random_peps(rows, cols, 2, bond_dim, seed=seed, boundary=boundary)
        return simple_update(p, model, tau=tau, steps=steps) if method == "simple_update" else p

    return model, grid, bond_dims, chis, make_peps


def run_vmc(cfg: dict, out_dir: Path) -> list[str]:
    model, grid, bond_dims, chis, make_peps = _lattice_experiment(cfg, 64)
    modes = _need(grid, "modes", list, "config.grid")
    if not modes or any(m not in ("fixed", "dynamic") for m in modes):
        raise ConfigError(f"config.grid.modes: expected a nonempty list of modes, got {modes!r}")
    sweeps = _need(cfg, "sweeps", int, "config", 1)
    warmup = _opt(cfg, "warmup", int, "config", None, 0)
    if warmup is not None and warmup >= sweeps:
        raise ConfigError(f"config.warmup: must be less than config.sweeps, got {warmup}")
    chains = _opt(cfg, "chains", int, "config", 1, 1)
    want_ed = _opt(cfg, "ed_reference", bool, "config", model.n_sites <= 16)
    if want_ed and model.n_sites > 16:
        raise ResourceLimitError("ed_reference limited to lattices of at most 16 sites")
    seed = cfg["seed"]
    header = ["bond_dim", "chi", "mode", "e_mean", "e_stderr", "e_per_site", "acceptance", "n_samples"]
    header += ["ed_energy"] if want_ed else []

    out_dir.mkdir(parents=True, exist_ok=True)
    files: list[str] = []
    ed_energy = ground_energy(model) if want_ed else None
    summary_rows = []
    for bond_dim in bond_dims:
        peps = make_peps(bond_dim)
        ckpt = out_dir / f"peps_D{bond_dim}.tnp"
        save_peps(peps, ckpt)
        files.append(ckpt.name)
        for mode in modes:
            for chi in chis:
                est = estimate_energy(
                    peps,
                    model,
                    mode,
                    chi,
                    n_sweeps=sweeps,
                    n_warmup=warmup,
                    n_chains=chains,
                    seed=seed,
                )
                tag = f"D{bond_dim}_chi{chi}_{mode}"
                series_rows = []
                for chain_idx, series in enumerate(est.series):
                    running = np.cumsum(series) / np.arange(1, series.size + 1)
                    for s_i, (e, rm) in enumerate(zip(series, running)):
                        series_rows.append([chain_idx, s_i, float(e), float(rm), est.acceptance])
                _write_csv(
                    out_dir / f"vmc_{tag}.csv",
                    ["chain", "sweep", "energy", "running_mean", "acceptance_rate"],
                    series_rows,
                )
                files.append(f"vmc_{tag}.csv")
                summary = {
                    "model": model.name,
                    "lattice": [model.rows, model.cols, model.boundary],
                    "bond_dim": bond_dim,
                    "chi": chi,
                    "mode": mode,
                    "seed": seed,
                    "e_mean": est.mean,
                    "e_stderr": est.stderr,
                    "e_per_site": est.per_site,
                    "n_samples": est.n_samples,
                    "acceptance": est.acceptance,
                    "warnings": est.warnings,
                    "ed_energy": ed_energy,
                }
                _write_text(out_dir / f"vmc_{tag}.json", json.dumps(summary, indent=2, sort_keys=True))
                files.append(f"vmc_{tag}.json")
                summary_rows.append([summary[k] for k in header])
    _write_csv(out_dir / "energies.csv", header, summary_rows)
    files.append("energies.csv")
    return files


# ---------------------------------------------------------------------------
# floquet


def run_floquet(cfg: dict, out_dir: Path) -> list[str]:
    n_sites = _need(cfg, "sites", int, "config", 2)
    if n_sites > 14:
        raise ResourceLimitError("floquet runs are guarded to 14 sites")
    t_max = _need(cfg, "t_max", int, "config", 0)
    if "preset" in cfg:
        preset = _need(cfg, "preset", str, "config")
        if preset not in PRESETS:
            raise ConfigError(f"config.preset: unknown preset {preset!r}")
        couplings = PRESETS[preset]
    else:
        pc = _need(cfg, "params", dict, "config")
        couplings = {k: _need(pc, k, float, "config.params") for k in ("j", "g", "h")}
    params = FloquetParams(n_sites, **couplings, t_max=t_max)
    methods = _need(cfg, "methods", list, "config")
    if not methods or any(m not in METHODS for m in methods):
        raise ConfigError(f"config.methods: expected a nonempty list of methods, got {methods!r}")
    chis = _int_list(cfg, "chis", "config", [2])

    exact = entanglement_dynamics(params, "exact")
    files: list[str] = []
    rows = []
    for method in methods:
        for chi in chis if method != "exact" else [0]:
            data = (
                exact
                if method == "exact"
                else entanglement_dynamics(params, method, chi=chi)
            )
            spec_rows = []
            for t, s, spec in zip(data.times, data.entropies, data.spectra):
                rows.append([t, exact.entropies[t], s, chi, method])
                for alpha, lam in enumerate(spec):
                    spec_rows.append([t, alpha, float(np.real(lam))])
            tag = method if method == "exact" else f"{method}_chi{chi}"
            _write_csv(out_dir / f"spectrum_{tag}.csv", ["t", "alpha", "lambda2"], spec_rows)
            files.append(f"spectrum_{tag}.csv")
    _write_csv(out_dir / "entropy.csv", ["t", "s_exact", "s_method", "chi", "method"], rows)
    files.append("entropy.csv")
    return files


# ---------------------------------------------------------------------------
# pareto


def run_pareto(cfg: dict, out_dir: Path) -> list[str]:
    model, _, bond_dims, chis, make_peps = _lattice_experiment(cfg, 36)
    if model.n_sites < 2:  # accuracy is relative to the ground energy, 0 on one site
        raise ConfigError("config.lattice: pareto needs at least two sites")
    sgd = _opt(cfg, "sgd", dict, "config", {})
    iterations = _opt(sgd, "iterations", int, "config.sgd", 10, 0)
    sgd_sweeps = _opt(sgd, "sweeps", int, "config.sgd", 100, 1)
    lr = _opt(sgd, "learning_rate", float, "config.sgd", 0.05)
    eval_sweeps = _opt(cfg, "sweeps", int, "config", 500, 1)
    timing_reps = _opt(cfg, "timing_amplitudes", int, "config", 50, 1)
    seed = cfg["seed"]

    ed_energy = ground_energy(model) if model.n_sites <= 16 else None
    results = []
    for bond_dim in bond_dims:
        base = make_peps(bond_dim)
        for chi in chis:
            best, _trace = sgd_optimize(
                base,
                model,
                chi,
                learning_rate=lr,
                iterations=iterations,
                seed=seed,
                n_sweeps=sgd_sweeps,
            )
            est = estimate_energy(best, model, "fixed", chi, n_sweeps=eval_sweeps, seed=seed)
            evaluator = FixedEvaluator(best, FixedPlan.for_lattice(model.rows, model.cols, chi))
            cfg0 = neel_config(model.rows, model.cols)
            t0 = time.perf_counter()
            for rep in range(timing_reps):
                evaluator.clear()  # time full contractions, not lookups
                evaluator.amplitude(cfg0)
            amp_seconds = (time.perf_counter() - t0) / timing_reps
            results.append(
                {
                    "bond_dim": bond_dim,
                    "chi": chi,
                    "energy": est.mean,
                    "stderr": est.stderr,
                    "acceptance": est.acceptance,
                    "amp_seconds": amp_seconds,
                }
            )
    reference = ed_energy if ed_energy is not None else min(r["energy"] for r in results)
    for r in results:
        r["accuracy"] = abs(r["energy"] - reference) / abs(reference)
    # Pareto frontier in (time, accuracy): points no other point dominates.
    for r in results:
        r["frontier"] = int(
            not any(
                (o["amp_seconds"] < r["amp_seconds"] and o["accuracy"] <= r["accuracy"])
                or (o["amp_seconds"] <= r["amp_seconds"] and o["accuracy"] < r["accuracy"])
                for o in results
            )
        )
    tables = {
        "pareto.csv": ["bond_dim", "chi", "energy", "stderr", "accuracy", "acceptance"],
        "timing_pareto.csv": ["bond_dim", "chi", "amp_seconds", "frontier"],
    }
    for name, header in tables.items():
        _write_csv(out_dir / name, header, [[r[k] for k in header] for r in results])
    return list(tables)


# ---------------------------------------------------------------------------
# circuit


# Exhaustive binary suites: name -> (default width, builder, operand count,
# reference); every operand runs over all values of the suite's width.
_BINARY_SUITES = {
    "adder": (6, build_adder, 2, operator.add),
    "multiplier": (5, lambda w: build_multiplier(w, w), 2, operator.mul),
    "square": (5, build_square, 1, lambda x: x * x),
}


def run_circuit(cfg: dict, out_dir: Path) -> list[str]:
    suites = _need(cfg, "suites", list, "config")
    if not suites or any(s not in (*_BINARY_SUITES, "fnn", "memo") for s in suites):
        raise ConfigError(f"config.suites: expected a nonempty list of suites, got {suites!r}")
    widths = _opt(cfg, "max_bits", dict, "config", {})
    bits = {}
    for name, (default, _, _, _) in _BINARY_SUITES.items():
        bits[name] = _opt(widths, name, int, "config.max_bits", default, 1)
        if bits[name] > 8:
            raise ResourceLimitError(f"exhaustive {name} suite guarded to 8 bits, got {bits[name]}")
    fc = _opt(cfg, "fnn", dict, "config", {})
    fnn_widths = _int_list(fc, "widths", "config.fnn", [2, 4, 1])
    if len(fnn_widths) < 2:
        raise ConfigError("config.fnn.widths: expected at least two layer widths")
    n_inputs = _opt(fc, "n_inputs", int, "config.fnn", 100, 1)
    seed = cfg["seed"]

    def fnn_setup():
        """The configured network, compiled, and the stream that drew its
        weights; every suite starts a fresh stream from the seed."""
        rng = np.random.default_rng(seed)
        weights = [rng.standard_normal((m, n)) for n, m in zip(fnn_widths, fnn_widths[1:])]
        biases = [rng.standard_normal(m) for m in fnn_widths[1:]]
        acts = [[0.1, 0.3, 0.0, 0.5]] * (len(fnn_widths) - 2) + [[0.0, 1.0]]
        spec = FnnSpec(list(fnn_widths), weights, biases, acts)
        return spec, compile_fnn(spec), rng

    results: dict[str, dict] = {}
    for name, (_, build, arity, reference) in _BINARY_SUITES.items():
        if name in suites:
            w = bits[name]
            g = build(w)
            operands = list(itertools.product(range(1 << w), repeat=arity))
            failures = sum(
                eval_binary(g, [BitVec.from_int(x, w) for x in xs])[0].to_int() != reference(*xs)
                for xs in operands
            )
            results[name] = {"cases": len(operands), "failures": int(failures)}
    if "fnn" in suites:
        spec, graph, rng = fnn_setup()
        max_err = 0.0
        for _ in range(n_inputs):
            x = rng.standard_normal(fnn_widths[0])
            vals, _stats = eval_amp_circuit(graph, list(x))
            max_err = max(max_err, float(np.max(np.abs(np.array(vals) - spec.forward(x)))))
        results["fnn"] = {"cases": n_inputs, "max_abs_error": max_err, "failures": int(max_err > 1e-12)}
    if "memo" in suites:
        _, graph, rng = fnn_setup()
        x = list(rng.standard_normal(fnn_widths[0]))
        vals_on, st_on = eval_amp_circuit(graph, x, memo=True)
        vals_off, st_off = eval_amp_circuit(graph, x, memo=False)
        results["memo"] = {
            "identical": vals_on == vals_off,
            "memo_contractions": st_on.contractions,
            "naive_contractions": st_off.contractions,
            "nodes": len(graph.nodes),
            "failures": int(vals_on != vals_off or st_on.contractions > len(graph.nodes)),
        }

    passed = all(r.get("failures", 0) == 0 for r in results.values())
    payload = {"passed": passed, "suites": results}
    _write_text(out_dir / "results.json", json.dumps(payload, indent=2, sort_keys=True))
    return ["results.json"]


# ---------------------------------------------------------------------------
# Entry point


_RUNNERS = {"vmc": run_vmc, "floquet": run_floquet, "pareto": run_pareto, "circuit": run_circuit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="tnf-lab", description="tensor network function experiments"
    )
    parser.add_argument("kind", choices=sorted(_RUNNERS))
    parser.add_argument("--config", required=True, help="path to a JSON experiment config")
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument(
        "--threads", type=int, default=1, help="accepted and ignored; runs are single-threaded"
    )
    parser.add_argument("--seed", type=int, default=None, help="overrides the config seed")
    args = parser.parse_args(argv)
    if args.seed is not None and args.seed < 0:
        parser.error(f"--seed: must be at least 0, got {args.seed}")

    try:
        cfg = load_config(args.config)
        if cfg["kind"] != args.kind:
            raise ConfigError(
                f"config.kind: config says {cfg['kind']!r} but the command line says {args.kind!r}"
            )
        if args.seed is not None:
            cfg["seed"] = args.seed
        out_dir = Path(args.out)
        t0 = time.perf_counter()
        files = _RUNNERS[args.kind](cfg, out_dir)
        timings = {"total": time.perf_counter() - t0}
        _write_manifest(out_dir, cfg, timings, files)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ResourceLimitError as exc:
        print(f"resource guard: {exc}", file=sys.stderr)
        return 3
    except NumericalAbortError as exc:
        print(f"numerical abort: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
