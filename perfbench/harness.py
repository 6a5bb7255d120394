"""Runs one workload in this process and reports its metrics.

Order of a run: set up the inputs several times (``setup_s`` is the median),
run one warm-up op that is discarded from the timings, then time ops until
``seconds`` have passed (at least ``MIN_OPS``), then check the outputs
outside the timed region. Every op's result must repeat the warm-up op's
result bit for bit. With ``trace`` the run instead times untraced ops, then
traced ops, and reports per-layer counts and self times per op.

Reported times are at nominal host speed (see ``HostClock``); the raw wall
times are printed next to them.
"""
from __future__ import annotations

import gc
import json
import math
import os
import platform
import resource
import signal
import statistics
import time
from pathlib import Path

import numpy as np
import scipy

from tracer import Tracer
from workloads import Workload

MIN_OPS = 2
SETUPS = 3
SETUP_BATCH_S = 0.3  # set-ups faster than this are timed in batches this long
SAMPLE_EVERY_S = 0.1  # host-speed samples during a timed call
REF_REPEATS = 25  # one sample: 100 small SVDs and contractions
REF_NOMINAL_S = 0.003  # a sample's duration at nominal host speed (2-vCPU Xeon VM, quiet)
TRACE_OUT = ".perfbench"  # spans are written here, relative to the checkout

END_TO_END = {"throughput": "units/s", "setup_s": "s", "peak_rss_mb": "MB"}

# Layer metrics as (name, unit); see DESIGN.md for which workload each moves.
CALLS = [
    "tensor.svd_split",
    "mps.compress",
    "mps.apply_mpo",
    "peps.boundary_absorb",
    "peps.FixedEvaluator.amplitude",
    "peps.FixedEvaluator.amplitude_with_site",
    "peps.DynamicCache.peek",
    "peps.DynamicCache.commit",
    "vmc.metropolis_sweep",
    "vmc.local_energy",
    "floquet.build_floquet_mpo",
    "floquet.tnf_amplitude_transverse",
    "floquet.tnf_amplitude_inverse_time",
    "entanglement.dense_state_from_amplitudes",
    "circuit.eval_binary",
    "circuit.gate_tensor",
    "circuit.eval_amp_circuit",
]
SELF = [
    "tensor.svd_split",
    "mps.compress",
    "mps.apply_mpo",
    "peps.boundary_absorb",
    "peps.FixedEvaluator.amplitude",
    "peps.FixedEvaluator.amplitude_with_site",
    "peps.DynamicCache.peek",
    "vmc.metropolis_sweep",
    "vmc.local_energy",
    "floquet.tnf_amplitude_transverse",
    "floquet.tnf_amplitude_inverse_time",
    "entanglement.dense_state_from_amplitudes",
    "entanglement.entropy_and_spectrum",
    "circuit.eval_binary",
    "circuit.eval_amp_circuit",
]
NESTED = [
    ("peps.boundary_absorb", "peps.FixedEvaluator.amplitude"),
    ("peps.FixedEvaluator.amplitude_with_site", "vmc.gradient_estimate"),
]
PER_LAYER = (
    [(f"{n}.calls", "count") for n in CALLS]
    + [(f"{n}.self_s", "s") for n in SELF]
    + [
        ("peps.FixedEvaluator.amplitude.absorbs_per_call", "ratio"),
        ("vmc.gradient_estimate.site_evals_per_sample", "ratio"),
        ("circuit.eval_amp_circuit.contractions_per_node", "ratio"),
        ("simple_update.simple_update.s", "s"),
        ("ed.ground_energy.s", "s"),
        ("trace.overhead_frac", "ratio"),
    ]
)


def provenance(root: Path) -> dict:
    """Where and on what the numbers were measured."""
    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")), cpu)
    except OSError:
        pass
    src_lines = sum(
        len(p.read_text().splitlines()) for p in sorted((root / "src").rglob("*.py"))
    )
    return {
        "git_sha": _git_sha(root),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{deps.get('blas', {}).get('name')} {deps.get('blas', {}).get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "src_lines": src_lines,
    }


def _git_sha(root: Path) -> str:
    """HEAD's commit read from .git without running git; "unknown" outside a clone."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


class Checks:
    """Counts attempted and failed checks; keeps the names of failures."""

    def __init__(self):
        self.attempted = 0
        self.ops = 0
        self.failures: list[str] = []
        self.wrong = 0  # failures where an output was produced but was wrong

    def add(self, name: str, ok: bool, wrong: bool = True) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(name)
            self.wrong += wrong


class HostClock:
    """Times calls in raw seconds and in seconds at nominal host speed.

    On a shared virtual machine the host's speed drifts by up to 2x within
    seconds as neighbours load the physical cores; CPU time drifts with wall
    time, so process time does not help. While a call runs, a timer
    interrupts it every ``SAMPLE_EVERY_S`` to time a short fixed reference
    computation: small SVDs and contractions, the library's own kind of
    work. One more sample is taken before and after the call. A call's
    nominal time is its raw time (samples excluded) times the mean of
    ``REF_NOMINAL_S / sample``: the time it would have taken on a host where
    the reference takes ``REF_NOMINAL_S``. A slower library shows in both
    times; a slower host only in the raw one.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self._mats = [rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
                      for _ in range(4)]
        self._samples: list[float] = []
        self.sample()

    def sample(self, *_signal) -> None:
        t0 = time.perf_counter()
        for _ in range(REF_REPEATS):
            for m in self._mats:
                u, s, vh = np.linalg.svd(m)
                np.tensordot(u * s, vh, axes=([1], [0])).reshape(-1).sum()
        self._samples.append(time.perf_counter() - t0)

    def time(self, fn, *args) -> tuple[float, float, object]:
        """(raw s, nominal s, result); an exception is returned as the result.

        The heap is collected first, so garbage from earlier calls neither
        costs this call time nor moves the process's peak memory.
        """
        gc.collect()
        self._samples = []
        self.sample()
        previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        t0 = time.perf_counter()
        try:
            result = fn(*args)
        except Exception as exc:  # an op that raises is a failed check, not a crash
            result = exc
        finally:
            elapsed = time.perf_counter() - t0
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        raw = elapsed - sum(self._samples[1:])
        self.sample()
        scale = statistics.fmean(REF_NOMINAL_S / t for t in self._samples)
        return raw, raw * scale, result


def _check_op(w: Workload, checks: Checks, reference, result) -> None:
    """Every op after the warm-up one must repeat its result exactly."""
    i = checks.ops
    checks.ops += 1
    if isinstance(result, Exception):
        checks.add(f"op {i} raised {type(result).__name__}: {result}", False, wrong=False)
    elif i > 0 and not isinstance(reference, Exception):
        checks.add(f"op {i} repeats the first op bit for bit",
                   w.fingerprint(result) == w.fingerprint(reference))


def _check_outputs(w: Workload, checks: Checks, inputs, result) -> None:
    if isinstance(result, Exception):
        return
    for c in w.checks(inputs, result):
        # A case that raised produced no output: it failed without being wrong.
        checks.add(c.name, c.ok, wrong=not c.raised)


def _repeat(fn, arg, times: int) -> None:
    for _ in range(times):
        fn(arg)  # each result is dropped before the next, so memory does not grow with ``times``


def _setup(w: Workload, seed: int, clock: HostClock) -> tuple[object, list[float], list[float]]:
    """Inputs, and raw and nominal seconds per set-up over ``SETUPS`` samples."""
    raw, nominal, inputs = clock.time(w.setup, seed)
    if isinstance(inputs, Exception):
        raise inputs
    batch = max(1, math.ceil(SETUP_BATCH_S / raw))
    raws, nominals = [raw], [nominal]
    while len(raws) < SETUPS:
        raw, nominal, _ = clock.time(_repeat, w.setup, seed, batch)
        raws.append(raw / batch)
        nominals.append(nominal / batch)
    return inputs, raws, nominals


def _ops(w: Workload, inputs, clock: HostClock, checks: Checks, reference, seconds: float,
         min_ops: int, tracer: Tracer | None = None) -> tuple[list[float], list[float], list[dict]]:
    """Time ops for ``seconds`` (at least ``min_ops``); per-op trace summaries if traced."""
    raws, nominals, summaries = [], [], []
    start = time.perf_counter()
    while len(raws) < min_ops or time.perf_counter() - start < seconds:
        if tracer:
            tracer.install()
            lo = tracer.mark()
        try:
            raw, nominal, result = clock.time(w.op, inputs)
        finally:
            if tracer:
                tracer.uninstall()
        raws.append(raw)
        nominals.append(nominal)
        _check_op(w, checks, reference, result)
        if tracer:
            summary = tracer.summarize(lo, tracer.mark(), NESTED)
            summary["counts"] = {} if isinstance(result, Exception) else w.counts(inputs, result)
            summaries.append(summary)
        del result
    return raws, nominals, summaries


def run_workload(w: Workload, seed: int, seconds: float, trace: bool, root: Path) -> dict:
    """Measure ``w`` and return the result object printed as the last line."""
    print(f"# provenance {json.dumps(provenance(root))}", flush=True)
    clock = HostClock()
    checks = Checks()
    tracer = Tracer() if trace else None
    if tracer:
        tracer.install()
        try:
            raw, nominal, inputs = clock.time(w.setup, seed)
        finally:
            tracer.uninstall()
        if isinstance(inputs, Exception):
            raise inputs
        setup_raw, setup_nominal = [raw], [nominal]
        setup_spans = tracer.summarize(0, tracer.mark())
    else:
        inputs, setup_raw, setup_nominal = _setup(w, seed, clock)

    warm_raw, _, reference = clock.time(w.op, inputs)
    _check_op(w, checks, reference, reference)
    budget = seconds / 2 if trace else seconds
    raws, nominals, _ = _ops(w, inputs, clock, checks, reference, budget, MIN_OPS)
    metrics = {}
    if tracer:
        t_raws, t_nominals, summaries = _ops(w, inputs, clock, checks, reference, budget, 2, tracer)
        checks.add("per-layer call counts repeat on every traced op",
                   all(s["calls"] == summaries[0]["calls"] for s in summaries))
        tracer.write(root / TRACE_OUT / f"spans-{w.name}-seed{seed}.csv.gz")
        print(f"# {w.name}: {len(t_raws)} traced ops, median {statistics.median(t_raws):.4f} s raw; "
              f"{len(tracer.spans)} spans written to {TRACE_OUT}/")
        overhead = statistics.median(t_nominals) / statistics.median(nominals) - 1.0
        metrics = _layer_metrics(summaries, setup_spans, overhead)
    _check_outputs(w, checks, inputs, reference)

    median = statistics.median(nominals)
    print(
        f"# {w.name}: {len(raws)} ops after 1 warm-up op ({warm_raw:.3f} s raw), "
        f"{w.units_per_op} {w.unit} per op; op time median {median:.4f} s nominal, "
        f"raw median {statistics.median(raws):.4f} min {min(raws):.4f} max {max(raws):.4f} s; "
        f"{len(setup_raw)} set-up samples, median {statistics.median(setup_nominal):.4f} s nominal, "
        f"{statistics.median(setup_raw):.4f} s raw"
    )
    if not isinstance(reference, Exception):
        line = w.summary(inputs, reference)
        if line:
            print(f"# {w.name}: {line}")
    print(f"# {w.name}: fail_frac {len(checks.failures) / checks.attempted:.6g} "
          f"({len(checks.failures)} of {checks.attempted} checks failed, "
          f"{checks.wrong} with a wrong output)")
    for name in checks.failures[:10]:
        print(f"# FAILED {name}")
    if not trace:
        values = {
            "throughput": w.units_per_op / median,
            "setup_s": statistics.median(setup_nominal),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
        print(f"# {w.name}: throughput {values['throughput']:.6g} {w.unit}/s nominal, "
              f"{w.units_per_op / statistics.median(raws):.6g} {w.unit}/s raw")
    return {
        "correct": checks.wrong == 0,
        "attempted": checks.attempted,
        "failed": len(checks.failures),
        "metrics": metrics,
    }


def _layer_metrics(summaries: list[dict], setup: dict, overhead: float) -> dict:
    """Per-op layer metrics: counts from the first traced op, median self times."""
    first, counts = summaries[0], summaries[0]["counts"]
    values = {f"{name}.calls": first["calls"].get(name, 0) for name in CALLS}
    for name in SELF:
        values[f"{name}.self_s"] = statistics.median(s["self_s"].get(name, 0.0) for s in summaries)
    amps = first["calls"].get("peps.FixedEvaluator.amplitude", 0)
    values["peps.FixedEvaluator.amplitude.absorbs_per_call"] = (
        first["within"][NESTED[0]] / amps if amps else 0.0
    )
    samples = counts.get("gradient_samples", 0)
    values["vmc.gradient_estimate.site_evals_per_sample"] = (
        first["within"][NESTED[1]] / samples if samples else 0.0
    )
    nodes = counts.get("amp_nodes", 0)
    values["circuit.eval_amp_circuit.contractions_per_node"] = (
        counts["amp_contractions"] / nodes if nodes else 0.0
    )
    values["simple_update.simple_update.s"] = setup["total_s"].get("simple_update.simple_update", 0.0)
    values["ed.ground_energy.s"] = setup["total_s"].get("ed.ground_energy", 0.0)
    values["trace.overhead_frac"] = overhead
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}
