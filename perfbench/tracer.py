"""Outside-in tracing of tnflab's public layer functions.

The tracer wraps each target function at *every* module binding that holds
it, because modules import functions by name: ``svd_split`` lives in
``tensor`` but is also bound in ``mps``, ``floquet`` and ``simple_update``,
and a wrapper on one binding would miss the calls made through the others.
Methods are wrapped on their class, which every instance reaches.

Spans ``(name, start_ns, end_ns, parent)`` stay in memory while the traced
code runs and are written out once at the end. A span's self time is its
duration minus the durations of its direct child spans.
"""
from __future__ import annotations

import functools
import gzip
import importlib
import sys
import time
from pathlib import Path

# (module, attribute) or (module, class, method), named "<module>.<attr...>".
TARGETS = [
    ("tnflab.tensor", "svd_split"),
    ("tnflab.mps", "compress"),
    ("tnflab.mps", "apply_mpo"),
    ("tnflab.peps", "boundary_absorb"),
    ("tnflab.peps", "FixedEvaluator", "amplitude"),
    ("tnflab.peps", "FixedEvaluator", "amplitude_with_site"),
    ("tnflab.peps", "DynamicCache", "peek"),
    ("tnflab.peps", "DynamicCache", "commit"),
    ("tnflab.vmc", "metropolis_sweep"),
    ("tnflab.vmc", "local_energy"),
    ("tnflab.vmc", "estimate_energy"),
    ("tnflab.vmc", "gradient_estimate"),
    ("tnflab.floquet", "build_floquet_mpo"),
    ("tnflab.floquet", "tnf_amplitude_transverse"),
    ("tnflab.floquet", "tnf_amplitude_inverse_time"),
    ("tnflab.entanglement", "dense_state_from_amplitudes"),
    ("tnflab.entanglement", "entropy_and_spectrum"),
    ("tnflab.entanglement", "entanglement_dynamics"),
    ("tnflab.circuit", "eval_binary"),
    ("tnflab.circuit", "gate_tensor"),
    ("tnflab.circuit", "eval_amp_circuit"),
    ("tnflab.simple_update", "simple_update"),
    ("tnflab.ed", "ground_energy"),
]

# Bindings the library makes today; install() fails if one is not wrapped,
# so a renamed import cannot silently drop calls from the trace.
REQUIRED_BINDINGS = {
    "tensor.svd_split": {"tnflab.tensor", "tnflab.mps", "tnflab.floquet", "tnflab.simple_update"},
    "mps.compress": {"tnflab.mps", "tnflab.peps", "tnflab.floquet"},
    "peps.boundary_absorb": {"tnflab.peps", "tnflab.floquet"},
    "floquet.tnf_amplitude_transverse": {"tnflab.floquet", "tnflab.entanglement"},
    "floquet.tnf_amplitude_inverse_time": {"tnflab.floquet", "tnflab.entanglement"},
}


def _span_name(target: tuple[str, ...]) -> str:
    return ".".join((target[0].removeprefix("tnflab."),) + target[1:])


class Tracer:
    """Wraps the targets while installed and records one span per call."""

    def __init__(self):
        self.names: list[str] = []
        # One row per span: [name id, start ns, end ns, parent span or -1].
        self.spans: list[list[int]] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []
        self.bindings: dict[str, list[str]] = {}

    def _wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(spans)
            spans.append([name_id, clock(), 0, stack[-1] if stack else -1])
            stack.append(i)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[i][2] = clock()

        return traced

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        functions: dict[int, tuple[str, object]] = {}
        for target in TARGETS:
            module = importlib.import_module(target[0])
            name = _span_name(target)
            if len(target) == 3:
                cls = getattr(module, target[1])
                original = cls.__dict__[target[2]]
                self._set(cls, target[2], self._wrap(name, original))
                self.bindings[name] = [f"{target[0]}.{target[1]}"]
            else:
                original = getattr(module, target[1])
                functions[id(original)] = (name, original, self._wrap(name, original))
                self.bindings[name] = []
        for mod_name, module in list(sys.modules.items()):
            namespace = getattr(module, "__dict__", None)
            if not isinstance(namespace, dict):
                continue
            for attr, value in list(namespace.items()):
                hit = functions.get(id(value))
                if hit is not None and hit[1] is value:
                    self._set(module, attr, hit[2])
                    self.bindings[hit[0]].append(mod_name)
        for name, modules in REQUIRED_BINDINGS.items():
            missing = modules - set(self.bindings.get(name, []))
            if missing:
                self.uninstall()
                raise RuntimeError(f"{name} is not wrapped in {sorted(missing)}")

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, "__dict__")[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def mark(self) -> int:
        """Index of the next span, to delimit a phase such as one op."""
        return len(self.spans)

    def summarize(self, lo: int, hi: int, nested: list[tuple[str, str]] = ()) -> dict:
        """Calls, inclusive and self seconds per name over spans [lo, hi).

        ``nested`` lists (child, ancestor) pairs whose calls are also counted
        when the child runs inside the ancestor.
        """
        spans = self.spans
        child_ns: dict[int, int] = {}
        for i in range(lo, hi):
            name_id, start, end, parent = spans[i]
            if parent >= lo:
                child_ns[parent] = child_ns.get(parent, 0) + end - start
        calls: dict[str, int] = {}
        total_s: dict[str, float] = {}
        self_s: dict[str, float] = {}
        for i in range(lo, hi):
            name_id, start, end, _ = spans[i]
            name = self.names[name_id]
            calls[name] = calls.get(name, 0) + 1
            total_s[name] = total_s.get(name, 0.0) + (end - start) * 1e-9
            self_s[name] = self_s.get(name, 0.0) + (end - start - child_ns.get(i, 0)) * 1e-9
        within = {pair: 0 for pair in nested}
        for child, ancestor in nested:
            for i in range(lo, hi):
                if self.names[spans[i][0]] != child:
                    continue
                p = spans[i][3]
                while p >= lo:
                    if self.names[spans[p][0]] == ancestor:
                        within[(child, ancestor)] += 1
                        break
                    p = spans[p][3]
        return {"calls": calls, "total_s": total_s, "self_s": self_s, "within": within}

    def write(self, path: Path) -> None:
        """All spans as gzip CSV: index, name, start, end (ns from the first), parent."""
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.spans[0][1] if self.spans else 0
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("span,name,start_ns,end_ns,parent\n")
            for i, (name_id, start, end, parent) in enumerate(self.spans):
                out.write(f"{i},{self.names[name_id]},{start - t0},{end - t0},{parent}\n")
