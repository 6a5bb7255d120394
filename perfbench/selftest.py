"""Self-test of the benchmark on tiny inputs.

    python3 perfbench/selftest.py

Runs every workload on tiny inputs through ``run.main``, untraced and
traced, and checks that the last line holds exactly the result keys and
every metric BENCHMARK.json names, each with its unit. Then checks that a
deliberately wrong output is counted in ``fail_frac`` and clears
``correct``, and that an op that raises is counted as failed. Exits 1 on
the first mismatch.
"""
from __future__ import annotations

import contextlib
import io
import json
import sys

import run

TINY = {
    "vmc-fixed": dict(rows=2, cols=3, bond=2, su_steps=10, chi=2, sweeps=12, warmup=2, n_configs=4),
    "vmc-dynamic": dict(rows=2, cols=3, bond=2, su_steps=10, chi=1, sweeps=12, warmup=2),
    "vmc-gradient": dict(rows=2, cols=2, bond=2, su_steps=10, sweeps=4, warmup=2),
    "floquet-volume": dict(n_sites=4, t_max=2, n_configs=2),
    "circuit-exact": dict(adder_bits=2, mult_bits=(2, 2), square_bits=2, fnn_widths=(2, 3, 1),
                          fnn_inputs=3),
}


def run_tiny(workloads, name: str, trace: int, wrap=None) -> dict:
    """``run.main`` on the tiny ``name``; ``wrap`` may replace its op."""
    factory = workloads.WORKLOADS[name]

    def tiny():
        w = factory(**TINY[name])
        if wrap:
            w.op = wrap(w.op)
        return w

    out = io.StringIO()
    workloads.WORKLOADS[name] = tiny
    try:
        with contextlib.redirect_stdout(out):
            code = run.main(["--workload", name, "--seed", "7", "--seconds", "0", "--trace", str(trace)])
    finally:
        workloads.WORKLOADS[name] = factory
    expect(code == 0, f"{name} trace={trace} exits 0")
    return json.loads(out.getvalue().strip().splitlines()[-1])


def expect(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}", flush=True)
    if not ok:
        sys.exit(1)


def main() -> int:
    if not run.prepare():
        return 2
    import workloads

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    wanted = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    expect(sorted(w["name"] for w in spec["workloads"]) == sorted(run.NAMES),
           "BENCHMARK.json lists the runnable workloads")
    clean = {}
    for name in run.NAMES:
        for trace in (0, 1):
            res = run_tiny(workloads, name, trace)
            expect(set(res) == {"correct", "attempted", "failed", "metrics"},
                   f"{name} trace={trace}: result has exactly the contract's keys")
            got = {k: m["unit"] for k, m in res["metrics"].items()}
            expect(got == wanted[trace], f"{name} trace={trace}: every metric with its unit")
            expect(res["correct"] and res["attempted"] >= 1, f"{name} trace={trace}: outputs correct")
            clean[name, trace] = res
        # Only the 600-node composition chain may fail, and only on circuit-exact.
        expect(clean[name, 0]["failed"] == (name == "circuit-exact"),
               f"{name}: failed checks {clean[name, 0]['failed']}")

    def off_by_one(op):
        def wrong(inputs):
            out = op(inputs)
            out[0] += 1  # the first case is 0 + 0 on the adder
            return out
        return wrong

    res = run_tiny(workloads, "circuit-exact", 0, off_by_one)
    base = clean["circuit-exact", 0]
    expect(not res["correct"] and res["failed"] == base["failed"] + 1
           and res["attempted"] == base["attempted"],
           "a wrong circuit output clears correct and adds one failed check")

    def raising(op):
        def fail(inputs):
            raise RuntimeError("deliberate")
        return fail

    res = run_tiny(workloads, "floquet-volume", 0, raising)
    expect(res["failed"] == res["attempted"] and res["correct"],
           "an op that raises is a failed check, not a wrong output")
    print("self-test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
