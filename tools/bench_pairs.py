"""Run the benchmark in pairs on two checkouts and compare their end-to-end metrics.

    python tools/bench_pairs.py --parent DIR --change DIR --workload W \
        [--pairs N] [--seconds S] [--seed K]

Each pair runs ``perfbench/run.py --workload W --seed K --seconds S`` once in
each checkout, one after the other, each in its own process started in that
checkout. The side that goes first alternates from pair to pair (the parent
first in the first pair), since the second of two back-to-back runs can read
slower. Every run's line is printed as it finishes, with its failed checks,
then one row per end-to-end metric: each side's median and quartiles, the
change's median over the parent's, the parent's interquartile range, and in
how many pairs the change was better. Which way is better comes from the
``end_to_end`` list of the change's ``BENCHMARK.json`` (``throughput``
higher, anything else lower, where it has none). Exits 1 when a run prints
no result line, else 0.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", required=True, type=Path, help="checkout to compare against")
    p.add_argument("--change", required=True, type=Path, help="checkout under test")
    p.add_argument("--workload", required=True)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=8.0)
    p.add_argument("--seed", type=int, default=0)
    return p.parse_args(argv)


def directions(checkout: Path) -> dict[str, str]:
    """``better`` of each end-to-end metric the checkout's ``BENCHMARK.json`` lists."""
    path = checkout / "BENCHMARK.json"
    if not path.is_file():
        return {}
    return {m["name"]: m["better"] for m in json.loads(path.read_text()).get("end_to_end", [])}


def run_once(checkout: Path, args) -> dict | None:
    """One benchmark run in ``checkout``: its result line, or ``None``."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return None


def spread(values: list[float]) -> tuple[float, float, float]:
    """Lower quartile, median and upper quartile."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def main(argv=None) -> int:
    args = parse_args(argv)
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    better = directions(sides["change"])
    results = {"parent": [], "change": []}
    print(f"# {args.workload}, seed {args.seed}, {args.pairs} pairs of {args.seconds:g} s runs, "
          "alternating which side runs first")
    for k in range(args.pairs):
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        for side in order:
            res = run_once(sides[side], args)
            if res is None:
                print(f"pair {k + 1} {side}: no result line", file=sys.stderr)
                return 1
            results[side].append(res)
            cells = " ".join(f"{name} {m['value']:.6g}" for name, m in res["metrics"].items())
            wrong = "" if res["correct"] else " WRONG OUTPUT"
            print(f"pair {k + 1} {side}{' (first)' if side == order[0] else ''}: {cells}; "
                  f"failed {res['failed']}/{res['attempted']} checks{wrong}", flush=True)
    print(f"{'metric':14s} {'parent median [q1, q3]':>30s} {'change median [q1, q3]':>30s} "
          f"{'change/parent':>13s} {'parent IQR':>11s} {'wins':>6s}")
    for name in results["parent"][0]["metrics"]:
        old = [r["metrics"][name]["value"] for r in results["parent"]]
        new = [r["metrics"][name]["value"] for r in results["change"]]
        higher = better.get(name, "higher" if name == "throughput" else "lower") == "higher"
        wins = sum((b > a) if higher else (b < a) for a, b in zip(old, new))
        (q1, m0, q3), (p1, m1, p3) = spread(old), spread(new)
        ratio = m1 / m0 if m0 else float("nan")
        print(f"{name:14s} {f'{m0:.6g} [{q1:.6g}, {q3:.6g}]':>30s} {f'{m1:.6g} [{p1:.6g}, {p3:.6g}]':>30s} "
              f"{ratio:13.4f} {q3 - q1:11.4g} {f'{wins}/{len(old)}':>6s}")
    failed = sum(r["failed"] for rs in results.values() for r in rs)
    print(f"failed checks over all runs: {failed}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
