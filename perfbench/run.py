"""tnflab benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Runs one workload in this process, single-threaded, from the checkout's
``src/`` and prints one JSON object as the last line of standard output:
``{"correct", "attempted", "failed", "metrics"}``. ``attempted`` and
``failed`` count output checks, so ``failed / attempted`` is the workload's
``fail_frac``; ``correct`` is false when a check saw a wrong output (an op
that raises fails its check without being wrong). With ``--trace 0`` the
metrics are the end-to-end ones, with ``--trace 1`` the per-layer ones.

``--workload all`` runs every workload, each in its own process, and prints
a table of the end-to-end metrics and ``fail_frac``.
"""
from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NAMES = ["vmc-fixed", "vmc-dynamic", "vmc-gradient", "floquet-volume", "circuit-exact"]
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=NAMES + ["all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def run_all(args) -> int:
    """Each workload in a child process; a table of what they print last."""
    rows = []
    for name in NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        sys.stdout.write(proc.stdout)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exited with code {proc.returncode}", file=sys.stderr)
            return 1
        rows.append((name, json.loads(lines[-1])))
    print()
    for name, res in rows:
        cells = [f"{k} {m['value']:.6g} {m['unit']}" for k, m in res["metrics"].items()]
        if args.trace == 0:
            cells.append(f"fail_frac {res['failed'] / res['attempted']:.6g} "
                         f"({res['failed']}/{res['attempted']} checks)")
        print(f"{name:15s} " + "; ".join(cells) + ("" if res["correct"] else "; WRONG OUTPUT"))
    return 0


def prepare() -> bool:
    """Pin BLAS/OpenMP to one thread and put the checkout's ``src/`` first on
    the path; False when the checkout has no library sources."""
    if not (ROOT / "src" / "tnflab" / "__init__.py").is_file():
        print(f"no tnflab sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return False
    # Must happen before numpy is imported, so BLAS starts with one thread.
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    return True


def main(argv=None) -> int:
    args = parse_args(argv)
    if not prepare():
        return 2
    if args.workload == "all":
        return run_all(args)
    from harness import run_workload
    from workloads import WORKLOADS

    result = run_workload(WORKLOADS[args.workload](), args.seed, args.seconds, bool(args.trace), ROOT)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
