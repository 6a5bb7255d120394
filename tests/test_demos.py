"""The fast demos run to completion as scripts.

Demos 01 and 04 take under a second each, and demo 03 (volume-law Floquet
dynamics, the work of ``test_volume_law_capture``) about 20 s. Demo 02
(variational energies, about 12 s) is left out to keep the suite fast; the
acceptance tests cover what it shows.
"""
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "script",
    ["01_fixed_vs_dynamic_amplitudes.py", "03_volume_law_floquet.py", "04_arithmetic_circuits.py"],
)
def test_demo_exits_zero(script):
    src = str(ROOT / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / script)],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
