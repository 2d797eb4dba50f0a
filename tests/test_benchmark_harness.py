"""The benchmark harness's own tests, run from tier-1 in a subprocess.

benchmark/tests has its own conftest.py, which puts benchmark/ first on
sys.path; collected together with tests/, ``from conftest import ...``
would resolve to the wrong file.  So this runs them as the harness's
README does, in a separate interpreter, and fails when they do: a solver
change can break the tracer's fixtures (a capped solve that must stay
unconverged, say) without any tier-1 test noticing.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_tests_pass():
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "benchmark/tests"],
        capture_output=True, text=True, cwd=ROOT, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
