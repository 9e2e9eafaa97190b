"""Importing driftstream loads numpy with a one-thread OpenBLAS pool, unless
the caller chose a thread count: the engine makes no BLAS call, and an idle
pool worker spins a second CPU."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

CHILD = """\
import driftstream
import numpy
print(next(line.split()[1] for line in open("/proc/self/status") if line.startswith("Threads:")))
"""


def threads_after_import(**extra_env) -> int:
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = str(SRC)
    env.update(extra_env)
    out = subprocess.run([sys.executable, "-c", CHILD], env=env, capture_output=True,
                         text=True, timeout=60, check=True)
    return int(out.stdout)


@pytest.mark.skipif(not os.path.exists("/proc/self/status") or (os.cpu_count() or 1) < 2,
                    reason="needs /proc/self/status and at least 2 CPUs")
def test_import_starts_no_blas_worker_and_keeps_callers_count():
    assert threads_after_import() == 1
    assert threads_after_import(OPENBLAS_NUM_THREADS="2") == 2
