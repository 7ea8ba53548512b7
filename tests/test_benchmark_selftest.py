"""The benchmark's self-test as part of the suite.

The benchmark's tracer wraps package functions by name (``make_policy``, the
``predict_belief`` binding in ``policies``, ``run_episode``, ...) and its
self-test asserts that none is missing, so a refactor that drops one fails
here instead of leaving the benchmark to report zeros.
"""

import subprocess
import sys
from pathlib import Path

SELFTEST = Path(__file__).resolve().parent.parent / "perfbench" / "selftest.py"


def test_benchmark_selftest_passes():
    res = subprocess.run(
        [sys.executable, str(SELFTEST)], capture_output=True, text=True, timeout=300
    )
    assert res.returncode == 0, res.stdout[-2000:] + res.stderr[-2000:]
