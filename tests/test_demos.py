"""The model, belief-tracking, exact-solver and sandwich demos run to
completion.

Each demo runs in its own interpreter, as a reader would run it, with the
package source on the path. Demo 05 (a full policy benchmark, over 15 s) is
left out.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("demo", [
    "01_model_and_spread.py", "02_belief_tracking.py", "03_exact_solver.py",
    "04_sandwich_bounds.py",
])
def test_demo_exits_zero(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    res = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        capture_output=True, text=True, timeout=120, env=env, cwd=ROOT,
    )
    assert res.returncode == 0, res.stdout[-2000:] + res.stderr[-2000:]
