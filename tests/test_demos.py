"""The model, belief-tracking, exact-solver and sandwich demos, and the
README's library quick start, run to completion.

Each runs in its own interpreter, as a reader would run it, with the
package source on the path. Demo 05 (a full policy benchmark, over 15 s) is
left out.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_python(*args):
    """Exit status and output of ``python *args`` run from the repo root."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    res = subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, timeout=120, env=env, cwd=ROOT,
    )
    return res.returncode, res.stdout[-2000:] + res.stderr[-2000:]


@pytest.mark.parametrize("demo", [
    "01_model_and_spread.py", "02_belief_tracking.py", "03_exact_solver.py",
    "04_sandwich_bounds.py",
])
def test_demo_exits_zero(demo):
    status, output = run_python(str(ROOT / "demos" / demo))
    assert status == 0, output


def test_readme_quick_start_exits_zero():
    readme = (ROOT / "README.md").read_text()
    snippet = re.search(r"^## Library quick start\n\n```python\n(.*?)^```$", readme,
                        re.MULTILINE | re.DOTALL)
    assert snippet, "README.md has no library quick start block"
    status, output = run_python("-c", snippet.group(1))
    assert status == 0, output
