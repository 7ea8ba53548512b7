"""The memory guards' shared runner: a script body run in a child process
under an address-space limit, reporting the child's peak RSS."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

PRELUDE = """import resource
resource.setrlimit(resource.RLIMIT_AS, ({limit}, resource.getrlimit(resource.RLIMIT_AS)[1]))
"""
# VmHWM is this process's own peak: ru_maxrss would also carry the peak of
# the test process, which the child shares memory with until its exec.
CODA = """
with open("/proc/self/status") as fh:
    print(next(line.split()[1] for line in fh if line.startswith("VmHWM:")))
"""


def peak_rss_mib(body: str, *args, limit: int = 3 * 10**9, timeout: int = 300) -> float:
    """Peak RSS in MiB of ``body`` run as a script with ``args`` in sys.argv,
    limited to ``limit`` bytes of address space; the package comes from this
    checkout's ``src``."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    script = PRELUDE.format(limit=limit) + textwrap.dedent(body) + CODA
    out = subprocess.run(
        [sys.executable, "-c", script, *map(str, args)], env=env, capture_output=True,
        text=True, timeout=timeout,
    )
    assert out.returncode == 0, out.stderr[-2000:]
    return int(out.stdout.split()[-1]) / 1024  # VmHWM is in KiB
