"""The guards' shared runners: a script body run in a child process under an
address-space limit, reporting the child's peak RSS, or its exit status and
the time spent in one call."""

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
# The script exits with the call's value (1 if it raises), and prints the
# seconds spent in it last, either way.
TIMED = """
import time
_start = time.perf_counter()
try:
    raise SystemExit({call})
finally:
    print(time.perf_counter() - _start)
"""


def _run(script: str, args, timeout: int) -> subprocess.CompletedProcess:
    """``script`` run with ``args`` in sys.argv; the package comes from this
    checkout's ``src``."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", script, *map(str, args)], env=env, capture_output=True,
        text=True, timeout=timeout,
    )


def peak_rss_mib(body: str, *args, limit: int = 3 * 10**9, timeout: int = 300) -> float:
    """Peak RSS in MiB of ``body`` run as a script with ``args`` in sys.argv,
    limited to ``limit`` bytes of address space."""
    out = _run(PRELUDE.format(limit=limit) + textwrap.dedent(body) + CODA, args, timeout)
    assert out.returncode == 0, out.stderr[-2000:]
    return int(out.stdout.split()[-1]) / 1024  # VmHWM is in KiB


def exit_status(body: str, call: str, *args, limit: int = 3 * 10**9,
                timeout: int = 300) -> tuple:
    """(exit status, seconds spent in ``call``) of ``body`` then the
    expression ``call`` run as a script with ``args`` in sys.argv, limited to
    ``limit`` bytes of address space; the script exits with ``call``'s value."""
    script = PRELUDE.format(limit=limit) + textwrap.dedent(body) + TIMED.format(call=call)
    out = _run(script, args, timeout)
    assert out.stdout.strip(), out.stderr[-2000:]  # killed by a signal before the print
    return out.returncode, float(out.stdout.split()[-1])
