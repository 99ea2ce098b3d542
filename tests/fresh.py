"""Run a test script in a fresh interpreter, so that its tables, caches,
time and peak memory are its own.

The script runs with ``src/`` on the path and with ``peak_mb()`` defined:
the process's own peak resident set in MB, from ``VmHWM``, which starts
afresh at ``exec``.  ``ru_maxrss`` would keep the resident set that the
test runner had before the ``exec``; it is the fallback where ``/proc`` is
missing.  The script's last line of output is a JSON object.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

_PEAK_MB = """
import resource

def peak_mb():
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
"""


def run_fresh(script: str, *args: str, timeout: float = 300) -> dict:
    """The JSON object that ``script`` prints last, run in a fresh
    interpreter with ``args`` as ``sys.argv[1:]``; a failing script fails
    the test with its stderr."""
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run([sys.executable, "-c", _PEAK_MB + script, *args], env=env,
                          capture_output=True, text=True, timeout=timeout)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])
