import os
import subprocess
import sys

import pytest

import gbst

# VmHWM is the child's own peak; ru_maxrss would carry the spawning process's
# high-water mark across exec and hide any growth below it.
_PEAK_MIB = """
def peak_mib():
    with open("/proc/self/status") as f:
        return next(int(line.split()[1]) for line in f if line.startswith("VmHWM:")) / 1024
"""


def _run_child(script: str, *args: str) -> list[float]:
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(os.path.abspath(gbst.__file__))),
               OPENBLAS_NUM_THREADS="1")
    out = subprocess.run([sys.executable, "-c", _PEAK_MIB + script, *args], env=env, capture_output=True,
                         text=True, check=True, timeout=120).stdout
    return [float(value) for value in out.split()]


@pytest.fixture
def child_peaks():
    """``run(script, *args)``: run ``script`` in a fresh interpreter with one BLAS thread.

    The script may call ``peak_mib()``, the child's own peak resident set
    (VmHWM) in MiB; ``run`` returns the numbers it prints.  Skips off Linux,
    where there is no /proc/self/status to read the peak from.
    """
    if sys.platform != "linux":
        pytest.skip("reads the peak from /proc/self/status")
    return _run_child
