"""Reference figures for reading the benchmark's numbers on a given machine.

    python3 perfbench/reference.py [--seconds 20]

Prints the interpreter, numpy and scipy versions and the CPU count; the
median start-up of a bare interpreter and of ``import numpy``; the copy
bandwidth on an array at least 4x the last-level cache; and the
end-to-end metrics of cli-short and learn-large with
OPENBLAS_NUM_THREADS=1, a single-threaded baseline.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))


def _start_s(code: str, reps: int = 11) -> float:
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _llc_bytes() -> int:
    sizes = []
    base = "/sys/devices/system/cpu/cpu0/cache"
    for index in sorted(os.listdir(base)) if os.path.isdir(base) else []:
        try:
            with open(os.path.join(base, index, "size")) as f:
                text = f.read().strip()
        except OSError:
            continue
        scale = {"K": 2**10, "M": 2**20}.get(text[-1], 1)
        sizes.append(int(text.rstrip("KM")) * scale)
    return max(sizes, default=32 * 2**20)


def _copy_gbps(nbytes: int, reps: int = 5) -> float:
    """Bytes read plus bytes written per second by np.copyto, computed from the array size."""
    src = np.ones(nbytes // 8)
    dst = np.empty_like(src)
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        np.copyto(dst, src)
        times.append(time.perf_counter() - t0)
    return 2 * nbytes / statistics.median(times) / 1e9


def _single_threaded(workload: str, seconds: int) -> dict:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", "1",
         "--seconds", str(seconds), "--trace", "0"],
        env=env, check=True, capture_output=True, text=True,
    ).stdout
    return {k: v["value"] for k, v in json.loads(out.strip().splitlines()[-1])["metrics"].items()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seconds", type=int, default=20)
    args = parser.parse_args()
    import scipy

    llc = _llc_bytes()
    array = max(4 * llc, 512 * 2**20)
    report = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "llc_mib": llc / 2**20,
        "bare_interpreter_s": _start_s("pass"),
        "import_numpy_s": _start_s("import numpy"),
        "copy_array_mib": array / 2**20,
        "copy_gbps": _copy_gbps(array),
    }
    for workload in ("cli-short", "learn-large"):
        report[f"{workload}.openblas_1_thread"] = _single_threaded(workload, args.seconds)
    print(json.dumps(report, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
