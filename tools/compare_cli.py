"""Compare the gbst command line of two source trees, call by call.

Usage: python tools/compare_cli.py OLD_SRC NEW_SRC

Each SRC is a directory that holds the ``gbst`` package, such as a
checkout's ``src``.  Every call of a fixed matrix runs once per tree as a
fresh ``python -m gbst.cli`` process with OPENBLAS_NUM_THREADS=1, in an
empty working directory of its own.  The matrix covers every command,
N in {2, 3, 8, 26, 64}, both families, v = 0, v/w = 1e-17 and 1e300,
generated GBSR files (small ones, ones that span several moment chunks,
the last one partial, and one longer than the 4 MiB span in which a pass
releases a file's pages), ``sweep --data`` with a matching and a mismatched
``--n``, large samples whose values lie inside, below and above the window
1e-4 <= |x| < 1e16 of fixed-notation text, and usage and data errors.

A call differs when its exit code, stdout, stderr or any file it wrote
differs; the tree's own path is masked in stdout and stderr first.  Each
differing call is printed with the first line that differs in each part.
Exit status: 0 when no call differs, 1 otherwise.
"""

from __future__ import annotations

import os
import struct
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor

import numpy as np

SIZES = (2, 3, 8, 26, 64)
FAMILIES = ("L1", "L2")
# (w, v): interior, v = 0, w = 0, v/w = 1e-17 (twice: LAPACK's Cholesky rejects the float64
# matrix at w = 1 and factors it by roundoff at w = 0.7) and 1e300, and both weights at the
# float64 extremes
WEIGHTS = (
    ("1", "1"), ("2.5", "0.75"), ("1", "0"), ("0", "1"), ("1", "1e-17"), ("0.7", "7e-18"),
    ("1", "1e300"), ("1e300", "1e300"), ("1e-300", "1e-300"),
)
KINDS = ("DCT2", "DCT4", "DCT8", "DST4", "DST7")
WORKERS = 4


def write_gbsr(path: str, blocks: np.ndarray) -> None:
    """The GBSR layout: magic, version 1, u16 block size, u32 block count, i16 samples, little endian."""
    count, n, _ = blocks.shape
    with open(path, "wb") as f:
        f.write(struct.pack("<4sBHI", b"GBSR", 1, n, count))
        f.write(blocks.astype("<i2").tobytes())


def make_data(directory: str) -> list[str]:
    """GBSR inputs: random residuals per N, degenerate moments and malformed files."""
    rng = np.random.default_rng(2019)
    paths = []

    def add(name, data):
        path = os.path.join(directory, name)
        if isinstance(data, bytes):
            with open(path, "wb") as f:
                f.write(data)
        else:
            write_gbsr(path, data)
        paths.append(path)

    for n in SIZES:
        add(f"random{n}.gbsr", np.rint(rng.standard_normal((40, n, n)) * 30))
    # 5000 and 100 blocks span several chunks of the moment pass, the last one partial
    add("chunks8.gbsr", np.rint(rng.standard_normal((5000, 8, 8)) * 30))
    add("chunks64.gbsr", np.rint(rng.standard_normal((100, 64, 64)) * 30))
    # 6.4 MB: the moment pass releases the pages of its first 4 MiB windows
    add("windows8.gbsr", np.rint(rng.standard_normal((50_000, 8, 8)) * 30))
    add("constant_rows.gbsr", np.full((5, 8, 8), 7.0))
    add("zeros.gbsr", np.zeros((5, 8, 8)))
    add("block100.gbsr", np.ones((1, 100, 100)))
    add("truncated.gbsr", struct.pack("<4sBHI", b"GBSR", 1, 8, 10) + bytes(16))
    add("bad_magic.gbsr", b"XXXX" + bytes(20))
    paths.append(os.path.join(directory, "missing.gbsr"))
    return paths


def call_matrix(data: list[str]) -> list[list[str]]:
    calls = [["verify"], ["verify", "--n", "1"], ["verify", "--n", "65"]]
    calls += [["verify", "--n", str(n)] for n in SIZES]
    calls += [["verify", "--kind", k, "--n", "8"] for k in KINDS]
    for n in SIZES:
        for fam in FAMILIES:
            for w, v in WEIGHTS:
                graph = ["--family", fam, "--w", w, "--v", v, "--n", str(n)]
                calls.append(["basis", *graph, "--out", "basis.txt", "--plot-data", "plot.txt"])
                calls.append(["gen-matrix", *graph])
                calls.append(["sample", *graph, "--count", "5", "--seed", "3", "--out", "x.txt"])
            for v in ("0", "0.75", "1e-17", "1e300"):
                calls.append(["sweep", "--n", str(n), "--family", fam, "--alphas", "0:0.25:2",
                              "--model-v", v, "--out", "sweep.csv"])
        calls += [["gen-matrix", "--kind", k, "--n", str(n)] for k in KINDS]
    # text output across 2^15-value blocks on both sides of the window where %.17g
    # prints fixed notation: values near 1, all below 1e-4, mostly above 1e16, N = 64
    for w, n, count in (("1", "8", "100000"), ("1e12", "8", "100000"), ("1e-34", "8", "100000"),
                        ("1", "64", "5000")):
        calls.append(["sample", "--w", w, "--v", w, "--n", n, "--count", count, "--seed", "9",
                      "--out", "big.txt"])
    for path in data:
        for fam in FAMILIES:
            for direction in ("row", "col"):
                calls.append(["learn", "--data", path, "--family", fam, "--direction", direction])
            calls.append(["learn", "--data", path, "--family", fam, "--json"])
            calls.append(["sweep", "--data", path, "--family", fam, "--alphas", "0:0.5:3"])
    # an --n that matches the file's N, and one that does not
    random8 = next(p for p in data if p.endswith("random8.gbsr"))
    calls += [["sweep", "--data", random8, "--n", n, "--alphas", "0:0.5:3"] for n in ("8", "16")]
    for w, v in (("2", "1.6"), ("1", "0.125"), ("1", "1125899906842624.25"), ("1", "-1"), ("-1", "1"),
                 ("0", "1"), ("1e-320", "1e300"), ("1", "1e308"), ("nan", "1"), ("1", "inf")):
        calls += [["refine", "--w", w, "--v", v], ["refine", "--w", w, "--v", v, "--n", "8", "--json"]]
    calls += [
        [], ["bogus"], ["verify", "--bogus"], ["basis", "--w", "1", "--n", "8"],
        ["sample", "--w", "1", "--v", "1", "--n", "4", "--count", "0"],
        ["sample", "--w", "1", "--v", "1", "--n", "4", "--count", "2", "--seed", "-1"],
        ["sweep", "--n", "8", "--alphas", "0:0.3:1", "--model-v", "1"],
        ["sweep", "--n", "8", "--model-v", "1", "--alphas", "0:1e308:1e308"],
        ["sweep", "--alphas", "0:0.25:1"], ["gen-matrix", "--n", "8"],
        ["gen-matrix", "--w", "1", "--v", "1", "--n", "8", "--out", "missing_dir/t.txt"],
    ]
    return calls


def run(src: str, argv: list[str]) -> tuple:
    """(exit code, stdout, stderr, {file name: bytes}) of one fresh process."""
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    with tempfile.TemporaryDirectory() as cwd:
        proc = subprocess.run([sys.executable, "-m", "gbst.cli", *argv], cwd=cwd, env=env,
                              capture_output=True, text=True)
        files = {}
        for name in sorted(os.listdir(cwd)):
            with open(os.path.join(cwd, name), "rb") as f:
                files[name] = f.read()
    return proc.returncode, proc.stdout.replace(src, "<src>"), proc.stderr.replace(src, "<src>"), files


def first_difference(a, b) -> str:
    if isinstance(a, (str, bytes)):
        la, lb = a.splitlines(), b.splitlines()
        for i, (x, y) in enumerate(zip(la, lb)):
            if x != y:
                return f"line {i + 1}: {x[:160]!r} -> {y[:160]!r}"
        return f"{len(la)} lines -> {len(lb)} lines"
    return f"{a!r} -> {b!r}"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    old, new = (os.path.abspath(src) for src in argv)
    with tempfile.TemporaryDirectory() as data_dir:
        calls = call_matrix(make_data(data_dir))
        with ThreadPoolExecutor(WORKERS) as pool:
            results = list(pool.map(lambda c: (run(old, c), run(new, c)), calls))
    differ = 0
    for call, (a, b) in zip(calls, results):
        if a == b:
            continue
        differ += 1
        print("gbst " + " ".join(call))
        for part, x, y in zip(("exit", "stdout", "stderr"), a, b):
            if x != y:
                print(f"  {part}: {first_difference(x, y)}")
        for name in sorted(set(a[3]) | set(b[3])):
            if a[3].get(name) != b[3].get(name):
                print(f"  file {name}: {first_difference(a[3].get(name, b''), b[3].get(name, b''))}")
    print(f"{len(calls)} calls, {differ} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
