"""Write the digests of a fixed matrix of gbst command-line calls.

Usage: PYTHONPATH=src python tools/compare_cli.py

Every call of the matrix runs once through ``gbst.cli.main`` in this
process, in an empty working directory of its own.  The matrix covers every
command, N in {2, 3, 8, 26, 64}, both families, v = 0 (and -0 in refine),
v/w = 1e-17 and 1e300, an edge weight whose 4w + v overflows float64, generated GBSR files
(small ones, ones that span several moment chunks, the last one partial, at
N = 3, 8 and 64, and one longer than the 4 MiB span in which a pass
releases a file's pages), ``sweep --data`` with a matching and a
mismatched ``--n``, large samples whose values lie inside, below and above
the window 1e-4 <= |x| < 1e16 of fixed-notation text, samples streamed to
stdout across text-block and draw-chunk boundaries, a precision that
Cholesky rejects, usage and data errors, and the help text of gbst and of
each command.

The tool rewrites ``tests/cli_digests.json``: for each call, the first 16
hex digits of the sha256 of its exit code, its stdout, its stderr and each
file it wrote, with the data directory masked as ``<data>``, plus the
fingerprint of the numpy build that made them.  ``tests/test_cli_digests.py``
runs the matrix again and names each call and part whose digest moved.  A
change that moves an output on purpose reruns this tool, commits the
manifest and names the moved calls in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import platform
import sys
import tempfile

import numpy as np

from gbst import cli
from gbst.dataset import _HEADER, MAGIC, SAMPLE_DTYPE, VERSION, make_dataset, write_gbsr

SIZES = (2, 3, 8, 26, 64)
FAMILIES = ("L1", "L2")
# (w, v): interior, v = 0, w = 0, v/w = 1e-17 (twice: LAPACK's Cholesky rejects the float64
# matrix at w = 1 and factors it by roundoff at w = 0.7) and 1e300, both weights at the
# float64 extremes, and a w whose 4w + v overflows
WEIGHTS = (
    ("1", "1"), ("2.5", "0.75"), ("1", "0"), ("0", "1"), ("1", "1e-17"), ("0.7", "7e-18"),
    ("1", "1e300"), ("1e300", "1e300"), ("1e-300", "1e-300"), ("1e308", "0"),
)
KINDS = ("DCT2", "DCT4", "DCT8", "DST4", "DST7")
COMMANDS = ("verify", "basis", "learn", "refine", "sweep", "gen-matrix", "sample")


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
            write_gbsr(path, make_dataset(data))
        paths.append(path)

    for n in SIZES:
        add(f"random{n}.gbsr", np.rint(rng.standard_normal((40, n, n)) * 30))
    # 5000 and 100 blocks span several chunks of the moment pass, the last one partial
    add("chunks8.gbsr", np.rint(rng.standard_normal((5000, 8, 8)) * 30))
    add("chunks64.gbsr", np.rint(rng.standard_normal((100, 64, 64)) * 30))
    # 6.4 MB: the moment pass releases the pages of its first 4 MiB windows
    add("windows8.gbsr", np.rint(rng.standard_normal((50_000, 8, 8)) * 30))
    # N = 3 across 4 chunks: the column Gram's two unequal GEMM halves
    add("chunks3.gbsr", np.rint(rng.standard_normal((50_000, 3, 3)) * 30))
    add("constant_rows.gbsr", np.full((5, 8, 8), 7.0))
    add("zeros.gbsr", np.zeros((5, 8, 8)))
    # a well-formed file whose N no dataset admits, so written as raw bytes
    add("block100.gbsr", _HEADER.pack(MAGIC, VERSION, 100, 1) + np.ones(100 * 100, SAMPLE_DTYPE).tobytes())
    add("truncated.gbsr", _HEADER.pack(MAGIC, VERSION, 8, 10) + bytes(16))
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
    # text output across 2^14-value blocks on both sides of the window where %.17g
    # prints fixed notation: values near 1, all below 1e-4, mostly above 1e16, N = 64
    for w, n, count in (("1", "8", "100000"), ("1e12", "8", "100000"), ("1e-34", "8", "100000"),
                        ("1", "64", "5000")):
        calls.append(["sample", "--w", w, "--v", w, "--n", n, "--count", count, "--seed", "9",
                      "--out", "big.txt"])
    # streamed to stdout across text blocks of 2^13 to 2^15 values and past one
    # 2^15-row draw chunk, inside and below the window
    for w, n, count in (("1", "2", "32769"), ("1", "3", "32769"), ("1e12", "8", "32769"),
                        ("1", "64", "513")):
        calls.append(["sample", "--family", "L2", "--w", w, "--v", w, "--n", n, "--count", count,
                      "--seed", "4"])
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
                 ("0", "1"), ("1e-320", "1e300"), ("1", "1e308"), ("nan", "1"), ("1", "inf"), ("1", "-0")):
        calls += [["refine", "--w", w, "--v", v], ["refine", "--w", w, "--v", v, "--n", "8", "--json"]]
    calls += [
        [], ["bogus"], ["verify", "--bogus"], ["basis", "--w", "1", "--n", "8"],
        ["sample", "--w", "1", "--v", "1", "--n", "4", "--count", "0"],
        # w + v != w, yet LAPACK's Cholesky rejects the float64 matrix
        ["sample", "--w", "1", "--v", "1.2e-16", "--n", "2", "--count", "3"],
        ["sample", "--w", "1", "--v", "1.2e-16", "--n", "2", "--count", "3", "--out", "x.txt"],
        ["sample", "--w", "1", "--v", "1", "--n", "4", "--count", "2", "--seed", "-1"],
        ["sweep", "--n", "8", "--alphas", "0:0.3:1", "--model-v", "1"],
        ["sweep", "--n", "8", "--model-v", "1", "--alphas", "0:1e308:1e308"],
        ["sweep", "--alphas", "0:0.25:1"], ["gen-matrix", "--n", "8"],
        ["gen-matrix", "--w", "1", "--v", "1", "--n", "8", "--out", "missing_dir/t.txt"],
    ]
    calls += [["--help"]] + [[command, "--help"] for command in COMMANDS]
    return calls


def run_call(argv: list[str], data_dir: str) -> dict[str, bytes]:
    """{part: bytes} of one call: ``exit``, ``stdout``, ``stderr`` and ``file:<name>`` per file written.

    The call runs in an empty working directory of its own.  argparse wraps
    its usage lines at the terminal width, so COLUMNS is pinned to the 80
    that a process without a terminal gets; the cwd and COLUMNS are restored
    afterwards.  data_dir is masked as ``<data>`` in every part.
    """
    out, err = io.StringIO(), io.StringIO()
    home, columns = os.getcwd(), os.environ.get("COLUMNS")
    with tempfile.TemporaryDirectory() as cwd:
        try:
            os.chdir(cwd)
            os.environ["COLUMNS"] = "80"
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = cli.main(argv)
                except SystemExit as exc:  # argparse's usage errors
                    code = exc.code
            parts = {"exit": str(code).encode(), "stdout": out.getvalue().encode(),
                     "stderr": err.getvalue().encode()}
            for name in sorted(os.listdir(cwd)):
                with open(name, "rb") as f:
                    parts["file:" + name] = f.read()
        finally:
            os.chdir(home)
            if columns is None:
                del os.environ["COLUMNS"]
            else:
                os.environ["COLUMNS"] = columns
    return {part: data.replace(data_dir.encode(), b"<data>") for part, data in parts.items()}


def digests() -> dict[str, dict[str, str]]:
    """{call: {part: first 16 hex digits of its sha256}} for every call of the matrix."""
    result = {}
    with tempfile.TemporaryDirectory() as data_dir:
        for argv in call_matrix(make_data(data_dir)):
            key = " ".join(["gbst", *argv]).replace(data_dir, "<data>")
            result[key] = {part: hashlib.sha256(data).hexdigest()[:16]
                           for part, data in run_call(argv, data_dir).items()}
    return result


def fingerprint() -> dict[str, str]:
    """The build whose bits the digests record: numpy, its BLAS and the machine."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": f"{blas['name']} {blas['version']}",
            "machine": platform.machine()}


def main() -> None:
    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tests",
                        "cli_digests.json")
    manifest = {"fingerprint": fingerprint(), "calls": digests()}
    with open(path, "w") as f:
        json.dump(manifest, f, indent=1)
        f.write("\n")
    print(f"{len(manifest['calls'])} calls -> {path}")


if __name__ == "__main__":
    if len(sys.argv) > 1:
        sys.exit(__doc__.strip().splitlines()[2])
    main()
