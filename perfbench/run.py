"""Benchmark for gbst: run one workload, check every output, print the metrics.

    python3 perfbench/run.py --workload cli-short --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is used from ``src/``
without being installed.  One client drives the program in a closed loop,
one operation at a time, in whole rounds of the workload's operations
until ``--seconds`` have passed.  Set-up (inputs, worker start, one
discarded warm-up operation) is done three times and its median reported.

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics; with ``--trace 1`` rounds alternate between plain
and traced operations (see shim.py) and the object holds the per-layer
metrics.  Outputs are checked against perfbench/oracles.py; a mismatch
makes ``correct`` false.  An operation that exits with another code than
expected counts as failed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

import numpy as np

import gen
import oracles

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUPS = 3
OP_TIMEOUT_S = 120
SWEEP_ALPHAS = "0:0.25:2"
GRID = [i * 0.25 for i in range(9)]
# Generator model of every block input: rows follow L1 with v/w = 0.9, columns L2
# with v/w = 1.4, times 30 before rounding to i16.  It is fixed so that the seed
# changes the draws but not how much work the solver does on them; both ratios
# sit in the upper half of a 0.25 step, where rounding and truncating differ.
ROW_MODEL, COL_MODEL, SCALE = (0.9, "L1"), (1.4, "L2"), 30.0


def block_source(seed, n: int) -> gen.BlockSource:
    return gen.BlockSource(seed, n, gen.laplacian(n, 1.0, *ROW_MODEL), gen.laplacian(n, 1.0, *COL_MODEL), SCALE)

END_TO_END = {
    "setup_s": "s",
    "op_p50_s": "s",
    "op_cpu_p50_s": "s",
    "ops_per_s": "ops/s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "import.numpy_s": "s",
    "import.scipy_s": "s",
    "import.gbst_s": "s",
    "import.cpu_s": "s",
    "cli.main_s": "s",
    "cli.write_s": "s",
    "dataset.read_gbsr_s": "s",
    "dataset.read_gbsr_gbps": "GB/s",
    "dataset.read_gbsr_rss_mb": "MB",
    "estimation.residual_covariances_s": "s",
    "estimation.residual_covariances_gbps": "GB/s",
    "estimation.residual_covariances_rss_mb": "MB",
    "estimation.solve_ml_s": "s",
    "estimation.solve_ml_iterations": "count",
    "estimation.solve_ml_calls": "count",
    "estimation.solve_ml_share": "%",
    "spectral.derive_gbt_s": "s",
    "spectral.derive_gbt_calls": "count",
    "coding.alpha_sweep_s": "s",
    "coding.evaluate_metrics_calls": "count",
    "coding.integerize_s": "s",
    "trig.oracle_check_s": "s",
    "coding.quantize_roundtrip_distortion_s": "s",
    "coding.quantize_roundtrip_distortion_share": "%",
    "coding.quantize_blocks_per_s": "blocks/s",
    "coding.sample_gmrf_s": "s",
    "coding.sample_vectors_per_s": "vectors/s",
    "graph.matrix_text_s": "s",
    "graph.matrix_text_mb_per_s": "MB/s",
    "trace.overhead_s": "s",
}


class Mismatch(Exception):
    """The program's output disagrees with the oracle."""


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise Mismatch(what)


@dataclass
class OpResult:
    wall: float
    cpu: float
    maxrss_kb: int
    failed: bool
    trace: dict | None = None  # {"imports": {...} or None, "spans": [...]}
    mismatch: str | None = None


@dataclass
class CliOp:
    argv: list
    check: object  # callable(stdout: str) -> None; raises Mismatch when the output is wrong
    expect_rc: int = 0


def _env() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_cli(work: str, op: CliOp, traced: bool) -> OpResult:
    """One fresh ``python -m gbst.cli`` process (or the tracing shim), timed from outside."""
    trace_path = os.path.join(work, "op-trace.json")
    if traced:
        cmd = [sys.executable, os.path.join(HERE, "shim.py"), trace_path, "--", *op.argv]
    else:
        cmd = [sys.executable, "-m", "gbst.cli", *op.argv]
    out_path, err_path = os.path.join(work, "op.stdout"), os.path.join(work, "op.stderr")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=out, stderr=err, env=_env(), cwd=ROOT)
        killer = threading.Timer(OP_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
        finally:
            killer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    result = OpResult(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss, proc.returncode != op.expect_rc)
    if traced:
        with open(trace_path) as f:
            result.trace = json.load(f)
        os.remove(trace_path)
    if not result.failed:
        try:
            op.check(read_text(out_path))
        except (Mismatch, ValueError, IndexError, KeyError) as exc:
            result.mismatch = f"{' '.join(op.argv)}: {exc!r}"
    return result


def read_text(path: str) -> str:
    with open(path) as f:
        return f.read()


def parse_matrix(text: str, rows: int, cols: int) -> np.ndarray:
    lines = text.splitlines()
    expect(len(lines) == rows, f"expected {rows} lines, got {len(lines)}")
    expect(all(len(line.split()) == cols for line in lines), f"expected {cols} values per line")
    return np.array(text.split(), dtype=float).reshape(rows, cols)


def check_int_table(path: str, n: int, basis: np.ndarray) -> None:
    header, *body = read_text(path).splitlines()
    expect(header == f"INTGBT N={n} shift={6.0 + 0.5 * math.log2(n):g}", f"header {header!r}")
    table = np.array([[int(x) for x in line.split()] for line in body])
    expect(oracles.tables_match(table, basis), "integer table differs from the rounded oracle basis")


def check_sweep_csv(path: str, want: np.ndarray) -> np.ndarray:
    header, *body = read_text(path).splitlines()
    expect(header == "alpha,coding_gain_db,energy_compaction,entropy_bits", f"header {header!r}")
    got = np.array([[float(x) for x in line.split(",")] for line in body])
    expect(got.shape == want.shape, f"sweep shape {got.shape}")
    expect(np.array_equal(got[:, 0], want[:, 0]), "sweep alphas")
    expect(np.allclose(got[:, 1:], want[:, 1:], rtol=1e-9, atol=1e-12), "sweep metrics differ from the oracle")
    return got


def check_learn(stdout: str, stats: gen.Moments, family: str, blocks: int) -> None:
    rec = json.loads(stdout)
    w, v = oracles.ml_fit(stats, family)
    expect(oracles.close(rec["w_star"], w, 1e-6), f"w_star {rec['w_star']} vs closed form {w}")
    expect(oracles.close(rec["v_star"], v, 1e-6), f"v_star {rec['v_star']} vs closed form {v}")
    expect(rec["alpha"] == oracles.grid_round(v / w), f"alpha {rec['alpha']} vs {oracles.grid_round(v / w)}")
    expect(rec["n"] == stats.moment.shape[0] and rec["blocks"] == blocks, "n/blocks echo")


def sweep_oracle(moments: gen.Moments, family: str) -> np.ndarray:
    return oracles.sweep(moments.moment / moments.vectors, family, GRID)


def _f(x: float) -> str:
    return repr(float(x))


class Workload:
    """Inputs, one round of operations and their checks; subclasses fill these in."""

    salt = 0  # keeps each workload's random stream apart

    def __init__(self, seed: int, work: str):
        self.seed = seed
        self.work = work

    def setup(self) -> None:
        raise NotImplementedError

    def ops(self) -> list:
        raise NotImplementedError

    def run(self, op, traced: bool) -> OpResult:
        return run_cli(self.work, op, traced)

    def close(self) -> None:
        pass

    def spans(self, traced: list) -> list:
        """All spans of the traced operations."""
        return [span for r in traced for span in r.trace["spans"]]

    def imports(self, traced: list) -> list:
        return [r.trace["imports"] for r in traced]


class CliShort(Workload):
    """Eight short commands, each a fresh process; import dominates."""

    salt = 1
    LEARN_BLOCKS = 4096

    def setup(self) -> None:
        rng = np.random.default_rng([self.seed, self.salt])
        p = lambda name: os.path.join(self.work, name)  # noqa: E731
        ops = [CliOp(["verify"], self._check_verify)]

        w = rng.uniform(0.5, 4.0)
        target = max(rng.integers(0, 13) / 4 + rng.uniform(-0.1, 0.1), 0.02)
        v = w * target
        ops.append(CliOp(["refine", "--w", _f(w), "--v", _f(v)], lambda out, w=w, v=v: expect(
            float(out.split("alpha:")[1]) == oracles.grid_round(v / w), f"refine output {out!r}")))

        fam = str(rng.choice(["L1", "L2"]))
        w = rng.uniform(0.5, 3.0)
        v = w * rng.uniform(0.1, 2.5)
        ops.append(CliOp(["basis", "--family", fam, "--w", _f(w), "--v", _f(v), "--n", "64", "--out", p("basis.txt")],
                         lambda out, a=(fam, w, v): self._check_basis(p("basis.txt"), *a)))

        n = int(rng.choice([4, 8, 16, 32]))
        ops.append(CliOp(["gen-matrix", "--kind", "DST7", "--n", str(n), "--out", p("dst7.txt")],
                         lambda out, n=n: check_int_table(p("dst7.txt"), n, oracles.dst7(n))))

        fam, n = str(rng.choice(["L1", "L2"])), int(rng.choice([4, 8, 16, 32, 64]))
        w = rng.uniform(0.5, 3.0)
        v = w * rng.uniform(0.0, 2.0)
        basis = oracles.gbt(n, w, v, fam)[1]
        ops.append(CliOp(["gen-matrix", "--family", fam, "--w", _f(w), "--v", _f(v), "--n", str(n), "--out", p("gbt.txt")],
                         lambda out, n=n, b=basis: check_int_table(p("gbt.txt"), n, b)))

        fam, model_v = str(rng.choice(["L1", "L2"])), float(rng.integers(1, 9) / 4)
        want = oracles.sweep(np.linalg.inv(gen.laplacian(16, 1.0, model_v, fam)), fam, GRID)
        ops.append(CliOp(["sweep", "--n", "16", "--family", fam, "--alphas", SWEEP_ALPHAS,
                          "--model-v", _f(model_v), "--out", p("sweep.csv")],
                         lambda out, want=want, mv=model_v: self._check_model_sweep(p("sweep.csv"), want, mv)))

        row, col = gen.write_gbsr(p("small.gbsr"), block_source([self.seed, self.salt, 1], 8), self.LEARN_BLOCKS)
        fam, direction = str(rng.choice(["L1", "L2"])), str(rng.choice(["row", "col"]))
        stats = row if direction == "row" else col
        ops.append(CliOp(["learn", "--data", p("small.gbsr"), "--family", fam, "--direction", direction, "--json"],
                         lambda out, s=stats, f=fam: check_learn(out, s, f, self.LEARN_BLOCKS)))

        # Known fault: a zero boundary moment makes the likelihood unbounded; the fit should
        # exit 3 (DegenerateInputError) but runs 10 000 solver iterations and exits 0.  Its
        # input does not depend on the seed, so it fails in every round of every run.
        blocks = block_source(0, 8).draw(256)
        blocks[:, :, 0] = 0
        with open(p("degenerate.gbsr"), "wb") as f:
            f.write(gen.GBSR_HEADER.pack(b"GBSR", 1, 8, len(blocks)) + blocks.astype("<i2").tobytes())
        ops.append(CliOp(["learn", "--data", p("degenerate.gbsr"), "--family", "L1", "--direction", "row", "--json"],
                         lambda out: expect(read_text(p("op.stderr")).startswith("error: "), "no error message"),
                         expect_rc=3))
        self._ops = ops
        run_cli(self.work, ops[0], traced=False)  # warm-up, discarded

    def ops(self) -> list:
        return self._ops

    @staticmethod
    def _check_verify(out: str) -> None:
        lines = out.splitlines()
        expect(len(lines) == 20 and all(line.startswith("PASS ") for line in lines), f"verify output {lines}")

    @staticmethod
    def _check_basis(path: str, family: str, w: float, v: float) -> None:
        header, body = read_text(path).split("\n", 1)
        expect(header == f"GBT N=64 family={family} w={w:.17g} v={v:.17g}", f"header {header!r}")
        u = parse_matrix(body, 64, 64)
        lap = gen.laplacian(64, w, v, family)
        expect(np.abs(u.T @ u - np.eye(64)).max() < 1e-10, "basis is not orthonormal")
        lam = np.einsum("nk,nm,mk->k", u, lap, u)
        expect(np.abs(lap @ u - u * lam).max() < 1e-9 * np.abs(lap).max(), "L u_k != lambda_k u_k")
        expect(bool(np.all(np.diff(lam) > 0)), "eigenvalues not ascending")
        first = np.argmax(np.abs(u) > oracles.SIGN_EPS, axis=0)
        expect(bool(np.all(u[first, np.arange(64)] > 0)), "column signs not canonical")

    @staticmethod
    def _check_model_sweep(path: str, want: np.ndarray, model_v: float) -> None:
        got = check_sweep_csv(path, want)
        expect(got[np.argmax(got[:, 1]), 0] == model_v, "coding gain does not peak at alpha = model_v")


class LearnLarge(Workload):
    """learn and sweep --data on a GBSR file of about 10^6 8x8 blocks."""

    salt = 2
    BLOCKS = 1_000_000

    def setup(self) -> None:
        rng = np.random.default_rng([self.seed, self.salt])
        path = os.path.join(self.work, "large.gbsr")
        row, col = gen.write_gbsr(path, block_source([self.seed, self.salt, 1], 8), self.BLOCKS)
        sweep_fam = str(rng.choice(["L1", "L2"]))
        want = sweep_oracle(row, sweep_fam)
        csv = os.path.join(self.work, "sweep.csv")
        self._ops = [
            CliOp(["learn", "--data", path, "--family", "L1", "--direction", "row", "--json"],
                  lambda out: check_learn(out, row, "L1", self.BLOCKS)),
            CliOp(["learn", "--data", path, "--family", "L2", "--direction", "col", "--json"],
                  lambda out: check_learn(out, col, "L2", self.BLOCKS)),
            CliOp(["sweep", "--data", path, "--n", "8", "--family", sweep_fam, "--alphas", SWEEP_ALPHAS, "--out", csv],
                  lambda out: check_sweep_csv(csv, want)),
        ]
        run_cli(self.work, self._ops[0], traced=False)  # warm-up; also brings the file into the page cache

    def ops(self) -> list:
        return self._ops


class SampleDump(Workload):
    """sample --n 8 --count 100000 to a file, alternating two seeds."""

    salt = 3
    N, COUNT = 8, 100_000

    def setup(self) -> None:
        rng = np.random.default_rng([self.seed, self.salt])
        fam = str(rng.choice(["L1", "L2"]))
        w = rng.uniform(0.5, 2.0)
        v = w * rng.uniform(0.25, 2.0)
        cov = np.linalg.inv(gen.laplacian(self.N, w, v, fam))
        out = os.path.join(self.work, "sample.txt")
        self._first: dict = {}
        self._ops = []
        for sample_seed in rng.integers(0, 2**31, size=2):
            argv = ["sample", "--family", fam, "--w", _f(w), "--v", _f(v), "--n", str(self.N),
                    "--count", str(self.COUNT), "--seed", str(sample_seed), "--out", out]
            self._ops.append(CliOp(argv, lambda _, s=int(sample_seed): self._check(out, s, cov)))
        run_cli(self.work, self._ops[0], traced=False)  # warm-up, discarded

    def ops(self) -> list:
        return self._ops

    def _check(self, path: str, sample_seed: int, cov: np.ndarray) -> None:
        with open(path, "rb") as f:
            data = f.read()
        first = self._first.setdefault(sample_seed, data)
        if first is not data:  # a repeat of this seed: only byte identity is left to check
            expect(data == first, f"sample output for seed {sample_seed} is not byte-identical across runs")
            return
        x = parse_matrix(data.decode(), self.COUNT, self.N)
        expect(bool(np.isfinite(x).all()), "non-finite sample values")
        # zero-mean Gaussian: var(x_i x_j) = S_ii S_jj + S_ij^2; allow 6 standard errors per entry
        est = x.T @ x / self.COUNT
        se = np.sqrt((np.outer(np.diag(cov), np.diag(cov)) + cov**2) / self.COUNT)
        expect(bool(np.all(np.abs(est - cov) <= 6 * se)), "sample covariance is off inv(L)")


class FitBatch(Workload):
    """One long-lived worker; an operation is one library pass over N in {4..64} x family."""

    salt = 4
    SIZES = (4, 8, 16, 32, 64)
    VECTORS = 16384  # rows per direction in each N's block stack
    QBLOCKS = 256  # blocks per N through the per-block quantize loop
    STEP = 4 * math.pi  # an irrational step: no coefficient of an integer block lands on a tie

    def __init__(self, seed: int, work: str):
        super().__init__(seed, work)
        self.proc = None
        self.worker_imports: list = []  # import timings of each worker started in set-up

    def setup(self) -> None:
        self.close()
        arrays, self._want = {}, {}
        for n in self.SIZES:
            blocks = block_source([self.seed, self.salt, n], n).draw(self.VECTORS // n)
            arrays[f"blocks{n}"] = blocks
            row, col = gen.block_stats(blocks)
            for fam in ("L1", "L2"):
                fits = [oracles.ml_fit(s, fam) for s in (row, col)]
                alphas = [oracles.grid_round(v / w) for w, v in fits]
                bases = [oracles.gbt(n, 1.0, a, fam)[1] for a in alphas]
                self._want[(n, fam)] = {
                    "fits": fits, "alphas": alphas, "sweep": sweep_oracle(row, fam), "bases": bases,
                    "quantize": oracles.quantize_roundtrip(blocks[: self.QBLOCKS], bases[0], bases[1], self.STEP),
                }
        inputs = os.path.join(self.work, "fit-batch.npz")
        np.savez(inputs, step=self.STEP, sizes=np.array(self.SIZES), qcount=self.QBLOCKS, **arrays)
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "worker.py"), inputs],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=_env(), cwd=ROOT, text=True,
        )
        self.worker_imports.append(self._recv()["imports"])
        self.run(None, traced=False)  # warm-up pass, discarded

    def _recv(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("fit-batch worker stopped")
        return json.loads(line)

    def ops(self) -> list:
        return [None]

    def run(self, op, traced: bool) -> OpResult:
        self.proc.stdin.write(f"pass {int(traced)}\n")
        self.proc.stdin.flush()
        reply = self._recv()
        result = OpResult(reply["wall"], reply["cpu"], reply["maxrss_kb"], failed=False)
        try:
            self._check(reply["results"])
        except (Mismatch, ValueError, KeyError) as exc:
            result.mismatch = f"fit-batch: {exc!r}"
        return result

    def _check(self, results: list) -> None:
        expect(len(results) == 2 * len(self.SIZES), "fit-batch result count")
        for res in results:
            n, fam = res["n"], res["family"]
            want = self._want[(n, fam)]
            for (w, v), (w0, v0) in zip(res["fits"], want["fits"]):
                expect(oracles.close(w, w0, 1e-6) and oracles.close(v, v0, 1e-6), f"N={n} {fam} fit ({w}, {v}) vs ({w0}, {v0})")
            expect(res["alphas"] == want["alphas"], f"N={n} {fam} alphas {res['alphas']} vs {want['alphas']}")
            got = np.array(res["sweep"])
            expect(np.allclose(got, want["sweep"], rtol=1e-9, atol=1e-12), f"N={n} {fam} alpha sweep")
            for table, basis in zip(res["tables"], want["bases"]):
                expect(oracles.tables_match(np.array(table), basis), f"N={n} {fam} integer table")
            mse, ent = res["quantize"]
            expect(oracles.close(mse, want["quantize"][0], 1e-7) and oracles.close(ent, want["quantize"][1], 1e-6),
                   f"N={n} {fam} quantize ({mse}, {ent}) vs {want['quantize']}")

    def imports(self, traced: list) -> list:
        return self.worker_imports

    def spans(self, traced: list) -> list:
        self.proc.stdin.write("spans\n")
        self.proc.stdin.flush()
        return self._recv()["spans"]

    def close(self) -> None:
        if self.proc is None:
            return
        self.proc.stdin.close()  # end of input stops the worker
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()
        self.proc = None


WORKLOADS = {
    "cli-short": CliShort,
    "learn-large": LearnLarge,
    "sample-dump": SampleDump,
    "fit-batch": FitBatch,
}


def _median(values, default=0.0) -> float:
    return statistics.median(values) if values else default


def end_to_end(setups: list, results: list) -> dict:
    return {
        "setup_s": statistics.median(setups),
        "op_p50_s": statistics.median(r.wall for r in results),
        "op_cpu_p50_s": statistics.median(r.cpu for r in results),
        "ops_per_s": len(results) / sum(r.wall for r in results),
        "peak_rss_mb": max(r.maxrss_kb for r in results) / 1024.0,
    }


def per_layer(spans: list, imports: list, traced: list, plain: list) -> dict:
    """Per-layer figures from the spans of the traced operations.

    ``_s`` is the median time of one call, a count is per operation,
    a share is the layer's time over the traced operations' wall time,
    rates divide the total work of a layer by its total time, and
    ``_rss_mb`` is the largest rise of the process's peak RSS in a call.
    A layer that does not run in the workload reads 0.
    """
    calls: dict = {}
    for name, t0, t1, _id, _parent, work in spans:
        calls.setdefault(name, []).append((t1 - t0, work))
    ops = len(traced)
    op_wall = sum(r.wall for r in traced)

    def med(name):
        return _median([d for d, _ in calls.get(name, [])])

    def total(name, key=None):
        return sum(d if key is None else w.get(key, 0) for d, w in calls.get(name, []))

    def rate(name, key, scale):
        t = total(name)
        return total(name, key) / scale / t if t > 0 else 0.0

    def rss_mb(name):
        return max((w.get("rss_growth", 0) for _, w in calls.get(name, [])), default=0) / 2**20

    return {
        "import.numpy_s": _median([i["numpy"] for i in imports]),
        "import.scipy_s": _median([i["scipy"] for i in imports]),
        "import.gbst_s": _median([i["gbst"] for i in imports]),
        "import.cpu_s": _median([i["cpu"] for i in imports]),
        "cli.main_s": med("main"),
        "cli.write_s": med("_write"),
        "dataset.read_gbsr_s": med("read_gbsr"),
        "dataset.read_gbsr_gbps": rate("read_gbsr", "bytes", 1e9),
        "dataset.read_gbsr_rss_mb": rss_mb("read_gbsr"),
        "estimation.residual_covariances_s": med("residual_covariances"),
        "estimation.residual_covariances_gbps": rate("residual_covariances", "bytes", 1e9),
        "estimation.residual_covariances_rss_mb": rss_mb("residual_covariances"),
        "estimation.solve_ml_s": med("solve_ml"),
        "estimation.solve_ml_iterations": total("solve_ml", "iterations") / ops,
        "estimation.solve_ml_calls": len(calls.get("solve_ml", [])) / ops,
        "estimation.solve_ml_share": 100.0 * total("solve_ml") / op_wall,
        "spectral.derive_gbt_s": med("derive_gbt"),
        "spectral.derive_gbt_calls": len(calls.get("derive_gbt", [])) / ops,
        "coding.alpha_sweep_s": med("alpha_sweep"),
        "coding.evaluate_metrics_calls": len(calls.get("evaluate_metrics", [])) / ops,
        "coding.integerize_s": med("integerize"),
        "trig.oracle_check_s": med("oracle_check"),
        "coding.quantize_roundtrip_distortion_s": med("quantize_roundtrip_distortion"),
        "coding.quantize_roundtrip_distortion_share": 100.0 * total("quantize_roundtrip_distortion") / op_wall,
        "coding.quantize_blocks_per_s": rate("quantize_roundtrip_distortion", "blocks", 1.0),
        "coding.sample_gmrf_s": med("sample_gmrf"),
        "coding.sample_vectors_per_s": rate("sample_gmrf", "vectors", 1.0),
        "graph.matrix_text_s": med("matrix_text"),
        "graph.matrix_text_mb_per_s": rate("matrix_text", "bytes", 1e6),
        "trace.overhead_s": statistics.median(r.wall for r in traced) - statistics.median(r.wall for r in plain),
    }


def measure(workload: Workload, seconds: float, trace: bool) -> tuple[list, list]:
    """Closed loop over whole rounds; with tracing, rounds alternate plain and traced."""
    plain, traced = [], []
    rounds = 0
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or (trace and rounds % 2):
        is_traced = trace and rounds % 2 == 1
        for op in workload.ops():
            (traced if is_traced else plain).append(workload.run(op, is_traced))
        rounds += 1
    return plain, traced


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "gbst", "cli.py")):
        print(f"perfbench: no gbst sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    base = os.path.join(ROOT, ".perfbench_work")
    work = os.path.join(base, f"{args.workload}-{args.seed}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    workload = WORKLOADS[args.workload](args.seed, work)
    try:
        setups = []
        for _ in range(SETUPS):
            t0 = time.perf_counter()
            workload.setup()
            setups.append(time.perf_counter() - t0)
        plain, traced = measure(workload, args.seconds, bool(args.trace))
        if args.trace:
            spans = workload.spans(traced)
            metrics = per_layer(spans, workload.imports(traced), traced, plain)
            os.makedirs(os.path.join(base, "traces"), exist_ok=True)
            with open(os.path.join(base, "traces", f"{args.workload}-{args.seed}.json"), "w") as f:
                json.dump({"workload": args.workload, "seed": args.seed, "spans": spans}, f)
        else:
            metrics = end_to_end(setups, plain)
    finally:
        workload.close()
        shutil.rmtree(work, ignore_errors=True)

    results = plain + traced
    mismatches = [r.mismatch for r in results if r.mismatch]
    for line in mismatches[:20]:
        print(f"perfbench: MISMATCH {line}", file=sys.stderr)
    units = PER_LAYER if args.trace else END_TO_END
    print(json.dumps({
        "correct": not mismatches,
        "attempted": len(results),
        "failed": sum(r.failed for r in results),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
