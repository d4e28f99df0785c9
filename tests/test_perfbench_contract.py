"""The benchmark's fit-batch worker and its traced CLI commands still run against this package.

perfbench/ is read, never edited, here: its worker imports eleven names
from gbst and its tracer wraps public functions by name, reads
``MLSolution.iterations`` and takes len() of ``cli._write``'s text as the
bytes written, so removing or renaming any of them breaks the benchmark.
``shim.timed_imports`` is not called because it imports scipy.
"""

import os
import sys

import numpy as np
import pytest

import gbst.cli  # the tracer wraps functions in every loaded gbst module
from gbst.dataset import make_dataset, write_gbsr

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
SIZES = (4, 8)
# the keys that perfbench/run.py reads from every fit-batch result
RESULT_KEYS = {"n", "family", "fits", "alphas", "sweep", "tables", "quantize"}


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    import shim
    import worker

    return worker, shim


def test_fit_pass_plain_and_traced(perfbench):
    worker, shim = perfbench
    rng = np.random.default_rng(5)
    stacks = {n: rng.integers(-30, 31, size=(256 // n, n, n)).astype(np.float64) for n in SIZES}
    qblocks = {n: stacks[n][:4] for n in SIZES}
    plain = worker.fit_pass(stacks, qblocks, 4.0)
    tracer = shim.Tracer()
    tracer.install()
    try:
        traced = worker.fit_pass(stacks, qblocks, 4.0)
    finally:
        tracer.uninstall()
    for results in (plain, traced):
        assert len(results) == 2 * len(SIZES)
        assert all(set(res) == RESULT_KEYS for res in results)
    assert traced == plain
    names = {span[0] for span in tracer.spans}
    assert {"residual_covariances", "solve_ml", "alpha_sweep", "evaluate_metrics", "derive_gbt", "integerize",
            "quantize_roundtrip_distortion"} <= names
    assert all(span[5] == {"iterations": 0} for span in tracer.spans if span[0] == "solve_ml")


# per command, the spans whose figures perfbench/run.py reports for it
CLI_SPANS = {
    "sample": {"_write"},
    "basis": {"derive_gbt", "matrix_text", "_write"},
    "learn": {"read_gbsr", "residual_covariances", "solve_ml"},
}


def gbst_bindings() -> dict:
    return {(name, attr): value for name, mod in list(sys.modules.items())
            if name == "gbst" or name.startswith("gbst.") for attr, value in vars(mod).items()}


def test_cli_commands_traced_in_process(perfbench, tmp_path, capsys):
    _, shim = perfbench
    data = tmp_path / "small.gbsr"
    write_gbsr(data, make_dataset(np.random.default_rng(3).integers(-30, 31, size=(64, 8, 8))))
    graph = ["--family", "L2", "--w", "1", "--v", "0.5", "--n", "8"]
    commands = {  # 5000 samples at N = 8 span three text blocks
        "sample": (["sample", *graph, "--count", "5000", "--out", str(tmp_path / "x.txt")], "x.txt"),
        "basis": (["basis", *graph, "--out", str(tmp_path / "basis.txt")], "basis.txt"),
        "learn": (["learn", "--data", str(data), "--json"], None),
    }
    before = gbst_bindings()
    for command, (argv, out) in commands.items():
        tracer = shim.Tracer()
        tracer.install()
        try:
            assert gbst.cli.main(argv) == 0
        finally:
            tracer.uninstall()
        assert CLI_SPANS[command] <= {span[0] for span in tracer.spans}
        writes = [span[5] for span in tracer.spans if span[0] == "_write"]
        assert writes == ([{"bytes": os.path.getsize(tmp_path / out)}] if out else [])
        after = gbst_bindings()
        assert [key for key, value in before.items() if after[key] is not value] == []
    assert capsys.readouterr().out.startswith('{"direction": "row"')
