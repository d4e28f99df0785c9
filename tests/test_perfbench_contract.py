"""The benchmark's fit-batch worker still runs against this package, plain and traced.

perfbench/ is read, never edited, here: its worker imports eleven names
from gbst and its tracer wraps public functions by name and reads
``MLSolution.iterations``, so removing or renaming any of them breaks the
benchmark.  ``shim.timed_imports`` is not called because it imports scipy.
"""

import os

import numpy as np
import pytest

import gbst.cli  # noqa: F401  (the tracer wraps functions in every loaded gbst module)

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
