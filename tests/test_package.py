"""The package loads lazily, only the gbst command sets BLAS thread counts,
and a command's process ends with its output whole.

Every check runs in a fresh interpreter, since what a process has imported
and which variables it set are per-process state; the launchers' output is
compared with an in-process ``cli.main`` call.
"""

import json
import os
import subprocess
import sys
import tomllib

import numpy as np
import pytest

import gbst
import gbst.cli as cli
from gbst.dataset import make_dataset, write_gbsr

SRC = os.path.dirname(os.path.dirname(os.path.abspath(gbst.__file__)))
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
PUBLIC = [
    "CodingMetrics", "GraphFamily", "GraphParams", "IntTransformMatrix", "LineGraphLaplacian",
    "MLSolution", "RefinedParam", "ResidualDataset", "SampleCovariance", "TransformMatrix",
    "TrigTransformKind", "alpha_sweep", "apply_separable", "build_ggl", "coding", "dataset",
    "dense_form", "derive_gbt", "errors", "estimation", "evaluate_metrics", "gbt_dump", "graph",
    "integerize", "inverse_separable", "make_dataset", "ml_gradient", "ml_objective",
    "model_covariance", "oracle_check", "quantize_roundtrip_distortion", "read_gbsr", "refine",
    "residual_covariances", "sample_covariance", "sample_gmrf", "sample_gmrf_blocks", "solve_ml",
    "spectral", "trig", "trig_matrix", "write_gbsr",
]
REFINE = ["refine", "--w", "2", "--v", "1.6", "--n", "8", "--json"]


def python(*args, env=None, stdout=subprocess.PIPE):
    """Run the interpreter on ``args`` with src/ on the path and no thread variable preset.

    PYTHONUNBUFFERED is dropped as well, so the child's stdout is block-buffered
    as a user's is, and output still in its buffer at exit is tested too.
    """
    base = {k: v for k, v in os.environ.items() if k not in (*THREAD_VARS, "PYTHONUNBUFFERED")}
    base["PYTHONPATH"] = SRC
    return subprocess.run([sys.executable, *args], stdout=stdout, stderr=subprocess.PIPE,
                          env={**base, **(env or {})})


def python_json(code, env=None):
    proc = python("-c", code, env=env)
    assert proc.returncode == 0, proc.stderr.decode()
    return json.loads(proc.stdout)


def test_bare_import_loads_no_numpy():
    code = (
        "import json, sys, gbst; a = sorted(sys.modules);"
        "import gbst.graph; b = sorted(sys.modules); print(json.dumps([a, b]))"
    )
    bare, graph = python_json(code)
    assert "numpy" not in bare and not any(m.startswith("gbst.") for m in bare)
    assert "gbst.graph" in graph and "numpy" in graph
    assert "gbst.coding" not in graph and "gbst.estimation" not in graph


def test_short_command_loads_neither_numpy_random_nor_the_text_kernel():
    # numpy.random costs 10-14 ms of a fresh process and gbst._text 3-4 ms; coding's
    # np.random.Generator annotation stays unevaluated only under `from __future__ import annotations`
    code = (
        "import json, sys, gbst.cli; code = gbst.cli.main(['refine', '--w', '1', '--v', '2']);"
        "print(json.dumps([code, sorted(sys.modules)]))"
    )
    proc = python("-c", code)
    assert proc.returncode == 0, proc.stderr.decode()
    code, loaded = json.loads(proc.stdout.splitlines()[-1])
    assert code == 0 and "numpy" in loaded and "gbst.coding" in loaded
    assert "numpy.random" not in loaded and "gbst._text" not in loaded


def test_public_names_resolve():
    code = (
        "import json, gbst\n"
        "names = list(gbst.__all__)\n"
        "kinds = {n: type(getattr(gbst, n)).__name__ for n in names}\n"
        "try:\n"
        "    gbst.no_such_name\n"
        "    missing = None\n"
        "except AttributeError as exc:\n"
        "    missing = str(exc)\n"
        "ns = {}\n"
        "exec('from gbst import *', ns)\n"
        "print(json.dumps([names, kinds, missing, sorted(set(ns) - {'__builtins__'}),"
        " sorted(set(gbst.__all__) - set(dir(gbst))), gbst.__version__]))"
    )
    names, kinds, missing, star, not_in_dir, version = python_json(code)
    assert names == PUBLIC
    assert all(kinds[m] == "module" for m in ("coding", "dataset", "errors", "estimation", "graph", "spectral", "trig"))
    assert missing == "module 'gbst' has no attribute 'no_such_name'"
    assert star == PUBLIC and not_in_dir == [] and version == "0.1.0"


def test_attribute_is_the_submodules_current_binding():
    code = (
        "import json, gbst, gbst.spectral as s\n"
        "s.derive_gbt = 'wrapped'\n"
        "from gbst import derive_gbt\n"
        "print(json.dumps([derive_gbt, gbst.derive_gbt is s.derive_gbt, 'derive_gbt' in vars(gbst)]))"
    )
    assert python_json(code) == ["wrapped", True, False]


def test_command_defaults_to_one_blas_thread():
    # the command ends its process with os._exit; as sys.exit it returns here to print the variables
    code = (
        "import json, os, runpy, sys\n"
        "os._exit = sys.exit\n"
        f"sys.argv = ['gbst', *{REFINE!r}]\n"
        "try:\n"
        "    runpy.run_module('gbst.cli', run_name='__main__', alter_sys=True)\n"
        "except SystemExit as exc:\n"
        "    assert exc.code == 0, exc.code\n"
        f"print(json.dumps({{v: os.environ.get(v) for v in {THREAD_VARS!r}}}))"
    )
    for preset, want in (({}, "1"), ({"OPENBLAS_NUM_THREADS": "2"}, "2")):
        proc = python("-c", code, env=preset)
        assert proc.returncode == 0, proc.stderr.decode()
        # the first line is refine's own output
        assert json.loads(proc.stdout.splitlines()[-1]) == {
            "OPENBLAS_NUM_THREADS": want, "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
        }


def test_library_and_in_process_main_leave_the_environment_alone():
    code = (
        "import json, os\n"
        "before = dict(os.environ)\n"
        "import gbst, gbst.cli\n"
        f"rc = gbst.cli.main({REFINE!r})\n"
        "print(json.dumps([rc, dict(os.environ) == before]))"
    )
    proc = python("-c", code)
    assert proc.returncode == 0, proc.stderr.decode()
    assert json.loads(proc.stdout.splitlines()[-1]) == [0, True]


def in_process(argv, capsys):
    """(exit code, stdout, stderr) of ``cli.main(argv)`` in this process, as bytes."""
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse's usage errors
        code = exc.code
    out = capsys.readouterr()
    return code, out.out.encode(), out.err.encode()


def take(path):
    """The bytes of the file at ``path``, which is removed, or None if there is none."""
    if not os.path.exists(path):
        return None
    with open(path, "rb") as f:
        data = f.read()
    os.remove(path)
    return data


def test_console_script_and_python_m_gbst_are_the_cli(tmp_path, capsys, monkeypatch):
    with open(os.path.join(os.path.dirname(SRC), "pyproject.toml"), "rb") as f:
        script = tomllib.load(f)["project"]["scripts"]["gbst"]
    # what the installed wrapper does: load the entry point and exit with its result
    wrapper = (
        "import sys; from importlib.metadata import EntryPoint;"
        f"sys.exit(EntryPoint('gbst', {script!r}, 'console_scripts').load()())"
    )
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage lines at the width; children inherit it
    data, out = str(tmp_path / "data.gbsr"), str(tmp_path / "out.txt")
    write_gbsr(data, make_dataset(np.rint(np.random.default_rng(3).standard_normal((64, 8, 8)) * 30)))
    # 40000 rows cross a draw chunk; the bytes must all be out before the process ends
    sample = ["sample", "--w", "1", "--v", "1.2", "--n", "8", "--count", "40000", "--seed", "5"]
    calls = (
        (REFINE, 0), (["refine", "--w", "2"], 2), (["verify", "--n", "1"], 3),
        (sample, 0), ([*sample, "--out", out], 0), (["learn", "--data", data, "--json"], 0),
    )
    for argv, rc in calls:
        want = (*in_process(argv, capsys), take(out))
        assert want[0] == rc
        for launcher in (("-m", "gbst.cli"), ("-m", "gbst"), ("-c", wrapper)):
            proc = python(*launcher, *argv)
            assert (proc.returncode, proc.stdout, proc.stderr, take(out)) == want, (launcher, argv)


@pytest.mark.parametrize("argv", [["verify"], REFINE], ids=["verify", "refine"])
def test_closed_stdout_is_a_data_error(argv):
    """A reader gone before the command writes: exit 3 and one error line, as a streamed sample does."""
    read, write = os.pipe()
    os.close(read)
    try:
        proc = python("-m", "gbst.cli", *argv, stdout=write)
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (3, b"error: [Errno 32] Broken pipe\n")
