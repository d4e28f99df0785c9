import json
import os
import subprocess
import sys

import numpy as np
import pytest

import gbst.cli as cli
import gbst.coding as coding
import gbst.estimation as estimation
import gbst.graph as graph
import gbst.trig as trig
from gbst.coding import sample_gmrf_blocks
from gbst.dataset import make_dataset, write_gbsr
from gbst.graph import GraphFamily, GraphParams, build_ggl, matrix_text
from gbst.spectral import derive_gbt


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_verify_all_pass(capsys):
    code, out, _ = run(capsys, "verify")
    lines = [l for l in out.strip().split("\n") if l]
    assert code == 0
    assert len(lines) == 20
    assert all(l.startswith("PASS") for l in lines)


def test_verify_single_check(capsys):
    code, out, _ = run(capsys, "verify", "--n", "8", "--kind", "DST7")
    assert code == 0
    assert out.strip().split("\n") == [out.strip()]
    assert out.startswith("PASS DST7 N=8")


def test_verify_negative_control(capsys, monkeypatch):
    real = trig.trig_matrix

    def broken(kind, n):
        t = real(kind, n)
        basis = t.basis.copy()
        basis[0, 0] += 1e-3
        return type(t)(basis, t.eigenvalues.copy())

    monkeypatch.setattr(trig, "trig_matrix", broken)
    code, out, _ = run(capsys, "verify")
    assert code == 1
    assert "FAIL" in out


@pytest.mark.parametrize("n", ["0", "1", "65"])
def test_verify_bad_size_exits_3(capsys, n):
    code, out, err = run(capsys, "verify", "--n", n)
    assert code == 3
    assert out == ""
    assert err == f"error: size must be an integer in [2, 64], got {n}\n"


def test_basis_dump(tmp_path, capsys):
    out_file = tmp_path / "basis.txt"
    code, _, _ = run(capsys, "basis", "--family", "L1", "--w", "1", "--v", "1", "--n", "8",
                     "--out", str(out_file))
    assert code == 0
    lines = out_file.read_text().strip().split("\n")
    assert lines[0] == "GBT N=8 family=L1 w=1 v=1"
    basis = np.loadtxt(lines[1:])
    ref = trig.trig_matrix(trig.TrigTransformKind.DST7, 8).basis
    assert np.abs(basis - ref).max() < 1e-8


def test_basis_dct2_and_plot_data(tmp_path, capsys):
    out_file = tmp_path / "b.txt"
    plot_file = tmp_path / "b.plot"
    code, _, _ = run(capsys, "basis", "--w", "1", "--v", "0", "--n", "8",
                     "--out", str(out_file), "--plot-data", str(plot_file))
    assert code == 0
    basis = np.loadtxt(out_file.read_text().strip().split("\n")[1:])
    ref = trig.trig_matrix(trig.TrigTransformKind.DCT2, 8).basis
    assert np.abs(basis - ref).max() < 1e-8
    plot = plot_file.read_text().strip().split("\n")
    assert plot[0] == "# k=0"
    assert len(plot) == 8 * 9


@pytest.mark.parametrize("family", ["L1", "L2"])
@pytest.mark.parametrize("n", [2, 8, 64])
def test_basis_plot_data_bytes(tmp_path, capsys, n, family):
    plot_file = tmp_path / "b.plot"
    code, _, _ = run(capsys, "basis", "--family", family, "--w", "1", "--v", "0.5",
                     "--n", str(n), "--plot-data", str(plot_file))
    assert code == 0
    basis = derive_gbt(build_ggl(GraphParams(1, 0.5, GraphFamily(family)), n)).basis
    lines = []
    for k in range(n):
        lines.append(f"# k={k}")
        lines.extend(f"{i} {basis[i, k]:.17g}" for i in range(n))
    assert plot_file.read_text() == "\n".join(lines) + "\n"


def test_learn_json(tmp_path, capsys):
    lap = build_ggl(GraphParams(1, 1, GraphFamily.L1), 8)
    blocks = sample_gmrf_blocks(lap, lap, 10_000, seed=17)
    path = tmp_path / "data.gbsr"
    write_gbsr(path, make_dataset(np.rint(blocks * 64)))
    code, out, _ = run(capsys, "learn", "--data", str(path), "--family", "L1",
                       "--direction", "row", "--json")
    assert code == 0
    record = json.loads(out)
    assert record["alpha"] == 1.0
    assert record["converged"] is True


def test_learn_truncated_file(tmp_path, capsys):
    path = tmp_path / "bad.gbsr"
    path.write_bytes(b"GBSR\x01\x04\x00\x05\x00\x00\x00abc")
    code, _, err = run(capsys, "learn", "--data", str(path))
    assert code == 3
    assert "error" in err


def test_learn_zero_boundary_moment_exits_3(tmp_path, capsys):
    blocks = np.rint(np.random.default_rng(4).standard_normal((200, 8, 8)) * 30)
    blocks[:, :, 0] = 0.0
    path = tmp_path / "deg.gbsr"
    write_gbsr(path, make_dataset(blocks))
    code, out, err = run(capsys, "learn", "--data", str(path), "--family", "L1",
                         "--direction", "row", "--json")
    assert code == 3
    assert out == ""
    assert err.startswith("error: ")


def test_threads_flag_removed(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--threads", "2", "refine", "--w", "2", "--v", "1.6"])
    assert exc.value.code == 2


def test_sweep_seed_flag_removed(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["sweep", "--n", "8", "--alphas", "0:0.25:1", "--model-v", "1", "--seed", "5"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_refine(capsys):
    code, out, _ = run(capsys, "refine", "--w", "2", "--v", "1.6", "--json")
    assert code == 0
    assert json.loads(out)["alpha"] == 0.75


@pytest.mark.parametrize("v", ["1125899906842624.25", "1125899906842624.75"])
def test_refine_keeps_huge_on_grid_ratio(capsys, v):
    code, out, _ = run(capsys, "refine", "--w", "1", "--v", v)
    assert code == 0
    assert float(out.removeprefix("alpha: ")) == float(v)


@pytest.mark.parametrize("w,v", [("1", "-1"), ("1e-320", "1e300")])
def test_refine_rejects_negative_or_overflowing_ratio(capsys, w, v):
    code, out, err = run(capsys, "refine", "--w", w, "--v", v)
    assert code == 3
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_sweep_argmax(tmp_path, capsys):
    out_file = tmp_path / "sweep.csv"
    code, _, _ = run(capsys, "sweep", "--n", "16", "--alphas", "0:0.25:2",
                     "--model-v", "0.75", "--out", str(out_file))
    assert code == 0
    lines = out_file.read_text().strip().split("\n")
    assert lines[0] == "alpha,coding_gain_db,energy_compaction,entropy_bits"
    rows = [tuple(float(x) for x in l.split(",")) for l in lines[1:]]
    assert len(rows) == 9
    best = max(rows, key=lambda r: r[1])
    assert best[0] == 0.75


def test_sweep_bad_step(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["sweep", "--n", "8", "--alphas", "0:0.3:1", "--model-v", "1"])
    assert exc.value.code == 2
    capsys.readouterr()


@pytest.mark.parametrize("spec", ["nan:0.25:1", "0:0.25:inf", "0:inf:1"])
def test_sweep_non_finite_alphas_is_usage_error(capsys, spec):
    with pytest.raises(SystemExit) as exc:
        cli.main(["sweep", "--n", "8", "--alphas", spec, "--model-v", "1"])
    assert exc.value.code == 2
    assert "--alphas parts must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("spec", ["0:0.25:1e9", "0:0.25:1024", "-1e308:0.25:1e308"])
def test_sweep_alpha_range_bounded_before_it_is_built(capsys, monkeypatch, spec):
    # a range past the bound must be refused before a list of its points exists
    def no_list(*args):
        raise AssertionError("alpha list built")

    monkeypatch.setattr(cli, "range", no_list, raising=False)
    with pytest.raises(SystemExit) as exc:
        cli.main(["sweep", "--n", "8", f"--alphas={spec}", "--model-v", "1"])
    assert exc.value.code == 2
    assert "has more than 4096 points" in capsys.readouterr().err


def test_sweep_alpha_range_overflowing_negative_span_is_empty(capsys):
    # end - start overflows to -inf
    with pytest.raises(SystemExit) as exc:
        cli.main(["sweep", "--n", "8", "--alphas", "1e308:0.25:-1e308", "--model-v", "1"])
    assert exc.value.code == 2
    assert "is empty" in capsys.readouterr().err


def test_sweep_alpha_range_at_bound(capsys):
    code, out, _ = run(capsys, "sweep", "--n", "2", "--alphas", "0:0.25:1023.75", "--model-v", "1")
    assert code == 0
    assert len(out.splitlines()) == 1 + 4096


def test_gen_matrix(tmp_path, capsys):
    out_file = tmp_path / "table.txt"
    code, _, _ = run(capsys, "gen-matrix", "--kind", "DST7", "--n", "4", "--out", str(out_file))
    assert code == 0
    lines = out_file.read_text().strip().split("\n")
    assert lines[0] == "INTGBT N=4 shift=7"
    table = np.loadtxt(lines[1:])
    assert np.abs(table).max() <= 127


def test_gen_matrix_from_graph_params(capsys):
    code, out, _ = run(capsys, "gen-matrix", "--family", "L2", "--w", "1", "--v", "0.5", "--n", "8")
    assert code == 0
    assert out.startswith("INTGBT N=8 shift=7.5")


def test_sample_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    for path in (a, b):
        code, _, _ = run(capsys, "sample", "--w", "1", "--v", "1", "--n", "4",
                         "--count", "10", "--seed", "7", "--out", str(path))
        assert code == 0
    assert a.read_bytes() == b.read_bytes()
    assert np.loadtxt(a).shape == (10, 4)


def test_sample_at_huge_weights_succeeds():
    # w^2 overflows float64, yet the precision is positive definite and factors
    argv = ["sample", "--w", "1e300", "--v", "1e300", "--n", "8", "--count", "3"]
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    proc = subprocess.run([sys.executable, "-m", "gbst.cli", *argv], capture_output=True, text=True, env=env)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert np.isfinite(np.loadtxt(proc.stdout.splitlines())).all()


@pytest.mark.parametrize("n", [4, 64])
@pytest.mark.parametrize("count", [10**15, 2**62, 10**20])
def test_sample_huge_count_exits_3(capsys, n, count):
    # counts too large for memory, past numpy's size limit and past its dimension limit;
    # gmrf_chunks bounds count * N on its call, so each fails before any draw or output
    code, out, err = run(capsys, "sample", "--w", "1", "--v", "1", "--n", str(n), "--count", str(count))
    assert code == 3
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and err.count("error:") == 1


def test_sample_negative_seed_exits_3(capsys):
    code, out, err = run(capsys, "sample", "--w", "1", "--v", "1", "--n", "4",
                         "--count", "2", "--seed", "-1")
    assert code == 3
    assert out == ""
    assert err == "error: seed must be >= 0, got -1\n"


@pytest.mark.parametrize("n", [2, 3, 8, 64])
@pytest.mark.parametrize("rows", ["1", "block-1", "block", "block+1", "chunk+1"])
def test_sample_streams_the_bytes_of_matrix_text(tmp_path, capsys, n, rows):
    # counts on both sides of a text block, and past one draw chunk
    block = graph._TEXT_BLOCK // n
    count = {"1": 1, "block-1": block - 1, "block": block, "block+1": block + 1,
             "chunk+1": coding.SAMPLE_CHUNK_ROWS + 1}[rows]
    lap = build_ggl(GraphParams(1.3, 0.7, GraphFamily.L2), n)
    want = matrix_text(coding.sample_gmrf(lap, count, 5))
    argv = ["sample", "--family", "L2", "--w", "1.3", "--v", "0.7", "--n", str(n), "--count", str(count),
            "--seed", "5"]
    assert run(capsys, *argv) == (0, want, "")
    path = tmp_path / "x.txt"
    assert run(capsys, *argv, "--out", str(path)) == (0, "", "")
    assert path.read_text() == want


@pytest.mark.parametrize(
    "argv,out",
    [
        (["--v", "0", "--count", "5"], "x.txt"),
        (["--v", "1", "--count", "5", "--seed", "-1"], "x.txt"),
        (["--v", "1", "--count", str(coding.SAMPLE_MAX_VALUES // 4 + 1)], "x.txt"),
        (["--v", "1", "--count", "5"], "missing/x.txt"),
    ],
)
def test_sample_error_leaves_no_file(tmp_path, capsys, argv, out):
    code, stdout, err = run(capsys, "sample", "--w", "1", "--n", "4", *argv, "--out", str(tmp_path / out))
    assert (code, stdout) == (3, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and err.count("error:") == 1
    assert list(tmp_path.iterdir()) == []


def test_sample_precision_that_cholesky_rejects_exits_3(tmp_path, capsys):
    # w + v != w, so the float64 precision is not the singular w P, yet LAPACK's Cholesky fails on it
    argv = ["sample", "--w", "1", "--v", "1.2e-16", "--n", "2", "--count", "3"]
    assert run(capsys, *argv) == (3, "", "error: Matrix is not positive definite\n")
    assert run(capsys, *argv, "--out", str(tmp_path / "x.txt")) == (3, "", "error: Matrix is not positive definite\n")
    assert list(tmp_path.iterdir()) == []


def test_sample_bound_counts_values(capsys, monkeypatch):
    monkeypatch.setattr(coding, "SAMPLE_MAX_VALUES", 40)
    argv = ["sample", "--w", "1", "--v", "1", "--n", "4", "--count"]
    assert run(capsys, *argv, "10")[0] == 0
    assert run(capsys, *argv, "11") == (3, "", "error: count 11 at N=4 exceeds 40 values\n")


def test_sample_memory_does_not_grow_with_count(child_peaks):
    # the text streams a block at a time, so ten times the rows peak at the same height;
    # the whole (count, N) array and its text took about 80 MiB at 10^5 rows
    script = "import sys\nfrom gbst import cli\ncli.main(sys.argv[1:])\nprint(peak_mib())"
    argv = ["sample", "--w", "1", "--v", "1", "--n", "8", "--out", os.devnull, "--count"]
    (small,), (big,) = (child_peaks(script, *argv, count) for count in ("100000", "1000000"))
    assert big < small + 4


def test_sample_memory_does_not_grow_with_n(child_peaks):
    # a chunk of 2^15 rows is drawn in pieces of at most 2^18 values, so N = 64 peaks near N = 8;
    # whole chunks of 2^21 values peaked about 49 MiB higher
    script = "import sys\nfrom gbst import cli\ncli.main(sys.argv[1:])\nprint(peak_mib())"
    argv = ["sample", "--w", "1", "--v", "1", "--count", "100000", "--out", os.devnull, "--n"]
    (narrow,), (wide,) = (child_peaks(script, *argv, n) for n in ("8", "64"))
    assert wide < narrow + 8


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["basis", "--w", "1", "--n", "8"])  # missing --v
    assert exc.value.code == 2
    capsys.readouterr()


def test_unknown_flag_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--bogus"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_invalid_params_exit_code(capsys):
    code, _, err = run(capsys, "basis", "--w", "-1", "--v", "1", "--n", "8")
    assert code == 3
    assert "error" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["basis", "--w", "1", "--v", "inf", "--n", "4"],
        ["basis", "--w", "nan", "--v", "1", "--n", "4"],
        ["sample", "--w", "1", "--v", "nan", "--n", "4", "--count", "2"],
        ["sample", "--w=-inf", "--v", "1", "--n", "4", "--count", "2"],
        ["sample", "--w", "1e308", "--v", "1e308", "--n", "4", "--count", "2"],
        ["basis", "--w", "1e308", "--v", "0", "--n", "4"],
        ["gen-matrix", "--w", "1e308", "--v", "0", "--n", "64"],
        ["sweep", "--n", "8", "--model-v", "nan", "--alphas", "0:0.25:1"],
        ["refine", "--w", "nan", "--v", "1"],
        ["refine", "--w", "1", "--v", "inf"],
        ["refine", "--w", "1", "--v=-inf"],
    ],
)
def test_non_finite_weights_exit_3(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 3
    assert out == ""
    assert err.startswith("error: graph weights must") or err.startswith("error: fit must be finite")


def _write_blocks(path, n, count, seed=0):
    blocks = np.rint(np.random.default_rng(seed).standard_normal((count, n, n)) * 30)
    write_gbsr(path, make_dataset(blocks))


@pytest.fixture
def no_data_pass(monkeypatch):
    """Fail the test if the moment pass over the blocks starts."""

    def fail(*args, **kwargs):
        raise AssertionError("residual_covariances ran before the size check")

    monkeypatch.setattr(estimation, "residual_covariances", fail)


@pytest.mark.parametrize("command", [["learn"], ["sweep", "--alphas", "0:0.25:1"]])
def test_block_size_rejected_before_data_pass(tmp_path, capsys, no_data_pass, command):
    path = tmp_path / "big.gbsr"
    _write_blocks(path, 100, 3)
    code, out, err = run(capsys, *command, "--data", str(path))
    assert code == 3
    assert out == ""
    assert "size must be an integer in [2, 64], got 100" in err


def test_sweep_data_takes_n_from_file(tmp_path, capsys):
    path = tmp_path / "data.gbsr"
    _write_blocks(path, 8, 50)
    implicit, explicit = tmp_path / "implicit.csv", tmp_path / "explicit.csv"
    code, _, _ = run(capsys, "sweep", "--data", str(path), "--alphas", "0:0.25:2", "--out", str(implicit))
    assert code == 0
    code, _, _ = run(capsys, "sweep", "--data", str(path), "--n", "8", "--alphas", "0:0.25:2",
                     "--out", str(explicit))
    assert code == 0
    assert implicit.read_bytes() == explicit.read_bytes()
    assert len(implicit.read_text().strip().split("\n")) == 10


def test_sweep_data_mismatched_n_exits_3(tmp_path, capsys, no_data_pass):
    path = tmp_path / "data.gbsr"
    _write_blocks(path, 8, 50)
    code, out, err = run(capsys, "sweep", "--data", str(path), "--n", "16", "--alphas", "0:0.25:1")
    assert code == 3
    assert out == ""
    assert err == "error: transform N=16 vs covariance N=8\n"


def test_sweep_model_needs_n(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["sweep", "--alphas", "0:0.25:1", "--model-v", "1"])
    assert exc.value.code == 2
    assert "--n" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv,message",
    [
        (["sweep", "--n", "8", "--model-v", "1", "--alphas", "0:0.25:1e9"],
         "--alphas range '0:0.25:1e9' has more than 4096 points"),
        (["sweep", "--n", "8", "--model-v", "1", "--alphas", "x"],
         "--alphas must be start:step:end, got 'x'"),
        (["sweep", "--alphas", "0:0.25:1"], "sweep needs --data or --model-v"),
        (["sweep", "--alphas", "0:0.25:1", "--model-v", "1"], "sweep --model-v needs --n"),
        (["gen-matrix", "--n", "8"], "gen-matrix needs --kind or both --w and --v"),
        # step * 4 overflows to inf
        (["sweep", "--n", "8", "--model-v", "1", "--alphas", "0:1e308:1e308"],
         "--alphas step must be a positive multiple of 0.25, got 1e+308"),
    ],
)
def test_command_usage_errors_name_the_subcommand(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"usage: gbst {argv[0]} [-h] ")
    assert err.endswith(f"\ngbst {argv[0]}: error: {message}\n")


def test_import_loads_no_scipy():
    package = os.path.dirname(cli.__file__)
    code = "import sys, gbst, gbst.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    env = dict(os.environ, PYTHONPATH=os.path.dirname(package))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert proc.stdout == "[]\n"
    for name in os.listdir(package):
        if name.endswith(".py"):
            with open(os.path.join(package, name)) as f:
                assert "scipy" not in f.read(), name
