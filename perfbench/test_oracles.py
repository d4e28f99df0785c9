"""Checks of the benchmark's own generator and oracles; they import nothing from gbst.

Run with:  python3 -m pytest perfbench
"""

import itertools
import json
import pathlib

import numpy as np
import pytest

import gen
import oracles
import run

SIZES = (4, 8, 16, 32, 64)


def _closed_form(kind, n):
    ns = np.arange(n)[:, None]
    ks = np.arange(n)[None, :]
    if kind == "DCT2":
        m = np.sqrt(2.0 / n) * np.cos(np.pi * ks * (2 * ns + 1) / (2 * n))
        m[:, 0] /= np.sqrt(2.0)
        return m
    if kind == "DCT4":
        return np.sqrt(2.0 / n) * np.cos(np.pi * (2 * ks + 1) * (2 * ns + 1) / (4 * n))
    if kind == "DST4":
        return np.sqrt(2.0 / n) * np.sin(np.pi * (2 * ks + 1) * (2 * ns + 1) / (4 * n))
    if kind == "DCT8":
        return 2.0 / np.sqrt(2 * n + 1) * np.cos(np.pi * (2 * ks + 1) * (2 * ns + 1) / (2 * (2 * n + 1)))
    return oracles.dst7(n)


def _canonical(m):
    first = np.argmax(np.abs(m) > oracles.SIGN_EPS, axis=0)
    return m * np.sign(m[first, np.arange(m.shape[1])])


@pytest.mark.parametrize(
    "alpha,family,kind",
    [(0.0, "L1", "DCT2"), (0.0, "L2", "DCT2"), (1.0, "L1", "DST7"),
     (1.0, "L2", "DCT8"), (2.0, "L1", "DST4"), (2.0, "L2", "DCT4")],
)
@pytest.mark.parametrize("n", SIZES)
def test_dense_gbt_matches_trig_closed_forms(alpha, family, kind, n):
    vals, basis = oracles.gbt(n, 1.0, alpha, family)
    assert np.all(np.diff(vals) > 0)
    assert np.abs(basis - _canonical(_closed_form(kind, n))).max() < 1e-9


@pytest.mark.parametrize("n", SIZES)
def test_dst7_table_is_rounded_closed_form(n):
    table, tie = oracles.int_table(oracles.dst7(n))
    _, basis = oracles.gbt(n, 1.0, 1.0, "L1")
    assert not tie.any()
    assert oracles.tables_match(table, basis)
    assert np.abs(table).max() <= 127


@pytest.mark.parametrize("n,family", itertools.product(SIZES, ("L1", "L2")))
@pytest.mark.parametrize("alpha", (0.5, 1.0, 2.0))
def test_ml_fit_recovers_the_model(n, family, alpha):
    """At S = inv(L) the closed form returns L's own (w, v)."""
    w = 1.7
    cov = np.linalg.inv(gen.laplacian(n, w, alpha * w, family))
    scale = 10**9
    moment = np.rint(cov * scale).astype(np.int64)
    stats = gen.Moments(moment, scale)
    w_fit, v_fit = oracles.ml_fit(stats, family)
    assert w_fit == pytest.approx(w, rel=1e-6)
    assert v_fit == pytest.approx(alpha * w, rel=1e-6)


def test_ml_fit_is_the_grid_minimum_of_the_objective():
    rng = np.random.default_rng(3)
    blocks = rng.integers(-40, 40, size=(200, 6, 6)).cumsum(axis=2).astype(np.int16)
    row, _ = gen.block_stats(blocks)
    s = row.moment / row.vectors
    w_fit, v_fit = oracles.ml_fit(row, "L1")

    def objective(w, v):
        lap = gen.laplacian(6, w, v, "L1")
        return np.trace(lap @ s) - np.linalg.slogdet(lap)[1]

    best = objective(w_fit, v_fit)
    for fw, fv in itertools.product(np.linspace(0.8, 1.2, 9), repeat=2):
        assert objective(fw * w_fit, fv * v_fit) >= best - 1e-12


def test_coding_gain_of_klt_beats_other_transforms():
    cov = np.linalg.inv(gen.laplacian(8, 1.0, 0.75, "L2"))
    rows = oracles.sweep(cov, "L2", [i * 0.25 for i in range(9)])
    assert rows[np.argmax(rows[:, 1]), 0] == 0.75
    assert oracles.coding_metrics(np.eye(4), np.eye(4))[0] == pytest.approx(0.0, abs=1e-12)
    # hand case: two coefficients with variances 4 and 1 -> 10 log10(2.5 / 2)
    assert oracles.coding_metrics(np.eye(2), np.diag([4.0, 1.0]))[0] == pytest.approx(10 * np.log10(1.25))


def test_batched_quantize_matches_a_per_block_loop():
    rng = np.random.default_rng(5)
    blocks = rng.integers(-300, 300, size=(50, 8, 8))
    _, ur = oracles.gbt(8, 1.0, 0.5, "L1")
    _, uc = oracles.gbt(8, 1.0, 1.25, "L2")
    step = np.pi
    sq, idx = 0.0, []
    for x in blocks:
        q = oracles.round_half_away(uc.T @ x @ ur / step)
        sq += ((x - uc @ (q * step) @ ur.T) ** 2).sum()
        idx.append(q.ravel())
    _, counts = np.unique(np.concatenate(idx), return_counts=True)
    p = counts / counts.sum()
    mse, ent = oracles.quantize_roundtrip(blocks, ur, uc, step)
    assert mse == pytest.approx(sq / blocks.size, rel=1e-12)
    assert ent == pytest.approx(-(p * np.log2(p)).sum(), rel=1e-12)


def test_round_half_away_and_grid_round():
    assert list(oracles.round_half_away(np.array([0.5, -0.5, 1.5, 2.5, -2.5, 0.49]))) == [1, -1, 2, 3, -3, 0]
    assert [oracles.grid_round(r) for r in (0.125, 0.124, -0.375, 0.8)] == [0.25, 0.0, -0.5, 0.75]


def test_gbsr_writer_and_exact_moments(tmp_path):
    src = gen.BlockSource(1, 4, gen.laplacian(4, 1, 1, "L1"), gen.laplacian(4, 1, 0.5, "L2"), 20.0)
    path = tmp_path / "x.gbsr"
    row, col = gen.write_gbsr(path, src, 1000, chunk=300)
    raw = path.read_bytes()
    magic, version, n, m = gen.GBSR_HEADER.unpack_from(raw)
    assert (magic, version, n, m) == (b"GBSR", 1, 4, 1000)
    x = np.frombuffer(raw, "<i2", offset=gen.GBSR_HEADER.size).reshape(m, n, n).astype(np.int64)
    rows = x.reshape(-1, n)
    cols = x.transpose(0, 2, 1).reshape(-1, n)
    for stats, vecs in ((row, rows), (col, cols)):
        assert np.array_equal(stats.moment, vecs.T @ vecs)
        assert stats.diff_sq == int((np.diff(vecs, axis=1) ** 2).sum())
        assert stats.boundary_sq("L1") == int((vecs[:, 0] ** 2).sum())
        assert stats.boundary_sq("L2") == int((vecs[:, -1] ** 2).sum())
        assert stats.vectors == 4000


def test_generator_is_seeded():
    lap = gen.laplacian(8, 1, 1, "L1")
    a = gen.BlockSource(7, 8, lap, lap, 30.0).draw(10)
    b = gen.BlockSource(7, 8, lap, lap, 30.0).draw(10)
    c = gen.BlockSource(8, 8, lap, lap, 30.0).draw(10)
    assert np.array_equal(a, b) and not np.array_equal(a, c)


def test_benchmark_json_names_the_reported_metrics():
    spec = json.loads((pathlib.Path(__file__).parent.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
