import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gbst import coding
from gbst.coding import (
    _box_muller,
    alpha_sweep,
    IntTransformMatrix,
    evaluate_metrics,
    int_matrix_text,
    integerize,
    model_covariance,
    quantize_roundtrip_distortion,
    round_half_away,
    sample_covariance,
    sample_gmrf,
    sample_gmrf_blocks,
    sweep_csv,
)
from gbst.dataset import CHUNK_VALUES, make_dataset, read_gbsr, write_gbsr
from gbst.errors import (
    DimensionMismatchError,
    IntegerOverflowError,
    InvalidParameterError,
    NonPositiveDefiniteError,
)
from gbst.estimation import SampleCovariance
from gbst.graph import GraphFamily, GraphParams, build_ggl, dense_form
from gbst.spectral import TransformMatrix, apply_separable, derive_gbt, inverse_separable
from gbst.trig import TrigTransformKind, trig_matrix

L1, L2 = GraphFamily.L1, GraphFamily.L2
K = TrigTransformKind


def identity_transform(n):
    return TransformMatrix(np.eye(n), np.zeros(n))


def test_round_half_away():
    assert np.array_equal(round_half_away(np.array([0.5, 1.5, -0.5, -1.5, 0.49])), [1, 2, -1, -2, 0])
    # floor(|x| + 0.5) rounds both of these up: |x| + 0.5 is not exact
    x = np.array([0.49999999999999994, 2.0**52 + 1])
    assert round_half_away(x).tolist() == [0, 2**52 + 1]
    assert round_half_away(-x).tolist() == [0, -(2**52 + 1)]
    # the sign of zero survives, and infinities and nan pass through without a warning
    assert np.signbit(round_half_away(np.array([-0.3, -0.0, -0.5]))).tolist() == [True, True, True]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = round_half_away(np.array([np.inf, -np.inf, np.nan, 2.5]))
    assert np.array_equal(got, [np.inf, -np.inf, np.nan, 3.0], equal_nan=True)


def exact_half_away(v: float) -> float:
    """floor(|v| + 1/2) in rational arithmetic, with the sign of v; inf and nan pass through."""
    if not math.isfinite(v):
        return v
    return math.copysign(float(math.floor(abs(Fraction(v)) + Fraction(1, 2))), v)


_EDGES = [0.0, 0.3, 0.5, 1.5, 0.49999999999999994, 2.0**52 - 1, 2.0**52, 2.0**52 + 1, 2.0**53, math.inf]
rounding_inputs = st.lists(
    st.one_of(
        st.floats(allow_nan=False, allow_infinity=False),
        st.integers(-(2**52) + 1, 2**52 - 2).map(lambda k: k + 0.5),  # every k + 1/2 is a tie
        st.sampled_from(_EDGES + [-v for v in _EDGES] + [math.nan]),
    ),
    min_size=1,
    max_size=40,
)


@settings(max_examples=300, deadline=None)
@given(rounding_inputs)
def test_round_half_away_matches_exact_rounding(values):
    got = round_half_away(np.array(values))
    want = np.array([exact_half_away(v) for v in values])
    assert np.array_equal(got, want, equal_nan=True)
    # -0.3 rounds to -0.0, not 0.0
    finite = np.isfinite(want)
    assert np.array_equal(np.signbit(got[finite]), np.signbit(want[finite]))


def test_sample_gmrf_deterministic():
    lap = build_ggl(GraphParams(1, 1, L1), 4)
    a = sample_gmrf(lap, 100, seed=7)
    b = sample_gmrf(lap, 100, seed=7)
    assert a.tobytes() == b.tobytes()
    c = sample_gmrf(lap, 100, seed=8)
    assert a.tobytes() != c.tobytes()


def test_sample_gmrf_single():
    lap = build_ggl(GraphParams(1, 1, L1), 4)
    x = sample_gmrf(lap, 1, seed=1)
    assert x.shape == (1, 4)
    assert np.all(np.isfinite(x))
    with pytest.raises(InvalidParameterError):
        sample_gmrf(lap, 0, seed=1)


def test_sample_gmrf_covariance_mc():
    lap = build_ggl(GraphParams(1, 1, L1), 4)
    x = sample_gmrf(lap, 1_000_000, seed=99)
    s = x.T @ x / len(x)
    linv = model_covariance(lap).matrix
    se = np.sqrt((linv**2 + np.outer(np.diag(linv), np.diag(linv))) / len(x))
    assert np.all(np.abs(s - linv) < 3 * se)


def test_streaming_covariance_matches_batch():
    lap = build_ggl(GraphParams(1, 0.5, L2), 8)
    x = sample_gmrf(lap, 10_000, seed=5)
    s = sample_covariance(lap, 10_000, seed=5)
    assert np.allclose(s.matrix, x.T @ x / len(x), atol=1e-12)


_PD = build_ggl(GraphParams(1, 1, L1), 4)
# each sampler as draw(precision, count, seed); sample_gmrf_blocks once per precision slot
SAMPLERS = {
    "gmrf": lambda lap, count, seed=0: sample_gmrf(lap, count, seed),
    "covariance": lambda lap, count, seed=0: sample_covariance(lap, count, seed),
    "blocks-row": lambda lap, count, seed=0: sample_gmrf_blocks(lap, _PD, count, seed),
    "blocks-col": lambda lap, count, seed=0: sample_gmrf_blocks(_PD, lap, count, seed),
}


def test_non_pd_precision_rejected():
    singular = build_ggl(GraphParams(1, 0, L1), 4)
    # positive definite in exact arithmetic, but w + v == w: the float64 matrix is
    # singular, and at w = 0.7 LAPACK's Cholesky would factor it by roundoff
    numerically_singular = [build_ggl(GraphParams(w, v, L1), 4) for w, v in [(1, 1e-17), (0.7, 1e-18)]]
    message = r"^precision needs w > 0 and v > 0, got w=1.0, v=0.0$"
    for draw in [*SAMPLERS.values(), lambda lap, count: model_covariance(lap)]:
        with pytest.raises(NonPositiveDefiniteError, match=message):
            draw(singular, 5)
        for lap in numerically_singular:
            with pytest.raises(NonPositiveDefiniteError, match="singular in float64"):
                draw(lap, 5)


@pytest.mark.parametrize("name", SAMPLERS)
@pytest.mark.parametrize("count", [0, -1])
def test_samplers_reject_count_below_one(name, count):
    with pytest.raises(InvalidParameterError):
        SAMPLERS[name](_PD, count)


@pytest.mark.parametrize("name", SAMPLERS)
def test_samplers_reject_negative_seed(name):
    with pytest.raises(InvalidParameterError, match="seed must be >= 0, got -1"):
        SAMPLERS[name](_PD, 5, seed=-1)


@pytest.mark.parametrize("name", [*SAMPLERS, "chunks"])
def test_samplers_bound_count_times_n_on_the_call(monkeypatch, name):
    # 11 rows of 4 values pass a bound of 40; the check runs before any Box-Muller draw
    monkeypatch.setattr(coding, "SAMPLE_MAX_VALUES", 40)
    monkeypatch.setattr(coding, "_box_muller", None)
    draw = SAMPLERS.get(name, lambda lap, count, seed=0: coding.gmrf_chunks(lap, count, seed))
    with pytest.raises(InvalidParameterError, match=r"^count \d+ at N=4 exceeds 40 values$"):
        draw(_PD, 11)


def _philox_draws(seed, sizes):
    """The standard normal stream the samplers consume, drawn in the same pieces."""
    gen = np.random.Generator(np.random.Philox(seed))
    return [_box_muller(gen, size) for size in sizes]


def _box_muller_expression(gen, count):
    """Box-Muller as one plain expression per output; ``_box_muller`` must give its bits."""
    pairs = (count + 1) // 2
    u1 = 1.0 - gen.random(pairs)
    u2 = gen.random(pairs)
    r = np.sqrt(-2.0 * np.log(u1))
    z = np.empty(2 * pairs)
    z[0::2] = r * np.cos(2.0 * np.pi * u2)
    z[1::2] = r * np.sin(2.0 * np.pi * u2)
    return z[:count]


@pytest.mark.parametrize("count", [1, 2, 3, 2**18, 2**18 + 1])
def test_box_muller_gives_the_plain_expressions_bits(count):
    # the Philox pin tests below draw through _box_muller itself, so only this one sees its arithmetic
    got, want = (f(np.random.Generator(np.random.Philox(31)), count)
                 for f in (_box_muller, _box_muller_expression))
    assert got.shape == (count,)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("n, count, chunk", [(8, 1000, 300), (5, 100, 7)])
def test_sample_gmrf_pins_philox_stream(monkeypatch, n, count, chunk):
    # x = g C^{-1} with L = C C^T, so x C gives back the Box-Muller draws g
    monkeypatch.setattr(coding, "SAMPLE_CHUNK_ROWS", chunk)
    lap = build_ggl(GraphParams(1.3, 0.7, L2), n)
    x = sample_gmrf(lap, count, seed=11)
    sizes = [min(chunk, count - start) * n for start in range(0, count, chunk)]
    g = np.concatenate(_philox_draws(11, sizes)).reshape(count, n)
    assert np.abs(x @ np.linalg.cholesky(dense_form(lap)) - g).max() <= 1e-12


def test_sample_gmrf_blocks_pins_philox_stream(monkeypatch):
    # the count * n rows are drawn as sample_gmrf draws them: in one chunk at the
    # default chunk length, and in chunks of 7 rows, the last one partial
    n, count = 6, 500
    row = build_ggl(GraphParams(1.0, 0.4, L1), n)
    col = build_ggl(GraphParams(2.0, 3.0, L2), n)
    c_row, c_col = (np.linalg.cholesky(dense_form(lap)) for lap in (row, col))
    rows = count * n
    for chunk in (coding.SAMPLE_CHUNK_ROWS, 7):
        monkeypatch.setattr(coding, "SAMPLE_CHUNK_ROWS", chunk)
        x = sample_gmrf_blocks(row, col, count, seed=23)
        sizes = [min(chunk, rows - start) * n for start in range(0, rows, chunk)]
        z = np.concatenate(_philox_draws(23, sizes)).reshape(count, n, n)
        assert np.abs(c_col.T @ x @ c_row - z).max() <= 1e-12


@pytest.mark.parametrize("n, count, chunk", [(64, 9001, 5000), (33, 8001, 8001), (9, 40001, 1 << 15)])
def test_sample_gmrf_pieces_keep_the_bits_of_whole_chunks(monkeypatch, n, count, chunk):
    # above N = 8 a chunk is drawn in pieces of at most 2^18 values (4096 rows at N = 64,
    # 7942 at 33, 29126 at 9), the last value of an odd total dropped; the rows keep the
    # bits of one Box-Muller call and one product per chunk
    monkeypatch.setattr(coding, "SAMPLE_CHUNK_ROWS", chunk)
    lap = build_ggl(GraphParams(1.3, 0.7, L2), n)
    cinv = np.linalg.inv(np.linalg.cholesky(dense_form(lap)))
    sizes = [min(chunk, count - start) * n for start in range(0, count, chunk)]
    want = np.concatenate([g.reshape(-1, n) @ cinv for g in _philox_draws(5, sizes)])
    assert np.array_equal(sample_gmrf(lap, count, 5).view(np.uint64), want.view(np.uint64))
    assert max(x.size for x in coding.gmrf_chunks(lap, count, 5)) <= 2**18


@pytest.mark.parametrize("n", [4, 64])
def test_sample_gmrf_blocks_huge_count_is_typed(n):
    # count * n rows of n values pass the bound of gmrf_chunks, before any draw
    lap = build_ggl(GraphParams(1, 1, L1), n)
    message = f"^count {2**62 * n} at N={n} exceeds {coding.SAMPLE_MAX_VALUES} values$"
    with pytest.raises(InvalidParameterError, match=message):
        sample_gmrf_blocks(lap, lap, 2**62, seed=0)


def test_sample_gmrf_blocks_rejects_graphs_of_different_n():
    row, col = (build_ggl(GraphParams(1, 1, L1), n) for n in (4, 8))
    with pytest.raises(DimensionMismatchError, match="^row and column graphs must share N$"):
        sample_gmrf_blocks(row, col, 3, seed=0)


_BLOCKS_RSS_CHILD = """
from gbst import GraphParams, build_ggl, sample_gmrf_blocks

lap = build_ggl(GraphParams(1.0, 1.0, "L1"), 8)
before = peak_mib()
x = sample_gmrf_blocks(lap, lap, 50_000, seed=3)
print(x.nbytes / (1 << 20), peak_mib() - before)
"""


def test_sample_gmrf_blocks_keeps_memory_bounded(child_peaks):
    # the rows are drawn a chunk at a time and each chunk of blocks is multiplied
    # in place, so the peak grows by the 24 MiB output and a few MiB more: 1.66x
    # measured on x86_64, 2.3x when the product was a second whole-stack array
    out_mib, rise_mib = child_peaks(_BLOCKS_RSS_CHILD)
    assert rise_mib < 1.9 * out_mib


def test_coding_gain_isotropic_is_zero():
    s = SampleCovariance(np.eye(8))
    for t in (identity_transform(8), trig_matrix(K.DCT2, 8)):
        assert evaluate_metrics(t, s).coding_gain_db == pytest.approx(0.0, abs=1e-12)


def test_coding_gain_hand_case():
    s = SampleCovariance(np.diag([4.0, 1.0]))
    g = evaluate_metrics(identity_transform(2), s).coding_gain_db
    assert g == pytest.approx(10 * np.log10(2.5 / 2.0), abs=1e-12)


def test_coding_gain_matched_transform_is_klt():
    lap = build_ggl(GraphParams(1, 1, L1), 8)
    s = model_covariance(lap)
    dst7 = trig_matrix(K.DST7, 8)
    dct2 = trig_matrix(K.DCT2, 8)
    g_dst7 = evaluate_metrics(dst7, s).coding_gain_db
    g_dct2 = evaluate_metrics(dct2, s).coding_gain_db
    assert g_dst7 >= g_dct2
    # KLT gain from the exact eigendecomposition of S
    eigvals = np.linalg.eigvalsh(s.matrix)
    klt = 10 * np.log10((np.trace(s.matrix) / 8) / np.exp(np.mean(np.log(eigvals))))
    assert g_dst7 == pytest.approx(klt, abs=1e-9)
    # matched transform diagonalizes S exactly
    off = s.matrix - dst7.basis @ np.diag(np.diag(dst7.basis.T @ s.matrix @ dst7.basis)) @ dst7.basis.T
    assert np.abs(dst7.basis.T @ s.matrix @ dst7.basis - np.diag(np.diag(dst7.basis.T @ s.matrix @ dst7.basis))).max() <= 1e-9 * np.trace(s.matrix)
    assert np.abs(off).max() < 1e-9


def test_coding_gain_rejects_non_pd():
    with pytest.raises(NonPositiveDefiniteError):
        evaluate_metrics(identity_transform(2), SampleCovariance(np.diag([1.0, 0.0])))


def test_evaluate_metrics_ranges():
    lap = build_ggl(GraphParams(1, 0.75, L1), 16)
    m = evaluate_metrics(derive_gbt(lap), model_covariance(lap))
    assert 0 <= m.energy_compaction <= 1
    assert np.isfinite(m.entropy_proxy_bits)
    assert np.isfinite(m.coding_gain_db)


def test_alpha_sweep_peak_at_generating_alpha():
    lap = build_ggl(GraphParams(1, 0.75, L1), 16)
    alphas = [i * 0.25 for i in range(9)]
    rows = alpha_sweep(model_covariance(lap), 16, L1, alphas)
    gains = [m.coding_gain_db for _, m in rows]
    assert rows[int(np.argmax(gains))][0] == 0.75
    # unimodal on the grid
    peak = int(np.argmax(gains))
    assert all(gains[i] < gains[i + 1] for i in range(peak))
    assert all(gains[i] > gains[i + 1] for i in range(peak, len(gains) - 1))


def test_alpha_sweep_alpha_zero_is_dct2():
    lap = build_ggl(GraphParams(1, 0.75, L1), 8)
    rows = alpha_sweep(model_covariance(lap), 8, L1, [0.0])
    dct2_gain = evaluate_metrics(trig_matrix(K.DCT2, 8), model_covariance(lap)).coding_gain_db
    assert rows[0][1].coding_gain_db == pytest.approx(dct2_gain, abs=1e-12)


def test_alpha_sweep_empty():
    lap = build_ggl(GraphParams(1, 1, L1), 8)
    with pytest.raises(InvalidParameterError):
        alpha_sweep(model_covariance(lap), 8, L1, [])


def test_sweep_csv_format():
    lap = build_ggl(GraphParams(1, 1, L1), 4)
    rows = alpha_sweep(model_covariance(lap), 4, L1, [0.0, 1.0])
    lines = sweep_csv(rows).strip().split("\n")
    assert lines[0] == "alpha,coding_gain_db,energy_compaction,entropy_bits"
    assert len(lines) == 3
    assert lines[1].startswith("0,")


def test_integerize_dct2():
    m = integerize(trig_matrix(K.DCT2, 4))
    assert np.array_equal(m.entries[0], [64, 64, 64, 64])
    assert m.scale_shift == 7.0


def test_integerize_overflow_guard():
    # 64 * sqrt(4) = 128 on the identity's diagonal
    with pytest.raises(IntegerOverflowError, match="^entry magnitude 128 exceeds 127$"):
        integerize(identity_transform(4))


@pytest.mark.parametrize("n", [4, 8, 16, 32])
@pytest.mark.parametrize("kind", list(K))
def test_integerize_within_budget(kind, n):
    m = integerize(trig_matrix(kind, n))
    assert np.abs(m.entries).max() <= 127


def test_integerize_near_orthogonality():
    for n in (4, 8, 16, 32):
        m = integerize(trig_matrix(K.DST7, n))
        scale_sq = (64 * np.sqrt(n)) ** 2
        gram = m.entries @ m.entries.T  # rows are basis vectors
        assert np.abs(gram - scale_sq * np.eye(n)).max() <= n * 64 * np.sqrt(n)


def test_int_matrix_text():
    m = integerize(trig_matrix(K.DCT2, 4))
    lines = int_matrix_text(m).strip().split("\n")
    assert lines[0] == "INTGBT N=4 shift=7"
    assert lines[1] == "64 64 64 64"


@pytest.mark.parametrize("family", [L1, L2])
@pytest.mark.parametrize("n", [2, 8, 64])
def test_int_matrix_text_bytes(n, family):
    m = integerize(derive_gbt(build_ggl(GraphParams(1, 0.5, family), n)))
    body = "\n".join(" ".join(str(int(x)) for x in row) for row in m.entries)
    assert int_matrix_text(m) == f"INTGBT N={n} shift={m.scale_shift:g}\n" + body + "\n"


def test_int_matrix_text_extremes():
    m = IntTransformMatrix(np.array([[-127, 127], [0, -1]]))
    assert int_matrix_text(m) == "INTGBT N=2 shift=6.5\n-127 127\n0 -1\n"


def test_quantize_small_step_noise_bound():
    # coefficients with stratified fractional parts: the realized error is
    # an equispaced sample of U(-step/2, step/2), so mse < step^2/12 holds
    # deterministically and probes the step -> 0 behavior
    from gbst.spectral import inverse_separable

    t = trig_matrix(K.DCT2, 8)
    step = 1e-6
    m = 20 * 64
    frac = (np.arange(m) + 0.5) / m - 0.5
    coeffs = ((np.arange(m) % 7) - 3 + frac) * step * 1e3  # unit-ish scale after spreading
    blocks = np.stack(
        [inverse_separable(c.reshape(8, 8), t, t) for c in coeffs.reshape(20, 64) * 1]
    )
    eff_step = step * 1e3
    mse, _ = quantize_roundtrip_distortion(blocks, t, t, eff_step)
    assert mse <= eff_step**2 / 12 * (1 + 1e-3)


def per_block_results(blocks, row_t, col_t, step):
    """(squared reconstruction error, indices) of each block, one block at a time."""
    blocks = np.asarray(blocks, dtype=float)
    if blocks.ndim == 2:
        blocks = blocks[None]
    results = []
    for x in blocks:
        q = round_half_away(apply_separable(x, row_t, col_t) / step)
        sq_err = float(((x - inverse_separable(q * step, row_t, col_t)) ** 2).sum())
        results.append((sq_err, q.astype(np.int64).ravel()))
    return results


def mse_and_entropy(results):
    """The MSE and index entropy of the blocks behind ``results``, errors summed in block order."""
    sq_err, indices = 0.0, []
    for e, q in results:
        sq_err += e
        indices.append(q)
    _, counts = np.unique(np.concatenate(indices), return_counts=True)
    p = counts / counts.sum()
    return sq_err / sum(len(q) for q in indices), float(-(p * np.log2(p)).sum())


def per_block_quantize(blocks, row_t, col_t, step):
    """The per-block reference loop the batched quantizer must match."""
    return mse_and_entropy(per_block_results(blocks, row_t, col_t, step))


@pytest.mark.parametrize("n", [2, 8, 64])
@pytest.mark.parametrize("step", [np.pi, 4.0])
@pytest.mark.parametrize("stack", [(), (37,)])
def test_quantize_matches_per_block_loop(n, step, stack):
    # MSE sums in another order than the loop (roundoff only); the indices are equal
    row_t = derive_gbt(build_ggl(GraphParams(1, 0.9, L1), n))
    col_t = derive_gbt(build_ggl(GraphParams(1, 1.4, L2), n))
    blocks = 30 * np.random.default_rng(n).standard_normal(stack + (n, n))
    mse, entropy = quantize_roundtrip_distortion(blocks, row_t, col_t, step)
    want_mse, want_entropy = per_block_quantize(blocks, row_t, col_t, step)
    assert abs(mse - want_mse) <= 1e-12 * want_mse
    assert entropy == want_entropy


@pytest.mark.parametrize("n", [2, 8, 64])
def test_quantize_matches_per_block_loop_across_chunks(n):
    # the quantizer walks chunks of k blocks: stacks just inside, at and past one
    # chunk, and past two, against the loop over the same blocks
    k = CHUNK_VALUES // n**2
    row_t = derive_gbt(build_ggl(GraphParams(1, 0.6, L2), n))
    col_t = derive_gbt(build_ggl(GraphParams(1, 1.1, L1), n))
    blocks = 30 * np.random.default_rng(n).standard_normal((2 * k + 1, n, n))
    results = per_block_results(blocks, row_t, col_t, np.pi)
    for m in (k - 1, k, k + 1, 2 * k + 1):
        mse, entropy = quantize_roundtrip_distortion(blocks[:m], row_t, col_t, np.pi)
        want_mse, want_entropy = mse_and_entropy(results[:m])
        assert abs(mse - want_mse) <= 1e-12 * want_mse
        assert entropy == want_entropy


@pytest.mark.parametrize("n", [2, 8, 64])
def test_quantize_merges_disjoint_interleaved_tables(n):
    # chunk k holds samples of magnitude [1, 10) 10^k and sign (-1)^k, so each chunk's index
    # table is disjoint from the merged one and lands on alternate ends of it
    k = CHUNK_VALUES // n**2
    rng = np.random.default_rng(n)
    scale = np.repeat((-10.0) ** np.arange(4), k)[:, None, None]
    blocks = scale * rng.uniform(1, 10, (4 * k, n, n))
    t = TransformMatrix(np.eye(n), np.arange(n, dtype=float))
    mse, entropy = quantize_roundtrip_distortion(blocks, t, t, np.pi)
    want_mse, want_entropy = per_block_quantize(blocks, t, t, np.pi)
    assert entropy == want_entropy
    assert abs(mse - want_mse) <= 1e-12 * want_mse


def index_span(results):
    """The largest index minus the smallest over ``results`` of ``per_block_results``."""
    q = np.concatenate([q for _, q in results])
    return int(q.max() - q.min())


@pytest.mark.parametrize("n", [8, 64])
def test_quantize_counts_a_span_past_the_table_from_the_first_chunk(n):
    # at a tiny step the first chunk's indices already span more than the dense table
    # holds, so every chunk is counted in the sorted table
    k = CHUNK_VALUES // n**2
    row_t = derive_gbt(build_ggl(GraphParams(1, 0.9, L1), n))
    col_t = derive_gbt(build_ggl(GraphParams(1, 1.4, L2), n))
    blocks = 30 * np.random.default_rng(n).standard_normal((2 * k + 1, n, n))
    results = per_block_results(blocks, row_t, col_t, 1e-3)
    assert index_span(results[:k]) >= CHUNK_VALUES
    mse, entropy = quantize_roundtrip_distortion(blocks, row_t, col_t, 1e-3)
    want_mse, want_entropy = mse_and_entropy(results)
    assert entropy == want_entropy
    assert abs(mse - want_mse) <= 1e-12 * want_mse


@pytest.mark.parametrize("n", [8, 64])
def test_quantize_counts_a_span_that_outgrows_the_table(n):
    # two chunks fit the dense table; the third, 10^4 times larger, takes the walk to the
    # sorted table, which must carry the dense counts over
    k = CHUNK_VALUES // n**2
    row_t = derive_gbt(build_ggl(GraphParams(1, 0.6, L2), n))
    col_t = derive_gbt(build_ggl(GraphParams(1, 1.1, L1), n))
    blocks = 30 * np.random.default_rng(n).standard_normal((3 * k + 1, n, n))
    blocks[2 * k :] *= 1e4
    results = per_block_results(blocks, row_t, col_t, np.pi)
    assert index_span(results[: 2 * k]) < CHUNK_VALUES <= index_span(results)
    mse, entropy = quantize_roundtrip_distortion(blocks, row_t, col_t, np.pi)
    want_mse, want_entropy = mse_and_entropy(results)
    assert entropy == want_entropy
    assert abs(mse - want_mse) <= 1e-12 * want_mse


@pytest.mark.parametrize("wide", [False, True])
@pytest.mark.parametrize("n", [8, 64])
def test_quantize_counts_negative_zero_indices_as_zero(n, wide):
    # integer samples at step 3 under the identity: -1 rounds to the index -0.0, 0 and 1 to
    # +0.0, and both count as the one index 0; a last block of +-6 * 10^5, whole multiples of
    # the step, sends the walk from the dense table to the sorted one
    k = CHUNK_VALUES // n**2
    blocks = np.random.default_rng(n).integers(-9, 10, (2 * k + 1, n, n))
    if wide:
        blocks[-1] = 600_000 * np.sign(blocks[-1])
    t = TransformMatrix(np.eye(n), np.arange(n, dtype=float))
    zeros = round_half_away(apply_separable(blocks.astype(float), t, t) / 3.0)
    zeros = zeros[zeros == 0]
    assert np.signbit(zeros).any() and not np.signbit(zeros).all()
    results = per_block_results(blocks, t, t, 3.0)
    assert (index_span(results) >= CHUNK_VALUES) == wide
    mse, entropy = quantize_roundtrip_distortion(blocks, t, t, 3.0)
    want_mse, want_entropy = mse_and_entropy(results)
    assert entropy == want_entropy
    assert abs(mse - want_mse) <= 1e-12 * want_mse


@settings(max_examples=25, deadline=None)
@given(
    n=st.sampled_from([2, 8, 64]),
    chunks_extra=st.sampled_from([(1, -1), (1, 0), (1, 1), (2, 1)]),  # k - 1, k, k + 1, 2k + 1 blocks
    seed=st.integers(0, 2**32 - 1),
)
def test_quantize_ties_round_away_across_chunks(n, chunks_extra, seed):
    # identity transform, integer samples and step 2: every odd sample is a tie
    chunks, extra = chunks_extra
    count = chunks * (CHUNK_VALUES // n**2) + extra
    blocks = np.random.default_rng(seed).integers(-9, 10, (count, n, n))
    t = TransformMatrix(np.eye(n), np.arange(n, dtype=float))
    mse, entropy = quantize_roundtrip_distortion(blocks, t, t, 2.0)
    x = blocks.ravel()
    odd = x % 2 == 1
    # an odd sample x rounds away from zero to (x + sign x) / 2, an error of one sample unit
    _, counts = np.unique(np.where(odd, (x + np.sign(x)) // 2, x // 2), return_counts=True)
    p = counts / counts.sum()
    assert entropy == float(-(p * np.log2(p)).sum())
    assert mse == np.count_nonzero(odd) / x.size


def test_quantize_gbsr_memmap_matches_float_copy(tmp_path):
    n = 8
    blocks = np.rint(30 * np.random.default_rng(3).standard_normal((2 * CHUNK_VALUES // n**2 + 5, n, n)))
    write_gbsr(tmp_path / "data.gbsr", make_dataset(blocks))
    mapped = read_gbsr(tmp_path / "data.gbsr").blocks
    t = derive_gbt(build_ggl(GraphParams(1, 0.8, L1), n))
    assert isinstance(mapped, np.memmap) and mapped.dtype == np.int16
    assert quantize_roundtrip_distortion(mapped, t, t, 3.0) == quantize_roundtrip_distortion(blocks, t, t, 3.0)


_QUANTIZE_RSS_CHILD = """
import sys
import numpy as np
from gbst import GraphParams, build_ggl, derive_gbt, quantize_roundtrip_distortion
from gbst.spectral import apply_separable

n = 64
t = derive_gbt(build_ggl(GraphParams(1.0, 1.0, "L1"), n))
blocks = 30 * np.random.default_rng(5).standard_normal((2048, n, n))
blocks[-1] *= float(sys.argv[1])
q = np.rint(apply_separable(blocks[-32:], t, t) / 4.0)
before = peak_mib()
quantize_roundtrip_distortion(blocks, t, t, 4.0)
print(blocks.nbytes / (1 << 20), peak_mib() - before, q.max() - q.min())
"""


def test_quantize_keeps_memory_bounded(child_peaks):
    # a 64 MiB stack at N = 64 adds less than a quarter of itself to the peak.  With its last
    # block scaled by 10^5 the indices span about 6.7 million values, few of them taken: an
    # int64 count table over that span would add over 50 MiB, so the peak holds the table's cap
    for scale, span in (("1", (0, 1 << 17)), ("1e5", (1 << 21, math.inf))):
        stack_mib, rise_mib, last_span = child_peaks(_QUANTIZE_RSS_CHILD, scale)
        assert stack_mib >= 64
        assert span[0] <= last_span < span[1]
        assert rise_mib < stack_mib / 4


@pytest.mark.parametrize("shape", [(4,), (2, 4, 8), (3, 8, 8), (1, 2, 4, 4)])
def test_quantize_rejects_block_shape(shape):
    t = trig_matrix(K.DCT2, 4)
    with pytest.raises(DimensionMismatchError, match="vs transforms"):
        quantize_roundtrip_distortion(np.zeros(shape), t, t, 1.0)


def test_quantize_rejects_empty_stack():
    t = trig_matrix(K.DCT2, 4)
    with pytest.raises(InvalidParameterError, match="no blocks"):
        quantize_roundtrip_distortion(np.zeros((0, 4, 4)), t, t, 1.0)


def test_quantize_zero_blocks():
    t = trig_matrix(K.DCT2, 4)
    mse, entropy = quantize_roundtrip_distortion(np.zeros((3, 4, 4)), t, t, 1.0)
    assert mse == 0.0
    assert entropy == 0.0


def test_quantize_invalid_step():
    t = trig_matrix(K.DCT2, 4)
    with pytest.raises(InvalidParameterError):
        quantize_roundtrip_distortion(np.zeros((1, 4, 4)), t, t, 0.0)


# the largest step whose square (it scales the MSE) is finite
_STEP_MAX = math.sqrt(np.finfo(float).max)


# nan, inf, and steps whose square overflows, as a float and as a numpy scalar
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("step", [float("nan"), float("inf"), 1e308, np.nextafter(_STEP_MAX, math.inf)])
def test_quantize_non_finite_step_rejected(step, monkeypatch):
    def no_pass(blocks):
        raise AssertionError("the pass started")

    monkeypatch.setattr(coding, "block_chunks", no_pass)
    t = trig_matrix(K.DCT2, 4)
    with pytest.raises(InvalidParameterError, match="finite"):
        quantize_roundtrip_distortion(np.zeros((1, 4, 4)), t, t, step)


def test_quantize_largest_step_with_a_finite_square():
    # every coefficient quantizes to 0, so by Parseval the MSE is the mean square sample
    t = trig_matrix(K.DCT2, 4)
    mse, entropy = quantize_roundtrip_distortion(np.ones((1, 4, 4)), t, t, _STEP_MAX)
    assert mse == pytest.approx(1.0) and entropy == 0.0


def test_quantize_entropy_of_one_index_is_positive_zero():
    # p log2 p sums to +0.0 for the single index 0, and its plain negation would print -0.0
    t = trig_matrix(K.DCT2, 4)
    _, entropy = quantize_roundtrip_distortion(np.ones((1, 4, 4)), t, t, 1.34e154)
    assert math.copysign(1.0, entropy) == 1.0


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
@pytest.mark.parametrize("shape", [(4, 4), (3, 4, 4)])
def test_quantize_non_finite_blocks_rejected(shape, bad):
    t = trig_matrix(K.DCT2, 4)
    blocks = np.zeros(shape)
    blocks[..., 1, 2] = bad
    with pytest.raises(InvalidParameterError, match="blocks must be finite"):
        quantize_roundtrip_distortion(blocks, t, t, 1.0)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_quantize_non_finite_in_last_chunk_rejected(bad):
    # the first chunk's coefficients overflow, but a non-finite sample anywhere is the error
    t = trig_matrix(K.DCT2, 4)
    blocks = np.zeros((2 * CHUNK_VALUES // 16 + 1, 4, 4))
    blocks[0] = 1e308
    blocks[-1, 1, 2] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidParameterError, match="blocks must be finite"):
            quantize_roundtrip_distortion(blocks, t, t, 1.0)


@pytest.mark.parametrize("value, step", [(1e308, 1.0), (1.0, 1e-320)])
def test_quantize_rejects_overflowing_coefficients(value, step):
    # finite blocks whose coefficients overflow float64 give a NaN error, never a number,
    # and numpy's overflow warnings do not reach the caller
    t = trig_matrix(K.DCT2, 4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidParameterError, match="not finite"):
            quantize_roundtrip_distortion(np.full((3, 4, 4), value), t, t, step)


@pytest.mark.parametrize("step", [1.0, 1e-3])
def test_quantize_rejects_overflow_after_counted_chunks(step):
    # the first two chunks are counted, in the dense table at step 1 and in the sorted one
    # at 1e-3; the last chunk's coefficients overflow, and its NaN indices are never counted
    t = trig_matrix(K.DCT2, 4)
    k = CHUNK_VALUES // 16
    blocks = 100 * np.random.default_rng(2).standard_normal((2 * k + 1, 4, 4))
    blocks[-1] = 1e308
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidParameterError, match="not finite"):
            quantize_roundtrip_distortion(blocks, t, t, step)


def test_matched_transform_beats_dct2_at_equal_entropy():
    # rate-distortion comparison on data from the alpha=1 graph
    from gbst.coding import sample_gmrf_blocks

    lap = build_ggl(GraphParams(1, 1, L1), 8)
    blocks = sample_gmrf_blocks(lap, lap, 2000, seed=42)
    gbst_t = derive_gbt(lap)
    dct2_t = trig_matrix(K.DCT2, 8)
    steps = np.geomspace(0.05, 2.0, 12)
    curves = {}
    for name, t in (("gbst", gbst_t), ("dct2", dct2_t)):
        pts = [quantize_roundtrip_distortion(blocks, t, t, s) for s in steps]
        curves[name] = np.array(pts)  # (mse, entropy)
    # interpolate dct2 mse at gbst entropies inside the shared range
    dct2 = curves["dct2"][np.argsort(curves["dct2"][:, 1])]
    lo, hi = dct2[0, 1], dct2[-1, 1]
    checked = 0
    for mse, ent in curves["gbst"]:
        if lo <= ent <= hi:
            ref = np.interp(ent, dct2[:, 1], dct2[:, 0])
            assert mse <= ref * (1 + 1e-6)
            checked += 1
    assert checked >= 5


def test_evaluate_metrics_rejects_size_mismatch():
    t = derive_gbt(build_ggl(GraphParams(1.0, 1.0, L1), 16))
    cov = model_covariance(build_ggl(GraphParams(1.0, 1.0, L1), 8))
    with pytest.raises(DimensionMismatchError, match=r"^transform N=16 vs covariance N=8$"):
        evaluate_metrics(t, cov)
