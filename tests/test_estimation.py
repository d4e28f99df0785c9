import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import gbst.estimation as estimation
from gbst.coding import model_covariance, sample_covariance, sample_gmrf, sample_gmrf_blocks
from gbst.dataset import CHUNK_VALUES, ResidualDataset, block_chunks, make_dataset, read_gbsr, write_gbsr
from gbst.errors import (
    DatasetTooLargeError,
    DegenerateGraphError,
    DegenerateInputError,
    EmptyDatasetError,
    GBSTError,
    InvalidParameterError,
    NonPositiveDefiniteError,
)
from gbst.estimation import (
    MLSolution,
    SampleCovariance,
    ml_gradient,
    ml_objective,
    refine,
    residual_covariances,
    solve_ml,
)
from gbst.graph import GraphFamily, GraphParams, build_ggl, dense_form
from gbst.spectral import derive_gbt

L1, L2 = GraphFamily.L1, GraphFamily.L2


def random_cov(rng, n, ridge=0.1):
    a = rng.standard_normal((n, n))
    return SampleCovariance(a @ a.T / n + ridge * np.eye(n))


def test_covariance_validation():
    with pytest.raises(DegenerateInputError):
        SampleCovariance(np.array([[1.0, 0.5], [0.0, 1.0]]))  # asymmetric
    with pytest.raises(DegenerateInputError):
        SampleCovariance(np.array([[1.0, 2.0], [2.0, 1.0]]))  # indefinite


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_covariance_rejected(bad):
    with pytest.raises(DegenerateInputError, match="non-finite"):
        SampleCovariance(np.array([[bad, 0.0], [0.0, 1.0]]))
    blocks = np.ones((3, 4, 4))
    blocks[1, 2, 3] = bad
    for direction in ("row", "col"):
        with pytest.raises(DegenerateInputError, match="non-finite"):
            residual_covariances(make_dataset(blocks), (direction,))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("n", [4, 16])
def test_overflowing_moment_rejected(n):
    # finite samples whose products overflow float64 end in the typed error, without a numpy warning
    blocks = np.ones((3, n, n))
    blocks[1, 2, 3] = 1e200
    for direction in ("row", "col"):
        with pytest.raises(DegenerateInputError, match="non-finite"):
            residual_covariances(make_dataset(blocks), (direction,))


def test_residual_covariances_identity_block():
    # rows (1,0) and (0,1): average outer product over 1 block * 2 rows
    row_cov, col_cov = residual_covariances(make_dataset(np.eye(2)[None]))
    assert np.allclose(row_cov.matrix, 0.5 * np.eye(2))
    assert np.allclose(col_cov.matrix, 0.5 * np.eye(2))


def test_residual_covariances_zero_blocks():
    row_cov, _ = residual_covariances(make_dataset(np.zeros((3, 4, 4))))
    assert np.array_equal(row_cov.matrix, np.zeros((4, 4)))
    with pytest.raises(DegenerateInputError):
        solve_ml(row_cov, L1)


def test_residual_covariances_order_independent():
    rng = np.random.default_rng(5)
    blocks = rng.standard_normal((10, 4, 4))
    a, _ = residual_covariances(make_dataset(blocks))
    b, _ = residual_covariances(make_dataset(blocks[::-1]))
    assert np.allclose(a.matrix, b.matrix, rtol=1e-12, atol=1e-14)
    # repeated runs on the same ordering are bitwise identical
    c, _ = residual_covariances(make_dataset(blocks))
    assert np.array_equal(a.matrix, c.matrix)
    # integer samples: exact, so any order gives the same bits
    ints = np.rint(blocks * 1000).astype(np.int16)
    shuffled = ints[rng.permutation(10)]
    for x, y in zip(residual_covariances(ResidualDataset(ints)), residual_covariances(ResidualDataset(shuffled))):
        assert np.array_equal(x.matrix, y.matrix)


def _exact_moments(blocks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    x = blocks.astype(np.int64)
    count = x.shape[0] * x.shape[1]
    return np.einsum("bij,bik->jk", x, x) / count, np.einsum("bji,bki->jk", x, x) / count


@settings(max_examples=80, deadline=None)
@given(
    # N on both sides of GEMM_MAX_N, so both Gram kernels are drawn
    blocks=st.tuples(st.integers(1, 40), st.integers(2, 16)).flatmap(
        lambda mn: arrays(np.int16, (mn[0], mn[1], mn[1]))
    ),
    chunk_values=st.integers(1, 400),
    data=st.data(),
)
def test_integer_moments_exact_for_any_chunk_and_order(blocks, chunk_values, data):
    order = data.draw(st.permutations(range(blocks.shape[0])))
    m, n, _ = blocks.shape
    with mock.patch("gbst.dataset.CHUNK_VALUES", chunk_values):
        # the patch reaches the walk: it cuts the stack into ceil(M / k) chunks
        assert len(list(block_chunks(blocks))) == -(-m // max(1, chunk_values // (n * n)))
        got = residual_covariances(ResidualDataset(blocks[order]))
        floats = residual_covariances(make_dataset(blocks))
    for cov, want in zip(got, _exact_moments(blocks)):
        assert np.array_equal(cov.matrix, want)
    # the float path agrees bit for bit while its sums stay exact
    for cov, want in zip(floats, got):
        assert np.array_equal(cov.matrix, want.matrix)


# N = 3 halves its GEMM Gram unequally and N = 16 takes syrk; their files also
# outgrow a 4 MiB release span
@pytest.mark.parametrize("n,count", [(3, 250_000), (8, 5000), (16, 9000), (64, 100)])
def test_gbsr_moments_exact_across_chunks(tmp_path, n, count):
    # a memmapped file of several chunks, the last one partial, at the i16 extremes
    assert 8 <= estimation.GEMM_MAX_N < 16  # 3 and 8 take the GEMMs, 16 and 64 syrk
    assert count % max(1, CHUNK_VALUES // (n * n)) != 0
    assert count * n * n > 2 * CHUNK_VALUES
    blocks = np.random.default_rng(n).integers(-32768, 32768, (count, n, n)).astype(np.int16)
    blocks[0], blocks[count // 2, 0], blocks[-1] = -32768, 32767, 32767
    write_gbsr(tmp_path / "x.gbsr", ResidualDataset(blocks))
    dataset = read_gbsr(tmp_path / "x.gbsr")
    row, col = _exact_moments(blocks)
    for directions, want in [(("row",), [row]), (("col",), [col]), (("row", "col"), [row, col])]:
        got = residual_covariances(dataset, directions)
        for cov, w in zip(got, want, strict=True):
            assert np.array_equal(cov.matrix, w)


def _window_spanning_file(path) -> np.ndarray:
    """A GBSR file of 80 000 8x8 blocks (10 MB), a few of the walk's 4 MiB release windows."""
    blocks = np.random.default_rng(5).integers(-32768, 32768, (80_000, 8, 8), dtype=np.int16)
    write_gbsr(path, ResidualDataset(blocks))
    return blocks


def test_released_file_moments_exact(tmp_path):
    # a read-only mapping releases its pages behind the walk; a sliced view of it
    # starts mid-file and off a page boundary
    blocks = _window_spanning_file(tmp_path / "x.gbsr")
    dataset = read_gbsr(tmp_path / "x.gbsr")
    start = 12_345
    for ds, want in [(dataset, blocks), (ResidualDataset(dataset.blocks[start:]), blocks[start:])]:
        for _ in range(2):
            for cov, w in zip(residual_covariances(ds), _exact_moments(want), strict=True):
                assert np.array_equal(cov.matrix, w)


def test_copy_on_write_mapping_keeps_caller_edits(tmp_path):
    # releasing the pages of a private mapping would throw the caller's edits away
    # and hand the walk the file's values again
    shape = _window_spanning_file(tmp_path / "x.gbsr").shape
    edited = np.memmap(tmp_path / "x.gbsr", dtype="<i2", mode="c", offset=11, shape=shape)
    edited[:] = 1
    dataset = ResidualDataset(edited)
    for _ in range(2):
        for cov in residual_covariances(dataset):
            assert np.array_equal(cov.matrix, np.ones((8, 8)))
    assert (edited == 1).all()


def test_residual_covariances_single_direction():
    blocks = np.random.default_rng(1).standard_normal((6, 4, 4))
    row, col = residual_covariances(make_dataset(blocks))
    (only_col,) = residual_covariances(make_dataset(blocks), ("col",))
    (only_row,) = residual_covariances(make_dataset(blocks), ("row",))
    assert np.array_equal(only_col.matrix, col.matrix)
    assert np.array_equal(only_row.matrix, row.matrix)
    with pytest.raises(InvalidParameterError):
        residual_covariances(make_dataset(blocks), ("diag",))


@pytest.mark.parametrize("n", [2, 8, 64])
def test_residual_covariances_float64_read_in_place_or_copied(n):
    # the row pass reads the chunks of a C-contiguous float64 stack where they lie, and copies
    # those of a strided view into its buffer first; the same values give the same moments
    m = 2 * max(1, CHUNK_VALUES // n**2) + 3  # two whole chunks and part of a third
    blocks = 30 * np.random.default_rng(n).standard_normal((m, n, n))
    wide = np.zeros((m, n, 2 * n))
    wide[:, :, ::2] = blocks
    direct, strided = make_dataset(blocks), make_dataset(wide[:, :, ::2])
    assert direct.blocks.flags.c_contiguous and not strided.blocks.flags.c_contiguous
    for d, s in zip(residual_covariances(direct), residual_covariances(strided), strict=True):
        assert np.array_equal(d.matrix, s.matrix)


def _repeated_blocks(dtype, m):
    """m 2 x 2 blocks of ``dtype`` over the memory of one: a stack of any length, in 8 bytes."""
    block = np.full((2, 2), 7, dtype)
    return ResidualDataset(np.lib.stride_tricks.as_strided(block, (m, 2, 2), (0, *block.strides), writeable=False))


def test_residual_covariances_int64_headroom(monkeypatch):
    def no_pass(blocks):
        raise AssertionError("the data pass started")

    monkeypatch.setattr(estimation, "block_chunks", no_pass)
    # the int64 total holds fewer rows than 2^63 over the dtype's largest square; uint16's
    # limit lies below the 2^32 rows of 65535s that would wrap it (2^32 * 65535^2 > 2^63)
    for dtype, limit in [(np.int16, 2**33), (np.uint16, 2_147_549_185)]:
        m = -(-limit // 2)  # the fewest 2 x 2 blocks that reach the limit
        message = rf"^{2 * m} rows overflow the exact int64 moment \(limit {limit}\)$"
        with pytest.raises(DatasetTooLargeError, match=message):
            residual_covariances(_repeated_blocks(dtype, m))
        with pytest.raises(AssertionError, match="data pass"):
            residual_covariances(_repeated_blocks(dtype, m - 1))
    # float data has no int64 total and is unaffected
    with pytest.raises(AssertionError, match="data pass"):
        residual_covariances(_repeated_blocks(np.float64, 2**33))


def test_sample_covariance_leaves_caller_array_writeable():
    m = np.eye(4)
    cov = SampleCovariance(m)
    assert m.flags.writeable
    assert not cov.matrix.flags.writeable


@pytest.mark.parametrize("family", [L1, L2])
def test_zero_boundary_moment_fails_fast(family):
    rng = np.random.default_rng(2)
    blocks = rng.standard_normal((50, 8, 8))
    blocks[:, :, 0 if family is L1 else -1] = 0.0
    row_cov, _ = residual_covariances(make_dataset(blocks))
    with pytest.raises(DegenerateInputError, match="boundary moment"):
        solve_ml(row_cov, family)


@pytest.mark.parametrize("family", [L1, L2])
def test_overflowing_weight_fails_typed(family):
    # positive moments whose inverses overflow float64: both weights, then v* alone
    tiny = residual_covariances(make_dataset(np.random.default_rng(0).standard_normal((30, 8, 8)) * 1e-160))[0]
    with pytest.raises(DegenerateInputError, match=r"overflow float64: w\* = inf, v\* = inf$"):
        solve_ml(tiny, family)
    k = 0 if family is L1 else 7
    s = np.eye(8)
    s[k, k] = 1e-310
    with pytest.raises(DegenerateInputError, match=re.escape(f"w* = {7 / 13}, v* = inf")):
        solve_ml(SampleCovariance(s), family)


def test_constant_rows_fail_fast():
    blocks = np.repeat(np.arange(1.0, 31.0)[:, None, None], 4, axis=1).repeat(4, axis=2)
    row_cov, _ = residual_covariances(make_dataset(blocks))
    with pytest.raises(DegenerateInputError, match="Tr\\(PS\\)"):
        solve_ml(row_cov, L1)


def test_row_covariance_matches_gmrf_inverse():
    lap = build_ggl(GraphParams(1, 1, L1), 4)
    x = sample_gmrf(lap, 10_000, seed=11)
    blocks = x.reshape(-1, 4, 4)
    row_cov, _ = residual_covariances(make_dataset(blocks))
    linv = model_covariance(lap).matrix
    # standard error of each entry at 10k samples is ~2e-2; allow 4 sigma
    se = np.sqrt((linv**2 + np.outer(np.diag(linv), np.diag(linv))) / 10_000)
    assert np.all(np.abs(row_cov.matrix - linv) < 4 * se)


def test_empty_dataset_error():
    with pytest.raises(EmptyDatasetError):
        residual_covariances(make_dataset(np.zeros((0, 4, 4))))


def test_objective_hand_cases():
    s_eye = SampleCovariance(np.eye(2))
    assert ml_objective(GraphParams(1, 1, L1), s_eye) == pytest.approx(3.0, abs=1e-12)
    linv = SampleCovariance(np.array([[1.0, 1.0], [1.0, 2.0]]))
    assert ml_objective(GraphParams(1, 1, L1), linv) == pytest.approx(2.0, abs=1e-12)


def test_objective_homogeneity():
    rng = np.random.default_rng(6)
    s = random_cov(rng, 8)
    w, v, c = 1.3, 0.6, 2.5
    lap = build_ggl(GraphParams(w, v, L1), 8)
    tr = float(np.sum(dense_form(lap) * s.matrix))
    base_logdet = tr - ml_objective(GraphParams(w, v, L1), s)
    scaled = ml_objective(GraphParams(c * w, c * v, L1), s)
    assert scaled == pytest.approx(c * tr - base_logdet - 8 * np.log(c), rel=1e-12)


def test_objective_rejects_non_pd():
    with pytest.raises(NonPositiveDefiniteError):
        # w=0 interior assumption violated: matrix diag(v,0,...,0) is singular
        ml_objective(GraphParams(0, 1, L1), SampleCovariance(np.eye(4)))


def log_uniform(lo, hi):
    """Floats 10^e with the exponent e drawn from [lo, hi]."""
    return st.floats(lo, hi).map(lambda e: 10.0**e)


@settings(max_examples=60, deadline=None)
@given(
    w=log_uniform(-3, 3),
    v=log_uniform(-3, 3),
    n=st.integers(2, 64),
    family=st.sampled_from([L1, L2]),
    seed=st.integers(0, 2**32 - 1),
)
def test_objective_matches_dense_form(w, v, n, family, seed):
    s = random_cov(np.random.default_rng(seed), n)
    params = GraphParams(w, v, family)
    m = dense_form(build_ggl(params, n))
    sign, logdet = np.linalg.slogdet(m)
    assert sign == 1
    assert ml_objective(params, s) == pytest.approx(np.trace(m @ s.matrix) - logdet, rel=1e-9)


@pytest.mark.filterwarnings("error")
@settings(max_examples=200, deadline=None)
@given(
    w=log_uniform(-308, 308),
    v=log_uniform(-308, 308),
    n=st.integers(2, 64),
    family=st.sampled_from([L1, L2]),
)
@example(w=1e300, v=1e300, n=8, family=L1)
@example(w=1e-292, v=1e-308, n=3, family=L2)  # C^{-1} ~ 1e154: the blocks and Tr L^{-1} overflow
@example(w=1e300, v=1e-300, n=64, family=L2)
@example(w=1e-300, v=1e300, n=64, family=L1)
@example(w=1e308, v=0.0, n=4, family=L1)  # 2w overflows in the dense matrix
@example(w=5e307, v=1.0, n=8, family=L2)  # 2w is finite, the eigenvalues near 4w are not
@example(w=4e307, v=1.0, n=8, family=L1)  # accepted; w Tr(PS) overflows in ml_objective
def test_extreme_weights_give_finite_values_or_a_typed_error(w, v, n, family):
    cov = random_cov(np.random.default_rng(n), n)

    def scale_free_basis(lap):
        # L(w, v) = w L(1, v/w), so the basis depends on v/w alone
        basis = derive_gbt(lap).basis
        try:
            unit = derive_gbt(build_ggl(GraphParams(1.0, v / w, family), n)).basis
        except GBSTError:  # v/w overflows, or its spectrum fails the absolute gap rule
            return basis
        assert np.abs(basis - unit).max() <= 1e-8
        return basis

    calls = {
        "sample_gmrf": lambda lap: sample_gmrf(lap, 3, 0),
        "sample_covariance": lambda lap: sample_covariance(lap, 3, 0).matrix,
        "sample_gmrf_blocks": lambda lap: sample_gmrf_blocks(lap, lap, 2, 0),
        "model_covariance": lambda lap: model_covariance(lap).matrix,
        "ml_objective": lambda lap: ml_objective(lap.params, cov),
        "derive_gbt": scale_free_basis,
    }
    for name, call in calls.items():
        try:
            value = call(build_ggl(GraphParams(w, v, family), n))
        except GBSTError:
            continue
        assert np.isfinite(value).all(), name


def test_gradient_zero_at_generating_model():
    for fam in (L1, L2):
        lap = build_ggl(GraphParams(1.4, 0.9, fam), 8)
        s = model_covariance(lap)
        d_w, d_v = ml_gradient(GraphParams(1.4, 0.9, fam), s)
        assert abs(d_w) < 1e-10 and abs(d_v) < 1e-10


def test_gradient_hand_case_n2():
    # d/dw of (2w + v - log(vw)) at (1,1) is 1; d/dv is 0
    d_w, d_v = ml_gradient(GraphParams(1, 1, L1), SampleCovariance(np.eye(2)))
    assert d_w == pytest.approx(1.0, abs=1e-12)
    assert d_v == pytest.approx(0.0, abs=1e-12)


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(8)
    h = 1e-6
    for _ in range(100):
        n = int(rng.choice([4, 8, 16]))
        fam = L1 if rng.random() < 0.5 else L2
        w, v = rng.uniform(0.3, 3, 2)
        s = random_cov(rng, n)
        g = np.array(ml_gradient(GraphParams(w, v, fam), s))
        fd = np.array(
            [
                (ml_objective(GraphParams(w + h, v, fam), s) - ml_objective(GraphParams(w - h, v, fam), s)) / (2 * h),
                (ml_objective(GraphParams(w, v + h, fam), s) - ml_objective(GraphParams(w, v - h, fam), s)) / (2 * h),
            ]
        )
        assert np.linalg.norm(fd - g) <= 1e-5 * max(np.linalg.norm(g), 1e-8)


def test_convexity_probe():
    rng = np.random.default_rng(9)
    for _ in range(100):
        n = int(rng.choice([4, 8]))
        s = random_cov(rng, n)
        p1 = rng.uniform(0.2, 4, 2)
        p2 = rng.uniform(0.2, 4, 2)
        f1 = ml_objective(GraphParams(*p1, L1), s)
        f2 = ml_objective(GraphParams(*p2, L1), s)
        for t in (0.25, 0.5, 0.75):
            mid = t * p1 + (1 - t) * p2
            fm = ml_objective(GraphParams(*mid, L1), s)
            assert fm <= t * f1 + (1 - t) * f2 + 1e-9


@pytest.mark.parametrize("n", [4, 8, 16, 32])
@pytest.mark.parametrize("family", [L1, L2])
def test_exact_recovery(n, family):
    lap = build_ggl(GraphParams(1.0, 1.0, family), n)
    sol = solve_ml(model_covariance(lap), family)
    assert sol.converged and not sol.boundary
    assert sol.ratio == pytest.approx(1.0, abs=1e-6)


def test_statistical_recovery_small():
    lap = build_ggl(GraphParams(1, 2, L2), 4)
    x = sample_gmrf(lap, 1_000_000, seed=21)
    s = SampleCovariance(x.T @ x / len(x))
    sol = solve_ml(s, L2)
    assert 1.9 <= sol.ratio <= 2.1


def test_scale_equivariance():
    lap = build_ggl(GraphParams(1.0, 0.8, L1), 8)
    s = model_covariance(lap)
    sol = solve_ml(s, L1)
    for c in (0.5, 3.0):
        scaled = solve_ml(SampleCovariance(c * s.matrix), L1)
        assert scaled.w_star == pytest.approx(sol.w_star / c, rel=1e-5)
        assert scaled.v_star == pytest.approx(sol.v_star / c, rel=1e-5)
        assert refine(scaled).alpha == refine(sol).alpha


def test_white_covariance_runs_to_interior_or_boundary():
    sol = solve_ml(SampleCovariance(np.eye(8)), L1)
    assert sol.converged
    assert np.isfinite(sol.objective)


def test_fit_is_grid_minimum():
    rng = np.random.default_rng(12)
    factors = np.geomspace(0.5, 2.0, 21)
    for _ in range(20):
        n = int(rng.choice([2, 4, 8, 16]))
        fam = L1 if rng.random() < 0.5 else L2
        s = random_cov(rng, n)
        sol = solve_ml(s, fam)
        best = min(
            ml_objective(GraphParams(a * sol.w_star, b * sol.v_star, fam), s)
            for a in factors
            for b in factors
        )
        assert best >= sol.objective - 1e-12 * abs(sol.objective)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(2, 64),
    family=st.sampled_from([L1, L2]),
    seed=st.integers(0, 2**32 - 1),
    c=st.sampled_from([0.25, 0.5, 2.0, 8.0]),
)
def test_closed_form_fit_properties(n, family, seed, c):
    s = random_cov(np.random.default_rng(seed), n)
    sol = solve_ml(s, family)
    params = GraphParams(sol.w_star, sol.v_star, family)
    d_w, d_v = ml_gradient(params, s)
    assert abs(d_w) <= 1e-9 * (n - 1) / sol.w_star
    assert abs(d_v) <= 1e-9 / sol.v_star
    # the fit's objective is ml_objective at the fitted weights
    assert sol.objective == pytest.approx(ml_objective(params, s), rel=1e-9)
    assert (sol.converged, sol.iterations, sol.boundary) == (True, 0, False)
    # scaling S by a power of two scales both weights by exactly 1/c
    scaled = solve_ml(SampleCovariance(c * s.matrix), family)
    assert scaled.w_star == sol.w_star / c
    assert scaled.v_star == sol.v_star / c


def test_gradient_rejects_non_pd():
    with pytest.raises(NonPositiveDefiniteError):
        ml_gradient(GraphParams(1, 0, L1), SampleCovariance(np.eye(4)))


def test_refine_examples():
    def sol(w, v):
        return MLSolution(w, v, 0.0)

    assert refine(sol(2.0, 1.6)).alpha == 0.75
    assert refine(sol(1.0, 1.0)).alpha == 1.0
    assert refine(sol(1.0, 2.06)).alpha == 2.0
    # exact tie rounds away from zero
    assert refine(sol(1.0, 0.125)).alpha == 0.25
    # the largest float below 0.125 rounds down, not up through 4 v + 0.5 == 1.0
    assert refine(sol(1.0, np.nextafter(0.125, 0.0))).alpha == 0.0
    # a ratio with 4 v*/w* >= 2^52 is a whole number of quarters and stays as it is
    for v in [2.0**50 + 0.25, 2.0**50 + 0.75, 2.0**51 + 0.5, 2.0**52 + 1.0, 1e300]:
        assert refine(sol(1.0, v)).alpha == v
    with pytest.raises(DegenerateGraphError):
        refine(sol(0.0, 1.0))


def test_refine_rejects_weights_graph_params_rejects():
    with pytest.raises(InvalidParameterError, match="nonnegative"):
        refine(MLSolution(1.0, -1.0, 0.0))
    # v*/w* overflows, or 4 v*/w* does on the way to the 0.25 grid
    for w, v in [(1e-320, 1e300), (1.0, 1e308)]:
        with pytest.raises(InvalidParameterError, match="too large"):
            refine(MLSolution(w, v, 0.0))


def test_learn_gbst_end_to_end():
    row_lap = build_ggl(GraphParams(1, 1, L1), 8)
    col_lap = build_ggl(GraphParams(1, 1, L2), 8)
    blocks = sample_gmrf_blocks(row_lap, col_lap, 20_000, seed=31)
    dataset = make_dataset(np.rint(blocks * 64))
    covs = residual_covariances(dataset)
    row, col = (refine(solve_ml(cov, fam), dataset.block_size) for cov, fam in zip(covs, (L1, L2)))
    assert row.alpha == 1.0
    assert col.alpha == 1.0
    assert row.size == col.size == 8


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("slot", [0, 1])
def test_non_finite_weights_rejected(bad, slot):
    weights = [1.0, 1.0]
    weights[slot] = bad
    with pytest.raises(InvalidParameterError):
        GraphParams(*weights, L1)
    with pytest.raises(InvalidParameterError):
        refine(MLSolution(*weights, 0.0))


def test_ml_solution_constants_are_class_level():
    sol = MLSolution(2.0, 1.5, 0.0)
    assert (sol.converged, sol.iterations, sol.boundary) == (True, 0, False)
    with pytest.raises(TypeError):
        MLSolution(2.0, 1.5, 0.0, True, 0, False)


@pytest.mark.parametrize("family", [L1, L2])
def test_solve_ml_takes_the_family_by_value(family):
    cov = random_cov(np.random.default_rng(3), 8)
    assert solve_ml(cov, family.value) == solve_ml(cov, family)
