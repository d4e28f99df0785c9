"""Learning the two line-graph parameters from sample covariances.

The fit minimizes  Tr(L(w, v) S) - logdet L(w, v)  over w, v > 0, the
negative Gaussian log-likelihood with the Laplacian as precision matrix.
L = w P + v e_k e_k^T with P the path-graph Laplacian, a tree, so
det L = v w^(N-1): the objective is w Tr(PS) + v S_kk - (N-1) log w - log v,
read from two moments of S, and separates in w and v; its minimizer is
w* = (N-1)/Tr(PS), v* = 1/S_kk, with no iteration.  A second step
normalizes the fitted graph (divide by w*) and rounds the vertex weight
to the nearest multiple of 0.25.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .dataset import ResidualDataset, block_chunks
from .errors import (
    DatasetTooLargeError,
    DegenerateGraphError,
    DegenerateInputError,
    InvalidParameterError,
)
from .graph import GraphFamily, GraphParams, build_ggl, check_positive_definite, frozen_view


@dataclass(frozen=True, eq=False)
class SampleCovariance:
    """Symmetric PSD N x N second-moment matrix of rows or columns, held as a read-only view."""

    matrix: np.ndarray

    def __post_init__(self):
        m = frozen_view(self.matrix)
        if m.ndim != 2 or not 0 < m.shape[0] == m.shape[1]:
            raise DegenerateInputError(f"covariance must be square and nonempty, got shape {m.shape}")
        if not np.isfinite(m).all():
            raise DegenerateInputError("covariance has non-finite entries")
        scale = max(1.0, float(np.abs(m).max()))
        if np.abs(m - m.T).max() > 1e-12 * scale:
            raise DegenerateInputError("covariance is not symmetric")
        with np.errstate(over="ignore"):
            tr = float(np.trace(m))
        if not math.isfinite(tr):  # finite entries whose sum, the total variance, overflows
            raise DegenerateInputError("covariance trace is not finite")
        if np.linalg.eigvalsh(m).min() < -1e-9 * max(tr, 0.0) / len(m):
            raise DegenerateInputError("covariance is not positive semidefinite")
        object.__setattr__(self, "matrix", m)

    @property
    def size(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class MLSolution:
    """Fitted weights and the objective at them.

    The fit is closed form, so ``converged``, ``iterations`` and ``boundary``
    are constants of the class; they keep their place in ``learn --json``.
    """

    w_star: float
    v_star: float
    objective: float
    converged: ClassVar[bool] = True
    iterations: ClassVar[int] = 0
    boundary: ClassVar[bool] = False

    @property
    def ratio(self) -> float:
        return self.v_star / self.w_star


@dataclass(frozen=True)
class RefinedParam:
    """Normalized vertex weight rounded to the ALPHA_STEP grid."""

    alpha: float
    size: int


ALPHA_STEP = 0.25  # the grid ``refine`` rounds v*/w* to; a power of two, so scaling by it is exact

# Integer blocks of at most 16 bits: a chunk of block_chunks holds at most
# max(CHUNK_VALUES, N^2) values, so its Gram sums at most max(CHUNK_VALUES, N)
# terms per entry.  Each term is a product of two such integers, below 2^32, so
# while CHUNK_VALUES <= 2^21 every partial sum, in any order, stays below 2^53:
# the float64 Gram is exact whichever kernel forms it.  The int64 total has room
# for fewer than 2^63 // max(min^2, max^2) rows of the dtype: 2^33 for i16.
DIRECTIONS = ("row", "col")
# Up to this N the Gram is two GEMMs, above it one syrk.  One moment pass over
# 2^26 i16 values (x86_64, one thread of OpenBLAS 0.3.31, median of 5), syrk ->
# GEMM in ms, row and col: N = 8: 138 -> 85, 171 -> 110; N = 12: 115 -> 115,
# 173 -> 149; N = 14: 173 -> 156, 187 -> 178; N = 15: 174 -> 186, 192 -> 187;
# N = 16: 110 -> 150, 136 -> 176.  Under numpy's default threads the GEMMs also
# woke OpenBLAS's second thread at N = 32 and 64 (CPU twice wall); syrk did not.
GEMM_MAX_N = 14


def _gram(b: np.ndarray) -> np.ndarray:
    """b b^T of an (N, K) float64 matrix.

    numpy sends ``b @ b.T`` to syrk; for N <= GEMM_MAX_N two GEMMs on the
    row halves of the product, whose operands differ, are faster.
    """
    n = len(b)
    if n > GEMM_MAX_N:
        return b @ b.T
    g = np.empty((n, n))
    h = n // 2
    np.matmul(b[:h], b.T, out=g[:h])
    np.matmul(b[h:], b.T, out=g[h:])
    return g


def residual_covariances(
    dataset: ResidualDataset, directions: tuple[str, ...] = DIRECTIONS
) -> tuple[SampleCovariance, ...]:
    """Second moments of block rows and/or block columns, no mean subtraction.

    Rows (columns) of every block are treated as length-N observations of
    a zero-mean process; the result is the average outer product over all
    M*N of them, one SampleCovariance per entry of ``directions``.

    The blocks are walked in file order by ``block_chunks``, which chooses
    the chunk length and releases the pages of a read-only file mapping
    behind the walk, so the pass keeps a few MiB of the file resident
    whatever M is.  For each direction a chunk of k blocks becomes an
    (N, k*N) float64 matrix b in one reused buffer, sized by the first
    chunk, and ``_gram`` adds b b^T to the direction's total.  For rows b is
    the transpose of the chunk cast as it sits, viewed as (k*N, N); a
    C-contiguous float64 chunk is that cast already, so it is read in
    place.  For columns, b[i, j*N:(j+1)*N] is row i of block j: each
    length-N row moves as one item into a staging buffer of the chunk's
    dtype, and one contiguous cast fills b (float64 rows move into b
    itself), so no value is transposed alone.  For i16 (or narrower)
    integer blocks every chunk product is exact in any summation order and
    is folded into an int64 total, so the moments are bit-identical for any
    chunk size, any block order, any Gram kernel and any set of directions.
    """
    blocks = dataset.blocks
    for d in directions:
        if d not in DIRECTIONS:
            raise InvalidParameterError(f"direction must be one of {DIRECTIONS}, got {d!r}")
    m, n, _ = blocks.shape
    exact = np.issubdtype(blocks.dtype, np.integer) and blocks.dtype.itemsize <= 2
    if exact:
        limit = 2**63 // max(np.iinfo(blocks.dtype).min ** 2, np.iinfo(blocks.dtype).max ** 2)
        if m * n >= limit:
            raise DatasetTooLargeError(f"{m * n} rows overflow the exact int64 moment (limit {limit})")
    row_item = np.dtype((np.void, n * blocks.dtype.itemsize))
    flat = stage = np.empty(0)
    totals = {d: np.zeros((n, n), dtype=np.int64 if exact else float) for d in directions}
    # a non-finite or overflowing sample ends in SampleCovariance's typed error
    with np.errstate(over="ignore", invalid="ignore"):
        for chunk in block_chunks(blocks):
            if flat.size < chunk.size:  # only the first chunk, the largest, sizes the buffers
                flat = np.empty(chunk.size)
                stage = flat if blocks.dtype == flat.dtype else np.empty(chunk.size, blocks.dtype)
            buf = flat[: chunk.size]
            for d, total in totals.items():
                if d == "row":
                    a = chunk  # a C-contiguous float64 chunk is read where it lies
                    if chunk.dtype != buf.dtype or not chunk.flags.c_contiguous:
                        a = buf.reshape(chunk.shape)
                        np.copyto(a, chunk)
                    b = a.reshape(-1, n).T
                else:
                    # the item view needs each row's values adjacent
                    rows = np.ascontiguousarray(chunk).view(row_item).reshape(len(chunk), n)
                    moved = stage[: chunk.size]
                    np.copyto(moved.view(row_item).reshape(n, len(chunk)), rows.T)
                    if stage is not flat:
                        np.copyto(buf, moved)
                    b = buf.reshape(n, -1)
                total += _gram(b).astype(total.dtype)
    return tuple(SampleCovariance(totals[d] / (m * n)) for d in directions)


def _path_moments(family: GraphFamily, cov: SampleCovariance) -> tuple[int, float, float]:
    """(k, Tr(PS), S_kk): the self-loop vertex and the two moments the objective reads.

    P = dL/dw is the unit-weight path Laplacian, so Tr(PS) is the summed
    second moment of the adjacent differences x_i - x_{i+1}; S_kk = dTr(LS)/dv.
    """
    n, s = cov.size, cov.matrix
    k = build_ggl(GraphParams(1.0, 1.0, family), n).self_loop_vertex
    # the diagonal and off-diagonal of P as two dot products, in this order
    # and on a contiguous superdiagonal copy, so the sum rounds the same way
    # on every call
    p_diag = np.full(n, 2.0)
    p_diag[[0, -1]] = 1.0
    idx = np.arange(n - 1)
    tr_ps = float(p_diag @ np.diag(s) + np.full(n - 1, -2.0) @ s[idx, idx + 1])
    return k, tr_ps, float(s[k, k])


def ml_objective(params: GraphParams, cov: SampleCovariance) -> float:
    """Tr(L S) - logdet L at an interior point (w > 0, v > 0).

    With det L = v w^(N-1) (see ``solve_ml``) it is
    w Tr(P S) + v S_kk - (N-1) log w - log v.
    """
    _, tr_ps, s_kk = _path_moments(params.family, cov)
    check_positive_definite(params)
    w, v = params.edge_weight, params.vertex_weight
    value = w * tr_ps + v * s_kk - (cov.size - 1) * math.log(w) - math.log(v)
    if not math.isfinite(value):  # w Tr(PS) or v S_kk overflowed float64
        raise InvalidParameterError(f"objective is not finite at w={w}, v={v}")
    return value


def ml_gradient(params: GraphParams, cov: SampleCovariance) -> tuple[float, float]:
    """Partial derivatives of the objective with respect to (w, v).

    They are Tr(P S) - (N-1)/w and S_kk - 1/v, where k is the self-loop vertex.
    """
    _, tr_ps, s_kk = _path_moments(params.family, cov)
    check_positive_definite(params)
    return tr_ps - (cov.size - 1) / params.edge_weight, s_kk - 1.0 / params.vertex_weight


def solve_ml(cov: SampleCovariance, family: GraphFamily) -> MLSolution:
    """Exact ML fit: w* = (N-1)/Tr(PS), v* = 1/S_kk.

    L(w, v) = w P + v e_k e_k^T with P the Laplacian of a path, a tree, so
    every cofactor of P is 1 (matrix-tree theorem) and the determinant lemma
    gives det L = v w^(N-1).  The objective w Tr(PS) + v S_kk - (N-1) log w
    - log v then separates into two one-dimensional convex terms.
    """
    n = cov.size
    k, tr_ps, s_kk = _path_moments(family, cov)
    # a zero moment in either term leaves the objective unbounded below
    if s_kk <= 0:
        raise DegenerateInputError(f"boundary moment S[{k},{k}] is zero; the fit is unbounded")
    if tr_ps <= 0:
        raise DegenerateInputError("adjacent samples never differ (Tr(PS) = 0); the fit is unbounded")
    w, v = (n - 1) / tr_ps, 1.0 / s_kk
    if not (math.isfinite(w) and math.isfinite(v)):  # a moment so small that its inverse overflows
        raise DegenerateInputError(f"fitted weights overflow float64: w* = {w}, v* = {v}")
    return MLSolution(
        w_star=w,
        v_star=v,
        objective=n - (n - 1) * math.log(w) - math.log(v),
    )


def refine(sol: MLSolution, size: int | None = None) -> RefinedParam:
    """Normalize by w* and round v*/w* to the nearest multiple of 0.25.

    The weights must be ones ``GraphParams`` accepts, with w* > 0.  Exact
    ties round up.
    """
    if not (math.isfinite(sol.w_star) and math.isfinite(sol.v_star)):
        raise InvalidParameterError(f"fit must be finite, got w* = {sol.w_star}, v* = {sol.v_star}")
    if sol.w_star <= 0:
        raise DegenerateGraphError(f"cannot normalize with w* = {sol.w_star}")
    if sol.v_star < 0:
        raise InvalidParameterError(f"vertex weight must be nonnegative, got v* = {sol.v_star}")
    ratio = sol.v_star / sol.w_star
    scaled = ratio / ALPHA_STEP
    if not math.isfinite(scaled):
        raise InvalidParameterError(f"v*/w* = {ratio} is too large to round to the {ALPHA_STEP:g} grid")
    # scaled - whole is exact; floor(scaled + 0.5) would round the sum, off
    # the grid at scaled >= 2^52 (already whole) and up to 1 just below 0.5
    whole = math.floor(scaled)
    alpha = (whole + (scaled - whole >= 0.5)) * ALPHA_STEP
    return RefinedParam(alpha=alpha, size=size if size is not None else 0)
