"""Learning the two line-graph parameters from sample covariances.

The fit minimizes  Tr(L(w, v) S) - logdet L(w, v)  over w, v > 0, the
negative Gaussian log-likelihood with the Laplacian as precision matrix.
L = w P + v e_k e_k^T with P the path-graph Laplacian, a tree, so
det L = v w^(N-1) and the objective separates in w and v; its minimizer
is w* = (N-1)/Tr(PS), v* = 1/S_kk, with no iteration.  A second step
normalizes the fitted graph (divide by w*) and rounds the vertex weight
to the nearest multiple of 0.25.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .dataset import ResidualDataset
from .errors import (
    DatasetTooLargeError,
    DegenerateGraphError,
    DegenerateInputError,
    EmptyDatasetError,
    InconsistentBlockSizeError,
    InvalidParameterError,
    NonPositiveDefiniteError,
)
from .graph import GraphFamily, GraphParams, LineGraphLaplacian, build_ggl


@dataclass(frozen=True)
class SampleCovariance:
    """Symmetric PSD N x N second-moment matrix of rows or columns."""

    size: int
    matrix: np.ndarray

    def __post_init__(self):
        m = self.matrix
        if m.shape != (self.size, self.size):
            raise DegenerateInputError(f"covariance shape {m.shape} does not match N={self.size}")
        if not np.isfinite(m).all():
            raise DegenerateInputError("covariance has non-finite entries")
        scale = max(1.0, float(np.abs(m).max()))
        if np.abs(m - m.T).max() > 1e-12 * scale:
            raise DegenerateInputError("covariance is not symmetric")
        tr = float(np.trace(m))
        if np.linalg.eigvalsh(m).min() < -1e-9 * max(tr, 0.0) / self.size:
            raise DegenerateInputError("covariance is not positive semidefinite")
        # freeze a view of our own, never the caller's array
        m = m.view()
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)


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
    """Normalized vertex weight rounded to the 0.25 grid."""

    alpha: float
    size: int


# Integer blocks: a chunk of max(CHUNK_ROWS, N) rows sums at most 2^23 terms
# of |i16|^2 <= 2^30 while CHUNK_ROWS <= 2^23 (N is a u16), so its float64
# product stays below 2^53 and is exact; the int64 total has room for fewer
# than INT64_ROWS rows (2^33 * 2^30 = 2^63).
CHUNK_ROWS = 1 << 16
INT64_ROWS = 1 << 33
DIRECTIONS = ("row", "col")


def residual_covariances(
    dataset: ResidualDataset, directions: tuple[str, ...] = DIRECTIONS
) -> tuple[SampleCovariance, ...]:
    """Second moments of block rows and/or block columns, no mean subtraction.

    Rows (columns) of every block are treated as length-N observations of
    a zero-mean process; the result is the average outer product over all
    M*N of them, one SampleCovariance per entry of ``directions``.

    The blocks are walked in chunks of about CHUNK_ROWS rows, each written
    once into a reused float64 buffer laid out (N, k, N): reshaped to
    (N*k, N) it is the row matrix, to (N, k*N) the column matrix.  For i16
    (or narrower) integer blocks every chunk product is exact and is folded
    into an int64 total, so the moments are bit-identical for any chunk
    size and any block order.
    """
    blocks = dataset.blocks
    if blocks.shape[0] == 0:
        raise EmptyDatasetError("dataset has no blocks")
    if blocks.shape[1] != blocks.shape[2]:
        raise InconsistentBlockSizeError(f"blocks are not square: {blocks.shape}")
    for d in directions:
        if d not in DIRECTIONS:
            raise InvalidParameterError(f"direction must be one of {DIRECTIONS}, got {d!r}")
    m, n, _ = blocks.shape
    exact = np.issubdtype(blocks.dtype, np.integer) and blocks.dtype.itemsize <= 2
    if exact and m * n >= INT64_ROWS:
        raise DatasetTooLargeError(f"{m * n} rows overflow the exact int64 moment (limit {INT64_ROWS})")
    k = max(1, CHUNK_ROWS // n)
    flat = np.empty(n * min(k, m) * n)
    totals = {d: np.zeros((n, n), dtype=np.int64 if exact else float) for d in directions}
    for start in range(0, m, k):
        chunk = blocks[start : start + k]
        buf = flat[: chunk.size].reshape(n, chunk.shape[0], n)
        np.copyto(buf, chunk.transpose(1, 0, 2))
        for d, total in totals.items():
            if d == "row":
                a = buf.reshape(-1, n)
                prod = a.T @ a
            else:
                a = buf.reshape(n, -1)
                prod = a @ a.T
            total += prod.astype(total.dtype)
    return tuple(SampleCovariance(size=n, matrix=totals[d] / (m * n)) for d in directions)


def logdet_tridiagonal(lap: LineGraphLaplacian) -> float:
    """log det of the Laplacian's tridiagonal matrix via the pivot recurrence.

    Runs the leading-principal-minor recurrence in ratio form
    r_k = a_k - b_{k-1}^2 / r_{k-1} (so d_k = r_k d_{k-1}) and sums logs,
    which is overflow-free.  Any nonpositive pivot means the matrix is
    not positive definite.
    """
    diag, off = lap.diagonal, lap.off_diagonal
    r = diag[0]
    if r <= 0:
        raise NonPositiveDefiniteError("leading minor is not positive")
    acc = math.log(r)
    for k in range(1, len(diag)):
        r = diag[k] - off[k - 1] ** 2 / r
        if r <= 0:
            raise NonPositiveDefiniteError(f"minor {k + 1} is not positive")
        acc += math.log(r)
    return acc


def _band_trace_product(lap: LineGraphLaplacian, m: np.ndarray) -> float:
    """Tr(L m) for the Laplacian's symmetric tridiagonal matrix L."""
    idx = np.arange(lap.size - 1)
    return float(lap.diagonal @ np.diag(m) + 2.0 * lap.off_diagonal @ m[idx, idx + 1])


def ml_objective(params: GraphParams, cov: SampleCovariance) -> float:
    """Tr(L S) - logdet L at an interior point (w > 0, v > 0)."""
    lap = build_ggl(params, cov.size)
    return _band_trace_product(lap, cov.matrix) - logdet_tridiagonal(lap)


def _path_trace(cov: SampleCovariance) -> float:
    """Tr(P S) for the unit-weight path-graph Laplacian P = dL/dw.

    It is the summed second moment of the adjacent differences x_i - x_{i+1}.
    """
    path = build_ggl(GraphParams(1.0, 0.0, GraphFamily.L1), cov.size)
    return _band_trace_product(path, cov.matrix)


def ml_gradient(params: GraphParams, cov: SampleCovariance) -> tuple[float, float]:
    """Partial derivatives of the objective with respect to (w, v).

    With det L = v w^(N-1) (see ``solve_ml``) they are
    Tr(P S) - (N-1)/w and S_kk - 1/v, where k is the self-loop vertex.
    """
    k = build_ggl(params, cov.size).self_loop_vertex
    if not params.is_positive_definite:
        raise NonPositiveDefiniteError(
            f"gradient needs w > 0 and v > 0, got w={params.edge_weight}, v={params.vertex_weight}"
        )
    d_w = _path_trace(cov) - (cov.size - 1) / params.edge_weight
    d_v = float(cov.matrix[k, k]) - 1.0 / params.vertex_weight
    return d_w, d_v


def solve_ml(cov: SampleCovariance, family: GraphFamily) -> MLSolution:
    """Exact ML fit: w* = (N-1)/Tr(PS), v* = 1/S_kk.

    L(w, v) = w P + v e_k e_k^T with P the Laplacian of a path, a tree, so
    every cofactor of P is 1 (matrix-tree theorem) and the determinant lemma
    gives det L = v w^(N-1).  The objective w Tr(PS) + v S_kk - (N-1) log w
    - log v then separates into two one-dimensional convex terms.
    """
    n = cov.size
    k = build_ggl(GraphParams(1.0, 1.0, family), n).self_loop_vertex
    # a zero moment in either term leaves the objective unbounded below
    s_kk = float(cov.matrix[k, k])
    if s_kk <= 0:
        raise DegenerateInputError(f"boundary moment S[{k},{k}] is zero; the fit is unbounded")
    tr_ps = _path_trace(cov)
    if tr_ps <= 0:
        raise DegenerateInputError("adjacent samples never differ (Tr(PS) = 0); the fit is unbounded")
    w, v = (n - 1) / tr_ps, 1.0 / s_kk
    return MLSolution(
        w_star=w,
        v_star=v,
        objective=n - (n - 1) * math.log(w) - math.log(v),
    )


def refine(sol: MLSolution, size: int | None = None) -> RefinedParam:
    """Normalize by w* and round v*/w* to the nearest multiple of 0.25.

    Exact ties round half away from zero.
    """
    if not (math.isfinite(sol.w_star) and math.isfinite(sol.v_star)):
        raise InvalidParameterError(f"fit must be finite, got w* = {sol.w_star}, v* = {sol.v_star}")
    if sol.w_star <= 0:
        raise DegenerateGraphError(f"cannot normalize with w* = {sol.w_star}")
    ratio = sol.v_star / sol.w_star
    alpha = math.floor(abs(ratio) * 4.0 + 0.5) / 4.0 * (1 if ratio >= 0 else -1)
    return RefinedParam(alpha=alpha, size=size if size is not None else 0)
