"""Learning the two line-graph parameters from sample covariances.

The fit minimizes  Tr(L(w, v) S) - logdet L(w, v)  over w, v > 0, the
negative Gaussian log-likelihood with the Laplacian as precision matrix.
The problem is convex in (w, v) because L is linear in the parameters, so
a projected gradient descent with backtracking is sufficient and any
stationary interior point is the global optimum.  A second step
normalizes the fitted graph (divide by w*) and rounds the vertex weight
to the nearest multiple of 0.25.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solveh_banded

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

BOX_EPS = 1e-9


@dataclass(frozen=True)
class SampleCovariance:
    """Symmetric PSD N x N second-moment matrix of rows or columns."""

    size: int
    matrix: np.ndarray

    def __post_init__(self):
        m = self.matrix
        if m.shape != (self.size, self.size):
            raise DegenerateInputError(f"covariance shape {m.shape} does not match N={self.size}")
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
class SolverOptions:
    gradient_tol: float = 1e-10  # relative to 1 + |objective|
    max_iterations: int = 10_000
    box_eps: float = BOX_EPS


@dataclass(frozen=True)
class MLSolution:
    w_star: float
    v_star: float
    objective: float
    converged: bool
    iterations: int
    boundary: bool  # clipped at the feasible-box floor; treat as degenerate

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


def logdet_tridiagonal(diag: np.ndarray, off: np.ndarray) -> float:
    """log det of a symmetric tridiagonal matrix via the pivot recurrence.

    Runs the leading-principal-minor recurrence in ratio form
    r_k = a_k - b_{k-1}^2 / r_{k-1} (so d_k = r_k d_{k-1}) and sums logs,
    which is overflow-free.  Any nonpositive pivot means the matrix is
    not positive definite.
    """
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


def _band_trace_product(lap_diag, lap_off, m: np.ndarray) -> float:
    """Tr(T m) for symmetric tridiagonal T given by its band."""
    n = len(lap_diag)
    idx = np.arange(n - 1)
    return float(lap_diag @ np.diag(m) + 2.0 * lap_off @ m[idx, idx + 1])


def ml_objective(params: GraphParams, cov: SampleCovariance) -> float:
    """Tr(L S) - logdet L at an interior point (w > 0, v > 0)."""
    lap = build_ggl(params, cov.size)
    tr = _band_trace_product(lap.diagonal, lap.off_diagonal, cov.matrix)
    return tr - logdet_tridiagonal(lap.diagonal, lap.off_diagonal)


def _banded_inverse(lap: LineGraphLaplacian) -> np.ndarray:
    """Dense inverse via Cholesky solves on the tridiagonal band."""
    ab = np.zeros((2, lap.size))
    ab[0, 1:] = lap.off_diagonal
    ab[1] = lap.diagonal
    try:
        return solveh_banded(ab, np.eye(lap.size), lower=False)
    except np.linalg.LinAlgError as exc:
        raise NonPositiveDefiniteError(str(exc)) from exc


def _path_pattern(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Band of the unit-weight path-graph Laplacian P = dL/dw."""
    pat_diag = np.full(n, 2.0)
    pat_diag[0] = pat_diag[-1] = 1.0
    return pat_diag, np.full(n - 1, -1.0)


def ml_gradient(params: GraphParams, cov: SampleCovariance) -> tuple[float, float]:
    """Partial derivatives of the objective with respect to (w, v).

    dL/dw is the unit-weight path-graph Laplacian pattern and dL/dv the
    single diagonal entry at the self-loop vertex, so both derivatives are
    band traces against S - L^{-1}.
    """
    lap = build_ggl(params, cov.size)
    # the pivot recurrence doubles as the PD check
    logdet_tridiagonal(lap.diagonal, lap.off_diagonal)
    delta = cov.matrix - _banded_inverse(lap)
    d_w = _band_trace_product(*_path_pattern(cov.size), delta)
    d_v = float(delta[lap.self_loop_vertex, lap.self_loop_vertex])
    return d_w, d_v


def _projected_gradient_norm(x: np.ndarray, g: np.ndarray, eps: float) -> float:
    pg = g.copy()
    at_floor = x <= eps * (1 + 1e-12)
    pg[at_floor & (g > 0)] = 0.0
    return float(np.hypot(*pg))


def solve_ml(
    cov: SampleCovariance,
    family: GraphFamily,
    opts: SolverOptions | None = None,
) -> MLSolution:
    """Projected gradient descent over the box w, v >= eps.

    Initialized at w = v = N / Tr(S) so the first logdet is finite at the
    scale of the data.  Steps use a Barzilai-Borwein guess refined by
    backtracking; convergence is declared on the projected-gradient norm.
    """
    opts = opts or SolverOptions()
    eps = opts.box_eps
    tr = float(np.trace(cov.matrix))
    if tr <= 0:
        raise DegenerateInputError("covariance has nonpositive trace")
    # the objective is w Tr(PS) + v S_kk - (N-1) log w - log v (det L = v w^(N-1)),
    # so a zero moment in either term leaves it unbounded below
    k = build_ggl(GraphParams(1.0, 1.0, family), cov.size).self_loop_vertex
    if cov.matrix[k, k] <= 0:
        raise DegenerateInputError(f"boundary moment S[{k},{k}] is zero; the fit is unbounded")
    if _band_trace_product(*_path_pattern(cov.size), cov.matrix) <= 0:
        raise DegenerateInputError("adjacent samples never differ (Tr(PS) = 0); the fit is unbounded")

    def f(x):
        try:
            return ml_objective(GraphParams(x[0], x[1], family), cov)
        except NonPositiveDefiniteError:
            return math.inf

    def grad(x):
        return np.array(ml_gradient(GraphParams(x[0], x[1], family), cov))

    x = np.array([cov.size / tr, cov.size / tr])
    fx = f(x)
    g = grad(x)
    step = 1.0 / (1.0 + float(np.hypot(*g)))
    converged = False
    iterations = 0
    for iterations in range(1, opts.max_iterations + 1):
        if _projected_gradient_norm(x, g, eps) <= opts.gradient_tol * (1.0 + abs(fx)):
            converged = True
            break
        t = step
        for _ in range(80):
            x_new = np.maximum(x - t * g, eps)
            d = x_new - x
            f_new = f(x_new)
            # sufficient decrease for the projected step
            if f_new <= fx + g @ d + (d @ d) / (2.0 * t) + 1e-12 * (1.0 + abs(fx)):
                break
            t *= 0.5
        else:
            break  # no acceptable step at machine precision
        if not np.any(x_new != x):
            converged = True
            break
        g_new = grad(x_new)
        s, y = x_new - x, g_new - g
        sy = float(s @ y)
        step = float(s @ s) / sy if sy > 0 else t * 2.0
        x, fx, g = x_new, f_new, g_new
    boundary = bool(np.any(x <= eps * (1 + 1e-9)))
    return MLSolution(
        w_star=float(x[0]),
        v_star=float(x[1]),
        objective=float(fx),
        converged=converged,
        iterations=iterations,
        boundary=boundary,
    )


def refine(sol: MLSolution, size: int | None = None) -> RefinedParam:
    """Normalize by w* and round v*/w* to the nearest multiple of 0.25.

    Exact ties round half away from zero.
    """
    if sol.w_star <= 0:
        raise DegenerateGraphError(f"cannot normalize with w* = {sol.w_star}")
    ratio = sol.v_star / sol.w_star
    alpha = math.floor(abs(ratio) * 4.0 + 0.5) / 4.0 * (1 if ratio >= 0 else -1)
    return RefinedParam(alpha=alpha, size=size if size is not None else 0)


def learn_gbst(
    dataset: ResidualDataset,
    family_row: GraphFamily,
    family_col: GraphFamily,
    opts: SolverOptions | None = None,
) -> tuple[RefinedParam, RefinedParam]:
    """Full two-step pipeline: covariances -> ML fit per direction -> rounding."""
    row_cov, col_cov = residual_covariances(dataset)
    n = dataset.block_size
    row_sol = solve_ml(row_cov, family_row, opts)
    col_sol = solve_ml(col_cov, family_col, opts)
    return refine(row_sol, n), refine(col_sol, n)
