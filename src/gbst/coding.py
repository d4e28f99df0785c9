"""Desk-scale evaluation: GMRF sampling, coding metrics, sweeps, integer tables.

Random numbers come from a Philox 64-bit counter-based generator with
Gaussian variates produced by Box-Muller on its uniform stream, so the
sample sequence for a given seed is reproducible across platforms and
implementations that follow the same recipe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    IntegerOverflowError,
    InvalidParameterError,
    NonPositiveDefiniteError,
)
from .dataset import block_chunks
from .estimation import SampleCovariance
from .graph import (
    GraphFamily, GraphParams, LineGraphLaplacian, build_ggl, check_positive_definite, dense_form,
    frozen_view, matrix_text,
)
from .spectral import TransformMatrix, apply_separable, check_block_shape, derive_gbt

# rows per GMRF draw; it fixes the Philox split into Box-Muller u1/u2, so the sample bits
SAMPLE_CHUNK_ROWS = 1 << 15


@dataclass(frozen=True)
class IntTransformMatrix:
    """Codec-style integer table: row k holds basis vector k scaled by 64*sqrt(N)."""

    entries: np.ndarray  # (N, N) int, held as a read-only view

    def __post_init__(self):
        e = frozen_view(self.entries)
        if e.ndim != 2 or e.shape[0] != e.shape[1] or e.size == 0:
            raise DimensionMismatchError(f"integer table {e.shape} is not (N, N) with N >= 1")
        if not np.issubdtype(e.dtype, np.integer):
            raise InvalidParameterError(f"integer table has dtype {e.dtype}, not an integer type")
        object.__setattr__(self, "entries", e)

    @property
    def size(self) -> int:
        return self.entries.shape[0]

    @property
    def scale_shift(self) -> float:
        """log2 of the nominal scale, 6 + log2(N)/2."""
        return 6.0 + 0.5 * math.log2(self.size)


@dataclass(frozen=True)
class CodingMetrics:
    coding_gain_db: float
    energy_compaction: float
    entropy_proxy_bits: float


def round_half_away(x: np.ndarray) -> np.ndarray:
    """Round to nearest integer, ties away from zero (not banker's)."""
    q = np.rint(x)
    # x - rint(x) is exact, and is +-1/2 only at a tie k + 1/2, which rint sends to
    # the even neighbour; there x + copysign(1/2, x) is exact and the neighbour away from 0
    with np.errstate(invalid="ignore"):  # inf - inf is nan, no tie; q stays inf
        tie = np.abs(x - q) == 0.5
    if tie.any():
        q = np.where(tie, x + np.copysign(0.5, x), q)
    return q


def _box_muller(gen: np.random.Generator, count: int) -> np.ndarray:
    pairs = (count + 1) // 2
    u1 = 1.0 - gen.random(pairs)  # in (0, 1], keeps the log finite
    u2 = gen.random(pairs)
    r = np.sqrt(-2.0 * np.log(u1))
    z = np.empty(2 * pairs)
    z[0::2] = r * np.cos(2.0 * np.pi * u2)
    z[1::2] = r * np.sin(2.0 * np.pi * u2)
    return z[:count]


def _factor_precision(lap: LineGraphLaplacian, factor) -> np.ndarray:
    """``factor(dense_form(lap))``; a precision singular in float64 raises NonPositiveDefiniteError."""
    check_positive_definite(lap.params)
    w, v = lap.params.edge_weight, lap.params.vertex_weight
    if w + v == w:  # the float64 matrix is the singular w P, which LAPACK may factor by roundoff
        raise NonPositiveDefiniteError(f"precision is singular in float64: v={v} vanishes beside w={w}")
    try:
        return factor(dense_form(lap))
    except np.linalg.LinAlgError as exc:
        raise NonPositiveDefiniteError(str(exc)) from exc


def _inverse_cholesky(lap: LineGraphLaplacian) -> np.ndarray:
    """C^{-1} for the lower Cholesky factor L = C C^T; rows g C^{-1} have covariance L^{-1}."""
    return _factor_precision(lap, lambda m: np.linalg.inv(np.linalg.cholesky(m)))


def _gmrf_chunks(precision: LineGraphLaplacian, count: int, seed: int):
    """Draws x ~ N(0, L^{-1}) as (m, N) arrays of at most SAMPLE_CHUNK_ROWS rows, ``count`` rows in all.

    With the Cholesky factor L = C C^T, each standard normal row g maps to
    x = g C^{-1}, so cov(x) = C^{-T} C^{-1} = L^{-1}.  The checks run on the
    call; the draws run as the result is iterated.
    """
    if count < 1:
        raise InvalidParameterError(f"count must be >= 1, got {count}")
    if seed < 0:
        raise InvalidParameterError(f"seed must be >= 0, got {seed}")
    n = precision.size
    cinv = _inverse_cholesky(precision)
    gen = np.random.Generator(np.random.Philox(seed))
    sizes = (min(SAMPLE_CHUNK_ROWS, count - start) for start in range(0, count, SAMPLE_CHUNK_ROWS))
    return (_box_muller(gen, m * n).reshape(m, n) @ cinv for m in sizes)


def sample_gmrf(precision: LineGraphLaplacian, count: int, seed: int) -> np.ndarray:
    """Draw ``count`` vectors x ~ N(0, L^{-1}) as rows of a (count, N) array."""
    chunks = _gmrf_chunks(precision, count, seed)
    try:  # before the first draw, so a huge count fails at once
        out = np.empty((count, precision.size))
    except ValueError as exc:  # a shape past numpy's limits; one too big for memory is a MemoryError
        raise InvalidParameterError(f"count {count} at N={precision.size} exceeds one array") from exc
    for start, x in zip(range(0, count, SAMPLE_CHUNK_ROWS), chunks):
        out[start : start + len(x)] = x
    return out


def sample_covariance(precision: LineGraphLaplacian, count: int, seed: int) -> SampleCovariance:
    """Second-moment matrix of ``count`` GMRF draws, summed chunk by chunk."""
    acc = np.zeros((precision.size, precision.size))
    for x in _gmrf_chunks(precision, count, seed):
        acc += x.T @ x
    return SampleCovariance(acc / count)


def sample_gmrf_blocks(
    row_precision: LineGraphLaplacian,
    col_precision: LineGraphLaplacian,
    count: int,
    seed: int,
) -> np.ndarray:
    """Matrix-normal blocks whose rows follow the row graph and columns the column graph.

    X = C_col^{-T} Z C_row^{-1} with the Cholesky factors of the two
    precisions; row and column second moments come out proportional to
    the respective inverse Laplacians, which is all the ratio-based
    learning needs.  Z C_row^{-1} is count*N rows of ``sample_gmrf``;
    ``block_chunks`` walks them and left-multiplies each chunk in place, so
    no second array of the output's size is made.
    """
    if row_precision.size != col_precision.size:
        raise DimensionMismatchError("row and column graphs must share N")
    n = row_precision.size
    cinv_col = _inverse_cholesky(col_precision)
    x = sample_gmrf(row_precision, count * n, seed).reshape(count, n, n)
    for chunk in block_chunks(x):
        chunk[...] = cinv_col.T @ chunk
    return x


def model_covariance(lap: LineGraphLaplacian) -> SampleCovariance:
    """Exact covariance L^{-1} of the GMRF with precision L."""
    return SampleCovariance(_factor_precision(lap, np.linalg.inv))


def check_transform_size(transform_n: int, covariance_n: int) -> None:
    """Raise DimensionMismatchError unless the transform and covariance sizes agree."""
    if transform_n != covariance_n:
        raise DimensionMismatchError(f"transform N={transform_n} vs covariance N={covariance_n}")


def evaluate_metrics(t: TransformMatrix, cov: SampleCovariance) -> CodingMetrics:
    """Coding gain, energy fraction in the lowest max(1, N // 4) coefficients, entropy proxy.

    The coding gain is the arithmetic-to-geometric mean ratio of the
    coefficient variances in dB.  The entropy proxy is the mean Gaussian
    differential entropy of the coefficient variances in bits; it orders
    transforms the same way the geometric mean does.
    """
    check_transform_size(t.size, cov.size)
    try:
        np.linalg.cholesky(cov.matrix)
    except np.linalg.LinAlgError as exc:
        raise NonPositiveDefiniteError("covariance must be positive definite") from exc
    d = np.einsum("nk,nm,mk->k", t.basis, cov.matrix, t.basis)
    n = t.size
    k = max(1, n // 4)
    gain = 10.0 * math.log10((np.trace(cov.matrix) / n) / math.exp(np.log(d).mean()))
    compaction = float(d[:k].sum() / d.sum())
    entropy = float(0.5 * np.log2(2.0 * np.pi * np.e * d).mean())
    return CodingMetrics(
        coding_gain_db=gain, energy_compaction=compaction, entropy_proxy_bits=entropy
    )


def alpha_sweep(
    cov: SampleCovariance,
    n: int,
    family: GraphFamily,
    alphas,
) -> list[tuple[float, CodingMetrics]]:
    """Metrics of the normalized-graph transform (w=1, v=alpha) per alpha, scored on ``cov``."""
    alphas = list(alphas)
    if not alphas:
        raise InvalidParameterError("alpha list is empty")
    rows = []
    for alpha in alphas:
        t = derive_gbt(build_ggl(GraphParams(1.0, float(alpha), family), n))
        rows.append((float(alpha), evaluate_metrics(t, cov)))
    return rows


def sweep_csv(rows: list[tuple[float, CodingMetrics]]) -> str:
    lines = ["alpha,coding_gain_db,energy_compaction,entropy_bits"]
    for alpha, m in rows:
        lines.append(
            f"{alpha:.17g},{m.coding_gain_db:.17g},"
            f"{m.energy_compaction:.17g},{m.entropy_proxy_bits:.17g}"
        )
    return "\n".join(lines) + "\n"


def integerize(t: TransformMatrix) -> IntTransformMatrix:
    """Scale the basis by 64*sqrt(N) and round, codec table layout.

    Row k of the table is basis vector k.  Any rounded magnitude above
    127 is an error, never a silent clamp.
    """
    scale = 64.0 * math.sqrt(t.size)
    entries = round_half_away(scale * t.basis.T)
    worst = np.abs(entries).max()
    if worst > 127:
        raise IntegerOverflowError(f"entry magnitude {int(worst)} exceeds 127")
    return IntTransformMatrix(entries.astype(np.int64))


def int_matrix_text(m: IntTransformMatrix) -> str:
    header = f"INTGBT N={m.size} shift={m.scale_shift:g}"
    return header + "\n" + matrix_text(m.entries)


def quantize_roundtrip_distortion(
    blocks: np.ndarray,
    row_t: TransformMatrix,
    col_t: TransformMatrix,
    step: float,
) -> tuple[float, float]:
    """Transform, uniform-quantize; reconstruction MSE and index entropy.

    Quantization is plain rounding half away from zero (no dead zone);
    entropy is the empirical first-order entropy of the integer indices in
    bits per sample.  Both bases must be orthonormal, so the separable
    transform is too, and by Parseval the error of the reconstruction
    U_col (step q) U_row^T equals the error of the coefficients: the MSE is
    measured there, with no inverse transform.

    The stack is walked by ``block_chunks``, each chunk converted to float64
    and transformed on its own, so no temporary outgrows a chunk and the
    pages of a read-only file mapping are released behind the walk.  The
    stacked product gives every chunk's coefficients bit for bit as the
    whole stack would.  Each chunk adds its squared residuals c/step - q to
    a running sum and its index counts to one sorted table: the counts, and
    so the entropy, are those of the whole stack, and only the order in
    which the MSE is summed depends on the chunking.  A tie leaves
    |c/step - q| = 1/2 whichever way it rounds, so the tie rule moves only
    the indices.
    """
    if not 0 < step < math.inf:
        raise InvalidParameterError(f"step must be positive and finite, got {step}")
    blocks = np.asanyarray(blocks)  # a memmap stays one, so the walk can release its pages
    check_block_shape(blocks, row_t, col_t)
    if blocks.size == 0:
        raise InvalidParameterError("no blocks to quantize")
    sq_err, values, counts = 0.0, np.empty(0), np.empty(0, dtype=np.int64)
    # the warnings of an overflowing product end in a typed error below
    with np.errstate(over="ignore", invalid="ignore"):
        for t in (row_t, col_t):  # Parseval needs an orthonormal basis; a NaN one fails too
            if not np.abs(t.basis.T @ t.basis - np.eye(t.size)).max() <= 1e-10:
                raise InvalidParameterError("quantizer needs orthonormal bases: max|U^T U - I| > 1e-10")
        for chunk in block_chunks(blocks.reshape(-1, col_t.size, col_t.size)):
            x = np.asarray(chunk, dtype=float)
            if not np.isfinite(x).all():
                raise InvalidParameterError("blocks must be finite")
            c = apply_separable(x, row_t, col_t)
            c /= step
            q = round_half_away(c)
            v, cnt = np.unique(q, return_counts=True)  # q holds integers; -0.0 counts as 0
            # both tables are sorted and unique, so each count lands on one slot
            merged = np.union1d(values, v)
            total = np.zeros(merged.shape, dtype=np.int64)
            total[np.searchsorted(merged, values)] += counts
            total[np.searchsorted(merged, v)] += cnt
            values, counts = merged, total
            c -= q
            # einsum sums in its own loop: a BLAS dot would wake the BLAS thread pool
            sq_err += float(np.einsum("ijk,ijk->", c, c))
        mse = step**2 * sq_err / blocks.size
    if not math.isfinite(mse):  # coefficients overflowed float64 at this step
        raise InvalidParameterError(f"quantization error is not finite at step {step}")
    p = counts / counts.sum()
    entropy = float(-(p * np.log2(p)).sum())
    return mse, entropy
