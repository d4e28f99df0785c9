"""Desk-scale evaluation: GMRF sampling, coding metrics, sweeps, integer tables.

Random numbers come from a Philox 64-bit counter-based generator with
Gaussian variates produced by Box-Muller on its uniform stream, so the
sample sequence for a given seed is reproducible across platforms and
implementations that follow the same recipe.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    IntegerOverflowError,
    InvalidParameterError,
    NonPositiveDefiniteError,
)
from .dataset import CHUNK_VALUES, block_chunks
from .estimation import SampleCovariance
from .graph import (
    GraphFamily, GraphParams, LineGraphLaplacian, build_ggl, check_positive_definite, dense_form,
    frozen_view, matrix_text, real_array, round_half_away,
)
from .spectral import TransformMatrix, apply_separable, check_block_shape, derive_gbt

# rows per GMRF draw; it fixes the Philox split into Box-Muller u1/u2, so the sample bits
SAMPLE_CHUNK_ROWS = 1 << 15
# Box-Muller pairs per piece: above N = 8 a chunk is drawn in pieces of at most 2^18 values
_PIECE_PAIRS = 1 << 17
# no Box-Muller value is larger in magnitude: 1 - u1 >= 2^-53, so r = sqrt(-2 log(1 - u1)) <= this
_BOX_MULLER_MAX = math.sqrt(106.0 * math.log(2.0))
# values one draw may make: the draw streams in chunks, so memory alone does not bound count
SAMPLE_MAX_VALUES = 1 << 40


@dataclass(frozen=True, eq=False)
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


def _box_muller(gen: np.random.Generator, count: int, gen2: np.random.Generator | None = None) -> np.ndarray:
    """``count`` standard normals: r cos(2 pi u2), r sin(2 pi u2) with r = sqrt(-2 log(1 - u1)).

    u1 comes from ``gen`` and u2 from ``gen2``, by default from ``gen`` after u1.
    Each (pairs,) array lives only until its last use, so a draw holds at
    most r, the angle and one cosine or sine beside the output.
    """
    pairs = (count + 1) // 2
    r = np.sqrt(-2.0 * np.log(1.0 - gen.random(pairs)))  # 1 - u1 is in (0, 1], so the log is finite
    angle = 2.0 * np.pi * (gen if gen2 is None else gen2).random(pairs)
    z = np.empty(2 * pairs)
    np.multiply(r, np.cos(angle), out=z[0::2])
    np.multiply(r, np.sin(angle), out=z[1::2])
    return z[:count]


def _philox_at(seed: int, position: int) -> np.random.Generator:
    """A generator whose next uniform is draw ``position`` of the Philox(seed) stream."""
    bits = np.random.Philox(seed)
    bits.advance(position // 4)  # one counter step makes four 64-bit draws
    bits.random_raw(position % 4)
    return np.random.Generator(bits)


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


def _exact_int(name: str, x) -> int:
    """``x`` as a Python int, so no int64 product of it wraps; InvalidParameterError unless integral."""
    try:
        return operator.index(x)
    except TypeError:
        raise InvalidParameterError(f"{name} must be an integer, got {x!r}") from None


def gmrf_chunks(precision: LineGraphLaplacian, count: int, seed: int):
    """Draws x ~ N(0, L^{-1}) as (m, N) arrays of at most 2^18 values, ``count`` rows in all.

    With the Cholesky factor L = C C^T, each standard normal row g maps to
    x = g C^{-1}, so cov(x) = C^{-T} C^{-1} = L^{-1}.  The checks run on the
    call, the bound on count * N first; the draws run as the result is iterated.
    """
    n, count, seed = precision.size, _exact_int("count", count), _exact_int("seed", seed)
    if count * n > SAMPLE_MAX_VALUES:
        raise InvalidParameterError(f"count {count} at N={n} exceeds {SAMPLE_MAX_VALUES} values")
    if count < 1:
        raise InvalidParameterError(f"count must be >= 1, got {count}")
    if seed < 0:
        raise InvalidParameterError(f"seed must be >= 0, got {seed}")
    return _draw_pieces(_inverse_cholesky(precision), count, seed)


def _draw_pieces(cinv: np.ndarray, count: int, seed: int):
    """The rows g C^{-1} of ``count`` Box-Muller rows g, in pieces of at most 2 * _PIECE_PAIRS values.

    Chunk k of SAMPLE_CHUNK_ROWS rows takes its u1, then its u2, from the
    Philox stream, as one Box-Muller call on that chunk would.  Its pieces
    take u1 from the generator the chunk began on and u2 from a second one
    started where the chunk's u2 begins, so they carry the chunk's bits;
    that second generator ends where the next chunk's u1 begins.
    """
    n = len(cinv)
    rows = 2 * (_PIECE_PAIRS // n)  # even, so every piece but a last one ends on a whole pair
    first, drawn = np.random.Generator(np.random.Philox(seed)), 0
    for start in range(0, count, SAMPLE_CHUNK_ROWS):
        m = min(SAMPLE_CHUNK_ROWS, count - start)
        pairs = (m * n + 1) // 2
        second = _philox_at(seed, drawn + pairs)
        for i in range(0, m, rows):
            k = min(rows, m - i)
            yield _box_muller(first, k * n, second).reshape(k, n) @ cinv
        first, drawn = second, drawn + 2 * pairs


def sample_gmrf(precision: LineGraphLaplacian, count: int, seed: int) -> np.ndarray:
    """Draw ``count`` vectors x ~ N(0, L^{-1}) as rows of a (count, N) array."""
    pieces = gmrf_chunks(precision, count, seed)
    out = np.empty((count, precision.size))  # before any draw, so a count too big for memory fails at once
    start = 0
    for x in pieces:
        out[start : start + len(x)] = x
        start += len(x)
    return out


def _draw_gain(cinv: np.ndarray) -> float:
    """max_j sum_i |C^{-1}_ij|: the largest |(g C^{-1})_j| over rows g with every |g_i| <= 1."""
    return float(np.abs(cinv).sum(axis=0).max())


def _check_draw_bound(bound: float) -> None:
    """Raise, before any draw, unless twice ``bound`` is finite; the factor 2 covers roundoff."""
    if not math.isfinite(2.0 * bound):
        raise InvalidParameterError("samples at these graph weights may overflow float64")


def sample_covariance(precision: LineGraphLaplacian, count: int, seed: int) -> SampleCovariance:
    """Second-moment matrix of ``count`` GMRF draws, summed piece by piece."""
    pieces = gmrf_chunks(precision, count, seed)
    largest = _BOX_MULLER_MAX * _draw_gain(_inverse_cholesky(precision))
    _check_draw_bound(count * largest * largest)  # an entry sums count products of two draws
    acc = np.zeros((precision.size, precision.size))
    for x in pieces:
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
    n, count = row_precision.size, _exact_int("count", count)
    cinv_col = _inverse_cholesky(col_precision)
    # |X| <= |C_col^{-T}| |Z C_row^{-1}| entrywise
    _check_draw_bound(_BOX_MULLER_MAX * _draw_gain(_inverse_cholesky(row_precision)) * _draw_gain(cinv_col))
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
        raise IntegerOverflowError(f"entry magnitude {worst:.0f} exceeds 127")
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
    bits per sample.  A ``TransformMatrix`` is orthonormal, so by Parseval the
    reconstruction U_col (step q) U_row^T has the coefficients' error: the
    MSE is measured there, with no inverse transform.

    The stack is walked by ``block_chunks``, each chunk converted to float64
    and transformed on its own, so no temporary outgrows a chunk and the
    pages of a read-only file mapping are released behind the walk.  The
    stacked product gives every chunk's coefficients bit for bit as the
    whole stack would.  Each chunk adds its squared residuals c/step - q to
    a running sum and its index counts to one table: the counts, and so the
    entropy, are those of the whole stack, and only the order in which the
    MSE is summed depends on the chunking.

    The table is dense, int64 counts over the span of the indices seen so
    far, and a chunk adds one ``np.bincount`` to it.  It holds at most
    CHUNK_VALUES entries, the values of one chunk: a walk whose span
    outgrows that, or whose indices leave +-2^53, moves its counts once into
    a sorted table of the distinct indices, which each later chunk's
    ``np.unique`` counts merge into.  A chunk whose squared-error sum is not
    finite is not counted, since the call raises after the walk.

    Each chunk is rounded once, by ``rint``, and the residual is formed in
    place.  A tie leaves |c/step - q| = 1/2 whichever way it rounds, so the
    tie rule moves only the indices: just the entries whose residual is
    +-1/2 go back through ``round_half_away``, at q + residual, which is
    exactly c/step.  A finite coefficient leaves a residual of at most 1/2,
    so a chunk's squared-error sum is finite unless one of its coefficients
    is not; only then are its samples scanned, to tell a non-finite sample
    from an overflowing product.
    """
    if not (0 < step < math.inf and math.isfinite(float(step) * float(step))):  # step**2 scales the MSE
        raise InvalidParameterError(f"step must be positive, with a finite square, got {step}")
    blocks = real_array(blocks)  # a memmap stays one, so the walk can release its pages
    check_block_shape(blocks, row_t, col_t)
    if blocks.size == 0:
        raise InvalidParameterError("no blocks to quantize")
    # table[i] counts index lo + i; values/counts, once set, are the sorted table, whose float64
    # counts stay exact below 2^53, more indices than any stack holds
    sq_err, lo, table, values, counts = 0.0, 0, np.zeros(0, np.int64), None, None
    # the warnings of an overflowing product end in a typed error below
    with np.errstate(over="ignore", invalid="ignore"):
        for chunk in block_chunks(blocks.reshape(-1, col_t.size, col_t.size)):
            x = np.asarray(chunk, dtype=float)
            c = apply_separable(x, row_t, col_t)
            c /= step
            q = np.rint(c)
            c -= q
            if c.max() == 0.5 or c.min() == -0.5:  # |c| <= 1/2: two reductions find a tie, no mask
                tie = np.abs(c) == 0.5
                q[tie] = round_half_away(q[tie] + c[tie])
            # einsum sums in its own loop: a BLAS dot would wake the BLAS thread pool
            chunk_err = float(np.einsum("ijk,ijk->", c, c))
            if not math.isfinite(chunk_err) and not np.isfinite(x).all():
                raise InvalidParameterError("blocks must be finite")
            sq_err += chunk_err
            if not math.isfinite(sq_err):  # q may hold inf or NaN; the call raises below
                continue
            if values is None:
                qlo, qhi = int(q.min()), int(q.max())
                if table.size:
                    qlo, qhi = min(qlo, lo), max(qhi, lo + table.size - 1)
                if qhi - qlo < CHUNK_VALUES and max(-qlo, qhi) <= 2**53:
                    if qhi - qlo >= table.size:  # the span grew: move the counts into a wider table
                        grown = np.zeros(qhi - qlo + 1, np.int64)
                        grown[lo - qlo : lo - qlo + table.size] = table
                        lo, table = qlo, grown
                    slot = q.astype(np.intp)  # exact within 2^53; -0.0 counts as 0
                    slot -= lo
                    table += np.bincount(slot.ravel(), minlength=table.size)
                    continue
                held = np.flatnonzero(table)  # the span outgrew the cap: sorted from here on
                values, counts = (held + lo).astype(float), table[held].astype(float)
            v, cnt = np.unique(q, return_counts=True)  # q holds integers; -0.0 counts as 0
            values, slot = np.unique(np.concatenate((values, v)), return_inverse=True)
            counts = np.bincount(slot, np.concatenate((counts, cnt)))
        mse = step**2 * sq_err / blocks.size
    if not math.isfinite(mse):  # coefficients overflowed float64 at this step
        raise InvalidParameterError(f"quantization error is not finite at step {step}")
    if values is None:
        counts = table[table > 0]
    p = counts / counts.sum()
    entropy = float(0.0 - (p * np.log2(p)).sum())  # 0.0 - 0.0 is +0.0 where -(0.0) is -0.0
    return mse, entropy
