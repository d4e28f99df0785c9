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
from .estimation import SampleCovariance
from .graph import (
    GraphFamily, GraphParams, LineGraphLaplacian, build_ggl, check_positive_definite, dense_form,
    frozen_view, matrix_text,
)
from .spectral import TransformMatrix, derive_gbt

# rows per GMRF draw; it fixes the Philox split into Box-Muller u1/u2, so the sample bits
SAMPLE_CHUNK_ROWS = 1 << 15


@dataclass(frozen=True)
class IntTransformMatrix:
    """Codec-style integer table: row k holds basis vector k scaled by 64*sqrt(N)."""

    entries: np.ndarray  # (N, N) int, held as a read-only view

    def __post_init__(self):
        object.__setattr__(self, "entries", frozen_view(self.entries))

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
    r = np.floor(np.abs(x) + 0.5)
    r *= np.sign(x)  # in place: one full-size temporary fewer on a block stack
    return r


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


def _gmrf_chunks(precision: LineGraphLaplacian, count: int, seed: int, chunk: int):
    """Draws x ~ N(0, L^{-1}) as (m, N) arrays of at most ``chunk`` rows, ``count`` rows in all.

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
    sizes = (min(chunk, count - start) for start in range(0, count, chunk))
    return (_box_muller(gen, m * n).reshape(m, n) @ cinv for m in sizes)


def sample_gmrf(precision: LineGraphLaplacian, count: int, seed: int) -> np.ndarray:
    """Draw ``count`` vectors x ~ N(0, L^{-1}) as rows of a (count, N) array."""
    chunks = _gmrf_chunks(precision, count, seed, SAMPLE_CHUNK_ROWS)
    out = np.empty((count, precision.size))  # before the first draw, so a huge count fails at once
    for start, x in zip(range(0, count, SAMPLE_CHUNK_ROWS), chunks):
        out[start : start + len(x)] = x
    return out


def sample_covariance(precision: LineGraphLaplacian, count: int, seed: int) -> SampleCovariance:
    """Second-moment matrix of ``count`` GMRF draws, summed chunk by chunk."""
    acc = np.zeros((precision.size, precision.size))
    for x in _gmrf_chunks(precision, count, seed, SAMPLE_CHUNK_ROWS):
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
    learning needs.
    """
    if row_precision.size != col_precision.size:
        raise DimensionMismatchError("row and column graphs must share N")
    n = row_precision.size
    cinv_col = _inverse_cholesky(col_precision)
    (zb,) = _gmrf_chunks(row_precision, count * n, seed, count * n)
    # left-multiply every block by C_col^{-T} in one product over the (n, count*n) layout
    out = cinv_col.T @ zb.reshape(count, n, n).transpose(1, 0, 2).reshape(n, count * n)
    return out.reshape(n, count, n).transpose(1, 0, 2)


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
    bits per sample.  Both bases are orthonormal, so the separable transform
    is too, and by Parseval the error of the reconstruction
    U_col (step q) U_row^T equals the error of the coefficients: the MSE is
    measured there, with no inverse transform.
    """
    if not 0 < step < math.inf:
        raise InvalidParameterError(f"step must be positive and finite, got {step}")
    blocks = np.asarray(blocks, dtype=float)
    if blocks.ndim == 2:
        blocks = blocks[None]
    if blocks.shape[1:] != (col_t.size, row_t.size) or row_t.size != col_t.size:
        raise DimensionMismatchError(
            f"block {blocks.shape[1:]} vs transforms ({col_t.size}, {row_t.size})"
        )
    if len(blocks) == 0:
        raise InvalidParameterError("no blocks to quantize")
    if not np.isfinite(blocks).all():
        raise InvalidParameterError("blocks must be finite")
    # one product over the whole stack: U_col^T X U_row per block, in place
    # where possible, so the stack has few full-size temporaries
    coeffs = col_t.basis.T @ blocks @ row_t.basis
    coeffs /= step
    q = round_half_away(coeffs)
    _, counts = np.unique(q, return_counts=True)  # q holds integers; -0.0 counts as 0
    coeffs -= q
    mse = step**2 * float(np.square(coeffs, out=coeffs).sum()) / blocks.size
    if not math.isfinite(mse):  # coefficients overflowed float64 at this step
        raise InvalidParameterError(f"quantization error is not finite at step {step}")
    p = counts / counts.sum()
    entropy = float(-(p * np.log2(p)).sum())
    return mse, entropy
