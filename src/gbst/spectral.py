"""Transforms from Laplacian eigendecomposition, and separable block application.

The transform associated with a line-graph Laplacian is its orthonormal
eigenvector matrix, with columns ordered by ascending eigenvalue (lowest
frequency first).  Signs are fixed so that in every column the first
entry of magnitude above 1e-12 is positive; all cross-implementation and
flip/scale comparisons in this package rely on that canonical form.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DecompositionError, DimensionMismatchError, InvalidParameterError
from .graph import LineGraphLaplacian, dense_form, frozen_view, matrix_text, real_array

SIGN_EPS = 1e-12
EIGENVALUE_GAP_MIN = 1e-12
# Distinct Laplacians kept by derive_gbt.  A 9-point sweep needs 9; one fit
# pass over N = 4, 8, 16, 32, 64 and both families (sweep plus refined
# alphas) makes 110 calls on 85 distinct Laplacians.
GBT_CACHE_SIZE = 256


@dataclass(frozen=True, eq=False)
class TransformMatrix:
    """Orthonormal basis: column k of ``basis`` is the k-th basis vector.

    ``eigenvalues`` is ascending; entry k belongs to column k.  Both are read-only views.
    A basis off by more than 1e-10 (max|U^T U - I|), or not finite, raises InvalidParameterError.
    """

    basis: np.ndarray
    eigenvalues: np.ndarray

    def __post_init__(self):
        b, e = frozen_view(self.basis), frozen_view(self.eigenvalues)
        if b.ndim != 2 or b.shape[0] != b.shape[1] or e.shape != b.shape[:1] or b.size == 0:
            raise DimensionMismatchError(
                f"basis {b.shape} and eigenvalues {e.shape} are not (N, N) and (N,) with N >= 1"
            )
        with np.errstate(over="ignore", invalid="ignore"):  # a NaN, inf or overflowing basis fails too
            if not np.abs(b.T @ np.asarray(b, dtype=float) - np.eye(len(b))).max() <= 1e-10:
                raise InvalidParameterError("basis is not orthonormal: max|U^T U - I| > 1e-10")
        object.__setattr__(self, "basis", b)
        object.__setattr__(self, "eigenvalues", e)

    @property
    def size(self) -> int:
        return self.basis.shape[0]


def canonical_signs(basis: np.ndarray) -> np.ndarray:
    """Flip columns so the first entry with |.| > 1e-12 is positive."""
    big = np.abs(basis) > SIGN_EPS
    first = big.argmax(axis=0)  # 0 for a column with no such entry; ``big.any`` masks it
    flip = big.any(axis=0) & (basis[first, np.arange(basis.shape[1])] < 0)
    return np.where(flip, -basis, basis)


@lru_cache(maxsize=GBT_CACHE_SIZE)
def derive_gbt(lap: LineGraphLaplacian) -> TransformMatrix:
    """Eigendecompose the tridiagonal Laplacian into an orthonormal transform.

    Raises DecompositionError if the solver fails or the spectrum is not
    simple (adjacent eigenvalue gap <= 1e-12); degenerate spectra would
    make the basis non-unique and are never silently accepted.

    Results are cached by the Laplacian's value, its parameters and size,
    so equal graphs share one read-only TransformMatrix.  Only repeated
    graphs gain: for N > 25 LAPACK's divide-and-conquer step wakes
    OpenBLAS's thread pool, which then spins for ~0.1 s, so a first
    decomposition costs more CPU than wall.
    """
    m = dense_form(lap)
    try:
        vals, vecs = np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise DecompositionError(f"symmetric eigensolver failed: {exc}") from exc
    if np.any(np.diff(vals) <= EIGENVALUE_GAP_MIN):
        raise DecompositionError(
            f"degenerate spectrum: minimum eigenvalue gap {np.diff(vals).min():.3e}"
        )
    # clamp roundoff-negative zeros; anything materially negative is a failure
    floor = -1e-9 * max(1.0, float(np.abs(np.diag(m)).max()))
    if vals[0] < floor:
        raise DecompositionError(f"negative eigenvalue {vals[0]:.3e} from a PSD Laplacian")
    vals = np.maximum(vals, 0.0)
    return TransformMatrix(canonical_signs(vecs), vals)


def check_block_shape(blocks: np.ndarray, row_t: TransformMatrix, col_t: TransformMatrix) -> None:
    """Raise DimensionMismatchError unless ``blocks`` is one (N, N) block or an (M, N, N) stack.

    N is the size of both transforms.  Only the shape is read, so an array is
    checked before any of it is converted.
    """
    n = col_t.size
    if row_t.size != n or blocks.ndim not in (2, 3) or blocks.shape[-2:] != (n, n):
        raise DimensionMismatchError(f"block {blocks.shape} vs transforms ({n}, {row_t.size})")


def _check_blocks(blocks: np.ndarray, row_t: TransformMatrix, col_t: TransformMatrix) -> np.ndarray:
    """``blocks`` as float64, checked by ``real_array`` and ``check_block_shape``."""
    blocks = np.asarray(real_array(blocks), dtype=float)
    check_block_shape(blocks, row_t, col_t)
    return blocks


def apply_separable(block: np.ndarray, row_t: TransformMatrix, col_t: TransformMatrix) -> np.ndarray:
    """Forward separable transform U_col^T X U_row of one block or of each block of a stack."""
    return col_t.basis.T @ _check_blocks(block, row_t, col_t) @ row_t.basis


def inverse_separable(coeffs: np.ndarray, row_t: TransformMatrix, col_t: TransformMatrix) -> np.ndarray:
    """Inverse of apply_separable: U_col Xhat U_row^T."""
    return col_t.basis @ _check_blocks(coeffs, row_t, col_t) @ row_t.basis.T


def gbt_dump(t: TransformMatrix, lap: LineGraphLaplacian) -> str:
    """Basis dump: GBT header line, then N rows (sample index) x N columns (basis index)."""
    p = lap.params
    header = (
        f"GBT N={t.size} family={p.family.value} "
        f"w={p.edge_weight:.17g} v={p.vertex_weight:.17g}"
    )
    return header + "\n" + matrix_text(t.basis)
