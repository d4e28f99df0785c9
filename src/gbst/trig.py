"""Closed-form DCT/DST matrices and their line-graph cross-checks.

Five trigonometric transform types arise from the two line-graph families
at special parameter ratios:

    DCT-2  <- v = 0    (either family)
    DST-7  <- v = w    in L1          DCT-8 <- v = w    in L2
    DST-4  <- v = 2w   in L1          DCT-4 <- v = 2w   in L2

The closed forms below are the standard orthonormal definitions; the
eigendecomposition route is the independent check (``oracle_check``), so
a transcription slip in either side fails loudly.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from .errors import NotACorrespondenceError
from .graph import GraphFamily, GraphParams, build_ggl, check_size
from .spectral import TransformMatrix, canonical_signs, derive_gbt


class TrigTransformKind(Enum):
    DCT2 = "DCT2"
    DCT4 = "DCT4"
    DCT8 = "DCT8"
    DST4 = "DST4"
    DST7 = "DST7"


def _entries(kind: TrigTransformKind, n: int) -> np.ndarray:
    """Matrix with [sample n, basis k] layout, columns in frequency order."""
    ns = np.arange(n)[:, None]  # sample index
    ks = np.arange(n)[None, :]  # basis index
    if kind is TrigTransformKind.DCT2:
        m = np.sqrt(2.0 / n) * np.cos(np.pi * ks * (2 * ns + 1) / (2 * n))
        m[:, 0] /= np.sqrt(2.0)
        return m
    if kind is TrigTransformKind.DCT4:
        return np.sqrt(2.0 / n) * np.cos(np.pi * (2 * ks + 1) * (2 * ns + 1) / (4 * n))
    if kind is TrigTransformKind.DST4:
        return np.sqrt(2.0 / n) * np.sin(np.pi * (2 * ks + 1) * (2 * ns + 1) / (4 * n))
    if kind is TrigTransformKind.DST7:
        return 2.0 / np.sqrt(2 * n + 1) * np.sin(np.pi * (2 * ks + 1) * (ns + 1) / (2 * n + 1))
    if kind is TrigTransformKind.DCT8:
        return (
            2.0
            / np.sqrt(2 * n + 1)
            * np.cos(np.pi * (2 * ks + 1) * (2 * ns + 1) / (2 * (2 * n + 1)))
        )
    raise AssertionError(kind)


def _eigenvalues(kind: TrigTransformKind, n: int) -> np.ndarray:
    """Eigenvalues of the unit-edge-weight graph each basis diagonalizes.

    Every column is trig(omega_k * n + phase) for some angular frequency
    omega_k, so the interior three-point stencil gives 2 - 2 cos(omega_k).
    """
    ks = np.arange(n)
    if kind is TrigTransformKind.DCT2:
        omega = np.pi * ks / n
    elif kind in (TrigTransformKind.DST4, TrigTransformKind.DCT4):
        omega = np.pi * (2 * ks + 1) / (2 * n)
    else:  # DST7 / DCT8
        omega = np.pi * (2 * ks + 1) / (2 * n + 1)
    return 2.0 - 2.0 * np.cos(omega)


def trig_matrix(kind: TrigTransformKind, n: int) -> TransformMatrix:
    """Orthonormal closed-form matrix, canonicalized like the graph route."""
    check_size(n)
    basis = canonical_signs(_entries(kind, n))
    return TransformMatrix(size=int(n), basis=basis, eigenvalues=_eigenvalues(kind, n))


# kind -> (vertex/edge ratio, required family or None for either)
CORRESPONDENCE = {
    TrigTransformKind.DCT2: (0.0, None),
    TrigTransformKind.DST7: (1.0, GraphFamily.L1),
    TrigTransformKind.DCT8: (1.0, GraphFamily.L2),
    TrigTransformKind.DST4: (2.0, GraphFamily.L1),
    TrigTransformKind.DCT4: (2.0, GraphFamily.L2),
}


def oracle_check(kind: TrigTransformKind, params: GraphParams, n: int) -> float:
    """Max entrywise |closed form - eigendecomposition|, both canonicalized.

    The parameters must satisfy the defining relation of ``kind`` (within
    1e-12 relative); anything else raises NotACorrespondenceError.
    """
    ratio, family = CORRESPONDENCE[kind]
    w, v = params.edge_weight, params.vertex_weight
    if w <= 0:
        raise NotACorrespondenceError(f"{kind.value} needs a positive edge weight, got {w}")
    if abs(v - ratio * w) > 1e-12 * max(1.0, w):
        raise NotACorrespondenceError(
            f"{kind.value} requires v = {ratio}*w, got v/w = {v / w}"
        )
    if family is not None and params.family is not family:
        raise NotACorrespondenceError(
            f"{kind.value} requires family {family.value}, got {params.family.value}"
        )
    gbt = derive_gbt(build_ggl(params, n))
    ref = trig_matrix(kind, n)
    return float(np.max(np.abs(ref.basis - gbt.basis)))
