"""Two-parameter line-graph generalized Laplacians.

The model space is a path graph on N vertices with constant edge weight
``w`` and a single self-loop of weight ``v`` placed at one boundary
vertex: at vertex 0 for family L1, at vertex N-1 for family L2.  The
resulting generalized Laplacian is symmetric tridiagonal, so only the
diagonal and the (constant) off-diagonal are stored.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import InvalidDimensionError, InvalidParameterError

N_MIN = 2
N_MAX = 64
# values per % call in matrix_text
_TEXT_BLOCK = 1 << 15


class GraphFamily(Enum):
    """Placement of the single self-loop: L1 at vertex 0, L2 at vertex N-1."""

    L1 = "L1"
    L2 = "L2"


@dataclass(frozen=True)
class GraphParams:
    """The (edge weight, vertex weight, family) triple defining a line graph.

    Both weights must be finite and nonnegative.  Operations that need a
    positive definite Laplacian additionally require both to be strictly
    positive; they check that themselves.
    """

    edge_weight: float
    vertex_weight: float
    family: GraphFamily

    def __post_init__(self):
        if self.edge_weight < 0 or self.vertex_weight < 0:
            raise InvalidParameterError(
                f"graph weights must be nonnegative, got "
                f"w={self.edge_weight}, v={self.vertex_weight}"
            )
        if not (math.isfinite(self.edge_weight) and math.isfinite(self.vertex_weight)):
            raise InvalidParameterError(
                f"graph weights must be finite, got w={self.edge_weight}, v={self.vertex_weight}"
            )

    @property
    def is_positive_definite(self) -> bool:
        return self.edge_weight > 0 and self.vertex_weight > 0


@dataclass(frozen=True)
class LineGraphLaplacian:
    """Symmetric tridiagonal generalized Laplacian of a weighted line graph.

    Stored in band form: ``diagonal`` has length N, ``off_diagonal`` has
    length N-1 with every entry equal to ``-w``.  Immutable after
    construction; the arrays are marked read-only.
    """

    size: int
    diagonal: np.ndarray
    off_diagonal: np.ndarray
    params: GraphParams = field(repr=False)

    def __post_init__(self):
        self.diagonal.setflags(write=False)
        self.off_diagonal.setflags(write=False)

    @property
    def self_loop_vertex(self) -> int:
        return 0 if self.params.family is GraphFamily.L1 else self.size - 1


def check_size(n: int) -> None:
    """Raise InvalidDimensionError unless n is an integer in [N_MIN, N_MAX]."""
    if not isinstance(n, (int, np.integer)) or n < N_MIN or n > N_MAX:
        raise InvalidDimensionError(f"size must be an integer in [{N_MIN}, {N_MAX}], got {n}")


def build_ggl(params: GraphParams, n: int) -> LineGraphLaplacian:
    """Build the tridiagonal Laplacian for the given parameters and size.

    The interior diagonal is 2w, the boundary entries are w, and the
    self-loop weight v is added at vertex 0 (L1) or vertex N-1 (L2).
    """
    check_size(n)
    w, v = params.edge_weight, params.vertex_weight
    diag = np.full(n, 2.0 * w)
    diag[0] = w
    diag[-1] = w
    if params.family is GraphFamily.L1:
        diag[0] += v
    else:
        diag[-1] += v
    off = np.full(n - 1, -w)
    return LineGraphLaplacian(size=n, diagonal=diag, off_diagonal=off, params=params)


def dense_form(lap: LineGraphLaplacian) -> np.ndarray:
    """Dense N x N matrix with the band laid out on the three main diagonals."""
    return tridiagonal(lap.diagonal, lap.off_diagonal)


def tridiagonal(diagonal: np.ndarray, off_diagonal: np.ndarray) -> np.ndarray:
    """Dense symmetric matrix with ``off_diagonal`` on both sides of ``diagonal``."""
    m = np.diag(diagonal)
    idx = np.arange(len(diagonal) - 1)
    m[idx, idx + 1] = off_diagonal
    m[idx + 1, idx] = off_diagonal
    return m


def matrix_text(m: np.ndarray) -> str:
    """Row-major text form: one row per line, space-separated, 17 significant digits."""
    m = np.atleast_2d(m)
    n = m.shape[1]
    row = " ".join(["%.17g"] * n) + "\n"
    # One % call per block of rows runs the same routine as format(x, ".17g"), so
    # the bytes match, without a Python call per value.  Blocks bound the tuple
    # and string temporaries that one call over the whole array would hold.
    step = max(1, _TEXT_BLOCK // max(n, 1))
    blocks = (m[i : i + step] for i in range(0, len(m), step))
    return "".join((row * len(b)) % tuple(b.ravel().tolist()) for b in blocks) or "\n"
