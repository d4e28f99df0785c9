"""Two-parameter line-graph generalized Laplacians.

The model space is a path graph on N vertices with constant edge weight
``w`` and a single self-loop of weight ``v`` placed at one boundary
vertex: at vertex 0 for family L1, at vertex N-1 for family L2.  The
resulting generalized Laplacian is symmetric tridiagonal; it is fully
defined by the parameters and N, and its band is derived from them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from numbers import Real

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

    Both weights must be finite and nonnegative.  ``family`` may be given
    as a GraphFamily or its value ("L1", "L2").  Operations that need a
    positive definite Laplacian additionally require both to be strictly
    positive; they check that themselves.
    """

    edge_weight: float
    vertex_weight: float
    family: GraphFamily

    def __post_init__(self):
        if not (isinstance(self.edge_weight, Real) and isinstance(self.vertex_weight, Real)):
            raise InvalidParameterError(
                f"graph weights must be real numbers, got "
                f"w={self.edge_weight!r}, v={self.vertex_weight!r}"
            )
        # stored as plain floats, so equal parameters always define equal bands
        object.__setattr__(self, "edge_weight", float(self.edge_weight))
        object.__setattr__(self, "vertex_weight", float(self.vertex_weight))
        if self.edge_weight < 0 or self.vertex_weight < 0:
            raise InvalidParameterError(
                f"graph weights must be nonnegative, got "
                f"w={self.edge_weight}, v={self.vertex_weight}"
            )
        if not (math.isfinite(self.edge_weight) and math.isfinite(self.vertex_weight)):
            raise InvalidParameterError(
                f"graph weights must be finite, got w={self.edge_weight}, v={self.vertex_weight}"
            )
        # stored as the member, so "L1" and GraphFamily.L1 define the same graph
        try:
            object.__setattr__(self, "family", GraphFamily(self.family))
        except (ValueError, TypeError):
            raise InvalidParameterError(
                f"graph family must be one of {[f.value for f in GraphFamily]}, got {self.family!r}"
            ) from None

    @property
    def is_positive_definite(self) -> bool:
        return self.edge_weight > 0 and self.vertex_weight > 0


@dataclass(frozen=True)
class LineGraphLaplacian:
    """Symmetric tridiagonal generalized Laplacian of a weighted line graph.

    The value is ``(params, size)``: equality and hashing see only those.
    The band is derived from them on construction: ``diagonal`` has length
    N with interior entries 2w, boundary entries w and the self-loop weight
    v added at vertex 0 (L1) or vertex N-1 (L2); ``off_diagonal`` has
    length N-1 with every entry equal to ``-w``.  Both arrays are read-only.
    """

    params: GraphParams
    size: int
    diagonal: np.ndarray = field(init=False, compare=False, repr=False)
    off_diagonal: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        check_size(self.size)
        n, w, v = self.size, self.params.edge_weight, self.params.vertex_weight
        diag = np.full(n, 2.0 * w)
        diag[0] = w
        diag[-1] = w
        diag[self.self_loop_vertex] += v
        off = np.full(n - 1, -w)
        for name, band in (("diagonal", diag), ("off_diagonal", off)):
            band.setflags(write=False)
            object.__setattr__(self, name, band)

    @property
    def self_loop_vertex(self) -> int:
        return 0 if self.params.family is GraphFamily.L1 else self.size - 1


def check_size(n: int) -> None:
    """Raise InvalidDimensionError unless n is an integer in [N_MIN, N_MAX]."""
    if not isinstance(n, (int, np.integer)) or n < N_MIN or n > N_MAX:
        raise InvalidDimensionError(f"size must be an integer in [{N_MIN}, {N_MAX}], got {n}")


def build_ggl(params: GraphParams, n: int) -> LineGraphLaplacian:
    """The Laplacian of the line graph with these parameters on ``n`` vertices."""
    return LineGraphLaplacian(params, n)


def dense_form(lap: LineGraphLaplacian) -> np.ndarray:
    """Dense N x N matrix with the band laid out on the three main diagonals."""
    m = np.diag(lap.diagonal)
    idx = np.arange(lap.size - 1)
    m[idx, idx + 1] = lap.off_diagonal
    m[idx + 1, idx] = lap.off_diagonal
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
