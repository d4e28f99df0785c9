"""Two-parameter line-graph generalized Laplacians.

The model space is a path graph on N vertices with constant edge weight
``w`` and a single self-loop of weight ``v`` placed at one boundary
vertex: at vertex 0 for family L1, at vertex N-1 for family L2.  The
resulting generalized Laplacian L = w P + v e_k e_k^T, with P the
Laplacian of the unit-weight path, is symmetric tridiagonal and fully
defined by the parameters and N.  P is a tree, so det L = v w^(N-1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from numbers import Real

import numpy as np

from .errors import InvalidDimensionError, InvalidParameterError, NonPositiveDefiniteError

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
    positive; they call ``check_positive_definite``.
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
        # stored as plain floats, so equal parameters always define equal matrices
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


@dataclass(frozen=True)
class LineGraphLaplacian:
    """Symmetric tridiagonal generalized Laplacian of a weighted line graph.

    The value is ``(params, size)``, and it is the whole of the Laplacian:
    ``dense_form`` builds the matrix from it, and the log-determinant,
    Tr(LS) and positive definiteness follow from it in closed form.
    """

    params: GraphParams
    size: int

    def __post_init__(self):
        check_size(self.size)

    @property
    def self_loop_vertex(self) -> int:
        return 0 if self.params.family is GraphFamily.L1 else self.size - 1


def check_size(n: int) -> None:
    """Raise InvalidDimensionError unless n is an integer in [N_MIN, N_MAX]."""
    if not isinstance(n, (int, np.integer)) or n < N_MIN or n > N_MAX:
        raise InvalidDimensionError(f"size must be an integer in [{N_MIN}, {N_MAX}], got {n}")


def frozen_view(a: np.ndarray) -> np.ndarray:
    """A read-only view of ``a``; the caller's array keeps its own flags."""
    view = a.view()
    view.setflags(write=False)
    return view


def check_positive_definite(params: GraphParams) -> None:
    """Raise NonPositiveDefiniteError unless w > 0 and v > 0, which is when det L = v w^(N-1) > 0."""
    if not (params.edge_weight > 0 and params.vertex_weight > 0):
        raise NonPositiveDefiniteError(
            f"precision needs w > 0 and v > 0, got w={params.edge_weight}, v={params.vertex_weight}"
        )


def build_ggl(params: GraphParams, n: int) -> LineGraphLaplacian:
    """The Laplacian of the line graph with these parameters on ``n`` vertices."""
    return LineGraphLaplacian(params, n)


def dense_form(lap: LineGraphLaplacian) -> np.ndarray:
    """Dense N x N matrix: 2w inside and w at the ends of the diagonal, +v at the self-loop, -w off it."""
    n, w = lap.size, lap.params.edge_weight
    diag = np.full(n, 2.0 * w)
    diag[[0, -1]] = w
    diag[lap.self_loop_vertex] += lap.params.vertex_weight
    m = np.diag(diag)
    idx = np.arange(n - 1)
    m[idx, idx + 1] = m[idx + 1, idx] = -w
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
