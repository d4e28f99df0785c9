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

from .errors import (
    DimensionMismatchError, InvalidDimensionError, InvalidParameterError, NonPositiveDefiniteError,
)

N_MIN = 2
N_MAX = 64
# Values per block of text.  `gbst sample` drawing and formatting its text at
# 2^13 / 2^14 / 2^15 values per block (x86_64, one BLAS thread): in-process CPU,
# median of 15, 100000 x 8 0.116 / 0.113 / 0.128 s and 5000 x 64 0.047 / 0.047 /
# 0.056 s; fresh processes, median wall ratio to 2^15 over two rounds of 21 and
# 31 alternating runs, 100000 x 8 0.999, 0.965 / 0.971, 0.949 and 5000 x 64
# 0.986, 0.952 / 0.970, 0.944; minor faults at 100000 x 8 9.1k / 9.2k / 20.7k.
_TEXT_BLOCK = 1 << 14


class GraphFamily(Enum):
    """Placement of the single self-loop: L1 at vertex 0, L2 at vertex N-1."""

    L1 = "L1"
    L2 = "L2"


@dataclass(frozen=True)
class GraphParams:
    """The (edge weight, vertex weight, family) triple defining a line graph.

    Both weights must be nonnegative and keep 4w + v finite.  ``family``
    may be given as a GraphFamily or its value ("L1", "L2").  Operations
    that need a positive definite Laplacian additionally require both to be
    strictly positive; they call ``check_positive_definite``.
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
        # 4w + v bounds every entry and eigenvalue of L (Gershgorin), so dense_form and eigh stay finite
        if not math.isfinite(4.0 * self.edge_weight + self.vertex_weight):
            raise InvalidParameterError(
                f"graph weights must be finite, with 4w + v finite, got "
                f"w={self.edge_weight}, v={self.vertex_weight}"
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


build_ggl = LineGraphLaplacian  # build_ggl(params, n): the line graph's Laplacian on n vertices


def check_size(n: int) -> None:
    """Raise InvalidDimensionError unless n is an integer in [N_MIN, N_MAX]."""
    if not isinstance(n, (int, np.integer)) or n < N_MIN or n > N_MAX:
        raise InvalidDimensionError(f"size must be an integer in [{N_MIN}, {N_MAX}], got {n}")


def real_array(a) -> np.ndarray:
    """``np.asanyarray(a)``; InvalidParameterError unless its dtype is bool, integer or float.

    A float conversion would cut a complex value to its real part and fail on
    an object or str one only later, so the dtype is checked before it.
    """
    a = np.asanyarray(a)
    if a.dtype.kind not in "biuf":
        raise InvalidParameterError(f"expected bool, integer or float values, got dtype {a.dtype}")
    return a


def frozen_view(a) -> np.ndarray:
    """A read-only view of ``real_array(a)``; a memmap stays one, a caller's array keeps its flags."""
    view = real_array(a).view()
    view.setflags(write=False)
    return view


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


def check_positive_definite(params: GraphParams) -> None:
    """Raise NonPositiveDefiniteError unless w > 0 and v > 0, which is when det L = v w^(N-1) > 0."""
    if not (params.edge_weight > 0 and params.vertex_weight > 0):
        raise NonPositiveDefiniteError(
            f"precision needs w > 0 and v > 0, got w={params.edge_weight}, v={params.vertex_weight}"
        )


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
    """Row-major text form: one row per line, space-separated, 17 significant digits.

    Each value of ``m`` as float64 reads as ``format(x, ".17g")``, byte for byte.
    """
    m = np.atleast_2d(np.asarray(real_array(m), dtype=np.float64))
    if m.ndim != 2:
        raise DimensionMismatchError(f"text form needs a matrix, got shape {m.shape}")
    return "".join(text_blocks([m]))


def text_blocks(chunks):
    """``matrix_text`` of the (m, N) float64 ``chunks`` stacked, as one str per block of rows.

    A block holds at most ``_TEXT_BLOCK`` values of one chunk, and its text
    leads each row with a newline; the first block drops that first newline
    and a last "\n" ends the text.  Each block is formed as the result is
    iterated to it, so a writer holds one block's text at a time.
    """
    # imported here, so commands that print no text do not compile the kernel
    from ._text import block_text

    lead = 1
    for chunk in chunks:
        step = max(1, _TEXT_BLOCK // max(1, chunk.shape[1]))
        for i in range(0, len(chunk), step):
            yield block_text(chunk[i : i + step])[lead:]
            lead = 0
    yield "\n"
