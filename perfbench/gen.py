"""Benchmark inputs, made from a seed with numpy alone (no import of gbst).

Residual blocks are matrix-normal: X = s * A Z B^T with Z standard normal,
A A^T = inv(L_col) and B B^T = inv(L_row), where L_row and L_col are
two-parameter line-graph Laplacians.  Rows of X then have covariance
proportional to inv(L_row) and columns proportional to inv(L_col).  The
blocks are rounded to i16, and exact int64 statistics of the rounded
samples are kept beside them so that every oracle works from the same
numbers the program reads.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

GBSR_HEADER = struct.Struct("<4sBHI")  # magic, version u8, N u16, M u32


def laplacian(n: int, w: float, v: float, family: str) -> np.ndarray:
    """Dense path-graph Laplacian with edge weight w and a self-loop v at the family's end."""
    lap = np.zeros((n, n))
    for i in range(n - 1):
        lap[i, i] += w
        lap[i + 1, i + 1] += w
        lap[i, i + 1] = lap[i + 1, i] = -w
    k = 0 if family == "L1" else n - 1
    lap[k, k] += v
    return lap


@dataclass
class Moments:
    """Exact int64 statistics of the length-N vectors of one direction.

    ``moment`` is the sum of outer products x x^T over all vectors and
    ``vectors`` their count.  The sums the ML fit needs follow exactly:
    sum (x_i - x_{i+1})^2 and sum x_k^2 at either end.
    """

    moment: np.ndarray
    vectors: int

    @classmethod
    def empty(cls, n: int) -> "Moments":
        return cls(np.zeros((n, n), dtype=np.int64), 0)

    def add(self, vecs: np.ndarray) -> None:
        """Fold in a (count, N) array of integer-valued vectors."""
        # a float64 product of integers is exact while every partial sum stays below 2**53
        if float(np.abs(vecs).max(initial=0)) ** 2 * len(vecs) >= 2**53:
            raise ValueError("chunk too large for an exact float64 moment")
        f = vecs.astype(np.float64, copy=False)
        self.moment += np.rint(f.T @ f).astype(np.int64)
        self.vectors += len(vecs)

    @property
    def diff_sq(self) -> int:
        m = self.moment
        return int(sum(m[i, i] + m[i + 1, i + 1] - 2 * m[i, i + 1] for i in range(len(m) - 1)))

    def boundary_sq(self, family: str) -> int:
        k = 0 if family == "L1" else len(self.moment) - 1
        return int(self.moment[k, k])


def block_stats(blocks: np.ndarray) -> tuple[Moments, Moments]:
    """Row and column moments of an (M, N, N) integer block stack."""
    m, n, _ = blocks.shape
    row, col = Moments.empty(n), Moments.empty(n)
    for start in range(0, m, 1 << 14):
        chunk = blocks[start : start + (1 << 14)]
        row.add(chunk.reshape(-1, n))
        col.add(chunk.transpose(0, 2, 1).reshape(-1, n))
    return row, col


def _factor(precision: np.ndarray) -> np.ndarray:
    return np.linalg.cholesky(np.linalg.inv(precision))


class BlockSource:
    """Matrix-normal i16 blocks from a row and a column precision, drawn chunk by chunk."""

    def __init__(self, seed, n, row_precision, col_precision, scale):
        self.rng = np.random.default_rng(seed)
        self.n = n
        self.a = scale * _factor(col_precision)
        self.bt = _factor(row_precision).T

    def draw(self, count: int) -> np.ndarray:
        """(count, N, N) float64 blocks holding i16 values."""
        n = self.n
        zb = self.rng.standard_normal((count * n, n)) @ self.bt  # Z B^T, all blocks in one product
        zb = zb.reshape(count, n, n).transpose(1, 0, 2).reshape(n, count * n)
        x = np.rint(self.a @ zb).reshape(n, count, n).transpose(1, 0, 2)  # A (Z B^T) per block
        if np.abs(x).max() > 32767:
            raise ValueError("generated samples do not fit in i16")
        return x


def write_gbsr(path, source: BlockSource, count: int, chunk: int = 1 << 12) -> tuple[Moments, Moments]:
    """Write ``count`` blocks from ``source`` as a GBSR file; return their exact moments."""
    n = source.n
    row, col = Moments.empty(n), Moments.empty(n)
    with open(path, "wb") as f:
        f.write(GBSR_HEADER.pack(b"GBSR", 1, n, count))
        done = 0
        while done < count:
            blocks = source.draw(min(chunk, count - done))
            row.add(blocks.reshape(-1, n))
            col.add(blocks.transpose(0, 2, 1).reshape(-1, n))
            f.write(blocks.astype("<i2").tobytes())
            done += len(blocks)
    return row, col
