"""Binary residual dataset format (GBSR) and the in-memory dataset type.

File layout, little-endian throughout:

    magic   4 bytes  b"GBSR"
    version u8       1
    N       u16      block size
    M       u32      block count
    samples M*N*N x i16, row-major per block

``read_gbsr`` checks the header against the file length and then maps the
samples read-only instead of reading them: a file-backed dataset holds i16
blocks, and no float copy of the file is ever made.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass

import numpy as np

from .errors import DatasetFormatError, EmptyDatasetError, InconsistentBlockSizeError
from .graph import frozen_view

MAGIC = b"GBSR"
VERSION = 1
_HEADER = struct.Struct("<4sBHI")


@dataclass(frozen=True)
class ResidualDataset:
    """M residual blocks of size N x N, held as a read-only view."""

    blocks: np.ndarray  # (M, N, N): float64 in memory, a read-only i16 memmap from a file

    def __post_init__(self):
        blocks = self.blocks
        if blocks.ndim != 3 or blocks.size == 0:
            raise EmptyDatasetError(f"expected a nonempty (M, N, N) array, got shape {blocks.shape}")
        if blocks.shape[1] != blocks.shape[2]:
            raise InconsistentBlockSizeError(f"blocks must be square, got shape {blocks.shape}")
        object.__setattr__(self, "blocks", frozen_view(blocks))

    @property
    def block_count(self) -> int:
        return self.blocks.shape[0]

    @property
    def block_size(self) -> int:
        return self.blocks.shape[1]


def make_dataset(blocks: np.ndarray) -> ResidualDataset:
    return ResidualDataset(np.asarray(blocks, dtype=float))


def write_gbsr(path, dataset: ResidualDataset) -> None:
    samples = dataset.blocks
    if not np.issubdtype(samples.dtype, np.integer):
        if not np.isfinite(samples).all():
            raise DatasetFormatError("residual samples must be finite")
        samples = np.rint(samples)
    if samples.min() < -32768 or samples.max() > 32767:
        raise DatasetFormatError("residual samples do not fit in i16")
    with open(path, "wb") as f:
        f.write(_HEADER.pack(MAGIC, VERSION, dataset.block_size, dataset.block_count))
        f.write(samples.astype("<i2").tobytes())


def read_gbsr(path) -> ResidualDataset:
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        head = f.read(_HEADER.size)
    if len(head) < _HEADER.size:
        raise DatasetFormatError("file shorter than the GBSR header")
    magic, version, n, m = _HEADER.unpack(head)
    if magic != MAGIC:
        raise DatasetFormatError(f"bad magic {magic!r}")
    if version != VERSION:
        raise DatasetFormatError(f"unsupported format version {version}")
    if n < 2 or m < 1:
        raise DatasetFormatError(f"inadmissible header: N={n}, M={m}")
    expected = _HEADER.size + 2 * m * n * n
    if size != expected:
        raise DatasetFormatError(f"expected {expected} bytes, file has {size}")
    samples = np.memmap(path, dtype="<i2", mode="r", offset=_HEADER.size, shape=(m, n, n))
    return ResidualDataset(blocks=samples)
