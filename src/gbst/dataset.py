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

Every pass over the blocks takes the one chunk walk ``block_chunks``, which
releases the pages of a read-only file mapping as it passes them, so the
resident part of a file stays a few MiB whatever its length.  Only a
``mode="r"`` mapping is released: on a copy-on-write (``mode="c"``) one,
releasing would discard the caller's edits.
"""

from __future__ import annotations

import math
import mmap
import os
import struct
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .errors import DatasetFormatError, EmptyDatasetError, InconsistentBlockSizeError
from .graph import N_MIN, check_size, frozen_view, real_array

MAGIC = b"GBSR"
VERSION = 1
SAMPLE_DTYPE = np.dtype("<i2")
_HEADER = struct.Struct("<4sBHI")
# A chunk walk yields blocks of about CHUNK_VALUES values: 2^17 float64
# values fill 1 MiB, inside one core's L2 cache.
CHUNK_VALUES = 1 << 17
# Pages of a read-only mapping are released in spans of at least this many
# bytes, so that the walk makes one madvise call per few chunks.
_RELEASE_BYTES = 4 << 20


@dataclass(frozen=True, eq=False)
class ResidualDataset:
    """M residual blocks of size N x N, N in [2, 64], held as a read-only view."""

    blocks: np.ndarray  # (M, N, N): float64 in memory, a read-only i16 memmap from a file

    def __post_init__(self):
        blocks = frozen_view(self.blocks)
        if blocks.ndim != 3 or blocks.size == 0:
            raise EmptyDatasetError(f"expected a nonempty (M, N, N) array, got shape {blocks.shape}")
        if blocks.shape[1] != blocks.shape[2]:
            raise InconsistentBlockSizeError(f"blocks must be square, got shape {blocks.shape}")
        check_size(blocks.shape[1])
        object.__setattr__(self, "blocks", blocks)

    @property
    def block_count(self) -> int:
        return self.blocks.shape[0]

    @property
    def block_size(self) -> int:
        return self.blocks.shape[1]


def make_dataset(blocks: np.ndarray) -> ResidualDataset:
    return ResidualDataset(np.asarray(real_array(blocks), dtype=float))


def block_chunks(blocks: np.ndarray) -> Iterator[np.ndarray]:
    """``blocks[i : i + k]`` for i = 0, k, 2k, ..., k = max(1, CHUNK_VALUES // values per block).

    A chunk holds at most max(CHUNK_VALUES, one block) values, none more than
    the first.  When the blocks are a read-only (``mode="r"``) file mapping,
    asking for the next chunk first releases, with ``madvise(MADV_DONTNEED)``,
    the whole pages that lie below it, once they span at least _RELEASE_BYTES.
    The kernel reads a released page back from the file if it is touched
    again, so the values never change, and the walk keeps
    O(_RELEASE_BYTES + chunk) of the file resident.  A copy-on-write mapping,
    an in-memory array and a platform without MADV_DONTNEED release nothing.
    """
    k = max(1, CHUNK_VALUES // math.prod(blocks.shape[1:]))
    mapping = getattr(blocks, "_mmap", None)
    if getattr(blocks, "mode", None) != "r" or not hasattr(mmap, "MADV_DONTNEED"):
        mapping = None
    if mapping is not None:
        # the view's offset within the mapping, whose first byte is page-aligned
        offset = blocks.ctypes.data - np.frombuffer(mapping, np.uint8).ctypes.data
        released = offset // mmap.PAGESIZE * mmap.PAGESIZE
    for start in range(0, len(blocks), k):
        chunk = blocks[start : start + k]
        if mapping is not None:
            # a walk that moves down in memory never passes a span, so releases nothing
            passed = (offset + start * blocks.strides[0]) // mmap.PAGESIZE * mmap.PAGESIZE
            if passed - released >= _RELEASE_BYTES:
                mapping.madvise(mmap.MADV_DONTNEED, released, passed - released)
                released = passed
        yield chunk


def write_gbsr(path, dataset: ResidualDataset) -> None:
    """Write ``dataset`` as GBSR, float samples rounded half to even.

    One chunk walk checks that the samples are finite and fit in i16 before
    the file is opened, so bad input leaves no file; a second one writes
    the samples chunk by chunk.
    """
    integer = np.issubdtype(dataset.blocks.dtype, np.integer)
    lo = hi = 0
    for chunk in block_chunks(dataset.blocks):
        if not integer and not np.isfinite(chunk).all():
            raise DatasetFormatError("residual samples must be finite")
        lo, hi = min(lo, chunk.min()), max(hi, chunk.max())
    # rint is monotone: the rounded extremes are the extremes of the rounded samples
    if np.rint(lo) < np.iinfo(SAMPLE_DTYPE).min or np.rint(hi) > np.iinfo(SAMPLE_DTYPE).max:
        raise DatasetFormatError("residual samples do not fit in i16")
    with open(path, "wb") as f:
        f.write(_HEADER.pack(MAGIC, VERSION, dataset.block_size, dataset.block_count))
        for chunk in block_chunks(dataset.blocks):
            f.write((chunk if integer else np.rint(chunk)).astype(SAMPLE_DTYPE, order="C"))


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
    if n < N_MIN or m < 1:
        raise DatasetFormatError(f"inadmissible header: N={n}, M={m}")
    expected = _HEADER.size + SAMPLE_DTYPE.itemsize * m * n * n
    if size != expected:
        raise DatasetFormatError(f"expected {expected} bytes, file has {size}")
    samples = np.memmap(path, dtype=SAMPLE_DTYPE, mode="r", offset=_HEADER.size, shape=(m, n, n))
    return ResidualDataset(blocks=samples)
