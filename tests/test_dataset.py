import os
import struct
import tempfile

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from gbst.dataset import MAGIC, make_dataset, read_gbsr, write_gbsr
from gbst.errors import (
    DatasetFormatError, EmptyDatasetError, InconsistentBlockSizeError, InvalidDimensionError,
)


def test_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    blocks = np.rint(rng.standard_normal((5, 4, 4)) * 100)
    path = tmp_path / "data.gbsr"
    write_gbsr(path, make_dataset(blocks))
    back = read_gbsr(path)
    assert back.block_count == 5
    assert back.block_size == 4
    assert np.array_equal(back.blocks, blocks)


def test_header_layout(tmp_path):
    path = tmp_path / "data.gbsr"
    write_gbsr(path, make_dataset(np.ones((2, 3, 3))))
    raw = path.read_bytes()
    assert raw[:4] == MAGIC
    assert raw[4] == 1  # version
    assert int.from_bytes(raw[5:7], "little") == 3  # N
    assert int.from_bytes(raw[7:11], "little") == 2  # M
    assert len(raw) == 11 + 2 * 2 * 9


def test_truncated_file(tmp_path):
    path = tmp_path / "data.gbsr"
    write_gbsr(path, make_dataset(np.ones((2, 3, 3))))
    path.write_bytes(path.read_bytes()[:-4])
    with pytest.raises(DatasetFormatError):
        read_gbsr(path)


def test_bad_magic(tmp_path):
    path = tmp_path / "data.gbsr"
    path.write_bytes(b"NOPE" + bytes(20))
    with pytest.raises(DatasetFormatError):
        read_gbsr(path)


def test_samples_out_of_i16_range(tmp_path):
    with pytest.raises(DatasetFormatError):
        write_gbsr(tmp_path / "x.gbsr", make_dataset(np.full((1, 2, 2), 40000.0)))
    # rounded out of range in the last chunk of several
    blocks = np.zeros((5000, 8, 8))
    blocks[-1, 7, 7] = 32767.5
    path = tmp_path / "y.gbsr"
    with pytest.raises(DatasetFormatError, match="i16"):
        write_gbsr(path, make_dataset(blocks))
    assert not path.exists()


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_samples_rejected(tmp_path, bad):
    # one chunk, and the last chunk of several: the whole stack is checked
    # before the file is opened
    for i, shape in enumerate([(2, 2, 2), (5000, 8, 8)]):
        blocks = np.zeros(shape)
        blocks[-1, -1, -1] = bad
        path = tmp_path / f"{i}.gbsr"
        with pytest.raises(DatasetFormatError, match="finite"):
            write_gbsr(path, make_dataset(blocks))
        assert not path.exists()


def test_make_dataset_validation():
    with pytest.raises(EmptyDatasetError):
        make_dataset(np.zeros((0, 4, 4)))
    with pytest.raises(InconsistentBlockSizeError):
        make_dataset(np.zeros((2, 4, 5)))


def test_read_gbsr_refuses_a_block_size_no_transform_has(tmp_path):
    # a well-formed file at N = 100: the dataset, not each command, refuses it
    path = tmp_path / "big.gbsr"
    path.write_bytes(_gbsr_bytes(np.ones((1, 100, 100), np.int16)))
    with pytest.raises(InvalidDimensionError, match=r"^size must be an integer in \[2, 64\], got 100$"):
        read_gbsr(path)


def test_make_dataset_leaves_caller_array_writeable():
    blocks = np.eye(4)[None].copy()
    ds = make_dataset(blocks)
    assert blocks.flags.writeable
    assert not ds.blocks.flags.writeable
    assert np.shares_memory(ds.blocks, blocks)  # frozen view, no copy


def test_read_gbsr_maps_i16_read_only(tmp_path):
    blocks = np.arange(-36, 36, dtype=float).reshape(2, 6, 6)
    path = tmp_path / "data.gbsr"
    write_gbsr(path, make_dataset(blocks))
    ds = read_gbsr(path)
    assert isinstance(ds.blocks, np.memmap)
    assert ds.blocks.dtype == np.dtype("<i2")
    assert not ds.blocks.flags.writeable
    # a file-backed dataset writes back byte for byte
    write_gbsr(tmp_path / "copy.gbsr", ds)
    assert (tmp_path / "copy.gbsr").read_bytes() == path.read_bytes()


_RSS_CHILD = """
import os, sys
from gbst.dataset import read_gbsr, write_gbsr
from gbst.estimation import residual_covariances

dataset = read_gbsr(sys.argv[1])
peaks = [peak_mib()]
residual_covariances(dataset)
peaks.append(peak_mib())
write_gbsr(os.devnull, dataset)
peaks.append(peak_mib())
print(*peaks)
"""


def test_file_passes_keep_memory_bounded(tmp_path, child_peaks):
    # a 64 MiB file: the moment pass and a write-back each add less than a
    # quarter of it to the process's peak
    m, n = 1 << 19, 8
    path = tmp_path / "big.gbsr"
    rng = np.random.default_rng(7)
    with open(path, "wb") as f:
        f.write(struct.pack("<4sBHI", MAGIC, 1, n, m))
        for _ in range(8):
            f.write(rng.integers(-300, 300, (m // 8, n, n), dtype=np.int16).astype("<i2"))
    size_mib = path.stat().st_size / (1 << 20)
    read, moments, write = child_peaks(_RSS_CHILD, str(path))
    assert moments - read < size_mib / 4
    assert write - moments < size_mib / 4


def _write_and_read(raw: bytes):
    fd, path = tempfile.mkstemp(suffix=".gbsr")
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(raw)
        ds = read_gbsr(path)
        return ds.block_count, ds.block_size, np.array(ds.blocks)
    finally:
        os.unlink(path)


block_stacks = st.tuples(st.integers(1, 5), st.integers(2, 6)).flatmap(
    lambda mn: arrays(np.int16, (mn[0], mn[1], mn[1]))
)


def _gbsr_bytes(blocks: np.ndarray) -> bytes:
    m, n, _ = blocks.shape
    return struct.pack("<4sBHI", MAGIC, 1, n, m) + blocks.astype("<i2").tobytes()


@settings(max_examples=60, deadline=None)
@given(blocks=block_stacks)
def test_round_trip_property(blocks):
    fd, path = tempfile.mkstemp(suffix=".gbsr")
    os.close(fd)
    try:
        write_gbsr(path, make_dataset(blocks))
        with open(path, "rb") as f:
            assert f.read() == _gbsr_bytes(blocks)
    finally:
        os.unlink(path)
    m, n, back = _write_and_read(_gbsr_bytes(blocks))
    assert (m, n) == blocks.shape[:2]
    assert np.array_equal(back, blocks)


corruptions = st.one_of(
    st.tuples(st.just("truncate"), st.integers(0, 10_000)),
    st.tuples(st.just("extend"), st.binary(min_size=1, max_size=64)),
    st.tuples(st.just("magic"), st.binary(min_size=4, max_size=4).filter(lambda b: b != MAGIC)),
    st.tuples(st.just("version"), st.integers(0, 255).filter(lambda v: v != 1)),
    st.tuples(st.just("header"), st.tuples(st.integers(0, 2**16 - 1), st.integers(0, 2**32 - 1))),
)


@settings(max_examples=200, deadline=None)
@given(blocks=block_stacks, corruption=corruptions)
def test_corrupt_files_raise_format_error(blocks, corruption):
    raw = _gbsr_bytes(blocks)
    kind, arg = corruption
    if kind == "truncate":
        raw = raw[: arg % len(raw)]
    elif kind == "extend":
        raw += arg
    elif kind == "magic":
        raw = arg + raw[4:]
    elif kind == "version":
        raw = raw[:4] + bytes([arg]) + raw[5:]
    else:
        n, m = arg
        assume(not (n >= 2 and m >= 1 and m * n * n == blocks.size))  # still a valid file
        raw = struct.pack("<4sBHI", MAGIC, 1, n, m) + raw[11:]
    with pytest.raises(DatasetFormatError):
        _write_and_read(raw)


@settings(max_examples=200, deadline=None)
@given(raw=st.binary(max_size=256))
def test_arbitrary_bytes_never_raise_raw_errors(raw):
    try:
        m, n, back = _write_and_read(raw)
    except DatasetFormatError:
        return
    assert len(raw) == 11 + 2 * m * n * n and back.shape == (m, n, n)
