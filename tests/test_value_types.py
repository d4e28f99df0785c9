"""The array-valued types hold a read-only view of their own and derive their sizes from it."""

import math

import numpy as np
import pytest

from gbst.coding import IntTransformMatrix
from gbst.dataset import ResidualDataset
from gbst.errors import (
    DegenerateInputError,
    DimensionMismatchError,
    EmptyDatasetError,
    InconsistentBlockSizeError,
    InvalidParameterError,
)
from gbst.estimation import SampleCovariance
from gbst.spectral import TransformMatrix


def _values(n):
    """type name -> (constructor, its arrays, the fields that hold them, the size attribute)."""
    return {
        "ResidualDataset": (ResidualDataset, (np.zeros((3, n, n)),), ("blocks",), "block_size"),
        "SampleCovariance": (SampleCovariance, (np.eye(n),), ("matrix",), "size"),
        "TransformMatrix": (
            TransformMatrix, (np.eye(n), np.arange(n, dtype=float)), ("basis", "eigenvalues"), "size",
        ),
        "IntTransformMatrix": (IntTransformMatrix, (64 * np.eye(n, dtype=np.int64),), ("entries",), "size"),
    }


@pytest.mark.parametrize("name", list(_values(2)))
@pytest.mark.parametrize("n", [2, 5, 64])
def test_value_freezes_a_view_of_its_own(name, n):
    make, arrays, fields, size = _values(n)[name]
    value = make(*arrays)
    assert getattr(value, size) == n
    for array, field in zip(arrays, fields):
        held = getattr(value, field)
        assert array.flags.writeable
        assert not held.flags.writeable
        assert np.shares_memory(held, array)  # a view, no copy
        with pytest.raises(ValueError):
            held[(0,) * held.ndim] = 1


@pytest.mark.parametrize("name", list(_values(2)))
@pytest.mark.parametrize("n", [2, 5])
def test_value_from_nested_lists_equals_value_from_arrays(name, n):
    make, arrays, fields, size = _values(n)[name]
    from_lists = make(*(a.tolist() for a in arrays))
    from_arrays = make(*arrays)
    assert getattr(from_lists, size) == n
    for field in fields:
        held, want = getattr(from_lists, field), getattr(from_arrays, field)
        assert held.dtype == want.dtype and np.array_equal(held, want)
        assert not held.flags.writeable


def test_int_table_scale_shift_follows_its_size():
    for n in range(2, 65):
        m = IntTransformMatrix(np.zeros((n, n), dtype=np.int64))
        assert m.size == n
        assert m.scale_shift == 6 + math.log2(n) / 2


BAD_SHAPES = {
    "basis-not-square": (lambda: TransformMatrix(np.eye(4)[:3], np.zeros(4)), DimensionMismatchError),
    "basis-wide": (lambda: TransformMatrix(np.eye(4)[:, :3], np.zeros(3)), DimensionMismatchError),
    "basis-1d": (lambda: TransformMatrix(np.zeros(4), np.zeros(4)), DimensionMismatchError),
    "eigenvalues-short": (lambda: TransformMatrix(np.eye(4), np.zeros(3)), DimensionMismatchError),
    "eigenvalues-2d": (lambda: TransformMatrix(np.eye(4), np.zeros((4, 1))), DimensionMismatchError),
    "dataset-2d": (lambda: ResidualDataset(np.zeros((4, 4))), EmptyDatasetError),
    "dataset-empty": (lambda: ResidualDataset(np.zeros((0, 4, 4))), EmptyDatasetError),
    "dataset-not-square": (lambda: ResidualDataset(np.zeros((2, 4, 5))), InconsistentBlockSizeError),
    "covariance-not-square": (lambda: SampleCovariance(np.eye(4)[:3]), DegenerateInputError),
    "covariance-1d": (lambda: SampleCovariance(np.ones(4)), DegenerateInputError),
    "covariance-empty": (lambda: SampleCovariance(np.zeros((0, 0))), DegenerateInputError),
    "int-table-not-square": (lambda: IntTransformMatrix(np.zeros((3, 5), dtype=int)), DimensionMismatchError),
    "int-table-not-integer": (lambda: IntTransformMatrix(np.full((2, 2), 0.7)), InvalidParameterError),
    "basis-empty": (lambda: TransformMatrix(np.zeros((0, 0)), np.zeros(0)), DimensionMismatchError),
    "int-table-empty": (lambda: IntTransformMatrix(np.zeros((0, 0), dtype=int)), DimensionMismatchError),
}


@pytest.mark.parametrize("case", list(BAD_SHAPES))
def test_value_rejects_a_bad_shape(case):
    make, error = BAD_SHAPES[case]
    with pytest.raises(error):
        make()
