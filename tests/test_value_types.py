"""The array-valued types hold a read-only view of their own, derive their sizes from it,
compare by identity, and admit only real numbers."""

import math

import numpy as np
import pytest

from gbst.coding import IntTransformMatrix, evaluate_metrics, quantize_roundtrip_distortion
from gbst.dataset import ResidualDataset, make_dataset
from gbst.errors import (
    DegenerateInputError,
    DimensionMismatchError,
    EmptyDatasetError,
    InconsistentBlockSizeError,
    InvalidDimensionError,
    InvalidParameterError,
)
from gbst.estimation import SampleCovariance, solve_ml
from gbst.graph import GraphParams, build_ggl, matrix_text
from gbst.spectral import TransformMatrix, apply_separable, derive_gbt, inverse_separable


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


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("dtype", [bool, np.int8, np.float16, np.float32])
def test_sample_covariance_holds_float64(dtype):
    # a bool matrix has no subtraction and linalg takes no float16, so both failed untyped
    a = np.eye(4) if dtype is bool else 2 * np.eye(4) + np.eye(4, k=1) + np.eye(4, k=-1)
    given, want = a.astype(dtype), SampleCovariance(a)
    cov = SampleCovariance(given)
    assert cov.matrix.dtype == np.float64 and np.array_equal(cov.matrix, a)
    assert not cov.matrix.flags.writeable and not np.shares_memory(cov.matrix, given)
    t = derive_gbt(build_ggl(GraphParams(1.0, 1.0, "L1"), 4))
    assert solve_ml(cov, "L2") == solve_ml(want, "L2")
    assert evaluate_metrics(t, cov) == evaluate_metrics(t, want)


@pytest.mark.parametrize("name", list(_values(2)))
def test_value_compares_and_hashes_by_identity(name):
    make, arrays, _, _ = _values(4)[name]
    value, twin = make(*arrays), make(*arrays)
    assert value == value
    assert value != twin
    assert hash(value) == hash(value) and len({value, twin}) == 2
    assert type(value).__eq__ is object.__eq__


_EYE = TransformMatrix(np.eye(2), np.arange(2.0))
# entry point -> a call of it on one (2, 2) matrix of samples, or of a value's entries
REAL_ONLY = {
    "make_dataset": lambda a: make_dataset([a]),
    "ResidualDataset": lambda a: ResidualDataset([a]),
    "SampleCovariance": SampleCovariance,
    "TransformMatrix-basis": lambda a: TransformMatrix(a, np.arange(2.0)),
    "TransformMatrix-eigenvalues": lambda a: TransformMatrix(np.eye(2), a[0]),
    "IntTransformMatrix": IntTransformMatrix,
    "apply_separable": lambda a: apply_separable(a, _EYE, _EYE),
    "inverse_separable": lambda a: inverse_separable(a, _EYE, _EYE),
    "quantize_roundtrip_distortion": lambda a: quantize_roundtrip_distortion([a], _EYE, _EYE, 1.0),
    "matrix_text": matrix_text,
}
NOT_REAL = {
    "complex": np.array([[1 + 2j, 3], [3, 1]]),
    "complex-lists": [[1 + 2j, 3], [3, 1]],
    "object": np.eye(2, dtype=np.int64).astype(object),
    "str": np.eye(2).astype(str),
    "str-lists": [["1", "0"], ["0", "1"]],
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("kind", list(NOT_REAL))
@pytest.mark.parametrize("entry", list(REAL_ONLY))
def test_entry_points_admit_only_real_numbers(entry, kind):
    a = NOT_REAL[kind]
    with pytest.raises(InvalidParameterError, match=f"got dtype {np.asarray(a).dtype}$"):
        REAL_ONLY[entry](a)


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
    "dataset-1x1": (lambda: ResidualDataset(np.zeros((2, 1, 1))), InvalidDimensionError),
    "dataset-65x65": (lambda: make_dataset(np.zeros((1, 65, 65))), InvalidDimensionError),
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
