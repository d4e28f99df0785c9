import numpy as np
import pytest

from gbst.errors import InvalidDimensionError, InvalidParameterError
from gbst.graph import GraphFamily, GraphParams, build_ggl, dense_form, matrix_text

L1, L2 = GraphFamily.L1, GraphFamily.L2


def test_build_l1_basic():
    lap = build_ggl(GraphParams(1, 1, L1), 3)
    assert np.array_equal(lap.diagonal, [2, 2, 1])
    assert np.array_equal(lap.off_diagonal, [-1, -1])


def test_build_l2_basic():
    lap = build_ggl(GraphParams(2, 4, L2), 3)
    assert np.array_equal(lap.diagonal, [2, 4, 6])
    assert np.array_equal(lap.off_diagonal, [-2, -2])


def test_no_self_loop_is_combinatorial():
    lap = build_ggl(GraphParams(1, 0, L1), 4)
    assert np.allclose(dense_form(lap).sum(axis=1), 0)


@pytest.mark.parametrize(
    "params,expected",
    [
        (GraphParams(1, 1, L1), [[2, -1], [-1, 1]]),
        (GraphParams(1, 1, L2), [[1, -1], [-1, 2]]),
        (GraphParams(1, 0, L1), [[1, -1], [-1, 1]]),
    ],
)
def test_dense_form_n2(params, expected):
    assert np.array_equal(dense_form(build_ggl(params, 2)), expected)


def test_invalid_inputs():
    with pytest.raises(InvalidParameterError):
        GraphParams(-1, 0, L1)
    with pytest.raises(InvalidParameterError):
        GraphParams(1, -0.5, L2)
    with pytest.raises(InvalidDimensionError):
        build_ggl(GraphParams(1, 1, L1), 1)
    with pytest.raises(InvalidDimensionError):
        build_ggl(GraphParams(1, 1, L1), 65)


@pytest.mark.parametrize("family", [L1, L2])
@pytest.mark.parametrize("w,v", [(0.25, 0.5), (1, 0), (2, 4), (3, 0.1)])
def test_structure_invariants(family, w, v):
    n = 6
    m = dense_form(build_ggl(GraphParams(w, v, family), n))
    assert np.array_equal(m, m.T)
    # tridiagonal: zero outside the band
    band = np.abs(np.subtract.outer(np.arange(n), np.arange(n))) <= 1
    assert np.all(m[~band] == 0)
    # diagonally dominant with nonnegative diagonal
    assert np.all(np.diag(m) >= 0)
    assert np.all(np.diag(m) >= np.abs(m).sum(axis=1) - np.diag(m) - 1e-12)
    # row sums: v at the self-loop vertex, zero elsewhere
    s = 0 if family is L1 else n - 1
    expected = np.zeros(n)
    expected[s] = v
    assert np.allclose(m.sum(axis=1), expected)


def test_mirror_property():
    for w, v in [(1, 1), (2, 0.5), (0.25, 4)]:
        a = dense_form(build_ggl(GraphParams(w, v, L1), 5))
        b = dense_form(build_ggl(GraphParams(w, v, L2), 5))
        assert np.allclose(b, a[::-1, ::-1])


def test_positive_definiteness_boundary():
    np.linalg.cholesky(dense_form(build_ggl(GraphParams(1, 0.1, L1), 4)))
    for w, v in [(1, 0), (0, 1)]:
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(dense_form(build_ggl(GraphParams(w, v, L1), 4)))


def test_dense_text_format():
    text = matrix_text(dense_form(build_ggl(GraphParams(1, 1, L1), 2)))
    lines = text.strip().split("\n")
    assert lines == ["2 -1", "-1 1"]
    parsed = np.loadtxt(text.strip().split("\n"))
    assert np.array_equal(parsed, [[2, -1], [-1, 1]])


def test_immutability():
    lap = build_ggl(GraphParams(1, 1, L1), 4)
    with pytest.raises(ValueError):
        lap.diagonal[0] = 9
