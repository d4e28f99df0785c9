import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from gbst.errors import InvalidDimensionError, InvalidParameterError
from gbst.graph import (
    GraphFamily,
    GraphParams,
    LineGraphLaplacian,
    build_ggl,
    dense_form,
    matrix_text,
)

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
    for w in ("1", None):
        with pytest.raises(InvalidParameterError, match="real numbers"):
            GraphParams(w, 1, L1)
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


def per_value_text(m):
    """The per-value reference matrix_text must match byte for byte."""
    return "\n".join(" ".join(f"{x:.17g}" for x in row) for row in np.atleast_2d(m)) + "\n"


@pytest.mark.parametrize(
    "value,text",
    [
        (0.0, "0"),
        (-0.0, "-0"),
        (5e-324, "4.9406564584124654e-324"),
        (-5e-324, "-4.9406564584124654e-324"),
        (2.5e-308, "2.4999999999999998e-308"),
        (1e300, "1.0000000000000001e+300"),
        (-1e300, "-1.0000000000000001e+300"),
        (3.0, "3"),
        (0.1, "0.10000000000000001"),
        (float("nan"), "nan"),
        (float("inf"), "inf"),
        (float("-inf"), "-inf"),
    ],
)
def test_matrix_text_value_bytes(value, text):
    m = np.array([[value, 1.0], [2.0, value]])
    assert matrix_text(m) == f"{text} 1\n2 {text}\n" == per_value_text(m)


def test_matrix_text_promotes_1d_and_0d():
    assert matrix_text(np.array([0.5, -2.0, 3.0])) == "0.5 -2 3\n"
    assert matrix_text(np.float64(-0.25)) == "-0.25\n"


def test_matrix_text_no_rows():
    assert matrix_text(np.empty((0, 8))) == "\n" == per_value_text(np.empty((0, 8)))


@st.composite
def text_matrices(draw):
    # up to three 2^15-value blocks and one row more; the rows around a block's
    # end are drawn on purpose, so shapes on both sides of a boundary occur
    n = draw(st.sampled_from([1, 2, 3, 8, 64]))
    per_block = (1 << 15) // n
    edges = [per_block - 1, per_block, per_block + 1, 2 * per_block + 1]
    rows = draw(st.sampled_from(edges) | st.integers(1, 3 * per_block + 1))
    fill = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
    return draw(hnp.arrays(np.float64, (rows, n), elements=fill))


@settings(max_examples=40, deadline=None)
@given(m=text_matrices())
def test_matrix_text_matches_per_value_format(m):
    assert matrix_text(m) == per_value_text(m)


def test_immutability():
    lap = build_ggl(GraphParams(1, 1, L1), 4)
    for band in (lap.diagonal, lap.off_diagonal):
        assert not band.flags.writeable
        with pytest.raises(ValueError):
            band[0] = 9
    with pytest.raises(AttributeError):
        lap.diagonal = np.zeros(4)


def test_laplacian_is_its_parameters_and_size():
    a = LineGraphLaplacian(GraphParams(1.5, 0.75, L2), 8)
    b = build_ggl(GraphParams(1.5, 0.75, L2), 8)
    assert a is not b and a.diagonal is not b.diagonal
    assert a == b and hash(a) == hash(b)
    assert np.array_equal(a.diagonal, b.diagonal) and np.array_equal(a.off_diagonal, b.off_diagonal)
    assert repr(a) == f"LineGraphLaplacian(params={a.params!r}, size=8)"


@pytest.mark.parametrize(
    "params,n",
    [
        (GraphParams(1.5, 0.75, L1), 8),
        (GraphParams(1.25, 0.75, L2), 8),
        (GraphParams(1.5, 1.0, L2), 8),
        (GraphParams(1.5, 0.75, L2), 9),
    ],
    ids=["family", "w", "v", "n"],
)
def test_laplacians_differing_in_one_field_are_unequal(params, n):
    assert build_ggl(params, n) != build_ggl(GraphParams(1.5, 0.75, L2), 8)


def test_equal_parameters_define_equal_bands():
    # weights are stored as floats, so a float32 or int weight is the float64 value it equals
    a = build_ggl(GraphParams(np.float32(0.3), 0.1, L1), 5)
    b = build_ggl(GraphParams(float(np.float32(0.3)), 0.1, L1), 5)
    assert a == b and hash(a) == hash(b)
    assert a.diagonal.dtype == a.off_diagonal.dtype == np.float64
    assert np.array_equal(a.diagonal, b.diagonal) and np.array_equal(a.off_diagonal, b.off_diagonal)
    assert build_ggl(GraphParams(2, 1, L2), 4) == build_ggl(GraphParams(2.0, 1.0, L2), 4)


@pytest.mark.parametrize("n", [0, 1, 65, 2.0])
def test_constructor_checks_size(n):
    with pytest.raises(InvalidDimensionError):
        LineGraphLaplacian(GraphParams(1, 1, L1), n)
