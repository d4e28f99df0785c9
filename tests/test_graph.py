import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from gbst.errors import DimensionMismatchError, InvalidDimensionError, InvalidParameterError
from gbst.graph import (
    _TEXT_BLOCK,
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
    assert np.array_equal(dense_form(lap), [[2, -1, 0], [-1, 2, -1], [0, -1, 1]])


def test_build_l2_basic():
    lap = build_ggl(GraphParams(2, 4, L2), 3)
    assert np.array_equal(dense_form(lap), [[2, -2, 0], [-2, 4, -2], [0, -2, 6]])


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
    # finite weights whose 4w + v, the Gershgorin bound on L, overflows
    for w, v in ((1e308, 0), (2.5e307, 1e308), (5e307, 0)):
        with pytest.raises(InvalidParameterError, match="4w \\+ v finite"):
            GraphParams(w, v, L1)
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
        # the fixed-notation window 1e-4 <= |x| < 1e16, its ends and exact 17-digit ties
        (1e-4, "0.0001"),
        (-1.5e-4, "-0.00014999999999999999"),
        (1e-5, "1.0000000000000001e-05"),
        (0.25, "0.25"),
        (100.0, "100"),
        (123.456, "123.456"),
        (1e15 + 0.5, "1000000000000000.5"),
        (1234567890123456.25, "1234567890123456.2"),
        (1234567890123456.75, "1234567890123456.8"),
        (9999999999999998.0, "9999999999999998"),
        (1e16, "10000000000000000"),
        (1e17, "1e+17"),
    ],
)
def test_matrix_text_value_bytes(value, text):
    m = np.array([[value, 1.0], [2.0, value]])
    assert matrix_text(m) == f"{text} 1\n2 {text}\n" == per_value_text(m)
    # 512 values, a quarter of them this one: the kernel's path, not one % call
    big = np.tile([[value, 1.0], [2.0, 3.0]], (128, 1))
    assert matrix_text(big) == f"{text} 1\n2 3\n" * 128


def test_matrix_text_promotes_1d_and_0d():
    assert matrix_text(np.array([0.5, -2.0, 3.0])) == "0.5 -2 3\n"
    assert matrix_text(np.float64(-0.25)) == "-0.25\n"


def test_matrix_text_no_rows():
    assert matrix_text(np.empty((0, 8))) == "\n" == per_value_text(np.empty((0, 8)))


def test_matrix_text_rejects_more_than_two_dimensions():
    with pytest.raises(DimensionMismatchError):
        matrix_text(np.ones((2, 2, 2)))


@st.composite
def text_matrices(draw):
    # up to three text blocks and one row more; the rows around a block's
    # end are drawn on purpose, so shapes on both sides of a boundary occur
    n = draw(st.sampled_from([1, 2, 3, 8, 64]))
    per_block = _TEXT_BLOCK // n
    edges = [per_block - 1, per_block, per_block + 1, 2 * per_block + 1]
    rows = draw(st.sampled_from(edges) | st.integers(1, 3 * per_block + 1))
    fill = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
    return draw(hnp.arrays(np.float64, (rows, n), elements=fill))


@settings(max_examples=40, deadline=None)
@given(m=text_matrices())
def test_matrix_text_matches_per_value_format(m):
    assert matrix_text(m) == per_value_text(m)


# every power of ten from 1e-4 to 1e16 and the doubles on either side of it
POWER_EDGES = [
    v for k in range(-4, 17) for p in [float(f"1e{k}")] for v in (np.nextafter(p, 0), p, np.nextafter(p, np.inf))
]
# zeros, specials, a subnormal and values just outside the window
OUTSIDE_WINDOW = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, 1e-5, 1e17]


def test_matrix_text_power_of_ten_edges():
    m = np.tile([POWER_EDGES, [-v for v in POWER_EDGES]], (3, 1))  # 378 values, enough for the kernel
    assert matrix_text(m) == per_value_text(m)
    assert matrix_text(m.T) == per_value_text(m.T)


window_values = st.one_of(
    st.integers(-4, 15).flatmap(lambda k: st.floats(float(f"1e{k}"), float(f"1e{k + 1}"), exclude_max=True)),
    st.integers(1, 10**16).map(float),
    st.builds(lambda m, k: m / 10**k, st.integers(1, 10**6), st.integers(0, 4)),
    st.sampled_from(POWER_EDGES + [0.25, 1e15 + 0.5, 1234567890123456.25, 1234567890123456.75]),
)


@st.composite
def window_matrices(draw):
    # values inside the window of both signs, with values outside it mixed into
    # the same rows, in shapes at the text block edges
    n = draw(st.sampled_from([1, 2, 3, 8, 64]))
    per_block = _TEXT_BLOCK // n
    rows = draw(st.sampled_from([1, per_block - 1, per_block, per_block + 1, 2 * per_block + 1]))
    inside = draw(st.lists(st.tuples(window_values, st.booleans()), min_size=1, max_size=48))
    pool = [-v if neg else v for v, neg in inside] + draw(st.lists(st.sampled_from(OUTSIDE_WINDOW), max_size=8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return rng.choice(np.array(pool), size=(rows, n))


@settings(max_examples=30, deadline=None)
@given(m=window_matrices())
def test_matrix_text_window_matches_per_value_format(m):
    assert matrix_text(m) == per_value_text(m)


def test_immutability():
    lap = build_ggl(GraphParams(1, 1, L1), 4)
    with pytest.raises(AttributeError):
        lap.size = 5
    with pytest.raises(AttributeError):
        lap.params.edge_weight = 9.0
    # every dense_form is a fresh array: writing to one leaves the graph as it was
    m = dense_form(lap)
    m[0, 0] = 9
    assert dense_form(lap)[0, 0] == 2


def test_laplacian_is_its_parameters_and_size():
    a = LineGraphLaplacian(GraphParams(1.5, 0.75, L2), 8)
    b = build_ggl(GraphParams(1.5, 0.75, L2), 8)
    assert a is not b and [f.name for f in fields(a)] == ["params", "size"]
    assert a == b and hash(a) == hash(b)
    assert np.array_equal(dense_form(a), dense_form(b))
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
    assert dense_form(a).dtype == np.float64
    assert np.array_equal(dense_form(a), dense_form(b))
    assert build_ggl(GraphParams(2, 1, L2), 4) == build_ggl(GraphParams(2.0, 1.0, L2), 4)


@pytest.mark.parametrize("n", [0, 1, 65, 2.0])
def test_constructor_checks_size(n):
    with pytest.raises(InvalidDimensionError):
        LineGraphLaplacian(GraphParams(1, 1, L1), n)


@pytest.mark.parametrize("family", [L1, L2])
def test_family_given_as_its_value_is_the_member(family):
    by_value = GraphParams(1, 1, family.value)
    assert by_value.family is family
    assert by_value == GraphParams(1, 1, family) and hash(by_value) == hash(GraphParams(1, 1, family))
    lap = build_ggl(by_value, 4)
    assert lap == build_ggl(GraphParams(1, 1, family), 4)
    assert lap.self_loop_vertex == (0 if family is L1 else 3)
    k = lap.self_loop_vertex
    assert dense_form(lap)[k, k] == 2


@pytest.mark.parametrize("family", ["L3", "l1", None, 1, ["L1"]])
def test_invalid_family_rejected(family):
    with pytest.raises(InvalidParameterError, match="graph family"):
        GraphParams(1, 1, family)
