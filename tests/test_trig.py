import numpy as np
import pytest

from gbst.errors import InvalidDimensionError, NotACorrespondenceError
from gbst.graph import GraphFamily, GraphParams
from gbst.trig import CORRESPONDENCE, TrigTransformKind, oracle_check, trig_matrix

L1, L2 = GraphFamily.L1, GraphFamily.L2
K = TrigTransformKind


def test_dct2_n2_values():
    t = trig_matrix(K.DCT2, 2)
    s = 1 / np.sqrt(2)
    assert np.allclose(t.basis, [[s, s], [s, -s]], atol=1e-15)


@pytest.mark.parametrize("kind", list(K))
@pytest.mark.parametrize("n", [2, 4, 8, 16, 32, 64])
def test_orthonormal(kind, n):
    t = trig_matrix(kind, n)
    assert np.abs(t.basis.T @ t.basis - np.eye(n)).max() < 1e-12


def test_invalid_size():
    with pytest.raises(InvalidDimensionError):
        trig_matrix(K.DST7, 1)
    with pytest.raises(InvalidDimensionError):
        trig_matrix(K.DST7, 65)


def test_dst7_matches_graph_route():
    dev = oracle_check(K.DST7, GraphParams(1, 1, L1), 4)
    assert dev <= 1e-8


@pytest.mark.parametrize("n", [4, 8, 16, 32])
@pytest.mark.parametrize(
    "kind,w,v,family",
    [
        (K.DCT2, 3, 0, L1),
        (K.DST7, 1, 1, L1),
        (K.DCT8, 2, 2, L2),
        (K.DST4, 1, 2, L1),
        (K.DCT4, 1, 2, L2),
    ],
)
def test_all_correspondences(kind, w, v, family, n):
    assert oracle_check(kind, GraphParams(w, v, family), n) <= 1e-8


def test_dct2_either_family():
    assert oracle_check(K.DCT2, GraphParams(1, 0, L2), 8) <= 1e-8


@pytest.mark.parametrize("pair", [(K.DST7, K.DCT8), (K.DST4, K.DCT4)])
def test_flip_pairs(pair):
    a, b = pair
    for n in (4, 8, 16):
        ta, tb = trig_matrix(a, n).basis, trig_matrix(b, n).basis
        for k in range(n):
            flipped = ta[::-1, k]
            assert min(np.abs(tb[:, k] - flipped).max(), np.abs(tb[:, k] + flipped).max()) < 1e-12


def test_not_a_correspondence():
    with pytest.raises(NotACorrespondenceError):
        oracle_check(K.DST7, GraphParams(1, 2, L1), 8)  # wrong ratio
    with pytest.raises(NotACorrespondenceError):
        oracle_check(K.DST7, GraphParams(1, 1, L2), 8)  # wrong family
    with pytest.raises(NotACorrespondenceError):
        oracle_check(K.DCT2, GraphParams(0, 0, L1), 8)  # zero edge weight


def test_correspondence_table_complete():
    assert set(CORRESPONDENCE) == set(K)


def test_eigenvalues_match_graph_route():
    from gbst.graph import build_ggl
    from gbst.spectral import derive_gbt

    for kind, (ratio, family) in CORRESPONDENCE.items():
        family = family or L1
        t = trig_matrix(kind, 16)
        g = derive_gbt(build_ggl(GraphParams(1.0, ratio, family), 16))
        assert np.abs(t.eigenvalues - g.eigenvalues).max() < 1e-10

