import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gbst.coding import integerize
from gbst.errors import DecompositionError, DimensionMismatchError
from gbst.graph import GraphFamily, GraphParams, LineGraphLaplacian, build_ggl, dense_form
from gbst.spectral import (
    SIGN_EPS,
    TransformMatrix,
    apply_separable,
    canonical_signs,
    derive_gbt,
    gbt_dump,
    inverse_separable,
)
from gbst.trig import TrigTransformKind, trig_matrix

L1, L2 = GraphFamily.L1, GraphFamily.L2

GRID = [(w, v) for w in (0.25, 0.5, 1, 2, 4) for v in (0.25, 0.5, 1, 2, 4)]
SIZES = (4, 8, 16, 32)


def identity_transform(n):
    return TransformMatrix(np.eye(n), np.zeros(n))


def test_dct2_correspondence():
    gbt = derive_gbt(build_ggl(GraphParams(1, 0, L1), 4))
    ref = trig_matrix(TrigTransformKind.DCT2, 4)
    assert np.abs(gbt.basis - ref.basis).max() < 1e-12


def test_two_point_eigenvalues():
    gbt = derive_gbt(build_ggl(GraphParams(1, 1, L1), 2))
    expected = [(3 - np.sqrt(5)) / 2, (3 + np.sqrt(5)) / 2]
    assert np.allclose(gbt.eigenvalues, expected, atol=1e-12)


@pytest.mark.parametrize("c", [0.5, 2, 10])
def test_scale_invariance_is_literal(c):
    a = derive_gbt(build_ggl(GraphParams(1, 0.75, L1), 8))
    b = derive_gbt(build_ggl(GraphParams(c, 0.75 * c, L1), 8))
    assert np.array_equal(a.basis, b.basis) or np.abs(a.basis - b.basis).max() < 1e-12
    assert np.allclose(b.eigenvalues, c * a.eigenvalues, rtol=1e-12)


@pytest.mark.parametrize("n", SIZES)
def test_reconstruction_and_orthonormality(n):
    for w, v in GRID:
        lap = build_ggl(GraphParams(w, v, L1), n)
        t = derive_gbt(lap)
        assert np.abs(t.basis.T @ t.basis - np.eye(n)).max() < 1e-10
        rec = t.basis @ np.diag(t.eigenvalues) @ t.basis.T
        dense = dense_form(lap)
        assert np.abs(rec - dense).max() <= 1e-9 * max(1, np.abs(dense).max())
        assert np.all(np.diff(t.eigenvalues) > 0)
        assert t.eigenvalues[0] >= 0


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(2, 64),
    family=st.sampled_from([L1, L2]),
    w=st.floats(0.25, 4.0),
    alpha=st.integers(0, 8).map(lambda i: i * 0.25),
    seed=st.integers(0, 2**32 - 1),
)
def test_derive_gbt_properties(n, family, w, alpha, seed):
    lap = build_ggl(GraphParams(w, alpha * w, family), n)
    t = derive_gbt(lap)
    u, lam = t.basis, t.eigenvalues
    assert np.abs(u.T @ u - np.eye(n)).max() <= 1e-10
    dense = dense_form(lap)
    assert np.abs(dense @ u - u * lam).max() <= 1e-9 * np.abs(dense).max()
    assert np.all(np.diff(lam) > 0)
    # the cache serves exactly what a fresh decomposition of the dense form gives
    vals, vecs = np.linalg.eigh(dense)
    assert np.array_equal(u, canonical_signs(vecs)) and np.array_equal(lam, np.maximum(vals, 0.0))
    # canonical signs: in every column the first entry above SIGN_EPS is positive
    first = np.argmax(np.abs(u) > SIGN_EPS, axis=0)
    assert np.all(u[first, np.arange(n)] > 0)
    x = np.random.default_rng(seed).standard_normal((n, n))
    assert np.abs(inverse_separable(apply_separable(x, t, t), t, t) - x).max() <= 1e-10
    # the largest magnitude over this whole grid at w = 1 is 91
    assert np.abs(integerize(t).entries).max() <= 127


def per_column_signs(basis):
    """The per-column reference loop canonical_signs must match byte for byte."""
    out = basis.copy()
    for k in range(out.shape[1]):
        nz = np.nonzero(np.abs(out[:, k]) > SIGN_EPS)[0]
        if nz.size and out[nz[0], k] < 0:
            out[:, k] = -out[:, k]
    return out


def test_canonical_signs_matches_per_column_loop():
    alphas = [i * 0.25 for i in range(9)] + [3.0, 8.0]
    for n in range(2, 65):
        for family in (L1, L2):
            for alpha in alphas:
                _, vecs = np.linalg.eigh(dense_form(build_ggl(GraphParams(1.0, alpha, family), n)))
                for u in (vecs, -vecs):
                    assert canonical_signs(u).tobytes() == per_column_signs(u).tobytes()
    # columns: all zero; a negative lead below SIGN_EPS before a positive entry (kept); a
    # negative lead just above it (flipped); only entries below SIGN_EPS, negative first (kept)
    odd = np.array([[0.0, -1e-13, 0.0, -1e-13], [0.0, 0.5, -0.0, 5e-13], [0.0, -0.5, -2e-12, 0.0]])
    for u in (np.zeros((5, 5)), odd):
        assert canonical_signs(u).tobytes() == per_column_signs(u).tobytes()


def test_sign_convention():
    t = derive_gbt(build_ggl(GraphParams(1, 2, L2), 8))
    for k in range(8):
        col = t.basis[:, k]
        first = col[np.abs(col) > 1e-12][0]
        assert first > 0


def test_flip_property():
    for w, v in [(1, 1), (1, 2), (2, 0.5)]:
        a = derive_gbt(build_ggl(GraphParams(w, v, L1), 8)).basis
        b = derive_gbt(build_ggl(GraphParams(w, v, L2), 8)).basis
        for k in range(8):
            flipped = a[::-1, k]
            assert min(np.abs(b[:, k] - flipped).max(), np.abs(b[:, k] + flipped).max()) < 1e-10


def test_gershgorin_bound():
    for w, v in GRID:
        t = derive_gbt(build_ggl(GraphParams(w, v, L1), 16))
        assert t.eigenvalues[-1] <= 4 * w + v + 1e-9


def test_degenerate_spectrum_rejected():
    # zero edge weight gives a repeated zero eigenvalue; errors are never cached
    lap = build_ggl(GraphParams(0, 1, L1), 4)
    for _ in range(3):
        with pytest.raises(DecompositionError):
            derive_gbt(lap)


def test_derive_gbt_cache_shares_read_only_results():
    a = derive_gbt(build_ggl(GraphParams(1.5, 0.75, L2), 16))
    b = derive_gbt(build_ggl(GraphParams(1.5, 0.75, L2), 16))
    assert b is a
    assert not a.basis.flags.writeable and not a.eigenvalues.flags.writeable
    with pytest.raises(ValueError):
        a.basis[0, 0] = 0.0


def test_derive_gbt_cache_keys_on_the_graph_value():
    a = derive_gbt(build_ggl(GraphParams(1, 2, L1), 8))
    assert derive_gbt(LineGraphLaplacian(GraphParams(1.0, 2.0, L1), 8)) is a
    b = derive_gbt(build_ggl(GraphParams(1, 2, L2), 8))
    assert b is not a
    assert np.allclose(b.eigenvalues, a.eigenvalues, rtol=1e-12)  # L2 mirrors L1
    assert not np.array_equal(b.basis, a.basis)


def test_apply_separable_identity():
    t = identity_transform(4)
    x = np.eye(4)
    assert np.array_equal(apply_separable(x, t, t), x)


def test_energy_preservation():
    rng = np.random.default_rng(1)
    row_t = derive_gbt(build_ggl(GraphParams(1, 1, L1), 8))
    col_t = derive_gbt(build_ggl(GraphParams(1, 2, L2), 8))
    x = rng.standard_normal((8, 8))
    y = apply_separable(x, row_t, col_t)
    assert abs(np.linalg.norm(y) - np.linalg.norm(x)) < 1e-10


def test_rank_one_block_maps_to_single_coefficient():
    row_t = derive_gbt(build_ggl(GraphParams(1, 1, L1), 8))
    col_t = derive_gbt(build_ggl(GraphParams(1, 2, L2), 8))
    j, k = 2, 5
    x = np.outer(col_t.basis[:, j], row_t.basis[:, k])
    y = apply_separable(x, row_t, col_t)
    expected = np.zeros((8, 8))
    expected[j, k] = 1
    assert np.abs(y - expected).max() < 1e-10


def test_round_trip():
    rng = np.random.default_rng(2)
    row_t = derive_gbt(build_ggl(GraphParams(1, 0.5, L1), 8))
    col_t = derive_gbt(build_ggl(GraphParams(1, 0.5, L1), 8))
    x = rng.standard_normal((8, 8))
    back = inverse_separable(apply_separable(x, row_t, col_t), row_t, col_t)
    assert np.abs(back - x).max() <= 1e-10
    assert np.array_equal(inverse_separable(np.zeros((8, 8)), row_t, col_t), np.zeros((8, 8)))


def test_round_trip_n32_dst7_graph():
    rng = np.random.default_rng(3)
    t = derive_gbt(build_ggl(GraphParams(1, 1, L1), 32))
    x = rng.standard_normal((32, 32))
    back = inverse_separable(apply_separable(x, t, t), t, t)
    assert np.abs(back - x).max() <= 1e-9


def test_dimension_mismatch():
    t4 = identity_transform(4)
    t8 = identity_transform(8)
    with pytest.raises(DimensionMismatchError):
        apply_separable(np.zeros((4, 4)), t4, t8)
    with pytest.raises(DimensionMismatchError):
        inverse_separable(np.zeros((8, 4)), t4, t4)


def test_gbt_dump_header():
    lap = build_ggl(GraphParams(1, 0.75, L2), 4)
    dump = gbt_dump(derive_gbt(lap), lap)
    lines = dump.strip().split("\n")
    assert lines[0] == "GBT N=4 family=L2 w=1 v=0.75"
    assert len(lines) == 5
    parsed = np.loadtxt(lines[1:])
    assert np.abs(parsed.T @ parsed - np.eye(4)).max() < 1e-10
