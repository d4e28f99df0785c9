import os
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gbst.coding import integerize
from gbst.errors import DecompositionError, DimensionMismatchError, GBSTError, InvalidParameterError
from gbst.estimation import ALPHA_STEP
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


NOT_ORTHONORMAL = {
    "2I": 2 * np.eye(4),
    "nan": np.full((4, 4), np.nan),
    "1e200": np.full((4, 4), 1e200),  # U^T U overflows to inf
    "inf": np.full((4, 4), np.inf),  # U^T U holds inf - inf
    "past-the-bound": np.diag([1 + 6e-11, 1, 1, 1]),  # max|U^T U - I| = 1.2e-10
    "int8": np.array([[16, -1], [1, 16]], np.int8),  # U^T U = 257 I, which wraps to I in int8
}


@pytest.mark.parametrize("basis", list(NOT_ORTHONORMAL.values()), ids=list(NOT_ORTHONORMAL))
def test_transform_matrix_rejects_non_orthonormal_basis(basis):
    # consumers read Parseval off the basis: with one basis 2I the quantizer's coefficient MSE
    # would read 0.73 where quantizing and inverting block by block gives 7.2e4, and
    # evaluate_metrics on the identity covariance a plausible -6.02 dB
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidParameterError, match="^basis is not orthonormal"):
            TransformMatrix(basis, np.zeros(len(basis)))


def test_transform_matrix_admits_a_basis_inside_the_bound():
    assert TransformMatrix(np.diag([1 + 4e-11, 1, 1, 1]), np.zeros(4)).size == 4  # 8e-11


def test_every_generated_basis_is_orthonormal_far_inside_the_bound(monkeypatch):
    # the CLI digest matrix's weights and the alpha grid to 4, both families, and the five
    # closed forms, at every N: each lies within 1e-13 of orthonormal, a thousandth of the 1e-10
    # that TransformMatrix admits, so the bound never refuses a transform the CLI makes
    monkeypatch.syspath_prepend(os.path.join(os.path.dirname(os.path.dirname(__file__)), "tools"))
    from compare_cli import WEIGHTS

    weights = [*((float(w), float(v)) for w, v in WEIGHTS), *((1.0, k * ALPHA_STEP) for k in range(17))]
    bases = [trig_matrix(kind, n).basis for kind in TrigTransformKind for n in range(2, 65)]
    for n in range(2, 65):
        for family in GraphFamily:
            for w, v in weights:
                try:
                    bases.append(derive_gbt(build_ggl(GraphParams(w, v, family), n)).basis)
                except GBSTError:  # w = 0, a spectrum too close to degenerate, 4w + v overflowing
                    continue
    assert len(bases) == 5 * 63 + 3026
    assert max(np.abs(b.T @ b - np.eye(len(b))).max() for b in bases) <= 1e-13


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


def stack_matches_loop(transform, x, row_t, col_t):
    """``transform`` of an (M, N, N) stack, asserted equal bit for bit to the per-block loop."""
    y = transform(x, row_t, col_t)
    assert y.tobytes() == np.stack([transform(b, row_t, col_t) for b in x]).tobytes()
    return y


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
    xs = rng.standard_normal((5, 8, 8))
    ys = stack_matches_loop(apply_separable, xs, row_t, col_t)
    assert np.abs(np.linalg.norm(ys, axis=(1, 2)) - np.linalg.norm(xs, axis=(1, 2))).max() < 1e-10


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
    for x in (rng.standard_normal((8, 8)), rng.standard_normal((7, 8, 8))):
        coeffs = apply_separable(x, row_t, col_t)
        back = inverse_separable(coeffs, row_t, col_t)
        assert np.abs(back - x).max() <= 1e-10
        if x.ndim == 3:
            stack_matches_loop(apply_separable, x, row_t, col_t)
            stack_matches_loop(inverse_separable, coeffs, row_t, col_t)
    for zeros in (np.zeros((8, 8)), np.zeros((3, 8, 8))):
        assert np.array_equal(inverse_separable(zeros, row_t, col_t), zeros)


def test_round_trip_n32_dst7_graph():
    rng = np.random.default_rng(3)
    t = derive_gbt(build_ggl(GraphParams(1, 1, L1), 32))
    for x in (rng.standard_normal((32, 32)), rng.standard_normal((4, 32, 32))):
        coeffs = apply_separable(x, t, t)
        back = inverse_separable(coeffs, t, t)
        assert np.abs(back - x).max() <= 1e-9
        if x.ndim == 3:
            stack_matches_loop(apply_separable, x, t, t)
            stack_matches_loop(inverse_separable, coeffs, t, t)


def test_dimension_mismatch():
    t4 = identity_transform(4)
    t8 = identity_transform(8)
    with pytest.raises(DimensionMismatchError):
        apply_separable(np.zeros((4, 4)), t4, t8)
    with pytest.raises(DimensionMismatchError):
        inverse_separable(np.zeros((8, 4)), t4, t4)
    for shape in ((4,), (1, 2, 4, 4)):
        for transform in (apply_separable, inverse_separable):
            with pytest.raises(DimensionMismatchError, match=r"vs transforms \(4, 4\)"):
                transform(np.zeros(shape), t4, t4)


def test_gbt_dump_header():
    lap = build_ggl(GraphParams(1, 0.75, L2), 4)
    dump = gbt_dump(derive_gbt(lap), lap)
    lines = dump.strip().split("\n")
    assert lines[0] == "GBT N=4 family=L2 w=1 v=0.75"
    assert len(lines) == 5
    parsed = np.loadtxt(lines[1:])
    assert np.abs(parsed.T @ parsed - np.eye(4)).max() < 1e-10
