"""Reference computations the benchmark checks the program against.

Each one is computed here with numpy alone, from the definitions in the
paper, never from gbst's code or from a saved copy of its output.
"""

from __future__ import annotations

import math

import numpy as np

from gen import Moments, laplacian

SIGN_EPS = 1e-12


def grid_round(ratio: float) -> float:
    """Nearest multiple of 0.25, exact ties away from zero."""
    return math.copysign(math.floor(abs(ratio) * 4.0 + 0.5) / 4.0, ratio)


def round_half_away(x: np.ndarray) -> np.ndarray:
    return np.sign(x) * np.floor(np.abs(x) + 0.5)


def ml_fit(stats: Moments, family: str) -> tuple[float, float]:
    """Closed-form Gaussian ML fit (w*, v*) of L = w P + v e_k e_k^T.

    P is the Laplacian of a tree, so det L = v w^(N-1) and the objective
    Tr(L S) - logdet L separates: w* = (N-1) / Tr(P S), v* = 1 / S_kk.
    With S = moment / vectors, Tr(P S) = diff_sq / vectors.
    """
    n = stats.moment.shape[0]
    w = (n - 1) * stats.vectors / stats.diff_sq
    v = stats.vectors / stats.boundary_sq(family)
    return w, v


def gbt(n: int, w: float, v: float, family: str) -> tuple[np.ndarray, np.ndarray]:
    """Dense-eigh graph transform: ascending eigenvalues, canonical column signs."""
    vals, vecs = np.linalg.eigh(laplacian(n, w, v, family))
    first = np.argmax(np.abs(vecs) > SIGN_EPS, axis=0)
    signs = np.sign(vecs[first, np.arange(n)])
    return vals, vecs * signs


def dst7(n: int) -> np.ndarray:
    """Closed-form orthonormal DST-7, [sample, basis] layout."""
    ns = np.arange(n)[:, None]
    ks = np.arange(n)[None, :]
    return 2.0 / np.sqrt(2 * n + 1) * np.sin(np.pi * (2 * ks + 1) * (ns + 1) / (2 * n + 1))


def coding_metrics(basis: np.ndarray, cov: np.ndarray) -> tuple[float, float, float]:
    """Coding gain (dB), energy share of the lowest N//4 coefficients, entropy proxy (bits)."""
    n = len(cov)
    d = np.einsum("nk,nm,mk->k", basis, cov, basis)
    gain = 10.0 * math.log10((np.trace(cov) / n) / math.exp(np.log(d).mean()))
    compaction = float(d[: max(1, n // 4)].sum() / d.sum())
    entropy = float(0.5 * np.log2(2.0 * np.pi * np.e * d).mean())
    return gain, compaction, entropy


def sweep(cov: np.ndarray, family: str, alphas) -> np.ndarray:
    """(alpha, gain, compaction, entropy) rows of the w=1, v=alpha transforms."""
    n = len(cov)
    return np.array([(a, *coding_metrics(gbt(n, 1.0, a, family)[1], cov)) for a in alphas])


def int_table(basis: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Codec integer table (row k = basis vector k times 64 sqrt(N)), and where it sits on a tie.

    The second array marks entries within 1e-9 of a rounding tie, where a
    last-bit difference in the basis may round either way.
    """
    scaled = 64.0 * math.sqrt(len(basis)) * basis.T
    frac = np.abs(scaled) - np.floor(np.abs(scaled))
    return round_half_away(scaled).astype(np.int64), np.abs(frac - 0.5) < 1e-9


def tables_match(table: np.ndarray, basis: np.ndarray) -> bool:
    want, tie = int_table(basis)
    if table.shape != want.shape:
        return False
    diff = np.abs(table - want)
    return bool(np.all((diff == 0) | (tie & (diff == 1))))


def quantize_roundtrip(blocks: np.ndarray, row_basis, col_basis, step: float) -> tuple[float, float]:
    """Batched separable transform, uniform rounding, inverse: MSE and index entropy (bits)."""
    x = blocks.astype(np.float64)
    q = round_half_away(col_basis.T @ x @ row_basis / step)
    rec = col_basis @ (q * step) @ row_basis.T
    _, counts = np.unique(q, return_counts=True)
    p = counts / counts.sum()
    return float(((x - rec) ** 2).mean()), float(-(p * np.log2(p)).sum())


def close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)
