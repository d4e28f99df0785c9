"""derive_gbt against the line graph's eigenpairs in closed form.

Family L1 with w = 1 and v = alpha.  For every w, x_m = cos(w (N - 1/2 - m))
satisfies the interior rows and the free end at vertex N-1 with
lambda = 2 - 2 cos w; the self-loop row at vertex 0 adds

    cos(w (N + 1/2)) = (1 - alpha) cos(w (N - 1/2)),

which has one root per bracket in (0, pi).  Above alpha = 2 the top root
leaves through pi: with w = pi - phi the top mode is
x_m = (-1)^m sin(phi (N - 1/2 - m)), lambda = 2 + 2 cos phi, where
sin(phi (N + 1/2)) = (alpha - 1) sin(phi (N - 1/2)).  For alpha > 2 + 1/(N - 1/2)
it is evanescent: sinh and cosh in place of sin and cos.  Family L2 is
the row reversal of L1.  The roots come from bisection, not from eigh.
"""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gbst.graph import GraphFamily, GraphParams, build_ggl
from gbst.spectral import canonical_signs, derive_gbt

STEPS = 100  # halvings: every bracket here ends narrower than the spacing of doubles


def bisect(above, lo, hi):
    """The point in [lo, hi] where ``above`` turns from true to false, elementwise."""
    for _ in range(STEPS):
        mid = 0.5 * (lo + hi)
        up = above(mid)
        lo, hi = np.where(up, mid, lo), np.where(up, hi, mid)
    return 0.5 * (lo + hi)


def trig_modes(n, alpha):
    """The modes with w in (0, pi): all N up to alpha = 2, the lower N - 1 above.

    With w = (k + t) pi / N the self-loop condition, multiplied out, reads
    g(t) = alpha cos(pi t) cos(w/2) - (2 - alpha) sin(pi t) sin(w/2) = 0,
    exact at t = 0 (sin(0) = 0).  Root k has t in [0, 1/2] for alpha <= 2,
    with g > 0 left of it, and t in [-1/2, 0] above, with g <= 0 left of it.
    """
    k = np.arange(n, dtype=float) if alpha <= 2 else np.arange(1, n, dtype=float)

    def g(t):
        half = (k + t) * math.pi / (2 * n)
        return alpha * np.cos(math.pi * t) * np.cos(half) - (2 - alpha) * np.sin(math.pi * t) * np.sin(half)

    zero, half = np.zeros(k.shape), np.full(k.shape, 0.5)
    if alpha <= 2:
        t = bisect(lambda t: g(t) > 0, zero, half)
    else:
        t = bisect(lambda t: g(t) <= 0, -half, zero)
    omega = (k + t) * math.pi / n
    m = np.arange(n)[:, None]
    return 4 * np.sin(omega / 2) ** 2, np.cos(omega * (n - 0.5 - m))


def top_mode(n, alpha):
    """The top mode for alpha > 2, trigonometric up to alpha = 2 + 1/(N - 1/2), evanescent above.

    x is phi or theta.  Both equations are solved in ratio form,
    sin(x (N + 1/2)) / sin(x (N - 1/2)) = alpha - 1 and the same with sinh,
    and the evanescent vector is sinh(x (N - 1/2 - m)) / sinh(x (N - 1/2)),
    since sinh itself overflows at N = 64.
    """
    m = np.arange(n)
    a = n - 0.5
    if alpha <= 2 + 1 / a:
        # cos x + sin x / tan(a x) falls from (N + 1/2)/(N - 1/2) at 0 to 1 at pi/(2N)
        x = bisect(lambda x: math.cos(x) + math.sin(x) / math.tan(a * x) > alpha - 1, 0.0, math.pi / (2 * n))
        return 2 + 2 * math.cos(x), (-1.0) ** m * np.sin(x * (a - m))
    # cosh x + sinh x / tanh(a x) rises from (N + 1/2)/(N - 1/2) at 0 and is at least e^x
    x = bisect(lambda x: math.cosh(x) + math.sinh(x) / math.tanh(a * x) < alpha - 1, 0.0, math.log(alpha - 1))
    ratio = np.exp(-x * m) * np.expm1(-2 * x * (a - m)) / math.expm1(-2 * x * a)
    return 2 + 2 * math.cosh(x), (-1.0) ** m * ratio


def analytic_gbt(n, alpha, family):
    """Eigenvalues (ascending) and canonical-sign basis of L(1, alpha) for ``family``."""
    lam, x = trig_modes(n, alpha)
    if alpha > 2:
        top_lam, top_x = top_mode(n, alpha)
        lam, x = np.append(lam, top_lam), np.column_stack((x, top_x))
    x = x / np.linalg.norm(x, axis=0)
    if family is GraphFamily.L2:
        x = x[::-1]
    return lam, canonical_signs(x)


@st.composite
def sizes_and_alphas(draw):
    n = draw(st.integers(2, 64))
    threshold = 2 + 1 / (n - 0.5)  # where the top mode turns evanescent
    alpha = draw(st.one_of(
        st.integers(0, 40).map(lambda i: i * 0.25),
        st.floats(0.0, 10.0),
        st.floats(threshold - 1e-6, threshold + 1e-6),
    ))
    return n, alpha


@settings(max_examples=300, deadline=None)
@given(case=sizes_and_alphas(), family=st.sampled_from(list(GraphFamily)))
@example(case=(64, 3.0), family=GraphFamily.L1)
@example(case=(64, 8.0), family=GraphFamily.L2)
@example(case=(64, 2 + 1 / 63.5), family=GraphFamily.L1)
@example(case=(2, 2.0), family=GraphFamily.L2)
@example(case=(33, 0.0), family=GraphFamily.L1)
def test_derive_gbt_matches_the_analytic_eigenpairs(case, family):
    n, alpha = case
    lam, basis = analytic_gbt(n, alpha, family)
    t = derive_gbt(build_ggl(GraphParams(1.0, alpha, family), n))
    assert np.abs(t.eigenvalues - lam).max() <= 1e-13
    assert np.abs(t.basis - basis).max() <= 1e-12


def test_analytic_oracle_reaches_the_dct_correspondences():
    # alpha = 0, 1, 2 put the roots at k pi/N, (2k+1) pi/(2N+1) and (2k+1) pi/(2N)
    n, k = 8, np.arange(8)
    for alpha, omega in ((0.0, k * np.pi / n), (1.0, (2 * k + 1) * np.pi / (2 * n + 1)), (2.0, (2 * k + 1) * np.pi / (2 * n))):
        lam, _ = analytic_gbt(n, alpha, GraphFamily.L1)
        assert np.abs(lam - 4 * np.sin(omega / 2) ** 2).max() <= 1e-15
