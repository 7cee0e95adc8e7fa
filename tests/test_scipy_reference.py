"""Package routines against the scipy routines they transcribe or replace.

``empirical._smooth`` must equal ``scipy.ndimage.gaussian_filter1d`` bit for
bit, so KDE modes and their bootstrap stay the same while the package does not
load ``scipy.ndimage``.  The skew-normal fit's Newton solve must reach at least
the likelihood that ``scipy.optimize``'s L-BFGS-B reaches from the same start,
while the package does not load ``scipy.optimize``.
"""

import math

import numpy as np
import pytest
import scipy.optimize
import scipy.special
from hypothesis import example, given, settings, strategies as st
from scipy import ndimage

from bigwinners.distributions import (
    SKEW_ALPHA_CAP,
    SkewNormalParams,
    _skew_normal_mle,
    _skew_normal_moment_start,
    fit_skew_normal,
    sample,
)
from bigwinners.empirical import KDE_GRID_SIZE, _smooth

SUITE = settings(max_examples=300, derandomize=True, deadline=None)


def _reference_smooth(counts, sigma):
    return ndimage.gaussian_filter1d(np.asarray(counts, dtype=float), sigma=sigma, mode="constant", truncate=6.0)


@SUITE
@given(sigma=st.floats(0.01, 128.0), n=st.integers(1, KDE_GRID_SIZE), seed=st.integers(0, 2**32 - 1))
@example(sigma=1.0 / 12.0 - 1e-12, n=KDE_GRID_SIZE, seed=0)  # radius 0: the counts themselves
@example(sigma=1.0 / 12.0, n=KDE_GRID_SIZE, seed=0)  # radius 1
@example(sigma=128.0, n=3, seed=0)  # radius far beyond the grid
def test_smooth_equals_gaussian_filter1d(sigma, n, seed):
    rng = np.random.default_rng(seed)
    counts = rng.multinomial(rng.integers(1, 10**6), rng.dirichlet(np.full(n, 0.3)))
    assert np.array_equal(_smooth(counts, sigma, 1.0), _reference_smooth(counts, sigma))


def test_smooth_of_a_stack_is_row_by_row():
    rng = np.random.default_rng(3)
    stack = rng.multinomial(5000, rng.dirichlet(np.ones(KDE_GRID_SIZE)), size=32)
    h, width = 0.21, 0.013  # sigma = h / width, as the KDE passes it
    expected = np.array([_reference_smooth(row, h / width) for row in stack])
    assert np.array_equal(_smooth(stack, h, width), expected)



# ---------------------------------------------------------------------------
# Skew-normal MLE against L-BFGS-B
# ---------------------------------------------------------------------------

def _skew_normal_nll(params, x):
    """Negative log-likelihood of ``x`` under the skew-normal (zeta, omega, alpha)."""
    zeta, omega, alpha = params
    u = (x - zeta) / omega
    return x.size * (math.log(omega) - math.log(2.0) + 0.5 * math.log(2.0 * math.pi)) + 0.5 * float(
        u @ u
    ) - float(np.sum(scipy.special.log_ndtr(alpha * u)))


def _lbfgsb(x):
    """scipy's L-BFGS-B from the method-of-moments start, within the fit's bounds."""
    sd = float(np.std(x))
    zeta, omega, alpha = _skew_normal_moment_start(x)
    start = [zeta, max(omega, 1e-8 * sd), float(np.clip(alpha, -SKEW_ALPHA_CAP, SKEW_ALPHA_CAP))]
    bounds = [(None, None), (1e-8 * sd, None), (-SKEW_ALPHA_CAP, SKEW_ALPHA_CAP)]
    return scipy.optimize.minimize(_skew_normal_nll, start, args=(x,), method="L-BFGS-B", bounds=bounds)


def _newton(x):
    """The unguarded MLE of ``fit_skew_normal``, before its symmetry guard, as (zeta, omega, alpha)."""
    mean, sd = float(np.mean(x)), float(np.std(x))
    (zeta, eta, alpha), _ = _skew_normal_mle((x - mean) / sd)
    return mean + sd * float(zeta), sd * math.exp(eta), float(alpha)


def _battery():
    """Seeded skew-normal samples of 5 to 20,000 points and |alpha| up to 8, and the
    shapes a drift panel can take: one-sided, symmetric, one outlier, heavy tails, ties."""
    cases = {}
    for i, n in enumerate((5, 12, 50, 300, 2000, 20_000)):
        for j, alpha in enumerate((-8.0, -3.0, -1.0, 0.0, 0.7, 1.5, 3.0, 5.0, 8.0, 2.0)):
            cases[f"n{n}-alpha{alpha}"] = sample(SkewNormalParams(0.1 * j, 0.5 + 0.1 * i, alpha), n, 100 * i + j)
    rng = np.random.default_rng(7)
    cases["half-normal"] = np.abs(rng.standard_normal(20_000))
    cases["negative-half-normal"] = -np.abs(rng.standard_normal(5_000))
    cases["normal"] = rng.standard_normal(10_000)
    drifts = rng.normal(0.1, 0.08, 500)
    for mu in (1.0, 3.0, 10.0, 100.0):
        cases[f"outlier-{mu}"] = np.append(drifts, mu)
    cases["cauchy"] = rng.standard_cauchy(2_000)
    cases["lognormal"] = rng.lognormal(0.0, 1.0, 2_000)
    cases["three-points"] = np.array([0.0, 1.0, 5.0])
    cases["ties"] = np.array([0.1, 0.1, 0.1, 0.1, 0.5])
    cases["ties-three-values"] = np.repeat([0.0, 1.0, 3.0], [10, 5, 1])
    return cases


BATTERY = _battery()


@pytest.mark.parametrize("name", BATTERY)
def test_skew_normal_newton_never_trails_lbfgsb(name):
    """Never above L-BFGS-B's NLL beyond rounding, and on the alpha bound exactly when it is."""
    x = BATTERY[name]
    params, reference = _newton(x), _lbfgsb(x)
    nll = _skew_normal_nll(params, x)
    assert nll <= reference.fun + 1e-9 * max(1.0, abs(reference.fun))
    assert (abs(params[2]) >= SKEW_ALPHA_CAP) == (abs(reference.x[2]) >= SKEW_ALPHA_CAP - 1e-9)


@pytest.mark.parametrize("seed, optimum", [(0, -134771.4235), (2, -134436.3890)])
def test_skew_normal_fit_reaches_the_polished_optimum(seed, optimum):
    """L-BFGS-B stops 0.2 log-likelihood units short on these samples; a Nelder-Mead
    polish of its point finds the optimum, and the fit must reach it."""
    x = sample(SkewNormalParams(0.06, 0.09, 1.88), 100_000, seed)
    first = _lbfgsb(x)
    polished = scipy.optimize.minimize(_skew_normal_nll, first.x, args=(x,), method="Nelder-Mead",
                                       options={"xatol": 1e-12, "fatol": 1e-12, "maxiter": 5000})
    assert polished.fun == pytest.approx(optimum, abs=1e-4)
    assert first.fun - polished.fun > 0.15
    fit = fit_skew_normal(x)
    assert _skew_normal_nll((fit.zeta, fit.omega, fit.alpha), x) <= polished.fun + 1e-6
