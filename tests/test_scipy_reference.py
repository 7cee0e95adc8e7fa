"""Package routines against the scipy routines they transcribe or replace.

``empirical._smooth`` must equal ``scipy.ndimage.gaussian_filter1d`` bit for
bit, so KDE modes and their bootstrap stay the same while the package does not
load ``scipy.ndimage``.  The skew-normal fit's Newton solve must reach at least
the likelihood that ``scipy.optimize``'s L-BFGS-B reaches from the same start,
while the package does not load ``scipy.optimize``.  ``distributions._ndtri``
is Cephes ``ndtri``, as scipy's is, and must equal it bit for bit.
``distributions._log_ndtr``, ``_ndtr`` and ``_psi`` stand in for
``scipy.special``'s ``log_ndtr``, ``erfcx``, ``ndtr``, ``digamma`` and
``polygamma``; they are held to tolerances, not bits, since ``math.erfc`` comes
from the platform's C library.
"""

import math

import numpy as np
import pytest
import scipy.optimize
import scipy.special
from hypothesis import example, given, settings, strategies as st
from scipy import ndimage

from bigwinners.distributions import (
    GAMMA_NEWTON_MAXITER,
    GAMMA_NEWTON_TOL,
    LOG_NDTR_SERIES_BELOW,
    SKEW_ALPHA_CAP,
    SkewNormalParams,
    _log_ndtr,
    _ndtr,
    _ndtri,
    _psi,
    _skew_normal_mle,
    _skew_normal_moment_start,
    fit_gamma,
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


# ---------------------------------------------------------------------------
# Special functions against scipy.special
# ---------------------------------------------------------------------------

EPS = np.finfo(float).eps


def _normal_rtol(z: float) -> float:
    """8 eps up to z = 0; above, erfc at a rounded argument x = z/sqrt 2 errs by about
    2 x^2 eps = z^2 eps relative, in scipy's values as in the package's."""
    return 8 * EPS * (1.0 + max(z, 0.0) ** 2)


@SUITE
@given(z=st.floats(-1e6, 1e12))
@example(z=0.0)
@example(z=-1.0)  # the last point of the left erfc branch
@example(z=float(np.nextafter(-1.0, 0.0)))
@example(z=LOG_NDTR_SERIES_BELOW)  # the first point of the erfc branches
@example(z=float(np.nextafter(LOG_NDTR_SERIES_BELOW, -np.inf)))  # the first point of the series
@example(z=-1e6)
@example(z=40.0)  # Phi(-40) underflows: log Phi and the ratio round to 0
@example(z=9.31554181e8)  # x^2 2^-26 past the float range: the ratio's exp must not overflow
def test_log_ndtr_matches_scipy(z):
    log_cdf, mills = (float(v[0]) for v in _log_ndtr(np.array([z])))
    # Values below 1e-300 are subnormal or 0 on both sides and are compared absolutely.
    assert log_cdf == pytest.approx(float(scipy.special.log_ndtr(z)), rel=_normal_rtol(z), abs=1e-300)
    reference = math.sqrt(2.0 / math.pi) / float(scipy.special.erfcx(-z * math.sqrt(0.5)))
    assert mills == pytest.approx(reference, rel=_normal_rtol(z), abs=1e-300)


def test_log_ndtr_of_an_array_is_element_by_element():
    """Each branch gets its elements in place when one array mixes all three."""
    z = np.array([-1e6, 3.0, LOG_NDTR_SERIES_BELOW, -1.0, -40.0, 0.0, -0.5, 39.0, -2.0])
    by_element = np.array([[float(v[0]) for v in _log_ndtr(np.array([e]))] for e in z])
    assert np.array_equal(np.column_stack(_log_ndtr(z)), by_element)


def _neighbours(v: float, steps: int = 20) -> list[float]:
    """``v`` and the ``steps`` floats on either side of it."""
    out, lo, hi = [v], v, v
    for _ in range(steps):
        lo, hi = np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf)
        out += [lo, hi]
    return out


def test_ndtri_equals_scipy_to_the_bit():
    """Seeded uniforms, log-spaced tails on both sides, QQ plotting positions, the floats
    around each branch point (e^-2, 1 - e^-2 and e^-32) and around 0 and 1, NaN, and
    points off [0, 1]."""
    edges = [math.exp(-2.0), 1.0 - math.exp(-2.0), math.exp(-32.0), 1.0 - math.exp(-32.0), 0.0, 1.0]
    q = np.concatenate([
        np.random.default_rng(11).uniform(size=200_000),
        np.logspace(-320, -1, 20_000),
        1.0 - np.logspace(-16, -1, 20_000),
        *[(np.arange(n) + 0.5) / n for n in (10, 99, 1000, 19_042)],
        [v for edge in edges for v in _neighbours(edge)],
        [math.nan, -math.nan, -0.1, 1.1, -math.inf, math.inf],
    ])
    assert np.array_equal(_ndtri(q).view(np.int64), scipy.special.ndtri(q).view(np.int64))


def test_ndtr_matches_scipy_where_phi_is_a_normal_float():
    """Within 4 eps (1 + z^2) relative over z in [-37, 8]; the worst measured was 5.7e-14,
    at z = -36.9, deep in the left tail."""
    z = np.concatenate([np.linspace(-37.0, 8.0, 90_001), np.random.default_rng(12).uniform(-37.0, 8.0, 100_000)])
    reference = scipy.special.ndtr(z)
    assert np.all(np.abs(_ndtr(z) - reference) <= 4 * EPS * (1.0 + z * z) * reference)
    assert (_ndtr(-math.inf), _ndtr(math.inf)) == (0.0, 1.0)


@SUITE
@given(k=st.floats(1e-8, 1e12))
@example(k=1e-8)
@example(k=1.4616321449683623)  # the root of digamma
@example(k=20.0)  # the series without recurrence
@example(k=float(np.nextafter(20.0, 0.0)))  # one recurrence step
@example(k=1e12)
def test_psi_matches_scipy(k):
    """Digamma within 4e-15 of max(1, |psi|): near its root at 1.46 its recurrence
    subtracts sums near 3.  Trigamma within 2e-15 relative."""
    digamma, trigamma = _psi(k)
    reference = float(scipy.special.digamma(k))
    assert abs(digamma - reference) <= 4e-15 * max(1.0, abs(reference))
    assert trigamma == pytest.approx(float(scipy.special.polygamma(1, k)), rel=2e-15, abs=0)


def _scipy_gamma_shape(x):
    """``fit_gamma``'s Newton loop with scipy's digamma and polygamma in place of ``_psi``."""
    xbar = float(np.mean(x))
    s = math.log(xbar) - float(np.mean(np.log(x)))
    k = (3.0 - s + math.sqrt((s - 3.0) ** 2 + 24.0 * s)) / (12.0 * s)
    for _ in range(GAMMA_NEWTON_MAXITER):
        f = math.log(k) - float(scipy.special.digamma(k)) - s
        fprime = 1.0 / k - float(scipy.special.polygamma(1, k))
        k_new = k - f / fprime
        if k_new <= 0:
            k_new = k / 2.0
        if abs(k_new - k) <= GAMMA_NEWTON_TOL * max(1.0, abs(k)):
            return k_new
        k = k_new
    raise AssertionError("the scipy transcription did not converge")


@pytest.mark.parametrize("shape", [0.05, 0.3, 1.0, 2.5, 7.0, 20.0, 60.0, 200.0])
@pytest.mark.parametrize("n", [5, 50, 500, 20_000])
def test_gamma_shape_matches_the_scipy_newton_loop(shape, n):
    x = np.random.default_rng([n, int(100 * shape)]).gamma(shape, 1.3, n)
    fit = fit_gamma(x)
    assert fit.method == "mle"
    assert fit.shape == pytest.approx(_scipy_gamma_shape(x), rel=1e-13, abs=0)


@pytest.mark.parametrize("seed", range(20))
def test_gamma_shape_near_1e5_is_the_likelihood_root(seed):
    """Near k = 1e5 the rounding of ln k - psi(k) moves a Newton step by more than the
    relative tolerance, so only the rounding stop ends the solve."""
    x = np.random.default_rng(seed).gamma(1e5, 0.01, 2000)
    s = math.log(float(np.mean(x))) - float(np.mean(np.log(x)))
    root = scipy.optimize.brentq(lambda k: math.log(k) - float(scipy.special.digamma(k)) - s, 1e4, 1e6)
    fit = fit_gamma(x)
    assert fit.method == "mle"
    assert fit.shape == pytest.approx(root, rel=1e-8, abs=0)
