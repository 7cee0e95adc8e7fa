"""Randomized property suites (200 examples each, deterministic order)."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import special, stats

from bigwinners.distributions import (
    AsymmetricLaplaceParams,
    LogNormalParams,
    SkewNormalParams,
    _skew_normal_moment_start,
    fit_asymmetric_laplace,
    fit_gamma,
    fit_lognormal,
    fit_skew_normal,
    lognormal_moments,
    sample,
)
from bigwinners.empirical import ReturnSample, summarize_index, tail_filter, top_contribution
from bigwinners.gbm import GBMParams, estimate_gbm, simulate_gbm
from bigwinners.errors import ParameterError
from bigwinners.index_model import DriftModelParams, model_ratios
from bigwinners.lognormal_sum import MODERATELY_BROAD, VERY_BROAD, regime_formula_values, typical_mean_ratio

SUITE = settings(max_examples=200, derandomize=True, deadline=None)

mus = st.floats(-2.0, 2.0)
sigmas = st.floats(0.05, 2.5)
seeds = st.integers(0, 2**32 - 1)


# ---------------------------------------------------------------------------
# Scale invariance (log-normal fit)
# ---------------------------------------------------------------------------

@SUITE
@given(mu=mus, sigma=sigmas, scale=st.floats(0.01, 100.0), seed=seeds)
def test_scale_invariance(mu, sigma, scale, seed):
    x = np.random.default_rng(seed).lognormal(mu, sigma, 200)
    base = fit_lognormal(x)
    scaled = fit_lognormal(scale * x)
    assert scaled.mu - base.mu == pytest.approx(math.log(scale), abs=1e-9)
    assert scaled.sigma == pytest.approx(base.sigma, abs=1e-9)


# ---------------------------------------------------------------------------
# Moment ordering
# ---------------------------------------------------------------------------

@SUITE
@given(mu=mus, sigma=sigmas)
def test_moment_ordering_strict(mu, sigma):
    m = lognormal_moments(LogNormalParams(mu, sigma))
    assert m.mode < m.median < m.mean


# ---------------------------------------------------------------------------
# Tail filter idempotence
# ---------------------------------------------------------------------------

@SUITE
@given(mu=st.floats(-1.0, 1.0), sigma=sigmas, seed=seeds, threshold=st.floats(-5.0, 1.0))
def test_tail_filter_idempotent(mu, sigma, seed, threshold):
    rho = np.random.default_rng(seed).lognormal(mu, sigma, 300)
    s = ReturnSample(rho=rho)
    once = tail_filter(s, threshold_log=threshold)
    if len(once) == 0:
        return
    twice = tail_filter(once, threshold_log=threshold)
    assert np.array_equal(once.rho, twice.rho)
    assert twice.removed == 0


# ---------------------------------------------------------------------------
# Toy-model ratio identity
# ---------------------------------------------------------------------------

@SUITE
@given(
    mu_d=st.floats(-0.2, 0.3),
    sigma_d=st.floats(0.0, 0.2),
    sigma=st.floats(0.0, 0.6),
    horizon=st.floats(0.5, 30.0),
)
def test_mean_over_mode_is_cube(mu_d, sigma_d, sigma, horizon):
    r = model_ratios(DriftModelParams(mu_d, sigma_d, sigma, horizon))
    assert r.mean_over_mode == pytest.approx(r.mean_over_median**3, rel=1e-12)


# ---------------------------------------------------------------------------
# Regime-II n=1 identity
# ---------------------------------------------------------------------------

@SUITE
@given(sigma=sigmas)
def test_eq7b_n1_identity(sigma):
    s2 = sigma * sigma
    c_sq = math.expm1(s2)
    assert 1.0 + c_sq == pytest.approx(math.exp(s2), rel=1e-12)
    moderate = regime_formula_values(LogNormalParams(0.0, sigma), 1)[MODERATELY_BROAD]
    assert moderate == pytest.approx(math.exp(-1.5 * s2), rel=1e-12)


# ---------------------------------------------------------------------------
# Regime monotonicity
# ---------------------------------------------------------------------------

@SUITE
@given(
    sigma=st.floats(0.4, 1.9),
    n=st.integers(1, 4096),
    factor=st.integers(2, 8),
)
def test_ratio_increases_with_n(sigma, n, factor):
    p = LogNormalParams(0.0, sigma)
    assert typical_mean_ratio(p, n * factor) > typical_mean_ratio(p, n)


@SUITE
@given(
    label=st.sampled_from([MODERATELY_BROAD, VERY_BROAD]),
    sigma=st.floats(0.3, 3.5),
    bump=st.floats(0.05, 0.5),
    n=st.integers(1, 1024),
)
def test_ratio_decreases_with_sigma(label, sigma, bump, n):
    lo = regime_formula_values(LogNormalParams(0.0, sigma + bump), n)[label]
    hi = regime_formula_values(LogNormalParams(0.0, sigma), n)[label]
    assert lo < hi


# ---------------------------------------------------------------------------
# Fitter round trips and first-order conditions
# ---------------------------------------------------------------------------

@SUITE
@given(mu=mus, sigma=sigmas, seed=seeds)
def test_lognormal_round_trip(mu, sigma, seed):
    n = 1500
    x = sample(LogNormalParams(mu, sigma), n, seed)
    fit = fit_lognormal(x)
    # exact first-order condition plus a 5-sigma statistical recovery bound
    assert fit.mu == pytest.approx(float(np.mean(np.log(x))), abs=1e-12)
    assert abs(fit.mu - mu) <= 5 * sigma / math.sqrt(n)
    assert abs(fit.sigma - sigma) <= 5 * sigma / math.sqrt(2 * n)


@SUITE
@given(shape=st.floats(0.5, 8.0), rate=st.floats(0.2, 15.0), seed=seeds)
def test_gamma_round_trip(shape, rate, seed):
    x = np.random.default_rng(seed).gamma(shape, 1 / rate, 2000)
    fit = fit_gamma(x)
    if fit.method == "mle":
        # MLE identities: fitted mean equals sample mean, digamma equation solved
        assert fit.shape / fit.rate == pytest.approx(float(np.mean(x)), rel=1e-9)
        s = math.log(np.mean(x)) - float(np.mean(np.log(x)))
        assert math.log(fit.shape) - float(special.digamma(fit.shape)) == pytest.approx(s, abs=1e-7)
    assert fit.shape == pytest.approx(shape, rel=0.35)
    assert fit.rate == pytest.approx(rate, rel=0.40)


@SUITE
@given(
    location=st.floats(-2.0, 2.0),
    scale=st.floats(0.1, 3.0),
    kappa=st.floats(0.4, 2.5),
    seed=seeds,
)
def test_asymmetric_laplace_round_trip(location, scale, kappa, seed):
    x = sample(AsymmetricLaplaceParams(location, scale, kappa), 2000, seed)
    fit = fit_asymmetric_laplace(x)
    assert fit.asymmetry == pytest.approx(kappa, rel=0.25)
    assert fit.scale == pytest.approx(scale, rel=0.25)
    assert abs(fit.location - location) <= 0.5 * scale


@SUITE
@given(
    zeta=st.floats(-1.0, 1.0),
    omega=st.floats(0.1, 2.0),
    alpha=st.floats(1.5, 6.0),
    sign=st.sampled_from([-1.0, 1.0]),
    seed=seeds,
)
def test_skew_normal_round_trip(zeta, omega, alpha, sign, seed):
    # Shape restricted to the identified region; near zero the likelihood is
    # flat in alpha and the symmetry guard legitimately returns 0.
    truth = SkewNormalParams(zeta, omega, sign * alpha)
    x = sample(truth, 3000, seed)
    fit = fit_skew_normal(x)
    assert fit.delta == pytest.approx(truth.delta, abs=0.2)
    assert fit.omega == pytest.approx(omega, rel=0.25)
    assert abs(fit.zeta - zeta) <= 0.5 * omega


# ---------------------------------------------------------------------------
# GBM estimator identities
# ---------------------------------------------------------------------------

@SUITE
@given(
    mu=st.floats(-0.3, 0.5),
    sigma=st.floats(0.0, 0.8),
    steps=st.integers(3, 64),
    seed=seeds,
)
def test_clamp_iff_negative_raw(mu, sigma, steps, seed):
    path = simulate_gbm(GBMParams(mu, sigma), 1.0, steps, 1.0, seed)
    est = estimate_gbm(path)
    assert est.clamped == (est.sigma_sq_raw < 0)
    total = math.log(path.prices[-1] / path.prices[0])
    clamped_var = 0.0 if est.clamped else est.sigma_sq_raw
    assert est.mu_hat == pytest.approx(total / steps + clamped_var / 2, rel=1e-10, abs=1e-12)
    assert est.sigma_hat * est.sigma_hat == pytest.approx(clamped_var, abs=1e-15)


# ---------------------------------------------------------------------------
# Summary permutation invariance
# ---------------------------------------------------------------------------

@SUITE
@given(seed=seeds, perm_seed=seeds)
def test_summarize_permutation_invariant(seed, perm_seed):
    rho = np.random.default_rng(seed).lognormal(0.4, 0.9, 64)
    tickers = tuple(f"T{i:02d}" for i in range(64))
    perm = np.random.default_rng(perm_seed).permutation(64)
    a = summarize_index(ReturnSample(rho=rho, tickers=tickers))
    b = summarize_index(
        ReturnSample(rho=rho[perm], tickers=tuple(tickers[i] for i in perm))
    )
    assert a.mean == pytest.approx(b.mean, rel=1e-12)
    assert a.median == pytest.approx(b.median, rel=1e-12)
    assert a.top5 == pytest.approx(b.top5, rel=1e-9)
    assert a.top10 == pytest.approx(b.top10, rel=1e-9)
    assert a.top25 == pytest.approx(b.top25, rel=1e-9)


# ---------------------------------------------------------------------------
# Winner contribution against the sort it replaced
# ---------------------------------------------------------------------------

def reference_top_contribution(sample, pct):
    """``top_contribution`` as a Python ``sorted`` with a (-rho, label) key."""
    n = len(sample)
    k = max(1, math.floor(pct * n + 0.5))
    labels = sample.tickers if sample.tickers is not None else tuple(
        f"{i:08d}" for i in range(n)
    )
    order = sorted(range(n), key=lambda i: (-sample.rho[i], labels[i]))
    rest = sample.rho[sorted(order[k:])]
    total_mean = float(np.mean(sample.rho))
    return 100.0 * (1.0 - float(np.mean(rest)) / total_mean)


@st.composite
def tied_samples(draw):
    """Return samples with many tied values, with or without tickers that may
    differ only by trailing NULs."""
    # Values whose sums round, so a different summation order shows.
    value = st.sampled_from([0.1, 0.7, 1 / 3, 2 / 3, 123.456, 1e-3]) | st.floats(1e-3, 1e3)
    pool = draw(st.lists(value, min_size=1, max_size=4))
    rho = draw(st.lists(st.sampled_from(pool), min_size=2, max_size=60))
    tickers = None
    if draw(st.booleans()):
        tickers = tuple(draw(st.lists(
            st.text(alphabet="AB\x00 ", max_size=4), min_size=len(rho), max_size=len(rho), unique=True
        )))
    return ReturnSample(rho=np.array(rho), tickers=tickers)


TIED = np.array([0.7, 1 / 3, 2 / 3, 0.7])  # the mean of the rest depends on which 0.7 is dropped


@SUITE
@given(sample=tied_samples(), pct=st.floats(0.01, 0.99))
@example(sample=ReturnSample(rho=TIED, tickers=("B", "C", "D", "A")), pct=0.1)
@example(sample=ReturnSample(rho=TIED, tickers=("A\x00", "C", "D", "A")), pct=0.1)
@example(sample=ReturnSample(rho=np.array([1.0, 2.0])), pct=0.75)
def test_top_contribution_matches_sorted_reference(sample, pct):
    if max(1, math.floor(pct * len(sample) + 0.5)) == len(sample):  # nothing would be left
        with pytest.raises(ParameterError):
            top_contribution(sample, pct)
    else:
        assert top_contribution(sample, pct) == reference_top_contribution(sample, pct)


# ---------------------------------------------------------------------------
# Moment skewness without scipy.stats
# ---------------------------------------------------------------------------

def reference_skew_normal_moment_start(x):
    """``_skew_normal_moment_start`` as written with ``scipy.stats.skew``."""
    m = float(np.mean(x))
    sd = float(np.std(x))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # scipy's precision-loss note
        g1 = float(stats.skew(x))
    g1 = float(np.clip(g1, -0.94, 0.94))
    c = abs(g1) ** (2.0 / 3.0)
    denom = c + ((4.0 - math.pi) / 2.0) ** (2.0 / 3.0)
    delta2 = (math.pi / 2.0) * c / denom if denom > 0 else 0.0
    delta = math.copysign(math.sqrt(min(delta2, 0.995)), g1)
    omega = sd / math.sqrt(max(1.0 - 2.0 * delta * delta / math.pi, 1e-6))
    zeta = m - omega * delta * math.sqrt(2.0 / math.pi)
    alpha = delta / math.sqrt(max(1.0 - delta * delta, 1e-9))
    return zeta, omega, alpha


@st.composite
def skew_samples(draw):
    """Spread samples, and near-constant ones a few ulps apart, where scipy's skew is NaN."""
    size = draw(st.integers(3, 50))
    if draw(st.booleans()):
        return np.array(draw(st.lists(st.floats(-1e6, 1e6), min_size=size, max_size=size)))
    base = draw(st.floats(1e-3, 1e12))
    steps = draw(st.lists(st.integers(-4, 4), min_size=size, max_size=size))
    return base + np.array(steps, dtype=float) * np.spacing(base)


NEAR_CONSTANT = 1e8 + np.array([0.0, 1.0, 0.0, 2.0, 1.0]) * np.spacing(1e8)


def test_near_constant_example_is_nan_in_scipy():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        assert np.ptp(NEAR_CONSTANT) > 0 and math.isnan(stats.skew(NEAR_CONSTANT))


@SUITE
@given(x=skew_samples())
@example(x=NEAR_CONSTANT)
def test_skew_normal_start_bit_identical_to_scipy_skew(x):
    got, want = _skew_normal_moment_start(x), reference_skew_normal_moment_start(x)
    assert np.array(got).tobytes() == np.array(want).tobytes()

