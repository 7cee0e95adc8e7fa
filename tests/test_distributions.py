import collections
import math

import numpy as np
import pytest
from scipy import integrate, stats

from bigwinners import distributions
from bigwinners.distributions import (
    AsymmetricLaplaceParams,
    LogNormalParams,
    SkewNormalParams,
    fit_asymmetric_laplace,
    fit_gamma,
    fit_lognormal,
    fit_skew_normal,
    huber_regression,
    lognormal_mean,
    lognormal_moments,
    pearson_correlation,
    quantile,
    sample,
)
from bigwinners.errors import FitFailureError, InsufficientDataError, ParameterError


# ---------------------------------------------------------------------------
# Closed-form moments
# ---------------------------------------------------------------------------

class TestLogNormalMoments:
    def test_spx_row(self):
        # Reference row: mu=0.95, sigma=1.02 -> 4.37/2.60/0.92/1.35 at 2 dp.
        m = lognormal_moments(LogNormalParams(0.95, 1.02))
        assert m.mean == pytest.approx(4.37, abs=0.03)
        assert m.median == pytest.approx(2.60, abs=0.03)
        assert m.mode == pytest.approx(0.92, abs=0.03)
        assert m.coeff_variation == pytest.approx(1.35, abs=0.03)

    def test_nifty_row(self):
        m = lognormal_moments(LogNormalParams(1.65, 1.23))
        assert m.mean == pytest.approx(11.12, abs=0.05)
        assert m.median == pytest.approx(5.22, abs=0.02)
        assert m.mode == pytest.approx(1.15, abs=0.01)

    def test_near_degenerate_collapses_to_one(self):
        m = lognormal_moments(LogNormalParams(0.0, 1e-8))
        assert m.mean == pytest.approx(1.0, abs=1e-6)
        assert m.median == pytest.approx(1.0, abs=1e-6)
        assert m.mode == pytest.approx(1.0, abs=1e-6)

    def test_ordering_strict(self):
        for sigma in (0.1, 0.5, 1.0, 2.0):
            m = lognormal_moments(LogNormalParams(0.3, sigma))
            assert m.mode < m.median < m.mean

    def test_mean_matches_numeric_integral(self):
        # Quadrature of x * pdf(x) against the closed form, sigma <= 1.5.
        for sigma in (0.3, 0.8, 1.5):
            p = LogNormalParams(0.4, sigma)
            m = lognormal_moments(p)
            density = stats.lognorm(sigma, scale=math.exp(0.4)).pdf
            value, _ = integrate.quad(
                lambda x: x * density(x), 0, np.inf, limit=400
            )
            assert value == pytest.approx(m.mean, rel=1e-6)

    def test_mean_is_the_closed_form_bit_for_bit(self):
        for mu, sigma in ((0.95, 1.02), (-3.0, 0.1), (300.0, 4.0)):
            p = LogNormalParams(mu, sigma)
            assert lognormal_mean(p) == lognormal_moments(p).mean == math.exp(mu + sigma * sigma / 2)

    @pytest.mark.parametrize(
        "mu, sigma, message",
        [
            (800.0, 1.0, "log-normal mean = exp(800.5) overflows a float"),
            (0.0, 1.5e154, "log-normal mean = exp(inf) overflows a float"),
            (-1000.0, 40.0, "log-normal variance overflows a float at sigma = 40"),
            (400.0, 1.0, "log-normal variance overflows a float at sigma = 1"),
        ],
        ids=["mean-raises", "mean-inf", "expm1", "variance-factor"],
    )
    def test_overflow_raises_parameter_error(self, mu, sigma, message):
        p = LogNormalParams(mu, sigma)
        with pytest.raises(ParameterError) as info:
            lognormal_moments(p)
        assert str(info.value) == message

    def test_rejects_bad_sigma(self):
        with pytest.raises(ParameterError):
            lognormal_moments(LogNormalParams(0.0, 0.0))
        with pytest.raises(ParameterError):
            LogNormalParams(0.0, -1.0)
        with pytest.raises(ParameterError):
            LogNormalParams(0.0, float("nan"))


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------

class TestSample:
    def test_identical_seed_bit_identical(self):
        p = LogNormalParams(0.95, 1.02)
        a = sample(p, 1000, 7)
        b = sample(p, 1000, 7)
        assert np.array_equal(a, b)

    def test_degenerate_lognormal_near_one(self):
        x = sample(LogNormalParams(0.0, 1e-8), 3, 1)
        assert np.allclose(x, 1.0, atol=1e-6)

    def test_lognormal_mean_within_3se(self):
        p = LogNormalParams(0.95, 1.02)
        m = lognormal_moments(p)
        x = sample(p, 1_000_000, 42)
        se = math.sqrt(m.variance / x.size)
        assert abs(np.mean(x) - m.mean) <= 3 * se

    def test_skew_normal_moments(self):
        sn = SkewNormalParams(0.06, 0.09, 1.88)
        x = sample(sn, 500_000, 44)
        delta = sn.delta
        mean = sn.zeta + sn.omega * delta * math.sqrt(2 / math.pi)
        var = sn.omega**2 * (1 - 2 * delta**2 / math.pi)
        assert np.mean(x) == pytest.approx(mean, abs=3 * math.sqrt(var / x.size))
        assert np.var(x) == pytest.approx(var, rel=0.01)

    def test_asymmetric_laplace_mean(self):
        al = AsymmetricLaplaceParams(0.5, 0.2, 2.0)
        x = sample(al, 500_000, 45)
        mean = al.location + al.scale * (1 / al.asymmetry - al.asymmetry)
        assert np.mean(x) == pytest.approx(mean, abs=0.003)

    def test_rejects_zero_draws(self):
        with pytest.raises(ParameterError):
            sample(LogNormalParams(0.0, 1.0), 0, 1)


# ---------------------------------------------------------------------------
# Log-normal fit
# ---------------------------------------------------------------------------

class TestFitLogNormal:
    def test_constant_data_degenerate_flag(self):
        fit = fit_lognormal([math.e, math.e, math.e])
        assert fit.mu == pytest.approx(1.0)
        assert fit.sigma == 0.0
        assert fit.degenerate

    def test_recovery(self):
        x = sample(LogNormalParams(0.95, 1.02), 100_000, 8)
        fit = fit_lognormal(x)
        assert fit.mu == pytest.approx(0.95, abs=0.02)
        assert fit.sigma == pytest.approx(1.02, abs=0.02)

    def test_scale_invariance(self):
        x = sample(LogNormalParams(0.3, 0.7), 5000, 9)
        base = fit_lognormal(x)
        scaled = fit_lognormal(2.0 * x)
        assert scaled.mu - base.mu == pytest.approx(math.log(2.0), abs=1e-9)
        assert scaled.sigma == pytest.approx(base.sigma, abs=1e-9)

    def test_rejects_nonpositive(self):
        with pytest.raises(ParameterError):
            fit_lognormal([1.0, -2.0, 3.0])
        with pytest.raises(InsufficientDataError):
            fit_lognormal([1.0])


# ---------------------------------------------------------------------------
# Skew-normal fit
# ---------------------------------------------------------------------------

class TestFitSkewNormal:
    def test_symmetric_data_alpha_near_zero(self):
        x = np.random.default_rng(14).normal(0, 1, 100_000)
        fit = fit_skew_normal(x)
        assert abs(fit.alpha) <= 0.1
        assert fit.zeta == pytest.approx(np.mean(x), abs=1e-9)
        assert fit.omega == pytest.approx(np.std(x), abs=1e-9)

    def test_round_trip_within_bootstrap_se(self):
        truth = SkewNormalParams(0.06, 0.09, 1.88)
        x = sample(truth, 100_000, 5)
        fit = fit_skew_normal(x)

        rng = np.random.default_rng(50)
        boots = np.empty((20, 3))
        for i in range(20):
            refit = fit_skew_normal(x[rng.integers(0, x.size, x.size)])
            boots[i] = (refit.zeta, refit.omega, refit.alpha)
        se = boots.std(axis=0, ddof=1)
        for got, want, s in zip((fit.zeta, fit.omega, fit.alpha), (0.06, 0.09, 1.88), se):
            assert abs(got - want) <= 3 * max(s, 1e-4)
        assert not fit.capped

    @pytest.mark.parametrize("value, n", [(2.5, 100), (0.1, 3)])  # np.std of three 0.1s is 1.4e-17
    def test_constant_data_fails(self, value, n):
        with pytest.raises(FitFailureError, match="zero dispersion"):
            fit_skew_normal(np.full(n, value))

    def test_cap_flag(self):
        # Half-normal-ish data drives alpha to the bound.
        x = np.abs(np.random.default_rng(15).normal(0, 1, 20_000))
        fit = fit_skew_normal(x)
        assert fit.capped
        assert abs(fit.alpha) == pytest.approx(50.0)

    @pytest.mark.parametrize("theta", [(0.3, -0.2, 2.5), (0.0, math.log(1e-3), 20.0)], ids=["central", "far-tail"])
    def test_nll_gradient_and_hessian_match_central_differences(self, theta):
        """The Newton solve's derivatives, also where alpha*u lies below -1e4 and the
        Mills ratio comes from erfcx."""
        t, theta = np.array([-3.0, -1.0, 0.0, 0.5, 2.0]), np.array(theta)
        _, grad, hess = distributions._skew_normal_nll(theta, t)
        steps = 1e-6 * np.maximum(1.0, np.abs(theta))
        ups = [distributions._skew_normal_nll(theta + e, t) for e in np.diag(steps)]
        downs = [distributions._skew_normal_nll(theta - e, t) for e in np.diag(steps)]
        grad_diff = [(up[0] - down[0]) / (2.0 * h) for up, down, h in zip(ups, downs, steps)]
        hess_diff = [(up[1] - down[1]) / (2.0 * h) for up, down, h in zip(ups, downs, steps)]
        assert np.allclose(grad_diff, grad, rtol=0.0, atol=1e-8 * np.abs(grad).max())
        assert np.allclose(hess_diff, hess, rtol=0.0, atol=1e-5 * np.abs(hess).max())

    def test_newton_solve_out_of_steps_fails_naming_them(self, monkeypatch):
        monkeypatch.setattr(distributions, "SKEW_NEWTON_MAXITER", 1)
        with pytest.raises(FitFailureError, match=r"did not converge \(after 1 iterations\)") as failure:
            fit_skew_normal(sample(SkewNormalParams(0.06, 0.09, 1.88), 1000, 3))
        assert failure.value.iterations == 1


# ---------------------------------------------------------------------------
# Gamma fit
# ---------------------------------------------------------------------------

class TestFitGamma:
    def test_table_row_recovery(self):
        x = np.random.default_rng(6).gamma(2.15, 1 / 10.70, 100_000)
        fit = fit_gamma(x)
        assert fit.shape == pytest.approx(2.15, abs=0.1)
        assert fit.rate == pytest.approx(10.70, abs=0.5)
        assert fit.method == "mle"

    def test_exponential_shape_one(self):
        x = np.random.default_rng(18).gamma(1.0, 1 / 2.0, 100_000)
        fit = fit_gamma(x)
        assert fit.shape == pytest.approx(1.0, abs=0.05)

    def test_constant_data_fails(self):
        # Equal values whose ln-mean gap rounds above 0 (1.2738..., 3 of them: the
        # Newton slope underflows) or whose variance rounds above 0 (0.123, 20 of them).
        for n, value in [(50, 3.0), (3, 1.2738347913809989), (20, 0.123)]:
            with pytest.raises(FitFailureError, match="zero dispersion"):
                fit_gamma(np.full(n, value))

    @pytest.mark.parametrize("eps", [1e-8, 1e-9, 1e-10, 1e-14])
    def test_vanishing_newton_slope_falls_back_to_moments(self, eps):
        """Values this close give a shape so large that the Newton slope rounds to 0."""
        x = np.array([1.0, 1.0 + eps, 1.0])
        fit = fit_gamma(x)
        assert fit.method == "moments"
        assert fit.shape == np.mean(x) ** 2 / np.var(x)

    @pytest.mark.parametrize("scale, eps", [(1e-155, 1e-8), (1e-155, 1e-12), (1e-200, 1e-15)])
    def test_log_mean_gap_within_rounding_is_no_mle(self, scale, eps):
        """The true ln-mean gap (below 1e-16) is lost in the rounding of ln x (about eps * 357
        or 460): Newton on it would fit that rounding.  The moments route takes the sample,
        and its variance underflows to 0, a data fault with no iteration count."""
        with pytest.raises(FitFailureError) as failure:
            fit_gamma(scale * np.array([1.0, 1.0 + eps, 1.0]))
        assert str(failure.value) == "fit_gamma: zero variance"
        assert failure.value.iterations is None

    @pytest.mark.parametrize("eps", [1e-7, 2e-7, 3e-7])
    def test_newton_lost_in_rounding_falls_back_to_moments(self, eps):
        """Shapes near 1e14: ln k - psi(k), about 1/(2k), is below the rounding of ln k
        (about 32 eps), so the rounding stop's band is many times k and is not used."""
        x = np.array([1.0, 1.0 + eps, 1.0])
        fit = fit_gamma(x)
        assert fit.method == "moments"
        assert fit.shape == np.mean(x) ** 2 / np.var(x)

    def test_rejects_nonpositive(self):
        with pytest.raises(ParameterError):
            fit_gamma([1.0, 0.0, 2.0])


# ---------------------------------------------------------------------------
# Asymmetric Laplace fit
# ---------------------------------------------------------------------------

class TestFitAsymmetricLaplace:
    def test_symmetric_data_kappa_one(self):
        x = sample(AsymmetricLaplaceParams(0.0, 1.0, 1.0), 100_000, 15)
        fit = fit_asymmetric_laplace(x)
        assert fit.asymmetry == pytest.approx(1.0, abs=0.05)

    def test_translation_equivariance(self):
        x = sample(AsymmetricLaplaceParams(0.0, 0.5, 1.6), 20_000, 16)
        base = fit_asymmetric_laplace(x)
        shifted = fit_asymmetric_laplace(x + 3.25)
        assert shifted.location - base.location == pytest.approx(3.25, abs=1e-9)
        assert shifted.scale == pytest.approx(base.scale, rel=1e-9)
        assert shifted.asymmetry == pytest.approx(base.asymmetry, rel=1e-9)

    def test_asymmetry_two_recovery(self):
        x = sample(AsymmetricLaplaceParams(0.5, 0.2, 2.0), 100_000, 8)
        fit = fit_asymmetric_laplace(x)
        assert fit.asymmetry == pytest.approx(2.0, abs=0.1)
        assert fit.location == pytest.approx(0.5, abs=0.02)

    def test_degenerate_sample_fails(self):
        with pytest.raises(FitFailureError):
            fit_asymmetric_laplace([1.0, 1.0, 2.0])


# ---------------------------------------------------------------------------
# Huber regression and correlation
# ---------------------------------------------------------------------------

class TestHuberRegression:
    def test_exact_line(self):
        x = np.linspace(0, 1, 50)
        a, b, r2 = huber_regression(x, 2 * x + 1)
        assert a == pytest.approx(2.0, abs=1e-9)
        assert b == pytest.approx(1.0, abs=1e-9)
        assert r2 == pytest.approx(1.0, abs=1e-12)

    def test_outlier_robustness_vs_ols(self):
        x = np.linspace(0, 1, 50)
        y = 2 * x + 1
        y[10] += 50.0
        a, _, _ = huber_regression(x, y)
        a_ols = np.polyfit(x, y, 1)[0]
        assert abs(a - 2.0) <= 0.05
        assert abs(a_ols - 2.0) > abs(a - 2.0)

    @pytest.mark.parametrize("scale", [1.0, 1e3, 1e10])
    def test_points_on_a_line_but_one(self, scale):
        """The MAD scale shrinks only about 0.9 a step here, so IRLS runs out of
        iterations; the line through the five unit-weight points is the fit."""
        x = np.arange(1.0, 7.0)
        a, b, _ = huber_regression(x, scale * np.array([1.0, 2.0, 3.0, 4.0, 5.0, 60.0]))
        assert abs(a / scale - 1.0) <= 1e-12
        assert abs(b / scale) <= 1e-12

    def test_independent_r2_near_zero(self):
        rng = np.random.default_rng(16)
        x = rng.normal(0, 1, 10_000)
        y = rng.normal(0, 1, 10_000)
        _, _, r2 = huber_regression(x, y)
        assert abs(r2) <= 0.02

    def test_degenerate_x_fails(self):
        with pytest.raises(FitFailureError):
            huber_regression(np.ones(10), np.arange(10.0))


class TestPearsonCorrelation:
    def test_perfect_lines(self):
        x = np.arange(10.0)
        assert pearson_correlation(x, x) == pytest.approx(1.0)
        assert pearson_correlation(x, -x) == pytest.approx(-1.0)

    def test_independent_near_zero(self):
        rng = np.random.default_rng(17)
        r = pearson_correlation(rng.normal(0, 1, 10_000), rng.normal(0, 1, 10_000))
        assert abs(r) <= 0.03

    def test_zero_dispersion_fails(self):
        with pytest.raises(ParameterError):
            pearson_correlation(np.ones(5), np.arange(5.0))


# ---------------------------------------------------------------------------
# Quantiles
# ---------------------------------------------------------------------------

class TestQuantile:
    @pytest.mark.parametrize(
        "params",
        [
            LogNormalParams(0.4, 0.9),
            SkewNormalParams(0.1, 0.5, 1.2),
            AsymmetricLaplaceParams(0.0, 1.0, 1.5),
        ],
    )
    def test_quantiles_bracket_sample(self, params):
        """Each sampler's quartiles sit at its law's: ``quantile`` gives the
        log-normal ones, scipy.stats the skew-normal and asymmetric Laplace ones."""
        x = sample(params, 50_000, 21)
        probs = [0.25, 0.5, 0.75]
        if isinstance(params, LogNormalParams):
            q = quantile(params, probs)
        elif isinstance(params, SkewNormalParams):
            q = stats.skewnorm.ppf(probs, params.alpha, loc=params.zeta, scale=params.omega)
        else:
            q = stats.laplace_asymmetric.ppf(probs, params.asymmetry, loc=params.location, scale=params.scale)
        emp = np.quantile(x, probs)
        assert np.allclose(q, emp, atol=0.05 * (1 + np.abs(q).max()))


class TestLawMapping:
    def test_lognormal_quantile_equals_scipy_lognorm_ppf(self):
        q = np.concatenate([np.linspace(0.01, 0.99, 99), [0.0, 1.0, -0.1, 1.1, math.nan]])
        want = stats.lognorm.ppf(q, 0.9, scale=math.exp(0.4))
        assert np.array_equal(quantile(LogNormalParams(0.4, 0.9), q), want, equal_nan=True)
        got, want = quantile(LogNormalParams(0.4, 0.9), 0.3), stats.lognorm.ppf(0.3, 0.9, scale=math.exp(0.4))
        assert np.ndim(got) == 0 and type(got) is type(want) and got == want

    def test_unknown_params_type_rejected(self):
        look_alike = collections.namedtuple("LogNormalLike", "mu sigma")(0.0, 1.0)
        with pytest.raises(TypeError):
            sample(look_alike, 10, 1)

    def test_degenerate_lognormal_has_no_quantile(self):
        with pytest.raises(ParameterError, match="^log-normal law requires sigma > 0$"):
            quantile(LogNormalParams(0.3, 0.0), 0.5)
