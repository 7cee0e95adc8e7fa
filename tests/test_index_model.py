import math

import numpy as np
import pytest
from scipy import stats

from bigwinners.distributions import GammaParams, fit_lognormal, lognormal_moments
from bigwinners.empirical import kde_mode
from bigwinners.errors import ParameterError
from bigwinners.index_model import (
    DriftModelParams,
    implied_log_skew_normal,
    implied_lognormal,
    log_skew_normal_mean,
    log_skew_normal_median,
    log_skew_normal_mode,
    model_ratios,
    sample_ratio_summary,
    simulate_index,
    simulate_index_skew_drift,
)

from conftest import bootstrap_se

SPX_LIKE = DriftModelParams(mu_d=0.12, sigma_d=0.03, sigma=0.1, horizon=16)


class TestImpliedLogNormal:
    def test_reference_values(self):
        implied = implied_lognormal(SPX_LIKE)
        assert implied.mu_m == pytest.approx(1.84, abs=1e-12)
        assert implied.sigma_m == pytest.approx(math.sqrt(0.3904), rel=1e-12)

    def test_zero_drift_dispersion_reduces_to_gbm(self):
        p = DriftModelParams(0.1, 0.0, 0.25, 9.0)
        implied = implied_lognormal(p)
        assert implied.sigma_m == pytest.approx(0.25 * 3.0, rel=1e-12)

    def test_short_horizon_limit(self):
        p = DriftModelParams(0.1, 0.05, 0.2, 1e-9)
        implied = implied_lognormal(p)
        assert implied.mu_m == pytest.approx(0.0, abs=1e-9)
        assert implied.sigma_m == pytest.approx(0.0, abs=1e-4)

    def test_variance_identity(self):
        p = DriftModelParams(0.07, 0.04, 0.3, 5.0)
        implied = implied_lognormal(p)
        assert implied.sigma_m**2 == pytest.approx(
            p.sigma**2 * p.horizon + p.sigma_d**2 * p.horizon**2, rel=1e-12
        )


class TestModelRatios:
    def test_reference_values(self):
        r = model_ratios(SPX_LIKE)
        assert r.mean_over_median == pytest.approx(math.exp(0.1952), rel=1e-12)
        assert r.mean_over_median == pytest.approx(1.216, abs=5e-4)
        assert r.mean_over_mode == pytest.approx(1.796, abs=5e-4)

    def test_zero_noise_gives_ones(self):
        r = model_ratios(DriftModelParams(0.12, 0.0, 0.0, 16))
        assert r.mean_over_median == 1.0
        assert r.mean_over_mode == 1.0

    def test_cube_identity(self):
        for p in (
            SPX_LIKE,
            DriftModelParams(0.05, 0.08, 0.2, 4),
            DriftModelParams(-0.02, 0.01, 0.4, 25),
        ):
            r = model_ratios(p)
            assert r.mean_over_mode == pytest.approx(r.mean_over_median**3, rel=1e-12)

    def test_consistency_with_lognormal_moments(self):
        # Closed form against closed form through the implied law.
        for p in (SPX_LIKE, DriftModelParams(0.08, 0.05, 0.25, 8)):
            implied = implied_lognormal(p)
            m = lognormal_moments(implied.as_params())
            r = model_ratios(p)
            assert m.mean / m.median == pytest.approx(r.mean_over_median, rel=1e-12)
            assert m.mean / m.mode == pytest.approx(r.mean_over_mode, rel=1e-12)

    def test_horizon_doubling_superlinear(self):
        p1 = DriftModelParams(0.1, 0.05, 0.2, 8)
        p2 = DriftModelParams(0.1, 0.05, 0.2, 16)
        assert math.log(model_ratios(p2).mean_over_median) > 2 * math.log(
            model_ratios(p1).mean_over_median
        )


class TestSimulateIndex:
    def test_fit_recovers_implied_law(self):
        sample = simulate_index(SPX_LIKE, 100_000, seed=9)
        fit = fit_lognormal(sample.rho)
        implied = implied_lognormal(SPX_LIKE)
        assert fit.mu == pytest.approx(implied.mu_m, abs=0.01)
        assert fit.sigma == pytest.approx(implied.sigma_m, abs=0.01)

    def test_large_drift_dispersion_ratio_matches(self):
        p = DriftModelParams(0.05, 0.2, 0.1, 16)
        sample = simulate_index(p, 200_000, seed=10)
        target = model_ratios(p).mean_over_median
        se = bootstrap_se(
            sample.rho, lambda b: np.mean(b) / np.median(b), seed=11, replicates=100
        )
        assert abs(np.mean(sample.rho) / np.median(sample.rho) - target) <= 3 * se

    def test_zero_noise_identical_returns(self):
        p = DriftModelParams(0.12, 0.0, 0.0, 16)
        sample = simulate_index(p, 100, seed=12)
        assert np.allclose(sample.rho, math.exp(0.12 * 16), rtol=1e-12)

    def test_sample_mean_matches_closed_form(self):
        # E[rho] = exp(mu_d T + sigma_d^2 T^2 / 2)
        p = DriftModelParams(0.06, 0.04, 0.15, 10)
        sample = simulate_index(p, 400_000, seed=13)
        target = math.exp(p.mu_d * p.horizon + 0.5 * p.sigma_d**2 * p.horizon**2)
        se = np.std(sample.rho) / math.sqrt(sample.rho.size)
        assert abs(np.mean(sample.rho) - target) <= 3 * se

    def test_mode_of_large_sample_matches_closed_form(self):
        sample = simulate_index(SPX_LIKE, 1_000_000, seed=14)
        t = SPX_LIKE.horizon
        target = math.exp(
            SPX_LIKE.mu_d * t - 1.5 * SPX_LIKE.sigma**2 * t - SPX_LIKE.sigma_d**2 * t * t
        )
        mode = kde_mode(sample.rho).mode
        assert mode == pytest.approx(target, rel=0.02)

    def test_gamma_volatility_flag_runs(self):
        sample = simulate_index(SPX_LIKE, 5000, seed=15, volatility=GammaParams(2.15, 10.7))
        assert len(sample) == 5000
        assert np.all(sample.rho > 0)

    def test_rejects_tiny_index(self):
        with pytest.raises(ParameterError):
            simulate_index(SPX_LIKE, 1, seed=1)


class TestSkewDriftModel:
    def test_alpha_zero_matches_normal_drift(self):
        n = 100_000
        a = simulate_index_skew_drift(0.12, 0.03, 0.0, 0.1, 16, n, seed=20)
        b = simulate_index(DriftModelParams(0.12, 0.03, 0.1, 16), n, seed=21)
        stat = stats.ks_2samp(a.rho, b.rho).statistic
        critical = 1.628 * math.sqrt(2.0 / n)  # 99th percentile, equal sizes
        assert stat < critical

    @pytest.mark.parametrize("sigma, horizon, message", [
        (-0.2, 16, "sigma must be >= 0, got -0.2"),
        (0.29, 0, "horizon must be > 0, got 0"),
        (0.29, -1, "horizon must be > 0, got -1"),
    ])
    def test_rejects_what_the_drift_model_rejects(self, sigma, horizon, message):
        for build in (
            lambda: simulate_index_skew_drift(0.06, 0.09, 1.88, sigma, horizon, 5, seed=1),
            lambda: implied_log_skew_normal(0.06, 0.09, 1.88, sigma, horizon),
        ):
            with pytest.raises(ParameterError) as info:
                build()
            assert str(info.value) == message

    def test_samples_are_pinned_bit_for_bit(self):
        # Any change to the draw order of either simulator shows here.
        skew = simulate_index_skew_drift(0.06, 0.09, 1.88, 0.29, 16, 4, seed=3)
        assert skew.rho.tolist() == [4.816976761987832, 1401.3523427298544, 0.7517554942997493, 1.5575775817697353]
        vol = GammaParams(2.15, 10.7)
        skew = simulate_index_skew_drift(0.06, 0.09, 1.88, 0.29, 16, 4, seed=3, volatility=vol)
        assert skew.rho.tolist() == [28.5928382013335, 34.922472782013365, 1.6484646314671885, 4.189714818142839]
        normal = simulate_index(DriftModelParams(0.12, 0.03, 0.1, 16), 4, seed=3)
        assert normal.rho.tolist() == [13.993339430178665, 1.6939141561899496, 3.430455306435833, 4.369714337601376]
        implied = implied_log_skew_normal(0.06, 0.09, 1.88, 0.29, 16)
        assert (implied.zeta, implied.omega, implied.alpha) == (0.2872, 1.8491078930121951, 0.9468345701956261)

    def test_positive_alpha_skews_log_returns(self):
        sample = simulate_index_skew_drift(0.0, 0.08, 5.0, 0.05, 16, 100_000, seed=22)
        assert stats.skew(np.log(sample.rho)) > 0

    def test_implied_log_skew_normal_moments(self):
        # Simulated ln rho matches the implied skew-normal law's moments.
        zeta, omega, alpha, sigma, horizon = 0.06, 0.09, 1.88, 0.29, 16
        implied = implied_log_skew_normal(zeta, omega, alpha, sigma, horizon)
        sample = simulate_index_skew_drift(zeta, omega, alpha, sigma, horizon, 400_000, seed=23)
        logs = np.log(sample.rho)
        mean, var = stats.skewnorm.stats(implied.alpha, loc=implied.zeta, scale=implied.omega)
        assert np.mean(logs) == pytest.approx(float(mean), abs=4 * np.std(logs) / math.sqrt(logs.size))
        assert np.var(logs) == pytest.approx(float(var), rel=0.02)

    def test_density_route_matches_sample_route(self):
        # Dual route: golden-section mode / numeric median of the implied
        # density against KDE mode / sample median of a large simulation.
        # The KDE mode of this broad law is noisy, so its tolerance comes
        # from the estimator's own bootstrap stderr plus a smoothing margin.
        from bigwinners.empirical import kde_mode_bootstrap_stderr

        zeta, omega, alpha, sigma, horizon = 0.06, 0.09, 1.88, 0.29, 16
        implied = implied_log_skew_normal(zeta, omega, alpha, sigma, horizon)
        sample = simulate_index_skew_drift(zeta, omega, alpha, sigma, horizon, 400_000, seed=24)
        summary = sample_ratio_summary(sample, seed=25)
        mean_exact = log_skew_normal_mean(implied)
        median_exact = log_skew_normal_median(implied)
        mode_exact = log_skew_normal_mode(implied)
        assert summary.mean == pytest.approx(mean_exact, rel=0.02)
        assert summary.median == pytest.approx(median_exact, rel=0.01)
        mode_se = kde_mode_bootstrap_stderr(sample.rho, seed=26)
        assert abs(summary.mode - mode_exact) <= 3 * mode_se + 0.02 * mode_exact
        assert summary.ci_low <= mean_exact / median_exact <= summary.ci_high

    def test_log_skew_normal_mode_reduces_to_lognormal(self):
        # alpha=0 collapses to the log-normal closed form e^{mu - sigma^2}.
        from bigwinners.distributions import SkewNormalParams

        sn = SkewNormalParams(zeta=0.95, omega=1.02, alpha=0.0)
        assert log_skew_normal_mode(sn) == pytest.approx(math.exp(0.95 - 1.02**2), rel=1e-6)

    def test_table_params_ratio_reported_with_ci(self):
        sample = simulate_index_skew_drift(0.06, 0.09, 1.88, 0.29, 16, 100_000, seed=26)
        summary = sample_ratio_summary(sample, seed=27)
        assert summary.mean_over_median > 1.0
        assert summary.ci_low < summary.mean_over_median < summary.ci_high
        assert summary.mean_over_mode >= summary.mean_over_median
