import math

import numpy as np
import pytest

from bigwinners.errors import InsufficientDataError, ParameterError
from bigwinners.gbm import (
    GBMParams,
    PricePath,
    estimate_gbm,
    simulate_gbm,
    write_panel_csv,
)
from conftest import build_panel_of_paths


def path_with_estimates(sigma_hat: float, mu_hat: float, x0: float = 1.0) -> PricePath:
    """Two-step path whose endpoint-form estimates hit (mu_hat, sigma_hat) exactly.

    With increments r1 = u, r2 = -v (u, v > 0) the endpoint estimator gives
    sigma^2 = u*v and mu = (u - v)/2 + u*v/2, so u - v and u*v pin the pair.
    """
    s2 = sigma_hat * sigma_hat
    diff = 2.0 * mu_hat - s2
    disc = math.sqrt(diff * diff + 4.0 * s2)
    u = 0.5 * (diff + disc)
    v = u - diff
    prices = np.array([x0, x0 * math.exp(u), x0 * math.exp(u - v)])
    return PricePath(x0=x0, prices=prices, dt=1.0)


class TestSimulateGbm:
    def test_deterministic_when_sigma_zero(self):
        path = simulate_gbm(GBMParams(0.1, 0.0), 1.0, 16, 1.0, seed=1)
        expected = np.exp(0.1 * np.arange(17))
        assert np.allclose(path.prices, expected, rtol=1e-12)
        assert path.prices[-1] == pytest.approx(4.953, abs=1e-3)

    def test_identical_seed_identical_path(self):
        a = simulate_gbm(GBMParams(0.12, 0.29), 1.0, 100, 1.0, seed=9)
        b = simulate_gbm(GBMParams(0.12, 0.29), 1.0, 100, 1.0, seed=9)
        assert np.array_equal(a.prices, b.prices)

    def test_terminal_mean_matches_expectation(self):
        # E[X_T] = x0 e^{mu T}; 1e5 terminal values against 6.82.
        mu, sigma, t = 0.12, 0.29, 16
        rng = np.random.default_rng(30)
        z = rng.standard_normal(100_000)
        x_t = np.exp((mu - sigma**2 / 2) * t + sigma * math.sqrt(t) * z)
        target = math.exp(mu * t)
        se = np.std(x_t) / math.sqrt(x_t.size)
        assert abs(np.mean(x_t) - target) <= 3 * se
        # the same expectation through the path simulator
        paths = [
            simulate_gbm(GBMParams(mu, sigma), 1.0, 16, 1.0, s).prices[-1]
            for s in np.random.SeedSequence(31).spawn(4000)
        ]
        se = np.std(paths) / math.sqrt(len(paths))
        assert abs(np.mean(paths) - target) <= 3.5 * se

    def test_martingale_discounted_mean_flat(self):
        mu, sigma = 0.08, 0.25
        rng_seeds = np.random.SeedSequence(32).spawn(100_000)
        prices = np.array([simulate_gbm(GBMParams(mu, sigma), 1.0, 8, 1.0, s).prices for s in rng_seeds])
        for t in (2, 5, 8):
            discounted = prices[:, t] * math.exp(-mu * t)
            se = discounted.std() / math.sqrt(discounted.size)
            assert abs(discounted.mean() - 1.0) <= 3 * se

    def test_invalid_inputs(self):
        with pytest.raises(ParameterError):
            simulate_gbm(GBMParams(0.1, 0.2), -1.0, 10, 1.0, 1)
        with pytest.raises(ParameterError):
            simulate_gbm(GBMParams(0.1, 0.2), 1.0, 0, 1.0, 1)
        with pytest.raises(ParameterError):
            GBMParams(0.1, -0.2)


class TestEstimateGbm:
    def test_constant_path(self):
        path = PricePath(x0=5.0, prices=np.full(10, 5.0), dt=1.0)
        est = estimate_gbm(path)
        assert est.sigma_hat == 0.0
        assert est.mu_hat == 0.0

    def test_deterministic_growth_quirk(self):
        # g=0.1 over T=16 yearly steps: raw variance is exactly -g^2/15.
        g, t = 0.1, 16
        prices = np.exp(g * np.arange(t + 1))
        est = estimate_gbm(PricePath(x0=1.0, prices=prices, dt=1.0))
        assert est.sigma_sq_raw == pytest.approx(-(g * g) / (t - 1), abs=1e-12)
        assert est.clamped
        assert est.sigma_hat == 0.0
        assert est.mu_hat == pytest.approx(g, abs=1e-12)

    def test_mle_mode_deterministic_growth_not_clamped(self):
        prices = np.exp(0.1 * np.arange(17))
        est = estimate_gbm(PricePath(x0=1.0, prices=prices, dt=1.0), method="mle")
        assert not est.clamped
        assert est.sigma_hat == pytest.approx(0.0, abs=1e-12)
        assert est.mu_hat == pytest.approx(0.1, abs=1e-12)

    @pytest.mark.parametrize("steps", [2, 3, 16, 255, 4032])
    def test_mle_variance_equals_demeaned_mean_square(self, steps):
        # Reference: the per-step-demeaned mean square written out, bit for bit.
        for seed in range(20):
            path = simulate_gbm(GBMParams(0.12, 0.29), 1.0, steps, 1 / 252, seed)
            r = np.diff(np.log(path.prices))
            reference = float(np.mean((r - float(np.sum(r)) / r.size) ** 2)) / path.dt
            assert estimate_gbm(path, method="mle").sigma_sq_raw == reference

    def test_daily_recovery_median(self):
        p = GBMParams(0.12, 0.29)
        estimates = [
            estimate_gbm(simulate_gbm(p, 1.0, 16 * 252, 1 / 252, s))
            for s in np.random.SeedSequence(33).spawn(300)
        ]
        assert np.median([e.mu_hat for e in estimates]) == pytest.approx(0.12, abs=0.03)
        assert np.median([e.sigma_hat for e in estimates]) == pytest.approx(0.29, abs=0.01)

    def test_clamp_iff_negative_raw(self):
        for seed in range(40):
            path = simulate_gbm(GBMParams(0.3, 0.05), 1.0, 4, 1.0, seed)
            est = estimate_gbm(path)
            assert est.clamped == (est.sigma_sq_raw < 0)
            # mu_hat satisfies the estimator identity with the clamped variance
            total = math.log(path.prices[-1] / path.prices[0])
            s2 = 0.0 if est.clamped else est.sigma_sq_raw
            assert est.mu_hat == pytest.approx(total / 4 + s2 / 2, rel=1e-12)

    def test_consistency_as_dt_shrinks(self):
        # Median per-path |sigma_hat - sigma| shrinks as the step refines.
        p = GBMParams(0.12, 0.29)
        errors = []
        for dt, seed in ((1 / 12, 40), (1 / 52, 41), (1 / 252, 42)):
            steps = int(round(16 / dt))
            errors.append(
                np.median(
                    [
                        abs(estimate_gbm(simulate_gbm(p, 1.0, steps, dt, s)).sigma_hat - 0.29)
                        for s in np.random.SeedSequence(seed).spawn(200)
                    ]
                )
            )
        assert errors[0] > errors[1] > errors[2]

    def test_too_short_path(self):
        with pytest.raises(InsufficientDataError):
            estimate_gbm(PricePath(x0=1.0, prices=np.array([1.0, 2.0]), dt=1.0))

    def test_unknown_method(self):
        path = simulate_gbm(GBMParams(0.1, 0.2), 1.0, 10, 1.0, 1)
        with pytest.raises(ParameterError):
            estimate_gbm(path, method="bogus")


class TestBuildPanel:
    def test_synthetic_panel_recovery(self):
        rng = np.random.default_rng(50)
        seeds = np.random.SeedSequence(51).spawn(500)
        paths = {}
        for i, s in enumerate(seeds):
            mu_i = rng.normal(0.12, 0.06)
            paths[f"T{i:04d}"] = simulate_gbm(GBMParams(mu_i, 0.29), 1.0, 16 * 252, 1 / 252, s)
        panel = build_panel_of_paths(paths)
        assert np.mean(panel.mu_hats) == pytest.approx(0.12, abs=0.01)
        assert np.mean(panel.sigma_hats) == pytest.approx(0.29, abs=0.01)
        assert panel.drift_fit is not None
        assert panel.vol_fit is not None

    def test_exact_linear_relation(self):
        paths = {}
        rng = np.random.default_rng(52)
        for i, sigma in enumerate(rng.uniform(0.15, 0.5, 30)):
            paths[f"T{i:03d}"] = path_with_estimates(sigma, 2.0 * sigma + 0.01)
        panel = build_panel_of_paths(paths)
        a, b, r2 = panel.regression
        assert a == pytest.approx(2.0, abs=1e-6)
        assert b == pytest.approx(0.01, abs=1e-6)
        assert r2 == pytest.approx(1.0, abs=1e-9)
        assert panel.correlation == pytest.approx(1.0, abs=1e-9)

    def test_two_tickers_rejected(self):
        paths = {
            "A": simulate_gbm(GBMParams(0.1, 0.2), 1.0, 16, 1.0, 1),
            "B": simulate_gbm(GBMParams(0.1, 0.2), 1.0, 16, 1.0, 2),
        }
        with pytest.raises(InsufficientDataError):
            build_panel_of_paths(paths)

    def test_short_series_excluded(self):
        paths = {f"T{i}": simulate_gbm(GBMParams(0.1, 0.2), 1.0, 16, 1.0, i) for i in range(5)}
        paths["SHORT"] = simulate_gbm(GBMParams(0.1, 0.2), 1.0, 8, 1.0, 99)
        panel = build_panel_of_paths(paths)
        assert panel.excluded == ("SHORT",)
        assert len(panel.tickers) == 5

    def test_single_price_series_excluded(self):
        paths = {f"T{i}": simulate_gbm(GBMParams(0.1, 0.2), 1.0, 16, 1.0, i) for i in range(5)}
        paths["ONE"] = PricePath(x0=3.0, prices=np.array([3.0]), dt=1.0)
        panel = build_panel_of_paths(paths)
        assert panel.excluded == ("ONE",)
        assert len(panel.tickers) == 5

    def test_permutation_invariant(self):
        paths = {f"T{i}": simulate_gbm(GBMParams(0.1, 0.3), 1.0, 64, 0.25, i) for i in range(12)}
        panel_a = build_panel_of_paths(paths)
        shuffled = {k: paths[k] for k in reversed(sorted(paths))}
        panel_b = build_panel_of_paths(shuffled)
        assert panel_a.tickers == panel_b.tickers
        for name in ("mu_hats", "sigma_hats", "sigma_sq_raw", "clamped"):
            assert getattr(panel_a, name).tobytes() == getattr(panel_b, name).tobytes()
        assert panel_a.regression == panel_b.regression

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_clamped_path_is_left_out_of_the_vol_fit_only(self, tmp_path, seed):
        """A noiseless trend, clamped to sigma_hat = 0, leaves the gamma fit as it
        was without it, and stays in the drift fit, regression and correlation."""
        vols = np.random.default_rng(seed).gamma(8.0, 0.29 / 8.0, 30)
        paths = {f"T{i:02d}": simulate_gbm(GBMParams(0.12, vol), 1.0, 64, 0.25, (seed, i)) for i, vol in enumerate(vols)}
        trend = PricePath(x0=1.0, prices=np.exp(0.05 * np.arange(65.0)), dt=0.25)
        without, with_trend = build_panel_of_paths(paths), build_panel_of_paths({**paths, "TREND": trend})
        assert with_trend.clamped.tolist() == [False] * 30 + [True]
        assert with_trend.fit_errors == without.fit_errors == ()
        assert repr(with_trend.vol_fit) == repr(without.vol_fit)
        assert with_trend.mu_hats[-1] == estimate_gbm(trend).mu_hat
        for name in ("drift_fit", "regression", "correlation"):
            assert repr(getattr(with_trend, name)) != repr(getattr(without, name)), name
        for panel, footer in ((without, []), (with_trend, ["# vol_fit_degenerate=1"])):
            write_panel_csv(panel, tmp_path / "panel.csv")
            lines = (tmp_path / "panel.csv").read_text(encoding="utf-8").splitlines()
            assert [line for line in lines if line.startswith("# vol_fit_degenerate=")] == footer

    @pytest.mark.parametrize("method", ["endpoint", "mle"])
    def test_flat_path_is_left_out_of_the_vol_fit(self, tmp_path, method):
        """A halted stock's flat path (sigma_hat exactly 0, not clamped) leaves the
        gamma fit as it was without it, under either estimator, and is counted."""
        paths = {f"T{i:02d}": simulate_gbm(GBMParams(0.12, 0.29), 1.0, 16, 0.25, seed=i) for i in range(20)}
        without = build_panel_of_paths(paths, method)
        with_halt = build_panel_of_paths({**paths, "HALT": PricePath(x0=2.0, prices=np.full(17, 2.0), dt=0.25)}, method)
        assert with_halt.fit_errors == without.fit_errors == ()
        assert not with_halt.clamped.any() and with_halt.sigma_hats[0] == 0.0
        assert repr(with_halt.vol_fit) == repr(without.vol_fit)
        write_panel_csv(with_halt, tmp_path / "panel.csv")
        lines = (tmp_path / "panel.csv").read_text(encoding="utf-8").splitlines()
        assert [line for line in lines if line.startswith("# vol_fit_degenerate=")] == ["# vol_fit_degenerate=1"]

    def test_fit_errors_recorded_not_raised(self):
        # Flat paths give constant estimates: every cross-sectional fit fails
        # but the panel still carries the estimates.
        paths = {f"T{i}": PricePath(x0=2.0, prices=np.full(17, 2.0), dt=1.0) for i in range(5)}
        panel = build_panel_of_paths(paths)
        assert len(panel.tickers) == 5
        assert panel.drift_fit is None
        names = {name for name, _ in panel.fit_errors}
        assert {"drift_fit", "vol_fit", "regression", "correlation"} <= names

    def test_csv_export_layout(self, tmp_path):
        paths = {f"T{i}": simulate_gbm(GBMParams(0.12, 0.29), 1.0, 64, 0.25, i) for i in range(40)}
        panel = build_panel_of_paths(paths)
        write_panel_csv(panel, tmp_path / "panel.csv")
        lines = (tmp_path / "panel.csv").read_text(encoding="utf-8").strip().splitlines()
        assert lines[0].split(",") == [
            "mu_mean", "mu_std", "sn_zeta", "sn_omega", "sn_alpha",
            "sigma_mean", "gamma_shape", "gamma_rate", "a", "b", "r2", "correlation",
        ]
        assert any(line.startswith("# clamped_estimates=") for line in lines)
        assert any(line.startswith("# excluded_delisted=") for line in lines)
