import io
import math

import numpy as np
import pytest

from bigwinners.distributions import LogNormalParams
from bigwinners.errors import ParameterError
from bigwinners.lognormal_sum import (
    MODERATELY_BROAD,
    NARROW,
    VERY_BROAD,
    classify_regime,
    exact_typical_mean_ratio,
    mc_typical_mean,
    regime_curve,
    regime_formula_values,
    typical_mean_ratio,
    write_curve_csv,
)


class TestClassifyRegime:
    def test_thresholds(self):
        assert classify_regime(LogNormalParams(0, 0.1)).label == NARROW
        assert classify_regime(LogNormalParams(0.95, 1.02)).label == MODERATELY_BROAD
        assert classify_regime(LogNormalParams(0, 3.0)).label == VERY_BROAD

    def test_sigma_sq_recorded(self):
        r = classify_regime(LogNormalParams(0.95, 1.02))
        assert r.sigma_sq == pytest.approx(1.0404)

    def test_custom_thresholds(self):
        p = LogNormalParams(0, 1.0)
        assert classify_regime(p, narrow_max=1.5).label == NARROW


class TestTypicalMeanRatio:
    def test_spx_n10(self):
        # (1 + C^2/10)^(-3/2) with C^2 = e^1.0404 - 1.
        ratio = typical_mean_ratio(LogNormalParams(0.95, 1.02), 10)
        assert ratio == pytest.approx(0.777, abs=0.001)

    def test_infinite_n_limit(self):
        ratio = typical_mean_ratio(LogNormalParams(0.95, 1.02), 10**9)
        assert ratio == pytest.approx(1.0, abs=1e-6)

    def test_regime3_spot_value(self):
        # 4^(ln 1.5 / ln 2) = 1.5^2 exactly, so the exponent is -6.
        ratio = typical_mean_ratio(LogNormalParams(0.0, 3.0), 4)
        assert ratio == pytest.approx(math.exp(-6.0), rel=1e-12)

    def test_narrow_regime_constant(self):
        p = LogNormalParams(0.0, 0.2)
        assert typical_mean_ratio(p, 2) == typical_mean_ratio(p, 1000)
        assert typical_mean_ratio(p, 2) == pytest.approx(math.exp(-0.02))

    def test_n1_identity(self):
        # (1 + C^2) = e^{sigma^2} makes the moderate formula e^{-3 sigma^2/2} at n=1.
        for sigma in (0.4, 0.8, 1.0, 1.3, 1.9):
            s2 = sigma * sigma
            moderate = regime_formula_values(LogNormalParams(0.0, sigma), 1)[MODERATELY_BROAD]
            assert moderate == pytest.approx(math.exp(-1.5 * s2), rel=1e-12)

    def test_monotone_increasing_in_n(self):
        p = LogNormalParams(0.5, 1.1)
        ratios = [typical_mean_ratio(p, n) for n in (1, 2, 4, 8, 64, 512)]
        assert all(b > a for a, b in zip(ratios, ratios[1:]))

    def test_monotone_decreasing_in_sigma(self):
        for label, sigmas in ((MODERATELY_BROAD, (0.5, 0.9, 1.3)), (VERY_BROAD, (2.1, 2.6, 3.4))):
            ratios = [
                regime_formula_values(LogNormalParams(0.0, s), 16)[label] for s in sigmas
            ]
            assert all(b < a for a, b in zip(ratios, ratios[1:]))

    def test_formula_values_reports_all_regimes(self):
        values = regime_formula_values(LogNormalParams(0.0, 1.5), 8)
        assert set(values) == {NARROW, MODERATELY_BROAD, VERY_BROAD}

    def test_invalid_n(self):
        with pytest.raises(ParameterError):
            typical_mean_ratio(LogNormalParams(0, 1.0), 0)


class TestMcTypicalMean:
    def test_narrow_sigma_ratio_one(self):
        ratio, _ = mc_typical_mean(LogNormalParams(0.0, 1e-4), 8, 10_000, seed=1)
        assert ratio == pytest.approx(1.0, abs=1e-3)

    def test_spx_n10_matches_formula(self):
        p = LogNormalParams(0.95, 1.02)
        ratio, se = mc_typical_mean(p, 10, 100_000, seed=2)
        assert abs(ratio - 0.777) <= max(3 * se, 0.03)

    def test_n1_recovers_lognormal_mode(self):
        p = LogNormalParams(0.95, 1.02)
        ratio, se = mc_typical_mean(p, 1, 100_000, seed=6)
        expected = math.exp(-1.5 * 1.02**2)
        assert abs(ratio - expected) <= max(3 * se, 0.02)

    def test_mc_analytic_agreement_mid_regime(self):
        # Module invariant: sigma^2 in {0.5, 1.0}, n in {4, 16, 64}.
        seeds = iter(np.random.SeedSequence(2024).spawn(6))
        for s2 in (0.5, 1.0):
            p = LogNormalParams(0.0, math.sqrt(s2))
            for n in (4, 16, 64):
                mc, se = mc_typical_mean(p, n, 100_000, next(seeds))
                analytic = typical_mean_ratio(p, n)
                assert abs(mc - analytic) <= max(3 * se, 0.03), (s2, n, mc, analytic, se)

    def test_estimator_tracks_exact_convolution_mode(self):
        # The small-n oracle: the KDE mode must match the true mode of the
        # average even where the regime-II formula drifts away from it.
        for mu, sigma, n in ((0.95, 1.02, 2), (1.65, 1.23, 2)):
            ratio, se = mc_typical_mean(LogNormalParams(mu, sigma), n, 100_000, seed=3)
            exact = exact_typical_mean_ratio(LogNormalParams(mu, sigma), n)
            assert abs(ratio - exact) <= max(3 * se, 0.01)

    def test_stderr_not_below_seed_scatter_on_flat_top(self):
        # CCMP at n=4: the density of the average is flat-topped, so a
        # bootstrap that keeps the sample's own noise bumps reports SEs far
        # below the estimator's real seed-to-seed scatter.  Seeds fixed up
        # front; about 2 s.
        p = LogNormalParams(0.41, 1.10)
        runs = [mc_typical_mean(p, 4, 100_000, s) for s in np.random.SeedSequence(11).spawn(40)]
        estimates = np.array([ratio for ratio, _ in runs])
        stderrs = np.array([se for _, se in runs])
        scatter = float(np.std(estimates, ddof=1))
        assert stderrs.min() >= 0.5 * scatter, (stderrs.min(), scatter)
        assert 2 / 3 <= np.median(stderrs) / scatter <= 1.5, (np.median(stderrs), scatter)

    def test_insufficient_reps_rejected(self):
        with pytest.raises(ParameterError):
            mc_typical_mean(LogNormalParams(0, 1.0), 4, 9_999, seed=1)

    def test_deterministic_given_seed(self):
        p = LogNormalParams(0.4, 0.9)
        a = mc_typical_mean(p, 4, 10_000, seed=11)
        b = mc_typical_mean(p, 4, 10_000, seed=11)
        assert a == b

    def test_largest_term_dominates_in_broad_regime(self):
        rng = np.random.default_rng(31)
        draws = rng.lognormal(0.0, 3.0, size=(10_000, 16))
        dominated = np.mean(draws.max(axis=1) / draws.sum(axis=1) > 0.5)
        assert dominated > 0.5


class TestExactTypicalMeanRatio:
    def test_n1_is_the_lognormal_mode(self):
        # One draw: the mode e^{mu - sigma^2} over the mean e^{mu + sigma^2/2}.
        for mu, sigma in ((0.95, 1.02), (0.41, 1.10), (1.65, 1.23), (0.0, 2.0)):
            ratio = exact_typical_mean_ratio(LogNormalParams(mu, sigma), 1)
            assert ratio == pytest.approx(math.exp(-1.5 * sigma**2), abs=1e-5), (mu, sigma)

    def test_large_n_matches_monte_carlo(self):
        # NIFTY n=256 and SPX n=1024 lie past the fixed grid the oracle once
        # used.  Seeds fixed up front; about 2 s.
        seeds = np.random.SeedSequence(2718).spawn(2)
        for (mu, sigma, n), seed in zip(((1.65, 1.23, 256), (0.95, 1.02, 1024)), seeds):
            p = LogNormalParams(mu, sigma)
            mc, se = mc_typical_mean(p, n, 20_000, seed)
            exact = exact_typical_mean_ratio(p, n)
            assert abs(mc - exact) <= max(3 * se, 0.01), (mu, sigma, n, mc, se, exact)

    def test_mode_far_from_zero(self):
        # A mode near 2200: the lattice follows the law, W = 4 E[X].
        ratio = exact_typical_mean_ratio(LogNormalParams(7.7, 0.1), 1)
        assert ratio == pytest.approx(math.exp(-1.5 * 0.01), abs=1e-5)

    def test_mode_within_a_few_bins_of_zero_rejected(self):
        # sigma = 3: the mode e^{-9} sits at 3e-7 of W = 4 E[X], in lattice bin 0.
        with pytest.raises(ParameterError, match="mode"):
            exact_typical_mean_ratio(LogNormalParams(0.0, 3.0), 1)

    def test_invalid_n(self):
        with pytest.raises(ParameterError):
            exact_typical_mean_ratio(LogNormalParams(0.0, 1.0), 0)
        # The wrap bound gives up a coarse bin per draw: at n = 2048, all 2048 of them.
        with pytest.raises(ParameterError):
            exact_typical_mean_ratio(LogNormalParams(0.0, 1.0), 2048)


class TestRegimeCurve:
    def test_analytic_column_monotone(self):
        curve = regime_curve(LogNormalParams(0.95, 1.02), [1, 2, 4, 8, 16, 64, 256, 1024])
        analytic = [pt.ratio_analytic for pt in curve.points]
        assert all(b >= a for a, b in zip(analytic, analytic[1:]))

    def test_near_zero_sigma_all_ones(self):
        curve = regime_curve(LogNormalParams(0.0, 1e-6), [1, 4, 16])
        assert all(pt.ratio_analytic == pytest.approx(1.0, abs=1e-9) for pt in curve.points)

    def test_ccmp_below_spx_at_n10(self):
        spx = typical_mean_ratio(LogNormalParams(0.95, 1.02), 10)
        ccmp = typical_mean_ratio(LogNormalParams(0.41, 1.10), 10)
        assert ccmp < spx

    def test_mc_columns_present_when_reps(self):
        curve = regime_curve(LogNormalParams(0.5, 0.9), [2, 4], reps=10_000, seed=5)
        for pt in curve.points:
            assert pt.ratio_mc is not None and pt.mc_stderr is not None

    def test_grid_must_increase(self):
        with pytest.raises(ParameterError):
            regime_curve(LogNormalParams(0, 1.0), [4, 2])

    def test_csv_export_columns(self):
        curve = regime_curve(LogNormalParams(0.5, 0.9), [2, 4], reps=10_000, seed=5)
        buf = io.StringIO()
        write_curve_csv(curve, buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "n,ratio_analytic,ratio_mc,mc_stderr"
        assert len(lines) == 3
        first = lines[1].split(",")
        assert first[0] == "2"
        assert float(first[1]) == pytest.approx(curve.points[0].ratio_analytic)


class TestRegimeCutoffs:
    @pytest.mark.parametrize("narrow_max,very_broad_min", [(5.0, 1.0), (2.0, 2.0)])
    def test_narrow_cutoff_not_below_very_broad_rejected(self, narrow_max, very_broad_min):
        with pytest.raises(ParameterError, match="very_broad_min"):
            classify_regime(LogNormalParams(0.9, 1.0), narrow_max=narrow_max,
                            very_broad_min=very_broad_min)
