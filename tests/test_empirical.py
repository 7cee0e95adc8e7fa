import datetime as dt
import math
import warnings
from statistics import NormalDist

import numpy as np
import pytest

from bigwinners.distributions import LogNormalParams, sample
from bigwinners.empirical import (
    ReturnSample,
    _grid_objective,
    _kde_axis,
    fit_macroscopic,
    kde_mode,
    kde_mode_bootstrap_stderr,
    load_panel,
    qq_data,
    summarize_index,
    tail_filter,
    top_contribution,
    total_returns,
)
from bigwinners.errors import DataError, InsufficientDataError, ParameterError, ParseError

from conftest import bootstrap_se, series_of


# ---------------------------------------------------------------------------
# Loading
# ---------------------------------------------------------------------------

class TestLoadPanel:
    def test_three_ticker_fixture(self, price_csv):
        path = price_csv(
            [
                ("AAA", "2006-01-02", 10.0),
                ("AAA", "2021-12-30", 25.0),
                ("BBB", "2006-01-02", 5.0),
                ("BBB", "2021-12-30", 4.0),
                ("CCC", "2006-01-02", 1.0),
                ("CCC", "2021-12-30", 9.0),
            ]
        )
        panel = load_panel(path)
        assert panel.tickers == ("AAA", "BBB", "CCC")
        assert panel.window == (dt.date(2006, 1, 2), dt.date(2021, 12, 30))

    def test_negative_price_names_row(self, price_csv):
        path = price_csv(
            [("AAA", "2006-01-02", 10.0), ("AAA", "2007-01-02", -3.0)]
        )
        with pytest.raises(DataError, match="line 3"):
            load_panel(path)

    def test_bad_date_is_parse_error_with_line(self, price_csv):
        path = price_csv([("AAA", "02/01/2006", 10.0)])
        with pytest.raises(ParseError, match="line 2"):
            load_panel(path)

    def test_error_names_physical_line_after_quoted_newline(self, tmp_path):
        """A quoted field spanning two lines still leaves later errors on their own line."""
        path = tmp_path / "prices.csv"
        path.write_text(
            'ticker,date,adj_close\n"AA\nA",2006-01-02,10.0\nBBB,2006-01-02,5.0\nBBB,02/01/2007,6.0\n',
            encoding="utf-8",
        )
        with pytest.raises(ParseError, match="^line 5: bad date '02/01/2007'$"):
            load_panel(path)

    def test_wrong_header_rejected(self, price_csv):
        path = price_csv([("AAA", "2006-01-02", 1.0)], header="sym,when,px")
        with pytest.raises(ParseError, match="line 1"):
            load_panel(path)

    def test_out_of_order_dates_sorted_and_flagged(self, price_csv):
        path = price_csv(
            [
                ("AAA", "2007-01-02", 12.0),
                ("AAA", "2006-01-02", 10.0),
            ]
        )
        panel = load_panel(path)
        dates, prices = series_of(panel)["AAA"]
        assert list(prices) == [10.0, 12.0]
        assert any("sorted" in note for note in panel.notes)

    def test_duplicate_row_rejected(self, price_csv):
        path = price_csv(
            [("AAA", "2006-01-02", 10.0), ("AAA", "2006-01-02", 10.5)]
        )
        with pytest.raises(DataError, match="duplicate"):
            load_panel(path)

    @pytest.mark.parametrize("text", ["2006", "2006-01", "NaT", "2006-01-02T00"])
    def test_date_numpy_would_accept_is_parse_error(self, price_csv, text):
        """numpy's datetime parser reads these as dates (or NaT); the loader must not."""
        path = price_csv([("AAA", "2006-01-02", 10.0), ("AAA", text, 11.0)])
        with pytest.raises(ParseError, match=f"^line 3: bad date '{text}'$"):
            load_panel(path)


# ---------------------------------------------------------------------------
# Total returns
# ---------------------------------------------------------------------------

class TestTotalReturns:
    def test_simple_ratio(self, price_csv):
        path = price_csv(
            [("AAA", "2006-01-02", 10.0), ("AAA", "2021-12-30", 25.0)]
        )
        sample_ = total_returns(load_panel(path))
        assert sample_.rho[0] == pytest.approx(2.5)

    def test_missing_window_start_excluded(self, price_csv):
        path = price_csv(
            [
                ("AAA", "2006-01-02", 10.0),
                ("AAA", "2021-12-30", 25.0),
                ("LATE", "2008-05-01", 4.0),
                ("LATE", "2021-12-30", 8.0),
            ]
        )
        sample_ = total_returns(load_panel(path))
        assert sample_.tickers == ("AAA",)
        assert ("LATE", "insufficient window coverage") in sample_.excluded

    def test_endpoint_tolerance(self, price_csv):
        # 9 days from the window start is accepted, 11 is not.
        path = price_csv(
            [
                ("NEAR", "2006-01-10", 2.0),
                ("NEAR", "2021-12-30", 5.0),
                ("FAR", "2006-01-12", 2.0),
                ("FAR", "2021-12-30", 5.0),
            ]
        )
        window = (dt.date(2006, 1, 1), dt.date(2021, 12, 30))
        sample_ = total_returns(load_panel(path), window=window)
        assert sample_.tickers == ("NEAR",)

    def test_synthetic_gbm_bit_exact(self, price_csv):
        # Prices built as exp(running sum) make rho equal exp(total) exactly.
        rng = np.random.default_rng(3)
        increments = rng.normal(0.0005, 0.01, 30)
        rows = [("GBM", "2006-01-02", repr(1.0))]
        running = 0.0
        day = dt.date(2006, 1, 3)
        for j, r in enumerate(increments):
            running += r
            rows.append(("GBM", (day + dt.timedelta(days=j)).isoformat(), repr(math.exp(running))))
        path = price_csv(rows)
        sample_ = total_returns(load_panel(path))
        assert sample_.rho[0] == math.exp(running)


# ---------------------------------------------------------------------------
# Winner contribution
# ---------------------------------------------------------------------------

class TestTopContribution:
    def test_hand_computed(self):
        s = ReturnSample(rho=np.arange(1.0, 11.0))
        assert top_contribution(s, 0.10) == pytest.approx(100 * (1 - 5.0 / 5.5))

    def test_all_equal_is_zero(self):
        s = ReturnSample(rho=np.full(20, 3.0))
        assert top_contribution(s, 0.25) == pytest.approx(0.0)

    def test_monotone_in_pct(self):
        rng = np.random.default_rng(4)
        s = ReturnSample(rho=rng.lognormal(0.5, 1.0, 200))
        t5 = top_contribution(s, 0.05)
        t10 = top_contribution(s, 0.10)
        t25 = top_contribution(s, 0.25)
        assert t5 <= t10 <= t25

    def test_preconditions(self):
        s = ReturnSample(rho=np.array([1.0]))
        with pytest.raises(InsufficientDataError):
            top_contribution(s, 0.1)
        with pytest.raises(Exception):
            top_contribution(ReturnSample(rho=np.array([1.0, 2.0])), 1.5)


# ---------------------------------------------------------------------------
# KDE mode
# ---------------------------------------------------------------------------

class TestKdeMode:
    def test_normal_sample(self):
        x = np.random.default_rng(10).normal(3, 1, 100_000)
        r = kde_mode(x)
        assert r.mode == pytest.approx(3.0, abs=0.05)
        assert r.stable
        assert not r.log_scale

    def test_constant_sample(self):
        r = kde_mode([1.0, 1.0, 1.0, 1.0, 1.0])
        assert r.mode == 1.0
        assert r.stable

    def test_broad_lognormal_sample(self):
        x = np.random.default_rng(11).lognormal(0.95, 1.02, 10_000)
        r = kde_mode(x)
        assert r.mode == pytest.approx(math.exp(0.95 - 1.02**2), abs=0.15)
        assert r.log_scale

    def test_converges_with_sample_size(self):
        true_mode = math.exp(0.95 - 1.02**2)
        err = {}
        for n, seed in ((1000, 12), (100_000, 13)):
            x = np.random.default_rng(seed).lognormal(0.95, 1.02, n)
            err[n] = abs(kde_mode(x).mode - true_mode)
        assert err[100_000] < err[1000]

    def test_mode_within_sample_range(self):
        x = np.random.default_rng(14).lognormal(0.0, 2.0, 5000)
        r = kde_mode(x)
        assert x.min() <= r.mode <= x.max()

    def test_bimodal_flagged_unstable(self):
        rng = np.random.default_rng(15)
        x = np.concatenate([rng.normal(-3, 0.5, 5000), rng.normal(3, 0.5, 5000)])
        assert not kde_mode(x).stable

    def test_too_few_points(self):
        with pytest.raises(InsufficientDataError):
            kde_mode([1.0, 2.0, 3.0, 4.0])

    def test_symmetric_sample_refines_to_its_centre(self):
        # Normal quantiles below c and their mirror images: the grid objective is
        # symmetric, so its top two bins tie and the parabola's vertex is c.
        c = -1.5
        x = c + np.array([NormalDist().inv_cdf((i - 0.5) / 2000) for i in range(1, 1001)])
        sample = np.concatenate([x, 2 * c - x])
        r = kde_mode(sample)
        assert not r.log_scale
        _, t, h, _ = _kde_axis(sample, "test")
        centers, _ = _grid_objective(t, h, False)
        assert abs(r.mode - c) <= 1e-6 * (centers[1] - centers[0])

    def test_end_bin_winner_keeps_the_grid_centre(self):
        # The log-axis tilt puts the grid argmax in bin 0, where no parabola is taken.
        x = [1e-100, 1.0, 1.0, 1.0, 1e100]
        _, t, h, log_scale = _kde_axis(x, "test")
        assert int(np.argmax(_grid_objective(t, h, log_scale)[1])) == 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            r = kde_mode(x)
        assert r.mode == 1e-100  # exp(centers[0]) clipped to the sample minimum
        assert not r.stable

    @pytest.mark.parametrize("seed", range(40))
    def test_refine_lands_between_grid_winner_and_exact_kernel_mode(self, seed):
        # Within half a bin of the grid winner, and within one bin of the maximiser of
        # the unbinned kernel sum, searched on a 1/1000-bin grid two bins either side.
        rng = np.random.default_rng(seed)
        x = rng.lognormal(0.5, 0.8, 200) if seed % 2 else rng.normal(0.0, 1.0, 200) - 5.0
        _, t, h, log_scale = _kde_axis(x, "test")
        centers, obj = _grid_objective(t, h, log_scale)
        k, width = int(np.argmax(obj)), centers[1] - centers[0]
        r = kde_mode(x)
        t_mode = math.log(r.mode) if log_scale else r.mode
        assert abs(t_mode - centers[k]) <= 0.5 * width * (1 + 1e-9)
        s = centers[k] + width * np.linspace(-2.0, 2.0, 4001)
        log_f = np.log(np.exp(-0.5 * ((s[:, None] - t) / h) ** 2).sum(axis=1)) - (s if log_scale else 0.0)
        assert abs(t_mode - s[np.argmax(log_f)]) <= width

    def test_bootstrap_stderr_that_overflows_is_a_parameter_error(self):
        # Modes near 1e173 square past the largest float; no inf and no warning.
        x = np.exp(400.0 + np.random.default_rng(1).standard_normal(1000))
        with pytest.raises(ParameterError, match=r"spread of modes near 2\.34e\+173 overflows a float"):
            kde_mode_bootstrap_stderr(x, seed=1)

    def test_mode_and_stderr_far_below_one_scale_with_the_sample(self):
        # e^-706 puts the grid's low end below log values of -709.78, where an untilted
        # e^-t overflows, and the modes near 1e-307, whose plain spread underflows.
        x = np.random.default_rng(4).lognormal(0.0, 1.0, 2000)
        f = math.exp(-706.0)
        assert kde_mode(f * x).mode / f == pytest.approx(kde_mode(x).mode, rel=1e-9)
        assert kde_mode_bootstrap_stderr(f * x, seed=5) / f == pytest.approx(kde_mode_bootstrap_stderr(x, seed=5),
                                                                             rel=1e-9)
        # Modes below the smallest normal float (2.2e-308): the upscale stops at 2^1023.
        assert 0.0 < kde_mode_bootstrap_stderr(np.random.default_rng(1).lognormal(-735.0, 1.0, 500), seed=1) < 1e-300

    @pytest.mark.parametrize("seed", range(12))
    def test_end_bin_winner_is_always_unstable(self, seed):
        # The log-axis tilt hands bin 0 the win on a wide enough spread; the 0.8h grid's
        # centres then all lie at least 0.8h(1 - 1/1024) > 0.5h from its centre.
        rng = np.random.default_rng(seed)
        x = np.exp(rng.normal(0.0, 15.0 * (1 + seed % 4), 20 + 30 * (seed % 3)))
        _, t, h, log_scale = _kde_axis(x, "test")
        assert log_scale and int(np.argmax(_grid_objective(t, h, log_scale)[1])) == 0
        assert not kde_mode(x).stable

    @pytest.mark.parametrize("weight,stable", [(0.97, False), (0.90, True)])
    def test_rival_peak_within_five_percent_is_unstable(self, weight, stable):
        # Two smooth clusters far apart on the raw axis: the smaller one's peak is a
        # rival exactly when its height is within KDE_PEAK_GAP = 5% of the larger one's.
        def cluster(centre, m):
            return [centre + NormalDist().inv_cdf((i + 0.5) / m) for i in range(m)]
        x = cluster(-10.0, 2000) + cluster(10.0, round(2000 * weight))
        assert kde_mode(x).stable is stable

    def test_mode_past_the_float_range_is_the_sample_maximum(self):
        x = [1.7976931348623157e308] * 35 + [1.7958954417274534e308] * 5
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert kde_mode(x).mode == 1.7976931348623157e308

    def test_bootstrap_stderr_of_modes_past_the_float_range_is_a_parameter_error(self):
        x = [1.7976931348623157e308] * 35 + [1.7958954417274534e308] * 5
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParameterError, match=r"spread of modes near inf overflows a float"):
                kde_mode_bootstrap_stderr(x, seed=1)


# ---------------------------------------------------------------------------
# Tail filter
# ---------------------------------------------------------------------------

class TestTailFilter:
    def test_hand_computed(self):
        s = ReturnSample(rho=np.array([0.1, 0.2, 1.0]))
        out = tail_filter(s)
        assert list(out.rho) == [0.2, 1.0]
        assert out.removed == 1

    def test_boundary_is_strict(self):
        s = ReturnSample(rho=np.array([math.exp(-2.0), 1.0]))
        out = tail_filter(s)
        assert list(out.rho) == [1.0]

    def test_identity_when_nothing_below(self):
        s = ReturnSample(rho=np.array([1.5, 2.0, 3.0]))
        out = tail_filter(s)
        assert np.array_equal(out.rho, s.rho)
        assert out.removed == 0

    def test_minus_infinity_keeps_every_entry(self):
        s = ReturnSample(rho=np.array([1e-300, 0.1, 2.0]))
        out = tail_filter(s, threshold_log=-math.inf)
        assert np.array_equal(out.rho, s.rho)
        assert out.removed == 0

    def test_idempotent(self):
        rng = np.random.default_rng(16)
        s = ReturnSample(rho=rng.lognormal(0.0, 1.5, 500))
        once = tail_filter(s)
        twice = tail_filter(once)
        assert np.array_equal(once.rho, twice.rho)
        assert twice.removed == 0


# ---------------------------------------------------------------------------
# Index summary
# ---------------------------------------------------------------------------

class TestSummarizeIndex:
    def test_small_sample(self):
        s = ReturnSample(rho=np.array([1.0, 2.0, 3.0, 4.0]))
        summary = summarize_index(s)
        assert summary.mean == pytest.approx(2.5)
        assert summary.median == pytest.approx(2.5)
        assert summary.mean_over_median == pytest.approx(1.0)
        assert summary.mode is None  # below the KDE size floor

    def test_constant_sample(self):
        s = ReturnSample(rho=np.array([2.0, 2.0, 2.0]))
        summary = summarize_index(s)
        assert summary.mean_over_median == pytest.approx(1.0)
        assert summary.top5 == pytest.approx(0.0)
        assert summary.top25 == pytest.approx(0.0)

    def test_synthetic_lognormal_ratio(self):
        p = LogNormalParams(0.95, 1.02)
        rho = sample(p, 498, 17)
        summary = summarize_index(ReturnSample(rho=rho))
        target = math.exp(0.5 * 1.02**2)
        se = bootstrap_se(rho, lambda b: np.mean(b) / np.median(b), seed=18)
        assert abs(summary.mean_over_median - target) <= 3 * se

    def test_permutation_invariant(self):
        rng = np.random.default_rng(19)
        rho = rng.lognormal(0.5, 0.9, 300)
        tickers = tuple(f"T{i:03d}" for i in range(300))
        s1 = ReturnSample(rho=rho, tickers=tickers)
        perm = rng.permutation(300)
        s2 = ReturnSample(rho=rho[perm], tickers=tuple(tickers[i] for i in perm))
        a = summarize_index(s1)
        b = summarize_index(s2)
        assert a.mean == pytest.approx(b.mean)
        assert a.top5 == pytest.approx(b.top5)
        assert a.top25 == pytest.approx(b.top25)
        assert (a.mode is None) == (b.mode is None)


# ---------------------------------------------------------------------------
# Macroscopic fit
# ---------------------------------------------------------------------------

class TestFitMacroscopic:
    def test_recovery_with_table_targets(self):
        rho = sample(LogNormalParams(0.95, 1.02), 100_000, 20)
        s = tail_filter(ReturnSample(rho=rho))
        params, moments = fit_macroscopic(s)
        assert params.mu == pytest.approx(0.95, abs=0.02)
        assert params.sigma == pytest.approx(1.02, abs=0.02)
        assert moments.coeff_variation == pytest.approx(1.35, abs=0.03)

    def test_degenerate_sample(self):
        s = ReturnSample(rho=np.full(10, 2.0))
        params, moments = fit_macroscopic(s)
        assert params.degenerate
        assert moments is None

    def test_mixture_recovered_after_filter(self):
        # 10% delisting-like mass far below the cutoff plus a log-normal body.
        rng = np.random.default_rng(21)
        body = rng.lognormal(0.95, 1.02, 18_000)
        crash = rng.lognormal(-4.0, 0.3, 2_000)
        s = tail_filter(ReturnSample(rho=np.concatenate([body, crash])))
        params, _ = fit_macroscopic(s)
        assert params.mu == pytest.approx(0.95, abs=0.05)
        assert params.sigma == pytest.approx(1.02, abs=0.05)


# ---------------------------------------------------------------------------
# QQ data
# ---------------------------------------------------------------------------

class TestQQData:
    def test_self_fit_within_ks_band(self):
        from scipy import stats

        p = LogNormalParams(0.5, 0.8)
        rho = sample(p, 10_000, 17)
        s = ReturnSample(rho=rho)
        fit, _ = fit_macroscopic(s)
        pairs = qq_data(s, fit)
        u_theo = stats.norm.cdf(pairs[:, 0], fit.mu, fit.sigma)
        u_emp = stats.norm.cdf(pairs[:, 1], fit.mu, fit.sigma)
        assert np.max(np.abs(u_theo - u_emp)) <= 1.63 / math.sqrt(len(s))

    def test_two_point_sample_rejected(self):
        with pytest.raises(InsufficientDataError):
            qq_data(ReturnSample(rho=np.array([1.0, 2.0])), LogNormalParams(0.0, 1.0))

    def test_heavy_tails_show_monotone_departure(self):
        # ln rho drawn Laplace but fitted normal: QQ residuals split by tail.
        rng = np.random.default_rng(22)
        log_rho = rng.laplace(0.5, 0.7, 20_000)
        s = ReturnSample(rho=np.exp(log_rho))
        fit, _ = fit_macroscopic(s)
        pairs = qq_data(s, fit)
        resid = pairs[:, 1] - pairs[:, 0]
        k = len(resid) // 20
        assert np.mean(resid[:k]) < 0 < np.mean(resid[-k:])

    def test_pairs_are_sorted(self):
        rho = sample(LogNormalParams(0.2, 0.6), 500, 23)
        pairs = qq_data(ReturnSample(rho=rho), LogNormalParams(0.2, 0.6))
        assert np.all(np.diff(pairs[:, 0]) >= 0)
        assert np.all(np.diff(pairs[:, 1]) >= 0)
