import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from bigwinners import index_model
from bigwinners.distributions import fit_lognormal, lognormal_moments
from bigwinners.empirical import ReturnSample, kde_mode
from bigwinners.errors import ParameterError
from bigwinners.index_model import (
    RATIO_CI_LEVEL,
    DriftModelParams,
    _median_within,
    implied_lognormal,
    model_ratios,
    sample_ratio_summary,
    simulate_index,
)

from conftest import bootstrap_se

SPX_LIKE = DriftModelParams(mu_d=0.12, sigma_d=0.03, sigma=0.1, horizon=16)


class TestImpliedLogNormal:
    def test_reference_values(self):
        implied = implied_lognormal(SPX_LIKE)
        assert implied.mu == pytest.approx(1.84, abs=1e-12)
        assert implied.sigma == pytest.approx(math.sqrt(0.3904), rel=1e-12)

    def test_zero_drift_dispersion_reduces_to_gbm(self):
        p = DriftModelParams(0.1, 0.0, 0.25, 9.0)
        implied = implied_lognormal(p)
        assert implied.sigma == pytest.approx(0.25 * 3.0, rel=1e-12)

    def test_short_horizon_limit(self):
        p = DriftModelParams(0.1, 0.05, 0.2, 1e-9)
        implied = implied_lognormal(p)
        assert implied.mu == pytest.approx(0.0, abs=1e-9)
        assert implied.sigma == pytest.approx(0.0, abs=1e-4)

    def test_variance_identity(self):
        p = DriftModelParams(0.07, 0.04, 0.3, 5.0)
        implied = implied_lognormal(p)
        assert implied.sigma**2 == pytest.approx(
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
            m = lognormal_moments(implied)
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
        assert fit.mu == pytest.approx(implied.mu, abs=0.01)
        assert fit.sigma == pytest.approx(implied.sigma, abs=0.01)

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

    def test_rejects_tiny_index(self):
        with pytest.raises(ParameterError):
            simulate_index(SPX_LIKE, 1, seed=1)

    def test_sample_is_pinned_bit_for_bit(self):
        # Any change to the draw order (the drifts, then the shocks) shows here.
        normal = simulate_index(DriftModelParams(0.12, 0.03, 0.1, 16), 4, seed=3)
        assert normal.rho.tolist() == [13.993339430178665, 1.6939141561899496, 3.430455306435833, 4.369714337601376]

    @pytest.mark.parametrize("n, seed", [(2, 0), (5, 1), (64, 7), (1001, 3)])
    def test_zero_drift_scale_is_the_implied_lognormal_law(self, n, seed):
        # sigma_d = 0 is a constant drift mu_d: each return is the implied law
        # applied to the n shocks drawn after the n (unused) drift normals.
        p = DriftModelParams(0.1, 0.0, 0.2, 10)
        implied = implied_lognormal(p)
        shocks = np.random.default_rng(seed).standard_normal(2 * n)[n:]
        rho = simulate_index(p, n, seed=seed).rho
        np.testing.assert_allclose(rho, np.exp(implied.mu + implied.sigma * shocks), rtol=1e-12)

    def test_log_returns_have_the_implied_moments(self):
        p = DriftModelParams(0.06, 0.09, 0.29, 16)
        implied = implied_lognormal(p)
        logs = np.log(simulate_index(p, 400_000, seed=23).rho)
        assert np.mean(logs) == pytest.approx(implied.mu, abs=4 * np.std(logs) / math.sqrt(logs.size))
        assert np.var(logs) == pytest.approx(implied.sigma**2, rel=0.02)

    def test_density_route_matches_sample_route(self):
        # Dual route: closed-form mean, median and mode of the implied law
        # against the summary of a large simulation.  The KDE mode of this
        # broad law is noisy, so its tolerance comes from the estimator's
        # own bootstrap stderr plus a smoothing margin.
        from bigwinners.empirical import kde_mode_bootstrap_stderr

        p = DriftModelParams(0.06, 0.09, 0.29, 16)
        exact = lognormal_moments(implied_lognormal(p))
        sample = simulate_index(p, 400_000, seed=24)
        summary = sample_ratio_summary(sample, seed=25)
        assert summary.mean == pytest.approx(exact.mean, rel=0.02)
        assert summary.median == pytest.approx(exact.median, rel=0.01)
        mode_se = kde_mode_bootstrap_stderr(sample.rho, seed=26)
        assert abs(summary.mode - exact.mode) <= 3 * mode_se + 0.02 * exact.mode
        assert summary.ci_low <= exact.mean / exact.median <= summary.ci_high

    def test_table_params_ratio_reported_with_ci(self):
        sample = simulate_index(DriftModelParams(0.06, 0.09, 0.29, 16), 100_000, seed=26)
        summary = sample_ratio_summary(sample, seed=27)
        assert summary.mean_over_median > 1.0
        assert summary.ci_low < summary.mean_over_median < summary.ci_high
        assert summary.mean_over_mode >= summary.mean_over_median


# ---------------------------------------------------------------------------
# Windowed bootstrap median
# ---------------------------------------------------------------------------

def _bits(x) -> bytes:
    return np.float64(x).tobytes()


# Samples of 5 to 60 values: spread-out floats, or a few values repeated many times.
samples = st.one_of(
    st.lists(st.floats(1e-3, 1e3), min_size=5, max_size=60),
    st.lists(st.sampled_from([0.25, 1.0, 1.5, 7.0]), min_size=5, max_size=60),
)


class TestWindowedMedian:
    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(values=samples, seed=st.integers(0, 2**32 - 1), data=st.data())
    @example(values=[3.0, 1.0, 2.0, 5.0, 4.0], seed=0, data=None)
    @example(values=[2.0] * 6 + [1.0] * 5, seed=1, data=None)
    def test_equals_np_median_bit_for_bit(self, values, seed, data):
        """Any window of sample values, with the middle ranks inside it or not."""
        rho = np.array(values)
        srt = np.sort(rho)
        boot = rho[np.random.default_rng(seed).integers(0, rho.size, size=rho.size)]
        if data is None:
            i, j = 0, rho.size - 1
        else:
            i = data.draw(st.integers(0, rho.size - 1))
            j = data.draw(st.integers(i, rho.size - 1))
        assert _bits(_median_within(boot, srt[i], srt[j])) == _bits(np.median(boot))

    @pytest.mark.parametrize("n", [5, 6, 1001, 1002])
    def test_sample_window_holds_the_median(self, n):
        rho = np.random.default_rng(n).lognormal(0.0, 1.0, n)
        srt = np.sort(rho)
        half, width = n // 2, math.ceil(8.0 * math.sqrt(n))
        lo, hi = srt[max(half - width, 0)], srt[min(half + width, n - 1)]
        rng = np.random.default_rng(0)
        for _ in range(50):
            boot = rho[rng.integers(0, n, size=n)]
            assert _bits(_median_within(boot, lo, hi)) == _bits(np.median(boot))

    @pytest.mark.parametrize("window", [(7.0, 9.0), (0.0, 1.0), (4.0, 4.0)], ids=["above", "below", "one-value"])
    def test_middle_rank_outside_the_window_falls_back(self, window):
        # Middle ranks 4 and 5 hold 4.0 and 5.0; no window here contains both.
        boot = np.array([9.0, 1.0, 8.0, 2.0, 7.0, 3.0, 6.0, 4.0, 5.0, 0.5])
        assert _bits(_median_within(boot, *window)) == _bits(np.median(boot)) == _bits(4.5)

    def test_heavy_ties_inside_the_window(self):
        boot = np.array([1.0, 2.0, 2.0, 2.0, 2.0, 2.0, 3.0, 9.0])
        assert _median_within(boot, 2.0, 2.0) == np.median(boot) == 2.0


def _reference_ratios(rho, seed, replicates=200):
    """The bootstrap of mean/median with ``np.median`` on every replicate."""
    rng = np.random.default_rng(seed)
    ratios = np.empty(replicates)
    for i in range(replicates):
        boot = rho[rng.integers(0, rho.size, size=rho.size)]
        ratios[i] = np.mean(boot) / np.median(boot)
    return ratios


@pytest.mark.parametrize("n", [5, 6, 999, 20_000])
def test_sample_ratio_summary_matches_the_np_median_bootstrap(n):
    rho = simulate_index(SPX_LIKE, n, seed=n).rho
    summary = sample_ratio_summary(ReturnSample(rho=rho), seed=n + 1)
    ratios = _reference_ratios(rho, n + 1)
    tail = 0.5 * (1.0 - RATIO_CI_LEVEL)
    lo, hi = np.quantile(ratios, [tail, 1.0 - tail])
    assert (summary.ci_low, summary.ci_high, summary.stderr) == (lo, hi, np.std(ratios, ddof=1))


@pytest.mark.parametrize("replicates", [2, 200])
def test_sample_ratio_summary_is_the_same_for_any_thread_count(monkeypatch, replicates):
    sample = simulate_index(SPX_LIKE, 999, seed=3)
    summaries = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, so out-of-turn draws would show
    try:
        for threads in (1, 2, 4):
            monkeypatch.setattr(index_model.os, "cpu_count", lambda: threads)
            summaries.append(sample_ratio_summary(sample, seed=4, replicates=replicates))
    finally:
        sys.setswitchinterval(interval)
    for summary in summaries[1:]:
        for name in summary.__dataclass_fields__:
            assert getattr(summary, name) == getattr(summaries[0], name), name


def test_sample_ratio_summary_resample_mean_overflow_is_a_parameter_error():
    # The sample's mean is finite; a resample that draws 1e308 twice overflows.
    sample = ReturnSample(rho=[1e308] + [1 + 0.001 * i for i in range(299)])
    with pytest.raises(ParameterError, match="the mean of a bootstrap resample overflows a float"):
        sample_ratio_summary(sample, seed=1)


def test_sample_ratio_summary_raises_a_worker_exception(monkeypatch):
    calls = []
    lock = threading.Lock()

    def failing(boot, lo, hi):
        with lock:
            calls.append(None)
            if len(calls) == 3:
                raise RuntimeError("third replicate")
        return _median_within(boot, lo, hi)

    monkeypatch.setattr(index_model, "_median_within", failing)
    before = threading.active_count()
    with pytest.raises(RuntimeError, match="third replicate"):
        sample_ratio_summary(simulate_index(SPX_LIKE, 999, seed=5), seed=6)
    assert threading.active_count() == before
