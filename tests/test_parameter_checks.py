"""Each parameter container, simulator and library-owned option rejects its
out-of-domain inputs with the documented error type and message."""

import datetime as dt
import math

import numpy as np
import pytest

from bigwinners.distributions import (
    AsymmetricLaplaceParams,
    GammaParams,
    LogNormalParams,
    SkewNormalParams,
    lognormal_moments,
    sample,
)
from bigwinners.empirical import ReturnSample, kde_mode_bootstrap_stderr, tail_filter
from bigwinners.errors import DataError, InsufficientDataError, ParameterError
from bigwinners.gbm import GBMParams, PricePath, build_panel, simulate_gbm
from bigwinners.index_model import DriftModelParams, model_ratios, sample_ratio_summary, simulate_index
from bigwinners.lognormal_sum import (exact_typical_mean_ratio, mc_typical_mean, regime_curve, regime_formula_values,
                                      typical_mean_ratio)
from conftest import panel_of_series


def _table(tickers):
    """A price table of ``tickers``, each with the same 4 prices."""
    series = {t: (np.arange(4).astype("datetime64[D]"), np.array([1.0, 1.1, 1.05, 1.2])) for t in tickers}
    return panel_of_series(series, (dt.date(1970, 1, 1), dt.date(1970, 1, 4)))


SPREAD = np.arange(1.0, 11.0)
UNIT = LogNormalParams(0.0, 1.0)
DRIFT = DriftModelParams(0.1, 0.1, 0.1, 16)


CASES = {
    "skew_normal_omega_zero": (lambda: SkewNormalParams(0.0, 0.0, 1.0), ParameterError, "omega must be > 0, got 0.0"),
    "skew_normal_omega_negative": (lambda: SkewNormalParams(0.0, -1.0, 1.0), ParameterError, "omega must be > 0, got -1.0"),
    "laplace_scale": (lambda: AsymmetricLaplaceParams(0.0, 0.0, 1.0), ParameterError, "scale must be > 0, got 0.0"),
    "laplace_asymmetry": (lambda: AsymmetricLaplaceParams(0.0, 1.0, -2.0), ParameterError, "asymmetry must be > 0, got -2.0"),
    "gamma_shape": (lambda: GammaParams(0.0, 1.0), ParameterError, "shape must be > 0, got 0.0"),
    "gamma_rate": (lambda: GammaParams(1.0, -0.5), ParameterError, "rate must be > 0, got -0.5"),
    "lognormal_variance_product": (lambda: lognormal_moments(LogNormalParams(0.0, 20.0)), ParameterError,
                                   "log-normal variance overflows a float at sigma = 20"),
    "gbm_mu_nan": (lambda: GBMParams(math.nan, 0.2), ParameterError, "mu must be finite, got nan"),
    "gbm_sigma_inf": (lambda: GBMParams(0.1, math.inf), ParameterError, "sigma must be finite, got inf"),
    "path_dt_zero": (lambda: PricePath(1.0, np.array([1.0, 2.0]), 0.0), ParameterError, "dt must be > 0, got 0.0"),
    "path_dt_negative": (lambda: PricePath(1.0, np.array([1.0, 2.0]), -1.0), ParameterError, "dt must be > 0, got -1.0"),
    "path_price_zero": (lambda: PricePath(1.0, np.array([1.0, 0.0]), 1.0), ParameterError,
                        "prices must be finite and strictly positive"),
    "path_x0_mismatch": (lambda: PricePath(2.0, np.array([1.0, 2.0]), 1.0), ParameterError,
                         "prices[0] must equal the positive starting price x0"),
    "simulate_gbm_dt": (lambda: simulate_gbm(GBMParams(0.1, 0.2), 1.0, 4, 0.0, 1), ParameterError,
                        "dt must be > 0, got 0.0"),
    "simulate_gbm_dt_inf": (lambda: simulate_gbm(GBMParams(0.1, 0.2), 1.0, 4, math.inf, 1), ParameterError,
                            "dt must be > 0, got inf"),
    "simulate_gbm_dt_nan": (lambda: simulate_gbm(GBMParams(0.1, 0.2), 1.0, 4, math.nan, 1), ParameterError,
                            "dt must be > 0, got nan"),
    "simulate_gbm_fractional_steps": (lambda: simulate_gbm(GBMParams(0.1, 0.2), 1.0, 2.5, 1.0, 1), ParameterError,
                                      "steps must be an integer, got 2.5"),
    "simulate_gbm_nan_steps": (lambda: simulate_gbm(GBMParams(0.1, 0.2), 1.0, math.nan, 1.0, 1), ParameterError,
                               "steps must be an integer, got nan"),
    "sample_fractional_n": (lambda: sample(UNIT, 2.5, 1), ParameterError, "sample size must be an integer, got 2.5"),
    "sample_nan_n": (lambda: sample(UNIT, math.nan, 1), ParameterError, "sample size must be an integer, got nan"),
    "panel_dt_nan": (lambda: build_panel(_table("ABC"), math.nan), ParameterError, "dt must be > 0, got nan"),
    "panel_dt_one_zero": (lambda: build_panel(_table("ABC"), [1.0, 0.0, 1.0]), ParameterError, "dt must be > 0, got 0.0"),
    "panel_dt_length": (lambda: build_panel(_table("ABC"), [1.0, 1.0]), ParameterError,
                        "dt needs one value or one per ticker, got 2 for 3 tickers"),
    "panel_empty": (lambda: build_panel(_table("")), InsufficientDataError,
                    "build_panel needs at least 3 usable paths, got 0"),
    "drift_model_nan": (lambda: DriftModelParams(0.1, 0.1, math.nan, 16), ParameterError,
                        "sigma must be finite, got nan"),
    "drift_model_sigma": (lambda: DriftModelParams(0.1, 0.1, -0.1, 16), ParameterError, "sigma must be >= 0, got -0.1"),
    "drift_model_horizon": (lambda: DriftModelParams(0.1, 0.1, 0.1, 0), ParameterError, "horizon must be > 0, got 0"),
    "model_ratio_overflow": (lambda: model_ratios(DriftModelParams(0.1, 1.0, 0.2, 22)), ParameterError,
                             "mean_over_mode = exp(727.32) overflows a float"),
    "model_ratio_half_overflow_drift": (lambda: model_ratios(DriftModelParams(0, 1e200, 0, 1e200)), ParameterError,
                                        "mean_over_mode = exp(inf) overflows a float"),
    "model_ratio_half_overflow_vol": (lambda: model_ratios(DriftModelParams(0, 0, 1e160, 1e160)), ParameterError,
                                      "mean_over_mode = exp(inf) overflows a float"),
    "sample_rho": (lambda: ReturnSample(np.array([1.0, 0.0])), DataError,
                   "total returns must be finite and strictly positive"),
    "sample_ticker_count": (lambda: ReturnSample(np.array([1.0, 2.0]), tickers=("A",)), DataError,
                            "tickers and returns length mismatch"),
    "sample_duplicate_tickers": (lambda: ReturnSample(np.array([1.0, 2.0]), tickers=("A", "A")), DataError,
                                 "tickers must be unique"),
    "tail_threshold_nan": (lambda: tail_filter(ReturnSample(np.array([1.0, 2.0])), math.nan), ParameterError,
                           "threshold_log must not be NaN"),
    "tail_threshold_inf": (lambda: tail_filter(ReturnSample(np.array([1.0, 2.0])), math.inf), ParameterError,
                           "threshold_log must be below +inf, got inf"),
    "bootstrap_replicates_zero": (lambda: kde_mode_bootstrap_stderr(SPREAD, seed=1, replicates=0), ParameterError,
                                  "replicates must be >= 2, got 0"),
    "bootstrap_replicates_one": (lambda: kde_mode_bootstrap_stderr(SPREAD, seed=1, replicates=1), ParameterError,
                                 "replicates must be >= 2, got 1"),
    "ratio_summary_replicates_zero": (lambda: sample_ratio_summary(ReturnSample(SPREAD), seed=1, replicates=0),
                                      ParameterError, "replicates must be >= 2, got 0"),
    "ratio_summary_replicates_one": (lambda: sample_ratio_summary(ReturnSample(SPREAD), seed=1, replicates=1),
                                     ParameterError, "replicates must be >= 2, got 1"),
    "regime_curve_fractional_n": (lambda: regime_curve(UNIT, [1.5, 2]), ParameterError,
                                  "portfolio size must be an integer, got 1.5"),
    "typical_ratio_fractional_n": (lambda: typical_mean_ratio(UNIT, 2.5), ParameterError,
                                   "portfolio size must be an integer, got 2.5"),
    "typical_ratio_nan_n": (lambda: typical_mean_ratio(UNIT, math.nan), ParameterError,
                            "portfolio size must be an integer, got nan"),
    "formula_values_fractional_n": (lambda: regime_formula_values(UNIT, 2.5), ParameterError,
                                    "portfolio size must be an integer, got 2.5"),
    "exact_ratio_fractional_n": (lambda: exact_typical_mean_ratio(UNIT, 2.5), ParameterError,
                                 "portfolio size must be an integer, got 2.5"),
    "mc_typical_mean_fractional_n": (lambda: mc_typical_mean(UNIT, 2.5, 10_000, 1), ParameterError,
                                     "portfolio size must be an integer, got 2.5"),
    "mc_typical_mean_fractional_reps": (lambda: mc_typical_mean(UNIT, 2, 10_000.5, 1), ParameterError,
                                        "reps must be an integer, got 10000.5"),
    "regime_curve_fractional_reps": (lambda: regime_curve(UNIT, [1, 2], reps=10_000.5), ParameterError,
                                     "reps must be an integer, got 10000.5"),
    "simulate_index_fractional_n": (lambda: simulate_index(DRIFT, 2.5, 1), ParameterError,
                                    "n_stocks must be an integer, got 2.5"),
    "simulate_index_nan_n": (lambda: simulate_index(DRIFT, math.nan, 1), ParameterError,
                             "n_stocks must be an integer, got nan"),
    "simulate_index_np_inf_n": (lambda: simulate_index(DRIFT, np.float64("inf"), 1), ParameterError,
                                "n_stocks must be an integer, got inf"),
    "simulate_index_np_minus_inf_n": (lambda: simulate_index(DRIFT, np.float64("-inf"), 1), ParameterError,
                                      "n_stocks must be an integer, got -inf"),
    "simulate_index_np_float32_inf_n": (lambda: simulate_index(DRIFT, np.float32("inf"), 1), ParameterError,
                                        "n_stocks must be an integer, got inf"),
    "bootstrap_replicates_fractional": (lambda: kde_mode_bootstrap_stderr(SPREAD, seed=1, replicates=2.5),
                                        ParameterError, "replicates must be an integer, got 2.5"),
    "ratio_summary_replicates_fractional": (lambda: sample_ratio_summary(ReturnSample(SPREAD), seed=1, replicates=2.5),
                                            ParameterError, "replicates must be an integer, got 2.5"),
}


@pytest.mark.parametrize("build, error, message", CASES.values(), ids=CASES.keys())
def test_out_of_domain_input_raises(build, error, message):
    with pytest.raises(error) as info:
        build()
    assert type(info.value) is error
    assert str(info.value) == message


INTEGRAL_FLOATS = {
    "sample_size": (lambda n: sample(UNIT, n, 1), 3),
    "simulate_gbm_steps": (lambda steps: simulate_gbm(GBMParams(0.1, 0.2), 1.0, steps, 1.0, 1).prices, 4),
    "simulate_index_n": (lambda n: simulate_index(DRIFT, n, 1).rho, 5),
    "mc_typical_mean_reps": (lambda reps: mc_typical_mean(UNIT, 2, reps, 1), 10_000),
    "regime_curve_reps": (lambda reps: regime_curve(UNIT, [1, 2], reps=reps, seed=1), 10_000),
    "bootstrap_replicates": (lambda k: kde_mode_bootstrap_stderr(SPREAD, seed=1, replicates=k), 2),
    "ratio_summary_replicates": (lambda k: sample_ratio_summary(ReturnSample(SPREAD), seed=1, replicates=k), 2),
}


@pytest.mark.parametrize("call, count", INTEGRAL_FLOATS.values(), ids=INTEGRAL_FLOATS.keys())
def test_integral_float_count_runs_as_its_int(call, count):
    """A count given as an integral float is taken as that integer, as the portfolio size is."""
    np.testing.assert_array_equal(call(float(count)), call(count))
