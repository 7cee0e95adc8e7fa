"""Each parameter container and simulator rejects its out-of-domain inputs
with the documented error type and message."""

import math

import numpy as np
import pytest

from bigwinners.distributions import AsymmetricLaplaceParams, GammaParams, SkewNormalParams
from bigwinners.empirical import ReturnSample
from bigwinners.errors import DataError, ParameterError
from bigwinners.gbm import GBMParams, PricePath, simulate_gbm
from bigwinners.index_model import DriftModelParams

CASES = {
    "skew_normal_omega_zero": (lambda: SkewNormalParams(0.0, 0.0, 1.0), ParameterError, "omega must be > 0, got 0.0"),
    "skew_normal_omega_negative": (lambda: SkewNormalParams(0.0, -1.0, 1.0), ParameterError, "omega must be > 0, got -1.0"),
    "laplace_scale": (lambda: AsymmetricLaplaceParams(0.0, 0.0, 1.0), ParameterError, "scale must be > 0, got 0.0"),
    "laplace_asymmetry": (lambda: AsymmetricLaplaceParams(0.0, 1.0, -2.0), ParameterError, "asymmetry must be > 0, got -2.0"),
    "gamma_shape": (lambda: GammaParams(0.0, 1.0), ParameterError, "shape must be > 0, got 0.0"),
    "gamma_rate": (lambda: GammaParams(1.0, -0.5), ParameterError, "rate must be > 0, got -0.5"),
    "gbm_mu_nan": (lambda: GBMParams(math.nan, 0.2), ParameterError, "GBM parameters must be finite"),
    "gbm_sigma_inf": (lambda: GBMParams(0.1, math.inf), ParameterError, "GBM parameters must be finite"),
    "path_dt_zero": (lambda: PricePath(1.0, np.array([1.0, 2.0]), 0.0), ParameterError, "dt must be > 0, got 0.0"),
    "path_dt_negative": (lambda: PricePath(1.0, np.array([1.0, 2.0]), -1.0), ParameterError, "dt must be > 0, got -1.0"),
    "path_price_zero": (lambda: PricePath(1.0, np.array([1.0, 0.0]), 1.0), ParameterError,
                        "prices must be finite and strictly positive"),
    "path_x0_mismatch": (lambda: PricePath(2.0, np.array([1.0, 2.0]), 1.0), ParameterError,
                         "prices[0] must equal the positive starting price x0"),
    "simulate_gbm_dt": (lambda: simulate_gbm(GBMParams(0.1, 0.2), 1.0, 4, 0.0, 1), ParameterError,
                        "dt must be > 0, got 0.0"),
    "drift_model_nan": (lambda: DriftModelParams(0.1, 0.1, math.nan, 16), ParameterError, "sigma must be finite"),
    "drift_model_sigma": (lambda: DriftModelParams(0.1, 0.1, -0.1, 16), ParameterError, "sigma must be >= 0, got -0.1"),
    "drift_model_horizon": (lambda: DriftModelParams(0.1, 0.1, 0.1, 0), ParameterError, "horizon must be > 0, got 0"),
    "sample_rho": (lambda: ReturnSample(np.array([1.0, 0.0])), DataError,
                   "total returns must be finite and strictly positive"),
    "sample_ticker_count": (lambda: ReturnSample(np.array([1.0, 2.0]), tickers=("A",)), DataError,
                            "tickers and returns length mismatch"),
    "sample_duplicate_tickers": (lambda: ReturnSample(np.array([1.0, 2.0]), tickers=("A", "A")), DataError,
                                 "tickers must be unique"),
}


@pytest.mark.parametrize("build, error, message", CASES.values(), ids=CASES.keys())
def test_out_of_domain_input_raises(build, error, message):
    with pytest.raises(error) as info:
        build()
    assert type(info.value) is error
    assert str(info.value) == message
