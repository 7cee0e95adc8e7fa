"""Statistics of extreme-return stocks in passive versus active portfolios.

Closed-form log-normal statistics, finite-sample-mean regime formulas,
geometric Brownian motion parameter estimation, a distributed-drift index
model and an empirical replication pipeline over price CSVs.
"""

__version__ = "0.1.0"

from .distributions import (
    AsymmetricLaplaceParams,
    GammaParams,
    LogNormalParams,
    MomentSummary,
    SkewNormalParams,
    fit_asymmetric_laplace,
    fit_gamma,
    fit_lognormal,
    fit_skew_normal,
    huber_regression,
    lognormal_moments,
    pearson_correlation,
    sample,
)
from .empirical import (
    IndexSummary,
    KDEModeResult,
    PricePanel,
    ReturnSample,
    fit_macroscopic,
    kde_mode,
    load_panel,
    qq_data,
    summarize_index,
    tail_filter,
    top_contribution,
    total_returns,
)
from .gbm import DriftVolPanel, GBMEstimate, GBMParams, PricePath, build_panel, estimate_gbm, simulate_gbm
from .index_model import (
    DriftModelParams,
    UnderperformanceRatios,
    implied_lognormal,
    model_ratios,
    simulate_index,
)
from .lognormal_sum import (
    classify_regime,
    exact_typical_mean_ratio,
    mc_typical_mean,
    regime_curve,
    typical_mean_ratio,
)
