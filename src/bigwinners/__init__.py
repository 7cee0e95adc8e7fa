"""Statistics of extreme-return stocks in passive versus active portfolios.

Closed-form log-normal statistics, finite-sample-mean regime formulas,
geometric Brownian motion parameter estimation, a distributed-drift index
model and an empirical replication pipeline over price CSVs.

Every command runs ``distributions`` and ``empirical``, so their names are
imported here.  A module that only one command runs is lazy: ``gbm``
(``gbm``), ``index_model`` (``model``) and ``lognormal_sum`` (``regime``) sit
in ``sys.modules`` through ``importlib.util.LazyLoader`` and run on their
first attribute access, so a launch does not compile or run the other
commands' modules.  Their names are served by the module ``__getattr__``
below.  Before Python 3.13 two threads that first touch an unloaded lazy
module at once can both run it, so first use stays on the calling thread
(the CLI imports each inside the command that runs it).
"""

import importlib.util
import sys

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

_LAZY = {
    "gbm": ("DriftVolPanel", "GBMEstimate", "GBMParams", "PricePath", "build_panel", "estimate_gbm", "simulate_gbm"),
    "index_model": ("DriftModelParams", "UnderperformanceRatios", "implied_lognormal", "model_ratios",
                    "simulate_index"),
    "lognormal_sum": ("classify_regime", "exact_typical_mean_ratio", "mc_typical_mean", "regime_curve",
                      "typical_mean_ratio"),
}
_OWNER = {name: module for module, names in _LAZY.items() for name in names}


def _lazy(short: str):
    """Register submodule ``short`` in ``sys.modules`` unrun; it runs on first attribute access."""
    spec = importlib.util.find_spec(f"{__name__}.{short}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


gbm, index_model, lognormal_sum = (_lazy(short) for short in _LAZY)


def __getattr__(name: str):
    """A lazy module's re-exported ``name``, read from (and so running) that module."""
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[_OWNER[name]], name)
