"""Analytically solvable index model with distributed drift.

Each constituent follows a GBM with common volatility and a normal drift
drawn per stock.  The cross-section of total returns is then exactly
log-normal, giving closed forms for the mean/median and mean/mode
under-performance ratios.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from .distributions import LOG_FLOAT_MAX, LogNormalParams, _check_count, _check_domain
from .empirical import ReturnSample, _finite_mean, kde_mode
from .errors import ParameterError

__all__ = [
    "DriftModelParams",
    "UnderperformanceRatios",
    "SampleRatios",
    "implied_lognormal",
    "model_ratios",
    "simulate_index",
    "sample_ratio_summary",
]


@dataclass(frozen=True)
class DriftModelParams:
    """Mean drift, drift dispersion, common volatility and horizon (years)."""

    mu_d: float
    sigma_d: float
    sigma: float
    horizon: float

    def __post_init__(self):
        _check_domain(self, ("mu_d", "sigma_d", "sigma", "horizon"), nonnegative=("sigma_d", "sigma"),
                      positive=("horizon",))


@dataclass(frozen=True)
class UnderperformanceRatios:
    """How far the median stock and the typical stock trail the index mean."""

    mean_over_median: float
    mean_over_mode: float


def implied_lognormal(p: DriftModelParams) -> LogNormalParams:
    """Log-normal law of the cross-sectional total return:
    mu_m = mu_d*T - sigma^2*T/2, sigma_m^2 = sigma^2*T + sigma_d^2*T^2."""
    t = p.horizon
    mu_m = p.mu_d * t - 0.5 * p.sigma * p.sigma * t
    sigma_m = math.sqrt(p.sigma * p.sigma * t + p.sigma_d * p.sigma_d * t * t)
    return LogNormalParams(mu=mu_m, sigma=sigma_m)


def model_ratios(p: DriftModelParams) -> UnderperformanceRatios:
    """Closed-form mean/median and mean/mode of the implied log-normal law.

    mean/median = exp(sigma^2 T/2 + sigma_d^2 T^2/2) and mean/mode is its
    cube, since for a log-normal law mode = median * exp(-sigma_m^2).
    """
    t = p.horizon
    half = 0.5 * (p.sigma * p.sigma * t + p.sigma_d * p.sigma_d * t * t)
    if 3.0 * half > LOG_FLOAT_MAX:  # the cube overflows first
        raise ParameterError(f"mean_over_mode = exp({3.0 * half:.6g}) overflows a float")
    return UnderperformanceRatios(mean_over_median=math.exp(half), mean_over_mode=math.exp(3.0 * half))


# ---------------------------------------------------------------------------
# Simulation
# ---------------------------------------------------------------------------

def simulate_index(p: DriftModelParams, n_stocks: int, seed) -> ReturnSample:
    """Terminal total returns of ``n_stocks`` independent constituents.

    Drifts are drawn Normal(mu_d, sigma_d), then each terminal return uses
    the exact GBM solution with the common volatility ``p.sigma``;
    covariance between stocks is neglected.
    """
    n_stocks = _check_count(n_stocks, "n_stocks", 2)
    rng = np.random.default_rng(seed)
    drifts = p.mu_d + p.sigma_d * rng.standard_normal(n_stocks)
    shocks = rng.standard_normal(n_stocks)
    log_rho = (drifts - 0.5 * p.sigma * p.sigma) * p.horizon + p.sigma * math.sqrt(p.horizon) * shocks
    if (peak := float(np.max(log_rho))) > LOG_FLOAT_MAX:
        raise ParameterError(f"simulated total return exp({peak:.6g}) overflows a float")
    return ReturnSample(rho=np.exp(log_rho))


# ---------------------------------------------------------------------------
# Sample-based ratio summary
# ---------------------------------------------------------------------------

# Two-sided level of the bootstrap CI on mean/median.
RATIO_CI_LEVEL = 0.99


@dataclass(frozen=True)
class SampleRatios:
    """Mean/median/mode ratios of a return sample with a bootstrap CI.

    ``ci_low``/``ci_high`` bound mean_over_median at RATIO_CI_LEVEL;
    ``stderr`` is the bootstrap standard error of that ratio.
    """

    mean: float
    median: float
    mode: float
    mean_over_median: float
    mean_over_mode: float
    ci_low: float
    ci_high: float
    stderr: float


def _median_within(boot: np.ndarray, lo: float, hi: float) -> np.float64:
    """``np.median(boot)``, bit for bit, read from the values of ``boot`` in [lo, hi].

    Counts the values below ``lo`` and partitions only those in the window
    at the middle rank (or the two middle ranks, averaged by ``np.mean`` as
    ``np.median`` does).  Falls back to ``np.median`` when a middle rank
    lies outside the window.
    """
    below = np.count_nonzero(boot < lo)
    inside = boot[(boot >= lo) & (boot <= hi)]
    half = boot.size // 2
    ranks = [half - below] if boot.size % 2 else [half - 1 - below, half - below]
    if ranks[0] < 0 or ranks[-1] >= inside.size:
        return np.median(boot)
    return np.mean(np.partition(inside, ranks)[ranks[0] : ranks[-1] + 1])


def sample_ratio_summary(sample: ReturnSample, seed, replicates: int = 200) -> SampleRatios:
    """Mean/median/mode ratios with a RATIO_CI_LEVEL percentile-bootstrap CI on mean/median.

    A replicate's median almost surely lies within 8 sqrt(n) ranks of the
    sample's, so each is read from that window of values (``_median_within``).
    The replicates run on up to ``os.cpu_count()`` threads, one pool task
    each.  A task takes its replicate number and its resample indices under
    one lock, so replicate i is the i-th draw of the one generator and the
    result is the same bit for bit whatever the thread count.
    """
    replicates = _check_count(replicates, "replicates", 2)  # a standard error (ddof=1) needs two
    rho = sample.rho
    mode = kde_mode(rho).mode  # first, for its check of the sample size
    mean = _finite_mean(rho)
    median = float(np.median(rho))

    half, width = rho.size // 2, math.ceil(8.0 * math.sqrt(rho.size))
    bounds = [max(half - width, 0), min(half + width, rho.size - 1)]
    window = np.partition(rho, bounds)[bounds]
    rng = np.random.default_rng(seed)
    ratios = np.empty(replicates)
    order = iter(range(replicates))
    lock = threading.Lock()

    def replicate(_):
        with lock:
            i = next(order)
            idx = rng.integers(0, rho.size, size=rho.size)
        boot = rho[idx]
        with np.errstate(over="ignore"):  # per thread; an overflowing mean is caught after the pool
            ratios[i] = np.mean(boot) / _median_within(boot, *window)

    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=min(replicates, os.cpu_count() or 1)) as pool:
        list(pool.map(replicate, range(replicates)))
    if not np.isfinite(ratios).all():
        raise ParameterError("the mean of a bootstrap resample overflows a float")
    tail = 0.5 * (1.0 - RATIO_CI_LEVEL)
    lo, hi = np.quantile(ratios, [tail, 1.0 - tail])
    return SampleRatios(
        mean=mean,
        median=median,
        mode=mode,
        mean_over_median=mean / median,
        mean_over_mode=mean / mode,
        ci_low=float(lo),
        ci_high=float(hi),
        stderr=float(np.std(ratios, ddof=1)),
    )
