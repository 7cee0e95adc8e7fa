"""Analytically solvable index model with distributed drift.

Each constituent follows a GBM with common volatility and a drift drawn
per stock.  With normal drift the cross-section of total returns is exactly
log-normal, giving closed forms for the mean/median and mean/mode
under-performance ratios; with skew-normal drift the cross-section is
log-skew-normal, whose mode and median are only available numerically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy

from .distributions import (LOG_FLOAT_MAX, LogNormalParams, SkewNormalParams, _check_domain, lognormal_mean,
                            sample as draw)
from .empirical import ReturnSample, _fminbound, kde_mode
from .errors import ParameterError

__all__ = [
    "DriftModelParams",
    "UnderperformanceRatios",
    "SampleRatios",
    "implied_lognormal",
    "model_ratios",
    "simulate_index",
    "implied_log_skew_normal",
    "simulate_index_skew_drift",
    "log_skew_normal_mode",
    "log_skew_normal_mean",
    "log_skew_normal_median",
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

def _terminal_returns(drifts: np.ndarray, p: DriftModelParams, rng: np.random.Generator) -> ReturnSample:
    # Exact GBM solution per stock; covariance between stocks is neglected.
    shocks = rng.standard_normal(drifts.size)
    log_rho = (drifts - 0.5 * p.sigma * p.sigma) * p.horizon + p.sigma * math.sqrt(p.horizon) * shocks
    return ReturnSample(rho=np.exp(log_rho))


def _generator(n_stocks: int, seed) -> np.random.Generator:
    if n_stocks < 2:
        raise ParameterError(f"n_stocks must be >= 2, got {n_stocks}")
    return np.random.default_rng(seed)


def simulate_index(p: DriftModelParams, n_stocks: int, seed) -> ReturnSample:
    """Terminal total returns of ``n_stocks`` independent constituents.

    Drifts are drawn Normal(mu_d, sigma_d), then each terminal return uses
    the exact GBM solution with the common volatility ``p.sigma``.
    """
    rng = _generator(n_stocks, seed)
    return _terminal_returns(p.mu_d + p.sigma_d * rng.standard_normal(n_stocks), p, rng)


def implied_log_skew_normal(p: DriftModelParams, alpha: float) -> SkewNormalParams:
    """Skew-normal law of ln rho when the drift is D = mu_d + sigma_d * SN(0, 1, alpha).

    Here mu_d and sigma_d are the drift's skew-normal location and scale,
    not its mean and spread.  ln rho = (D*T - sigma^2*T/2) + sigma*sqrt(T)*Z;
    the sum of a skew-normal and an independent normal stays skew-normal
    with scale sqrt(sigma_d^2 T^2 + sigma^2 T) and a shape shrunk
    accordingly.  At sigma_d = 0 it is ``implied_lognormal(p)`` with alpha = 0.
    """
    loc = p.mu_d * p.horizon - 0.5 * p.sigma * p.sigma * p.horizon
    w = p.sigma_d * p.horizon
    scale = math.sqrt(w * w + p.sigma * p.sigma * p.horizon)
    if scale == 0.0:
        raise ParameterError("the skew-drift model needs sigma > 0 or sigma_d > 0")
    delta_bar = w * SkewNormalParams(zeta=0.0, omega=1.0, alpha=alpha).delta / scale
    alpha_bar = delta_bar / math.sqrt(max(1.0 - delta_bar * delta_bar, 1e-300))
    return SkewNormalParams(zeta=loc, omega=scale, alpha=alpha_bar)


def simulate_index_skew_drift(p: DriftModelParams, alpha: float, n_stocks: int, seed) -> ReturnSample:
    """``simulate_index`` with skew-normal drift mu_d + sigma_d * SN(0, 1, alpha).

    Here mu_d and sigma_d are the drift's skew-normal location and scale,
    not its mean and spread.  The cross-section is log-skew-normal; its mode
    and median have no closed form, so summarize the returned sample
    (``sample_ratio_summary``) or evaluate the implied density numerically
    (``log_skew_normal_mode``).
    """
    rng = _generator(n_stocks, seed)
    shape = draw(SkewNormalParams(zeta=0.0, omega=1.0, alpha=alpha), n_stocks, rng)
    return _terminal_returns(p.mu_d + p.sigma_d * shape, p, rng)


# ---------------------------------------------------------------------------
# Log-skew-normal statistics (numeric where transcendental)
# ---------------------------------------------------------------------------

def log_skew_normal_mode(sn: SkewNormalParams) -> float:
    """Mode of exp(Y) for skew-normal Y, by bounded Brent search.

    The log-density of exp(Y) at x = e^t is log f_Y(t) - t up to a
    constant; f_Y is log-concave, so the tilted objective has a single
    maximum, bracketed by a coarse grid and polished by ``_fminbound``
    between the winner's neighbours (the winner itself if that fails).
    """
    logpdf = scipy.stats.skewnorm(sn.alpha, loc=sn.zeta, scale=sn.omega).logpdf
    lo = sn.zeta - sn.omega * sn.omega - 20.0 * sn.omega
    hi = sn.zeta + 20.0 * sn.omega
    grid = np.linspace(lo, hi, 512)
    k = min(max(int(np.argmax(logpdf(grid) - grid)), 1), grid.size - 2)
    x, success = _fminbound(lambda t: float(t - logpdf(t)), grid[k - 1], grid[k + 1], xatol=1e-10)
    return math.exp(float(x) if success else float(grid[k]))


def log_skew_normal_mean(sn: SkewNormalParams) -> float:
    """E[exp(Y)] = 2 exp(zeta + omega^2/2) Phi(delta * omega), exactly."""
    return 2.0 * lognormal_mean(LogNormalParams(sn.zeta, sn.omega)) * float(scipy.special.ndtr(sn.delta * sn.omega))


def log_skew_normal_median(sn: SkewNormalParams) -> float:
    """exp of the skew-normal median (numeric quantile)."""
    return math.exp(float(scipy.stats.skewnorm(sn.alpha, loc=sn.zeta, scale=sn.omega).ppf(0.5)))


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
    """
    rho = sample.rho
    if rho.size < 5:
        raise ParameterError("sample_ratio_summary needs at least 5 returns")
    mean = float(np.mean(rho))
    median = float(np.median(rho))
    mode = kde_mode(rho).mode

    srt = np.sort(rho)
    half, width = rho.size // 2, math.ceil(8.0 * math.sqrt(rho.size))
    window = srt[max(half - width, 0)], srt[min(half + width, rho.size - 1)]
    rng = np.random.default_rng(seed)
    ratios = np.empty(replicates)
    for i in range(replicates):
        boot = rho[rng.integers(0, rho.size, size=rho.size)]
        ratios[i] = np.mean(boot) / _median_within(boot, *window)
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
