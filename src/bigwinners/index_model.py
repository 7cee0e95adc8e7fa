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

from .distributions import GammaParams, LogNormalParams, SkewNormalParams, law, sample as draw
from .empirical import ReturnSample, kde_mode
from .errors import ParameterError

__all__ = [
    "DriftModelParams",
    "ImpliedLogNormal",
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
        for name in ("mu_d", "sigma_d", "sigma", "horizon"):
            if not math.isfinite(getattr(self, name)):
                raise ParameterError(f"{name} must be finite")
        if self.sigma_d < 0:
            raise ParameterError(f"sigma_d must be >= 0, got {self.sigma_d}")
        if self.sigma < 0:
            raise ParameterError(f"sigma must be >= 0, got {self.sigma}")
        if self.horizon <= 0:
            raise ParameterError(f"horizon must be > 0, got {self.horizon}")


@dataclass(frozen=True)
class ImpliedLogNormal:
    """Log-normal law of the cross-sectional total return."""

    mu_m: float
    sigma_m: float

    def as_params(self) -> LogNormalParams:
        return LogNormalParams(mu=self.mu_m, sigma=self.sigma_m)


@dataclass(frozen=True)
class UnderperformanceRatios:
    """How far the median stock and the typical stock trail the index mean."""

    mean_over_median: float
    mean_over_mode: float


def implied_lognormal(p: DriftModelParams) -> ImpliedLogNormal:
    """mu_m = mu_d*T - sigma^2*T/2, sigma_m^2 = sigma^2*T + sigma_d^2*T^2."""
    t = p.horizon
    mu_m = p.mu_d * t - 0.5 * p.sigma * p.sigma * t
    sigma_m = math.sqrt(p.sigma * p.sigma * t + p.sigma_d * p.sigma_d * t * t)
    return ImpliedLogNormal(mu_m=mu_m, sigma_m=sigma_m)


def model_ratios(p: DriftModelParams) -> UnderperformanceRatios:
    """Closed-form mean/median and mean/mode of the implied log-normal law.

    mean/median = exp(sigma^2 T/2 + sigma_d^2 T^2/2) and mean/mode is its
    cube, since for a log-normal law mode = median * exp(-sigma_m^2).
    """
    t = p.horizon
    half = 0.5 * (p.sigma * p.sigma * t + p.sigma_d * p.sigma_d * t * t)
    return UnderperformanceRatios(
        mean_over_median=math.exp(half),
        mean_over_mode=math.exp(3.0 * half),
    )


# ---------------------------------------------------------------------------
# Simulation
# ---------------------------------------------------------------------------

def _terminal_returns(
    drifts: np.ndarray,
    sigma,
    horizon: float,
    rng: np.random.Generator,
) -> np.ndarray:
    # Exact GBM solution per stock; covariance between stocks is neglected.
    shocks = rng.standard_normal(drifts.size)
    log_rho = (drifts - 0.5 * np.square(sigma)) * horizon + sigma * math.sqrt(horizon) * shocks
    return np.exp(log_rho)


def _simulate(
    p: DriftModelParams,
    drift: SkewNormalParams | None,
    n_stocks: int,
    seed,
    volatility: GammaParams | None,
) -> ReturnSample:
    # Drifts are Normal(mu_d, sigma_d) unless ``drift`` gives their law.
    if n_stocks < 2:
        raise ParameterError(f"n_stocks must be >= 2, got {n_stocks}")
    rng = np.random.default_rng(seed)
    drifts = p.mu_d + p.sigma_d * rng.standard_normal(n_stocks) if drift is None else draw(drift, n_stocks, rng)
    sigma = draw(volatility, n_stocks, rng) if volatility is not None else p.sigma
    return ReturnSample(rho=_terminal_returns(drifts, sigma, p.horizon, rng))


def simulate_index(
    p: DriftModelParams,
    n_stocks: int,
    seed,
    volatility: GammaParams | None = None,
) -> ReturnSample:
    """Terminal total returns of ``n_stocks`` independent constituents.

    Drifts are drawn Normal(mu_d, sigma_d) and each terminal return uses
    the exact GBM solution.  ``volatility`` is experimental: when given,
    each stock's volatility is an independent gamma draw instead of the
    constant ``p.sigma`` (no closed-form oracle applies then).
    """
    return _simulate(p, None, n_stocks, seed, volatility)


def implied_log_skew_normal(
    zeta: float, omega: float, alpha: float, sigma: float, horizon: float
) -> SkewNormalParams:
    """Skew-normal law of ln rho when the drift is SN(zeta, omega, alpha).

    ln rho = (D*T - sigma^2*T/2) + sigma*sqrt(T)*Z with D skew-normal; the
    sum of a skew-normal and an independent normal stays skew-normal with
    scale sqrt(omega^2 T^2 + sigma^2 T) and a shape shrunk accordingly.
    """
    drift = SkewNormalParams(zeta=zeta, omega=omega, alpha=alpha)
    DriftModelParams(mu_d=zeta, sigma_d=omega, sigma=sigma, horizon=horizon)  # checks sigma and horizon
    loc = zeta * horizon - 0.5 * sigma * sigma * horizon
    w = omega * horizon
    tau_sq = sigma * sigma * horizon
    scale = math.sqrt(w * w + tau_sq)
    delta_bar = w * drift.delta / scale
    alpha_bar = delta_bar / math.sqrt(max(1.0 - delta_bar * delta_bar, 1e-300))
    return SkewNormalParams(zeta=loc, omega=scale, alpha=alpha_bar)


def simulate_index_skew_drift(
    zeta: float,
    omega: float,
    alpha: float,
    sigma: float,
    horizon: float,
    n_stocks: int,
    seed,
    volatility: GammaParams | None = None,
) -> ReturnSample:
    """``simulate_index`` with skew-normal drift SN(zeta, omega, alpha).

    The cross-section is log-skew-normal; its mode and median have no
    closed form, so summarize the returned sample (``sample_ratio_summary``)
    or evaluate the implied density numerically (``log_skew_normal_mode``).
    The drift's location and scale stand in for ``DriftModelParams``'
    mu_d and sigma_d, so both laws check their own parameters.
    """
    drift = SkewNormalParams(zeta=zeta, omega=omega, alpha=alpha)
    p = DriftModelParams(mu_d=zeta, sigma_d=omega, sigma=sigma, horizon=horizon)
    return _simulate(p, drift, n_stocks, seed, volatility)


# ---------------------------------------------------------------------------
# Log-skew-normal statistics (numeric where transcendental)
# ---------------------------------------------------------------------------

GOLDEN_TOL = 1e-8


def log_skew_normal_mode(sn: SkewNormalParams) -> float:
    """Mode of exp(Y) for skew-normal Y, by golden-section search.

    The log-density of exp(Y) at x = e^t is log f_Y(t) - t up to a
    constant; f_Y is log-concave, so the tilted objective has a single
    maximum, bracketed by a coarse grid and polished by golden section.
    """
    logpdf = law(sn).logpdf

    def neg_tilted(t: float) -> float:
        return -(logpdf(t) - t)

    lo = sn.zeta - sn.omega * sn.omega - 20.0 * sn.omega
    hi = sn.zeta + 20.0 * sn.omega
    grid = np.linspace(lo, hi, 512)
    values = logpdf(grid) - grid
    k = int(np.argmax(values))
    k = min(max(k, 1), grid.size - 2)
    res = scipy.optimize.minimize_scalar(
        neg_tilted,
        bracket=(grid[k - 1], grid[k], grid[k + 1]),
        method="golden",
        options={"xtol": GOLDEN_TOL},
    )
    return math.exp(float(res.x))


def log_skew_normal_mean(sn: SkewNormalParams) -> float:
    """E[exp(Y)] = 2 exp(zeta + omega^2/2) Phi(delta * omega), exactly."""
    return 2.0 * math.exp(sn.zeta + 0.5 * sn.omega * sn.omega) * float(
        scipy.special.ndtr(sn.delta * sn.omega)
    )


def log_skew_normal_median(sn: SkewNormalParams) -> float:
    """exp of the skew-normal median (numeric quantile)."""
    return math.exp(float(law(sn).ppf(0.5)))


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


def sample_ratio_summary(sample: ReturnSample, seed, replicates: int = 200) -> SampleRatios:
    """Mean/median/mode ratios with a RATIO_CI_LEVEL percentile-bootstrap CI on mean/median."""
    rho = sample.rho
    if rho.size < 5:
        raise ParameterError("sample_ratio_summary needs at least 5 returns")
    mean = float(np.mean(rho))
    median = float(np.median(rho))
    mode = kde_mode(rho).mode

    rng = np.random.default_rng(seed)
    ratios = np.empty(replicates)
    for i in range(replicates):
        boot = rho[rng.integers(0, rho.size, size=rho.size)]
        ratios[i] = np.mean(boot) / np.median(boot)
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
