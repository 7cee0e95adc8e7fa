"""Geometric Brownian motion: simulation and drift/volatility recovery.

Single-stock paths are simulated with the exact log-increment
discretization, and per-path percentage drift and volatility are recovered
by the closed-form estimator pair

    sigma_hat^2 = (1/T) * (sum_t ln^2(X_t/X_{t-1}) - ln^2(X_T/X_0)/(T-1))
    mu_hat      = (1/T) * ln(X_T/X_0) + sigma_hat^2/2

per unit step, annualized by the step size.  This endpoint-centered
variance estimator goes negative on drift-dominated paths (a
deterministic path gives exactly -g^2/(T-1) per unit step); negative
values are clamped to zero and flagged.  A conventional per-step-demeaned
MLE is available as ``method="mle"``.

The panel builder aggregates per-ticker estimates into the cross-sectional
analysis: skew-normal fit of drifts, gamma fit of volatilities, robust
regression of drift on volatility, and their correlation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .distributions import (
    GammaParams,
    SkewNormalParams,
    fit_gamma,
    fit_skew_normal,
    huber_regression,
    pearson_correlation,
)
from .empirical import write_report
from .errors import FitFailureError, InsufficientDataError, ParameterError

__all__ = [
    "GBMParams",
    "PricePath",
    "GBMEstimate",
    "DriftVolPanel",
    "simulate_gbm",
    "estimate_gbm",
    "build_panel",
    "write_panel_csv",
]

# Paths covering less than this fraction of the panel window are treated as
# delisted and excluded from the cross-sectional fits.
MIN_WINDOW_COVERAGE = 0.8


@dataclass(frozen=True)
class GBMParams:
    """Percentage drift (per year) and volatility (per sqrt year)."""

    mu: float
    sigma: float

    def __post_init__(self):
        if not (math.isfinite(self.mu) and math.isfinite(self.sigma)):
            raise ParameterError("GBM parameters must be finite")
        if self.sigma < 0:
            raise ParameterError(f"sigma must be >= 0, got {self.sigma}")


@dataclass(frozen=True)
class PricePath:
    """Prices at uniform time steps; ``prices[0]`` is the starting price."""

    x0: float
    prices: np.ndarray
    dt: float

    def __post_init__(self):
        arr = np.asarray(self.prices, dtype=float).ravel()
        object.__setattr__(self, "prices", arr)
        if self.dt <= 0 or not math.isfinite(self.dt):
            raise ParameterError(f"dt must be > 0, got {self.dt}")
        if arr.size < 1:
            raise ParameterError("a price path needs at least 1 price")
        if not np.all(np.isfinite(arr)) or np.any(arr <= 0):
            raise ParameterError("prices must be finite and strictly positive")
        if self.x0 <= 0 or arr[0] != self.x0:
            raise ParameterError("prices[0] must equal the positive starting price x0")

    @property
    def steps(self) -> int:
        return int(self.prices.size - 1)

    @property
    def duration(self) -> float:
        return self.steps * self.dt


@dataclass(frozen=True)
class GBMEstimate:
    """Annualized drift/volatility estimates for one path.

    ``sigma_sq_raw`` is the pre-clamp annualized variance; ``clamped`` is
    true exactly when it was negative and sigma_hat was forced to zero.
    """

    mu_hat: float
    sigma_hat: float
    sigma_sq_raw: float
    clamped: bool


@dataclass(frozen=True)
class DriftVolPanel:
    """Cross-sectional drift/volatility analysis of an index's constituents."""

    estimates: tuple[tuple[str, GBMEstimate], ...]
    drift_fit: SkewNormalParams | None
    vol_fit: GammaParams | None
    regression: tuple[float, float, float] | None
    correlation: float | None
    excluded: tuple[str, ...] = ()
    fit_errors: tuple[tuple[str, str], ...] = ()

    @property
    def mu_hats(self) -> np.ndarray:
        return np.array([e.mu_hat for _, e in self.estimates])

    @property
    def sigma_hats(self) -> np.ndarray:
        return np.array([e.sigma_hat for _, e in self.estimates])

    @property
    def clamped_count(self) -> int:
        return sum(1 for _, e in self.estimates if e.clamped)


# ---------------------------------------------------------------------------
# Simulation
# ---------------------------------------------------------------------------

def simulate_gbm(p: GBMParams, x0: float, steps: int, dt: float, seed) -> PricePath:
    """Exact-discretization GBM path: log-increments ~ N((mu - s^2/2)dt, s^2 dt)."""
    if x0 <= 0 or not math.isfinite(x0):
        raise ParameterError(f"x0 must be > 0, got {x0}")
    if steps < 1:
        raise ParameterError(f"steps must be >= 1, got {steps}")
    if dt <= 0:
        raise ParameterError(f"dt must be > 0, got {dt}")
    rng = np.random.default_rng(seed)
    drift = (p.mu - 0.5 * p.sigma * p.sigma) * dt
    shock = p.sigma * math.sqrt(dt)
    increments = drift + shock * rng.standard_normal(steps)
    prices = np.empty(steps + 1)
    prices[0] = x0
    prices[1:] = x0 * np.exp(np.cumsum(increments))
    return PricePath(x0=x0, prices=prices, dt=dt)


# ---------------------------------------------------------------------------
# Estimation
# ---------------------------------------------------------------------------

def estimate_gbm(path: PricePath, method: str = "endpoint") -> GBMEstimate:
    """Recover annualized (mu, sigma) from one path.

    ``method="endpoint"`` uses the estimator pair above (second term built
    from the endpoint log return, divided by T-1), clamping a negative raw
    variance to zero;
    ``method="mle"`` uses the per-step-demeaned variance with divisor T,
    which is nonnegative by construction.  Both report the raw annualized
    variance and feed the clamped value into mu_hat.
    """
    if path.prices.size < 3:
        raise InsufficientDataError("estimate_gbm needs at least 3 prices")
    r = np.diff(np.log(path.prices))
    t_steps = r.size
    total = float(np.sum(r))
    if method == "endpoint":
        raw_step = (float(np.sum(r * r)) - total * total / (t_steps - 1)) / t_steps
    elif method == "mle":
        rbar = total / t_steps
        raw_step = float(np.mean((r - rbar) ** 2))
    else:
        raise ParameterError(f"unknown estimator method {method!r}")

    sigma_sq_raw = raw_step / path.dt
    clamped = sigma_sq_raw < 0.0
    sigma_sq = 0.0 if clamped else sigma_sq_raw
    mu_hat = total / (t_steps * path.dt) + 0.5 * sigma_sq
    return GBMEstimate(
        mu_hat=mu_hat,
        sigma_hat=math.sqrt(sigma_sq),
        sigma_sq_raw=sigma_sq_raw,
        clamped=clamped,
    )


# ---------------------------------------------------------------------------
# Panel analysis
# ---------------------------------------------------------------------------

def build_panel(
    paths: Mapping[str, PricePath],
    method: str = "endpoint",
    min_coverage: float = MIN_WINDOW_COVERAGE,
) -> DriftVolPanel:
    """Estimate every usable path and fit the cross-sectional distributions.

    Paths spanning less than ``min_coverage`` of the longest path's window
    (or too short to estimate) are excluded and listed.  Distribution fits
    that fail are recorded per field and the panel is still returned.
    """
    if not paths:
        raise InsufficientDataError("build_panel needs at least 3 usable paths")
    window = max(path.duration for path in paths.values())
    usable: list[tuple[str, GBMEstimate]] = []
    excluded: list[str] = []
    for ticker in sorted(paths):
        path = paths[ticker]
        if path.prices.size < 3 or path.duration < min_coverage * window:
            excluded.append(ticker)
            continue
        usable.append((ticker, estimate_gbm(path, method=method)))
    if len(usable) < 3:
        raise InsufficientDataError(
            f"build_panel needs at least 3 usable paths, got {len(usable)}"
        )

    mu_hats = np.array([e.mu_hat for _, e in usable])
    sigma_hats = np.array([e.sigma_hat for _, e in usable])
    fits: dict[str, object] = {}
    errors: list[tuple[str, str]] = []
    for name, fit, args in (
        ("drift_fit", fit_skew_normal, (mu_hats,)),
        ("vol_fit", fit_gamma, (sigma_hats,)),
        ("regression", huber_regression, (sigma_hats, mu_hats)),
        ("correlation", pearson_correlation, (mu_hats, sigma_hats)),
    ):
        try:
            fits[name] = fit(*args)
        except (FitFailureError, ParameterError, InsufficientDataError) as exc:
            fits[name] = None
            errors.append((name, str(exc)))

    return DriftVolPanel(
        estimates=tuple(usable),
        **fits,
        excluded=tuple(excluded),
        fit_errors=tuple(errors),
    )


_PANEL_COLUMNS = [
    "mu_mean",
    "mu_std",
    "sn_zeta",
    "sn_omega",
    "sn_alpha",
    "sigma_mean",
    "gamma_shape",
    "gamma_rate",
    "a",
    "b",
    "r2",
    "correlation",
]


def write_panel_csv(panel: DriftVolPanel, destination) -> None:
    """One cross-sectional row plus footer records for exclusions/clamps."""
    drift, vol = panel.drift_fit, panel.vol_fit
    a, b, r2 = panel.regression if panel.regression is not None else (None, None, None)
    row = [
        np.mean(panel.mu_hats),
        np.std(panel.mu_hats),
        drift.zeta if drift else None,
        drift.omega if drift else None,
        drift.alpha if drift else None,
        np.mean(panel.sigma_hats),
        vol.shape if vol else None,
        vol.rate if vol else None,
        a,
        b,
        r2,
        panel.correlation,
    ]
    footer = {
        "tickers_used": len(panel.estimates),
        "excluded_delisted": len(panel.excluded),
        "clamped_estimates": panel.clamped_count,
    }
    footer.update((f"fit_error_{name}", message) for name, message in panel.fit_errors)
    write_report(destination, _PANEL_COLUMNS, [row], footer=footer)
