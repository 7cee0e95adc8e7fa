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
import sys
from dataclasses import dataclass
from itertools import compress

import numpy as np

from .distributions import (
    GammaParams,
    SkewNormalParams,
    _check_count,
    _check_domain,
    fit_gamma,
    fit_skew_normal,
    huber_regression,
    pearson_correlation,
)
from .empirical import PricePanel, write_report
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
        _check_domain(self, ("mu", "sigma"), nonnegative=("sigma",))


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
    """Cross-sectional drift/volatility analysis of an index's constituents.

    The estimates are one array per ``GBMEstimate`` field, in ``tickers``
    order (the usable tickers, sorted).
    """

    tickers: tuple[str, ...]
    mu_hats: np.ndarray
    sigma_hats: np.ndarray
    sigma_sq_raw: np.ndarray
    clamped: np.ndarray
    drift_fit: SkewNormalParams | None
    vol_fit: GammaParams | None
    regression: tuple[float, float, float] | None
    correlation: float | None
    excluded: tuple[str, ...] = ()
    fit_errors: tuple[tuple[str, str], ...] = ()


# ---------------------------------------------------------------------------
# Simulation
# ---------------------------------------------------------------------------

def simulate_gbm(p: GBMParams, x0: float, steps: int, dt: float, seed) -> PricePath:
    """Exact-discretization GBM path: log-increments ~ N((mu - s^2/2)dt, s^2 dt)."""
    if x0 <= 0 or not math.isfinite(x0):
        raise ParameterError(f"x0 must be > 0, got {x0}")
    steps = _check_count(steps, "steps", 1)
    if not 0 < dt < math.inf:
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
    columns = _estimates(path.prices, np.array([path.prices.size]), path.dt, method)
    return GBMEstimate(*(column[0].item() for column in columns))


def _estimates(prices: np.ndarray, sizes: np.ndarray, dt, method: str) -> tuple[np.ndarray, ...]:
    """``estimate_gbm`` of every path in one pass, as the columns ``mu_hat``,
    ``sigma_hat``, ``sigma_sq_raw`` and ``clamped``: the paths, each of at least
    3 prices, are laid end to end in ``prices``, with ``sizes`` and steps ``dt``.

    The log returns of all paths of one length are gathered as the rows of
    one 2-D array and summed along the rows, in numpy's pairwise order, so
    each sum equals ``np.sum`` of that path's returns bit for bit.
    """
    if method not in ("endpoint", "mle"):
        raise ParameterError(f"unknown estimator method {method!r}")
    starts = np.cumsum(sizes) - sizes
    r = np.diff(np.log(prices))
    steps = sizes - 1
    total, raw_step = np.empty(sizes.size), np.empty(sizes.size)
    for t in np.unique(steps):
        rows = np.flatnonzero(steps == t)
        block = r[starts[rows, None] + np.arange(t)]
        total[rows] = sums = block.sum(axis=1)
        if method == "endpoint":
            raw_step[rows] = ((block * block).sum(axis=1) - sums * sums / (t - 1)) / t
        else:
            raw_step[rows] = np.var(block, axis=1)
    sigma_sq_raw = raw_step / dt
    clamped = sigma_sq_raw < 0.0
    sigma_sq = np.where(clamped, 0.0, sigma_sq_raw)
    mu_hat = total / (steps * dt) + 0.5 * sigma_sq
    return mu_hat, np.sqrt(sigma_sq), sigma_sq_raw, clamped


# ---------------------------------------------------------------------------
# Panel analysis
# ---------------------------------------------------------------------------

def build_panel(panel: PricePanel, dt=1.0, method: str = "endpoint") -> DriftVolPanel:
    """Estimate every usable path of ``panel`` (a ``load_panel`` table, or one laid out
    the same way) at step ``dt`` (one float, or one per ticker) and fit the
    cross-sectional distributions.

    Paths spanning less than ``MIN_WINDOW_COVERAGE`` of the longest path's window
    (or too short to estimate) are excluded and listed.  Paths whose volatility
    estimate is zero (clamped, or a flat path) are left out of the gamma fit of
    volatilities only.  Distribution fits that fail are recorded per field and
    the panel is still returned; estimates too large for the fits' sums raise
    ParameterError instead.
    """
    tickers, sizes, prices = panel.tickers, panel.sizes, panel.prices
    dt = np.asarray(dt, dtype=float)
    if dt.ndim and dt.shape != sizes.shape:
        raise ParameterError(f"dt needs one value or one per ticker, got {dt.size} for {sizes.size} tickers")
    bad = dt[~((0 < dt) & (dt < np.inf))]
    if bad.size:
        raise ParameterError(f"dt must be > 0, got {bad[0]}")
    dt = np.broadcast_to(dt, sizes.shape)
    duration = (sizes - 1) * dt
    keep = (sizes >= 3) & (duration >= MIN_WINDOW_COVERAGE * duration.max(initial=0.0))
    used = tuple(compress(tickers, keep))
    with np.errstate(over="ignore", invalid="ignore"):  # an estimate past the float range is caught below
        columns = _estimates(prices[np.repeat(keep, sizes)], sizes[keep], dt[keep], method) if used else ()
    if len(used) < 3:
        raise InsufficientDataError(
            f"build_panel needs at least 3 usable paths, got {len(used)}"
        )

    mu_hats, sigma_hats, sigma_sq_raw, clamped = columns
    # The fits multiply sums of up to three estimates over the panel (the Huber normal
    # equations' sum(w x^2) * sum(w y)); past this bound one of them could overflow.
    largest = float(np.nan_to_num(np.abs((mu_hats, sigma_sq_raw)), nan=np.inf).max())  # NaN is inf - inf
    if not largest <= (sys.float_info.max / len(used) ** 2) ** (1.0 / 3.0):
        raise ParameterError(f"annualised estimates up to {largest:.6g} overflow a float in the cross-sectional fits")
    fits: dict[str, object] = {}
    errors: list[tuple[str, str]] = []
    for name, fit, args in (
        ("drift_fit", fit_skew_normal, (mu_hats,)),
        ("vol_fit", fit_gamma, (sigma_hats[sigma_hats > 0],)),
        ("regression", huber_regression, (sigma_hats, mu_hats)),
        ("correlation", pearson_correlation, (mu_hats, sigma_hats)),
    ):
        try:
            fits[name] = fit(*args)
        except (FitFailureError, ParameterError, InsufficientDataError) as exc:
            fits[name] = None
            errors.append((name, str(exc)))

    return DriftVolPanel(
        used, mu_hats, sigma_hats, sigma_sq_raw, clamped,
        **fits,
        excluded=tuple(compress(tickers, ~keep)),
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
        "tickers_used": len(panel.tickers),
        "excluded_delisted": len(panel.excluded),
        "clamped_estimates": int(panel.clamped.sum()),
    }
    degenerate = int((panel.sigma_hats == 0).sum())
    if degenerate:  # the paths left out of the gamma fit
        footer["vol_fit_degenerate"] = degenerate
    footer.update((f"fit_error_{name}", message) for name, message in panel.fit_errors)
    write_report(destination, _PANEL_COLUMNS, [row], footer=footer)
