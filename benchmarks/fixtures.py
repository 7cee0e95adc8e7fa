"""Seeded workload inputs for the benchmark, with the results they imply.

Price panels are drawn from the paper's distributed-drift model: each
ticker gets a drift mu_i ~ Normal(mu_d, sigma_d) and a GBM path with common
volatility sigma, so its total return over T years is log-normal with
mu_m = (mu_d - sigma^2/2) T and sigma_m^2 = sigma^2 T + sigma_d^2 T^2.
Alongside each file the generator records what a correct run must report:
ticker counts, delisted exclusions, shuffled tickers, the malformed row's
line number, and the law-implied expectation and standard error of the
fitted log-normal shape and of the mean GBM volatility estimate.
"""

from __future__ import annotations

import datetime as dt
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Left-tail filter of `analyze` (ln rho must stay strictly above this).
TAIL_THRESHOLD_LOG = -2.0
# Draws budget of the law-level Monte Carlo that gives expectations and SEs.
LAW_DRAWS = 4_000_000


@dataclass(frozen=True)
class PanelSpec:
    name: str
    tickers: int
    rows: int  # rows per ticker that is not delisted
    dt_years: float
    mu_d: float
    sigma_d: float
    sigma: float
    date_major: bool
    delisted_share: float = 0.05
    shuffled: int = 0


PANEL_LONG = PanelSpec(
    name="panel_long", tickers=400, rows=1260, dt_years=1.0 / 252.0,
    mu_d=0.10, sigma_d=0.08, sigma=0.30, date_major=False, shuffled=4,
)
PANEL_WIDE = PanelSpec(
    name="panel_wide", tickers=20_000, rows=21, dt_years=1.0,
    mu_d=0.10, sigma_d=0.05, sigma=0.25, date_major=True,
)


@dataclass
class Panel:
    """A generated price file and the results a correct run must report."""

    spec: PanelSpec
    path: Path
    bad_path: Path | None
    data_rows: int
    full: int  # tickers spanning the whole window
    delisted: int
    shuffled: tuple[str, ...]
    n_used: int  # full tickers with ln rho above the tail threshold
    bad_line: int | None
    fit_mu: float  # law expectation and spread of the fitted log-normal location
    fit_mu_se: float
    fit_sigma: float  # ... and of the fitted log-normal shape
    fit_sigma_se: float
    sigma_mean: float  # law expectation and spread of the mean GBM volatility
    sigma_mean_se: float


def _dates(spec: PanelSpec) -> list[str]:
    if spec.dt_years == 1.0:
        return [dt.date(2000 + k, 12, 29).isoformat() for k in range(spec.rows)]
    days, day = [], dt.date(2016, 1, 4)
    while len(days) < spec.rows:
        if day.weekday() < 5:
            days.append(day.isoformat())
        day += dt.timedelta(days=1)
    return days


def _replicates(n_full: int) -> int:
    return max(100, min(1000, LAW_DRAWS // n_full))


def _law_fit(mu_m: float, sigma_m: float, n_full: int, rng: np.random.Generator):
    """Mean and spread of the tail-filtered ML log-normal (mu, sigma) over n_full returns."""
    log_rho = mu_m + sigma_m * rng.standard_normal((_replicates(n_full), n_full))
    masked = np.where(log_rho > TAIL_THRESHOLD_LOG, log_rho, np.nan)
    mus, sigmas = np.nanmean(masked, axis=1), np.nanstd(masked, axis=1)
    return (float(np.mean(mus)), float(np.std(mus, ddof=1)),
            float(np.mean(sigmas)), float(np.std(sigmas, ddof=1)))


def _law_sigma_mean(spec: PanelSpec, n_full: int, rng: np.random.Generator) -> tuple[float, float]:
    """Mean and spread of the panel's mean endpoint-estimator volatility.

    With T steps r_t ~ N(m, s^2): sum r^2 - (sum r)^2/(T-1) equals
    S - T rbar^2/(T-1), where S ~ s^2 chi2(T-1) and rbar ~ N(m, s^2/T)
    are independent, so a replicate needs two draws per ticker.
    """
    steps = spec.rows - 1
    s2 = spec.sigma**2 * spec.dt_years
    shape = (_replicates(n_full), n_full)
    drifts = spec.mu_d + spec.sigma_d * rng.standard_normal(shape)
    m = (drifts - 0.5 * spec.sigma**2) * spec.dt_years
    big_s = s2 * rng.chisquare(steps - 1, shape)
    rbar = m + math.sqrt(s2 / steps) * rng.standard_normal(shape)
    raw = (big_s - steps * rbar * rbar / (steps - 1)) / steps / spec.dt_years
    means = np.sqrt(np.maximum(raw, 0.0)).mean(axis=1)
    return float(np.mean(means)), float(np.std(means, ddof=1))


def make_panel(spec: PanelSpec, seed: int, workdir: Path) -> Panel:
    """Write ``<name>.csv`` (and ``<name>_bad.csv`` for ticker-major panels)."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, spec.tickers, spec.rows]))
    dates = _dates(spec)
    width = len(str(spec.tickers - 1))
    names = [f"{'T' if not spec.date_major else 'W'}{i:0{width}d}" for i in range(spec.tickers)]

    # Delisted series stop within 70% of the window, below the 80% coverage
    # `gbm` needs and more than 10 days before the end `analyze` needs.
    delisted = rng.random(spec.tickers) < spec.delisted_share
    short_max = int(0.7 * spec.rows)
    lengths = np.where(delisted, rng.integers(3, short_max + 1, spec.tickers), spec.rows)
    drifts = spec.mu_d + spec.sigma_d * rng.standard_normal(spec.tickers)
    inc = (drifts[:, None] - 0.5 * spec.sigma**2) * spec.dt_years + spec.sigma * math.sqrt(
        spec.dt_years
    ) * rng.standard_normal((spec.tickers, spec.rows - 1))
    x0 = np.exp(math.log(40.0) + 0.6 * rng.standard_normal(spec.tickers))
    log_px = np.concatenate([np.log(x0)[:, None], np.log(x0)[:, None] + np.cumsum(inc, axis=1)], axis=1)
    prices = [[f"{p:.8g}" for p in row] for row in np.exp(log_px).tolist()]

    shuffled_idx = rng.choice(np.flatnonzero(~delisted), size=spec.shuffled, replace=False)
    shuffled = tuple(sorted(names[i] for i in shuffled_idx))

    lines = ["ticker,date,adj_close"]
    if spec.date_major:
        for j, day in enumerate(dates):
            lines.extend(
                f"{names[i]},{day},{prices[i][j]}" for i in range(spec.tickers) if j < lengths[i]
            )
    else:
        for i in range(spec.tickers):
            order = np.arange(lengths[i])
            if i in shuffled_idx:
                order = rng.permutation(order)
            lines.extend(f"{names[i]},{dates[j]},{prices[i][j]}" for j in order.tolist())
    text = "\n".join(lines) + "\n"
    workdir.mkdir(parents=True, exist_ok=True)
    path = workdir / f"{spec.name}.csv"
    path.write_text(text, encoding="utf-8")

    bad_path = bad_line = None
    if not spec.date_major:
        # Same file with the last row's price made unparseable.
        head, _, last = text.rstrip("\n").rpartition("\n")
        bad_path = workdir / f"{spec.name}_bad.csv"
        bad_path.write_text(f"{head}\n{last}x\n", encoding="utf-8")
        bad_line = len(lines)

    full = ~delisted
    rho = np.array(
        [float(prices[i][spec.rows - 1]) / float(prices[i][0]) for i in np.flatnonzero(full)]
    )
    horizon = (spec.rows - 1) * spec.dt_years
    mu_m = (spec.mu_d - 0.5 * spec.sigma**2) * horizon
    sigma_m = math.sqrt(spec.sigma**2 * horizon + (spec.sigma_d * horizon) ** 2)
    law_rng = np.random.default_rng(np.random.SeedSequence([seed, 7]))
    fit_mu, fit_mu_se, fit_sigma, fit_sigma_se = _law_fit(mu_m, sigma_m, int(full.sum()), law_rng)
    sigma_mean, sigma_mean_se = _law_sigma_mean(spec, int(full.sum()), law_rng)
    return Panel(
        spec=spec,
        path=path,
        bad_path=bad_path,
        data_rows=len(lines) - 1,
        full=int(full.sum()),
        delisted=int(delisted.sum()),
        shuffled=shuffled,
        n_used=int(np.sum(np.log(rho) > TAIL_THRESHOLD_LOG)),
        bad_line=bad_line,
        fit_mu=fit_mu,
        fit_mu_se=fit_mu_se,
        fit_sigma=fit_sigma,
        fit_sigma_se=fit_sigma_se,
        sigma_mean=sigma_mean,
        sigma_mean_se=sigma_mean_se,
    )
