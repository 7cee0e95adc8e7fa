"""Empirical total-return pipeline.

Ingests ticker/date/price files, computes total returns rho = X_T / X_0
over a study window, decomposes the index mean into winner contributions,
estimates the distribution mode by Gaussian kernel density, filters the
delisting-driven left tail and fits the macroscopic log-normal law.
"""

from __future__ import annotations

import csv
import datetime as dt
import json
import math
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy import ndimage, optimize

from .distributions import LogNormalParams, MomentSummary, fit_lognormal, lognormal_moments
from .errors import DataError, InsufficientDataError, ParameterError, ParseError

__all__ = [
    "PricePanel",
    "ReturnSample",
    "IndexSummary",
    "KDEModeResult",
    "load_panel",
    "total_returns",
    "top_contribution",
    "kde_mode",
    "tail_filter",
    "summarize_index",
    "fit_macroscopic",
    "qq_data",
    "write_returns_csv",
    "write_report",
]

# Nearest trading date accepted this many calendar days from a window edge.
ENDPOINT_TOLERANCE_DAYS = 10
# Log-return threshold of the left-tail filter (keep ln rho strictly above).
TAIL_THRESHOLD_LOG = -2.0


# ---------------------------------------------------------------------------
# Data containers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PricePanel:
    """Per-ticker price histories on a common study window.

    ``series`` maps ticker -> (dates, prices) with dates as datetime64[D]
    in strictly increasing order and prices strictly positive.  ``notes``
    collects non-fatal load diagnostics (e.g. rows that needed sorting).
    """

    series: dict[str, tuple[np.ndarray, np.ndarray]]
    window: tuple[dt.date, dt.date]
    notes: tuple[str, ...] = ()

    @property
    def tickers(self) -> tuple[str, ...]:
        return tuple(sorted(self.series))


@dataclass(frozen=True)
class ReturnSample:
    """Total returns rho = X_T / X_0 for one index's constituents."""

    rho: np.ndarray
    tickers: tuple[str, ...] | None = None
    window: tuple[dt.date, dt.date] | None = None
    excluded: tuple[tuple[str, str], ...] = ()
    removed: int = 0

    def __post_init__(self):
        arr = np.asarray(self.rho, dtype=float).ravel()
        object.__setattr__(self, "rho", arr)
        if arr.size and (not np.all(np.isfinite(arr)) or np.any(arr <= 0)):
            raise DataError("total returns must be finite and strictly positive")
        if self.tickers is not None:
            if len(self.tickers) != arr.size:
                raise DataError("tickers and returns length mismatch")
            if len(set(self.tickers)) != len(self.tickers):
                raise DataError("tickers must be unique")

    def __len__(self) -> int:
        return int(self.rho.size)


@dataclass(frozen=True)
class IndexSummary:
    """One row of the total-return analysis table."""

    n: int
    top5: float
    top10: float
    top25: float
    mean: float
    median: float
    mode: float | None
    mean_over_median: float
    mean_over_mode: float | None
    mode_note: str = ""


@dataclass(frozen=True)
class KDEModeResult:
    """Mode of a sample estimated by Gaussian kernel density.

    ``bandwidth`` is the kernel width in the working scale; positive
    samples are smoothed on the log axis (``log_scale=True``) and the
    maximizer is mapped back exactly, which keeps heavy right tails from
    washing out the peak.  ``stable=False`` flags near-ties between local
    maxima or strong bandwidth sensitivity.
    """

    mode: float
    bandwidth: float
    stable: bool
    log_scale: bool = False


# ---------------------------------------------------------------------------
# Loading
# ---------------------------------------------------------------------------

_COLUMNS = ("ticker", "date", "adj_close")


def load_panel(source) -> PricePanel:
    """Read a ``ticker,date,adj_close`` file into a validated panel.

    Dates are ISO-8601; duplicate (ticker, date) rows are rejected;
    out-of-order rows are sorted and noted in the panel's load report.
    """
    raw: dict[str, list[tuple[np.datetime64, float]]] = {}
    with open(source, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError("empty file", line=1) from None
        if tuple(h.strip().lower() for h in header) != _COLUMNS:
            raise ParseError(
                f"expected header {','.join(_COLUMNS)!r}, got {','.join(header)!r}", line=1
            )
        for lineno, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != 3:
                raise ParseError(f"expected 3 fields, got {len(row)}", line=lineno)
            ticker = row[0].strip()
            if not ticker:
                raise ParseError("empty ticker", line=lineno)
            try:
                date = dt.date.fromisoformat(row[1].strip())
            except ValueError:
                raise ParseError(f"bad date {row[1]!r}", line=lineno) from None
            try:
                price = float(row[2])
            except ValueError:
                raise ParseError(f"bad price {row[2]!r}", line=lineno) from None
            if not math.isfinite(price) or price <= 0:
                raise DataError(
                    f"line {lineno}: non-positive price {price!r} for {ticker} on {date}"
                )
            raw.setdefault(ticker, []).append((np.datetime64(date), price))

    if not raw:
        raise DataError("no price records found")

    notes: list[str] = []
    series: dict[str, tuple[np.ndarray, np.ndarray]] = {}
    lo = None
    hi = None
    for ticker, rows in raw.items():
        dates = np.array([d for d, _ in rows], dtype="datetime64[D]")
        prices = np.array([p for _, p in rows], dtype=float)
        order = np.argsort(dates, kind="stable")
        if not np.array_equal(order, np.arange(dates.size)):
            dates = dates[order]
            prices = prices[order]
            notes.append(f"{ticker}: rows were out of date order; sorted")
        if dates.size > 1 and np.any(dates[1:] == dates[:-1]):
            dup = dates[1:][dates[1:] == dates[:-1]][0]
            raise DataError(f"duplicate (ticker, date) row: {ticker} on {dup}")
        series[ticker] = (dates, prices)
        lo = dates[0] if lo is None else min(lo, dates[0])
        hi = dates[-1] if hi is None else max(hi, dates[-1])

    window = (lo.astype(dt.date), hi.astype(dt.date))
    return PricePanel(series=series, window=window, notes=tuple(notes))


# ---------------------------------------------------------------------------
# Total returns
# ---------------------------------------------------------------------------

def _nearest_within(dates: np.ndarray, target: np.datetime64, tol_days: int) -> int | None:
    gaps = np.abs((dates - target).astype("timedelta64[D]").astype(int))
    k = int(np.argmin(gaps))
    return k if gaps[k] <= tol_days else None


def total_returns(
    panel: PricePanel,
    window: tuple[dt.date, dt.date] | None = None,
    endpoint_tolerance_days: int = ENDPOINT_TOLERANCE_DAYS,
) -> ReturnSample:
    """One rho per ticker with prices near both window edges.

    Tickers without a price within ``endpoint_tolerance_days`` of an edge
    are disqualified and listed with the reason.
    """
    start, end = window if window is not None else panel.window
    t0 = np.datetime64(start)
    t1 = np.datetime64(end)
    rhos: list[float] = []
    keep: list[str] = []
    excluded: list[tuple[str, str]] = []
    for ticker in panel.tickers:
        dates, prices = panel.series[ticker]
        i0 = _nearest_within(dates, t0, endpoint_tolerance_days)
        i1 = _nearest_within(dates, t1, endpoint_tolerance_days)
        if i0 is None or i1 is None or i0 == i1:
            excluded.append((ticker, "insufficient window coverage"))
            continue
        rhos.append(prices[i1] / prices[i0])
        keep.append(ticker)
    if not rhos:
        raise DataError("no ticker qualifies for the requested window")
    return ReturnSample(
        rho=np.array(rhos),
        tickers=tuple(keep),
        window=(start, end),
        excluded=tuple(excluded),
    )


# ---------------------------------------------------------------------------
# Winner contribution
# ---------------------------------------------------------------------------

def top_contribution(sample: ReturnSample, pct: float) -> float:
    """Mean shortfall, in percent, after excluding the top ``pct`` returns.

    k = max(1, round(pct*n)) entries are dropped by descending rho (ties by
    ticker, then position); the result is 100*(1 - mean(rest)/mean(all)).
    """
    if not 0.0 < pct < 1.0:
        raise ParameterError(f"pct must be in (0, 1), got {pct}")
    n = len(sample)
    if n < 2:
        raise InsufficientDataError("top_contribution needs at least 2 returns")
    k = max(1, math.floor(pct * n + 0.5))
    labels = sample.tickers if sample.tickers is not None else tuple(
        f"{i:08d}" for i in range(n)
    )
    order = sorted(range(n), key=lambda i: (-sample.rho[i], labels[i]))
    rest = sample.rho[sorted(order[k:])]
    total_mean = float(np.mean(sample.rho))
    return 100.0 * (1.0 - float(np.mean(rest)) / total_mean)


# ---------------------------------------------------------------------------
# Kernel density mode
# ---------------------------------------------------------------------------

KDE_GRID_SIZE = 1024
# Instability thresholds: rival local maximum within this density fraction
# of the top one, or the mode shifting more than this many bandwidths under
# a +/-20% bandwidth perturbation.
KDE_PEAK_GAP = 0.05
KDE_SHIFT_FACTOR = 0.5


def _scott_bandwidth(t: np.ndarray) -> float:
    return float(np.std(t)) * t.size ** (-0.2)


def _histogram(t: np.ndarray, h: float, grid_size: int) -> tuple[np.ndarray, np.ndarray, float]:
    """Bin centers, counts and bin width of ``t`` on a grid padded by 4h."""
    lo = float(np.min(t)) - 4.0 * h
    hi = float(np.max(t)) + 4.0 * h
    edges = np.linspace(lo, hi, grid_size + 1)
    counts, _ = np.histogram(t, bins=edges)
    return 0.5 * (edges[:-1] + edges[1:]), counts, edges[1] - edges[0]


def _smooth(counts: np.ndarray, h: float, width: float) -> np.ndarray:
    return ndimage.gaussian_filter1d(
        counts.astype(float), sigma=h / width, mode="constant", truncate=6.0
    )


def _binned_density(t: np.ndarray, h: float, grid_size: int) -> tuple[np.ndarray, np.ndarray]:
    centers, counts, width = _histogram(t, h, grid_size)
    return centers, _smooth(counts, h, width) / (t.size * width)


def _grid_mode(t: np.ndarray, h: float, log_scale: bool, grid_size: int) -> float:
    # In log scale the density of X at x=e^t is f_t(t)/e^t, so maximizing
    # f_t(t)*e^{-t} finds the mode of X itself.
    centers, dens = _binned_density(t, h, grid_size)
    obj = dens * np.exp(-centers) if log_scale else dens
    return float(centers[int(np.argmax(obj))])


def _exact_neg_objective(s: float, t: np.ndarray, h: float, log_scale: bool) -> float:
    z = (s - t) / h
    f = float(np.mean(np.exp(-0.5 * z * z))) / (h * math.sqrt(2.0 * math.pi))
    if f <= 0:
        return math.inf
    return -(math.log(f) - s) if log_scale else -f


def kde_mode(
    x,
    bandwidth_factor: float = 1.0,
    log_scale: bool | None = None,
    grid_size: int = KDE_GRID_SIZE,
    peak_gap: float = KDE_PEAK_GAP,
    shift_factor: float = KDE_SHIFT_FACTOR,
) -> KDEModeResult:
    """Gaussian-KDE mode with Scott bandwidth, grid search plus local refine.

    ``log_scale=None`` picks the working axis automatically: strictly
    positive samples are smoothed in log space (the back-transform is
    exact), anything else on the raw axis.  The estimate is flagged
    unstable when a rival local maximum comes within ``peak_gap`` of the
    top density or the mode moves more than ``shift_factor`` bandwidths
    under a +/-20% bandwidth change.
    """
    arr = np.asarray(x, dtype=float).ravel()
    if arr.size < 5:
        raise InsufficientDataError(f"kde_mode needs at least 5 points, got {arr.size}")
    if not np.all(np.isfinite(arr)):
        raise ParameterError("kde_mode requires finite values")
    if float(np.ptp(arr)) == 0.0:
        return KDEModeResult(mode=float(arr[0]), bandwidth=0.0, stable=True, log_scale=False)

    if log_scale is None:
        log_scale = bool(np.all(arr > 0))
    t = np.log(arr) if log_scale else arr
    h = _scott_bandwidth(t) * bandwidth_factor
    if h <= 0 or not math.isfinite(h):
        raise ParameterError("kde_mode: could not form a positive bandwidth")

    centers, dens = _binned_density(t, h, grid_size)
    obj = dens * np.exp(-centers) if log_scale else dens
    k = int(np.argmax(obj))

    # Refine the grid winner against the exact kernel sum.
    lo = centers[max(k - 1, 0)]
    hi = centers[min(k + 1, grid_size - 1)]
    res = optimize.minimize_scalar(
        _exact_neg_objective,
        bounds=(lo, hi),
        args=(t, h, log_scale),
        method="bounded",
        options={"xatol": 1e-10 * max(1.0, abs(hi - lo))},
    )
    t_mode = float(res.x) if res.success else float(centers[k])

    # Rival-peak check on the (back-transformed) density heights.
    interior = (obj[1:-1] > obj[:-2]) & (obj[1:-1] >= obj[2:])
    peaks = np.where(interior)[0] + 1
    stable = True
    if peaks.size >= 2:
        heights = np.sort(obj[peaks])[::-1]
        gap_idx = np.abs(peaks - k) > 1
        if np.any(gap_idx) and heights[1] >= (1.0 - peak_gap) * heights[0]:
            rivals = peaks[gap_idx]
            if np.any(obj[rivals] >= (1.0 - peak_gap) * obj[k]):
                stable = False

    # Bandwidth sensitivity check (grid-level is enough for a flag).
    for factor in (0.8, 1.2):
        t_alt = _grid_mode(t, h * factor, log_scale, grid_size)
        if abs(t_alt - t_mode) > shift_factor * h:
            stable = False
            break

    mode = math.exp(t_mode) if log_scale else t_mode
    mode = float(np.clip(mode, np.min(arr), np.max(arr)))
    return KDEModeResult(mode=mode, bandwidth=h, stable=stable, log_scale=log_scale)


def kde_mode_bootstrap_stderr(
    x,
    seed,
    replicates: int = 32,
    bandwidth_factor: float = 1.0,
    log_scale: bool | None = None,
    grid_size: int = KDE_GRID_SIZE,
) -> float:
    """Bootstrap standard error of the KDE mode.

    Resamples the binned histogram multinomially and re-smooths at the
    fixed bandwidth, so each replicate costs O(grid) instead of O(n).
    """
    arr = np.asarray(x, dtype=float).ravel()
    if arr.size < 5:
        raise InsufficientDataError("bootstrap stderr needs at least 5 points")
    if float(np.ptp(arr)) == 0.0:
        return 0.0
    if log_scale is None:
        log_scale = bool(np.all(arr > 0))
    t = np.log(arr) if log_scale else arr
    h = _scott_bandwidth(t) * bandwidth_factor
    centers, counts, width = _histogram(t, h, grid_size)
    tilt = np.exp(-centers) if log_scale else 1.0

    rng = np.random.default_rng(seed)
    probs = counts / counts.sum()
    modes = np.empty(replicates)
    for i in range(replicates):
        dens = _smooth(rng.multinomial(arr.size, probs), h, width)
        t_star = centers[int(np.argmax(dens * tilt))]
        modes[i] = math.exp(t_star) if log_scale else t_star
    return float(np.std(modes, ddof=1))


# ---------------------------------------------------------------------------
# Left-tail filter and summary
# ---------------------------------------------------------------------------

def tail_filter(sample: ReturnSample, threshold_log: float = TAIL_THRESHOLD_LOG) -> ReturnSample:
    """Keep entries with ln rho strictly above ``threshold_log``."""
    keep = np.log(sample.rho) > threshold_log
    removed = int(np.sum(~keep))
    tickers = (
        tuple(t for t, k in zip(sample.tickers, keep) if k)
        if sample.tickers is not None
        else None
    )
    return ReturnSample(
        rho=sample.rho[keep],
        tickers=tickers,
        window=sample.window,
        excluded=sample.excluded,
        removed=removed,
    )


def summarize_index(sample: ReturnSample, bandwidth_factor: float = 1.0) -> IndexSummary:
    """Assemble the total-return table row for one index."""
    n = len(sample)
    if n < 2:
        raise InsufficientDataError("summarize_index needs at least 2 returns")
    mean = float(np.mean(sample.rho))
    median = float(np.median(sample.rho))

    mode: float | None = None
    mode_note = ""
    if n < 5:
        mode_note = "too few returns for kernel density mode"
    else:
        result = kde_mode(sample.rho, bandwidth_factor=bandwidth_factor)
        if result.stable:
            mode = result.mode
        else:
            mode_note = "kernel density mode unstable"

    return IndexSummary(
        n=n,
        top5=top_contribution(sample, 0.05),
        top10=top_contribution(sample, 0.10),
        top25=top_contribution(sample, 0.25),
        mean=mean,
        median=median,
        mode=mode,
        mean_over_median=mean / median,
        mean_over_mode=(mean / mode) if mode else None,
        mode_note=mode_note,
    )


def fit_macroscopic(sample: ReturnSample) -> tuple[LogNormalParams, MomentSummary | None, float | None]:
    """Log-normal fit of a (tail-filtered) return sample.

    Returns the fitted parameters, their closed-form moment summary and the
    coefficient of variation; the latter two are None for a degenerate fit.
    """
    params = fit_lognormal(sample.rho)
    if params.degenerate:
        return params, None, None
    moments = lognormal_moments(params)
    return params, moments, moments.coeff_variation


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

def write_report(destination, fieldnames, rows, fmt: str = "csv", meta: dict | None = None,
                 footer: dict | None = None) -> None:
    """Write report rows to a path (creating its directory) or an open text handle.

    ``rows`` are sequences of scalars or None in ``fieldnames`` order.  CSV
    is RFC-4180 with None as an empty field, floats as their shortest
    round-trip repr, and ``meta`` / ``footer`` as ``# key=value`` lines
    before the header / after the rows.  JSON is an array of row objects,
    led by a ``{"_meta": meta}`` object when meta is given.
    """
    if fmt not in ("csv", "json"):
        raise ParameterError(f"unknown output format {fmt!r}")

    def _write(fh) -> None:
        if fmt == "json":
            payload = ([{"_meta": meta}] if meta else []) + [dict(zip(fieldnames, row)) for row in rows]
            json.dump(payload, fh, indent=2)
            fh.write("\n")
            return
        for key, value in (meta or {}).items():
            fh.write(f"# {key}={value}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(fieldnames)
        writer.writerows(rows)
        for key, value in (footer or {}).items():
            fh.write(f"# {key}={value}\n")

    if isinstance(destination, (str, bytes, os.PathLike)):
        path = Path(os.fsdecode(destination))
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", newline="", encoding="utf-8") as fh:
            _write(fh)
    else:
        _write(destination)


def write_returns_csv(sample: ReturnSample, destination) -> None:
    """Write a return sample as CSV: ``ticker,rho`` (or a single ``rho``
    column when the sample carries no tickers)."""
    if sample.tickers is None:
        write_report(destination, ["rho"], zip(sample.rho))
    else:
        write_report(destination, ["ticker", "rho"], zip(sample.tickers, sample.rho))


# ---------------------------------------------------------------------------
# QQ data
# ---------------------------------------------------------------------------

def qq_data(sample: ReturnSample, fitted) -> np.ndarray:
    """(theoretical, empirical) quantile pairs of ln rho against a fitted law.

    Plotting positions are (i - 0.5)/n.  A LogNormalParams fit describes
    rho itself, so its quantiles are mapped through ln; skew-normal and
    asymmetric Laplace fits already describe ln rho.
    """
    from .distributions import quantile  # local import keeps module load light

    n = len(sample)
    if n < 10:
        raise InsufficientDataError("qq_data needs at least 10 returns")
    empirical = np.sort(np.log(sample.rho))
    positions = (np.arange(1, n + 1) - 0.5) / n
    theoretical = np.asarray(quantile(fitted, positions), dtype=float)
    if isinstance(fitted, LogNormalParams):
        theoretical = np.log(theoretical)
    return np.column_stack([theoretical, empirical])
