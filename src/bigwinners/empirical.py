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
from array import array
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .distributions import LogNormalParams, MomentSummary, fit_lognormal, lognormal_moments, quantile
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
_EPOCH_ORDINAL = dt.date(1970, 1, 1).toordinal()


def _undecodable(lineno: int, text: str) -> ParseError | None:
    """The error naming the first byte of ``text`` that is not UTF-8 (read as a
    surrogate escape), or None if there is none."""
    try:
        text.encode("utf-8")
    except UnicodeEncodeError as exc:
        return ParseError(f"byte {ord(text[exc.start]) - 0xDC00:#04x} is not UTF-8 text", line=lineno)
    return None


def _row_error(lineno: int, row) -> DataError:
    """The error of the first check ``row`` fails: a byte that is not UTF-8,
    field count, empty ticker, bad date, bad price, then non-positive price."""
    undecodable = _undecodable(lineno, ",".join(map(str, row)))
    if undecodable is not None:
        return undecodable
    if len(row) != 3:
        return ParseError(f"expected 3 fields, got {len(row)}", line=lineno)
    ticker = row[0].strip()
    if not ticker:
        return ParseError("empty ticker", line=lineno)
    try:
        date = dt.date.fromisoformat(row[1].strip())
    except ValueError:
        return ParseError(f"bad date {row[1]!r}", line=lineno)
    try:
        price = float(row[2])
    except ValueError:
        return ParseError(f"bad price {row[2]!r}", line=lineno)
    return DataError(f"line {lineno}: non-positive price {price!r} for {ticker} on {date}")


def _iso_day(text: str) -> int | None:
    """Days since 1970-01-01 of an ISO date string, None if it is not one."""
    try:
        return dt.date.fromisoformat(text.strip()).toordinal() - _EPOCH_ORDINAL
    except ValueError:
        return None


def load_panel(source) -> PricePanel:
    """Read a ``ticker,date,adj_close`` file into a validated panel.

    Dates are ISO-8601; duplicate (ticker, date) rows are rejected;
    out-of-order rows are sorted and noted in the panel's load report.
    Each row is read as integer codes of its raw ticker and date strings
    plus its price, so each distinct string is checked and converted once.
    One stable lexsort by (ticker, date) then groups the panel, and a faulty
    file reports the physical line its first offending record ends on, with
    the message rebuilt from that row alone.  A byte that is not UTF-8 is
    such a fault, found in each distinct string like any other.
    """
    raw_tickers: dict[str, int] = {}
    raw_dates: dict[str, int] = {}
    ticker_codes, date_codes, lines = array("l"), array("l"), array("l")
    prices = array("d")
    stop: Exception | None = None  # what ended the read early, raised if no stored row is faulty

    with open(source, newline="", encoding="utf-8-sig", errors="surrogateescape") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError("empty file", line=1) from None
        if tuple(h.strip().lower() for h in header) != _COLUMNS:
            raise _undecodable(1, ",".join(header)) or ParseError(
                f"expected header {','.join(_COLUMNS)!r}, got {','.join(header)!r}", line=1
            )
        try:
            for row in reader:
                lineno = reader.line_num
                if len(row) != 3:
                    if not row or (len(row) == 1 and not row[0].strip()):
                        continue
                    stop = _row_error(lineno, row)
                    break
                try:
                    prices.append(float(row[2]))
                except ValueError:
                    stop = _row_error(lineno, row)
                    break
                ticker_codes.append(raw_tickers.setdefault(row[0], len(raw_tickers)))
                date_codes.append(raw_dates.setdefault(row[1], len(raw_dates)))
                lines.append(lineno)
        except csv.Error as exc:  # reported only if no stored row is faulty
            stop = exc

    names = [s.strip() for s in raw_tickers]
    day_of_raw = [_iso_day(s) for s in raw_dates]
    t, d, px = np.asarray(ticker_codes), np.asarray(date_codes), np.asarray(prices)
    bad = ~(np.isfinite(px) & (px > 0))
    bad |= np.array([not n or _undecodable(0, n) is not None for n in names], dtype=bool)[t]
    bad |= np.array([day is None for day in day_of_raw], dtype=bool)[d]
    if bad.any():
        i = int(np.argmax(bad))
        raise _row_error(lines[i], (list(raw_tickers)[t[i]], list(raw_dates)[d[i]], prices[i]))
    if stop is not None:
        raise stop
    if not prices:
        raise DataError("no price records found")

    # Raw tickers that strip to the same name share a code, numbered by first appearance.
    codes_of_name: dict[str, int] = {}
    codes = np.array([codes_of_name.setdefault(n, len(codes_of_name)) for n in names])[t]
    days = np.array(day_of_raw, dtype=np.int64)[d]
    order = np.lexsort((days, codes))
    codes, days = codes[order], days[order]
    dates = days.view("datetime64[D]")
    tickers = list(codes_of_name)
    same = codes[1:] == codes[:-1]

    dup = same & (days[1:] == days[:-1])
    if dup.any():
        k = int(np.argmax(dup))
        raise DataError(f"duplicate (ticker, date) row: {tickers[codes[k]]} on {dates[k + 1]}")

    notes = tuple(
        f"{tickers[c]}: rows were out of date order; sorted"
        for c in np.unique(codes[1:][same & (order[1:] < order[:-1])])
    )
    bounds = np.flatnonzero(~same) + 1
    series = dict(zip(tickers, zip(np.split(dates, bounds), np.split(px[order], bounds))))
    window = (dates.min().astype(dt.date), dates.max().astype(dt.date))
    return PricePanel(series=series, window=window, notes=notes)


# ---------------------------------------------------------------------------
# Total returns
# ---------------------------------------------------------------------------

def _nearest_within(dates: np.ndarray, target: np.datetime64) -> int | None:
    gaps = np.abs((dates - target).astype("timedelta64[D]").astype(int))
    k = int(np.argmin(gaps))
    return k if gaps[k] <= ENDPOINT_TOLERANCE_DAYS else None


def total_returns(
    panel: PricePanel, window: tuple[dt.date, dt.date] | None = None
) -> ReturnSample:
    """One rho per ticker with prices near both window edges.

    Tickers without a price within ENDPOINT_TOLERANCE_DAYS of an edge
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
        i0 = _nearest_within(dates, t0)
        i1 = _nearest_within(dates, t1)
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
    A ``pct`` that would drop all n entries raises ParameterError.
    """
    if not 0.0 < pct < 1.0:
        raise ParameterError(f"pct must be in (0, 1), got {pct}")
    n = len(sample)
    if n < 2:
        raise InsufficientDataError("top_contribution needs at least 2 returns")
    k = max(1, math.floor(pct * n + 0.5))
    if k == n:
        raise ParameterError(f"pct={pct} would exclude all {n} returns")
    labels = sample.tickers if sample.tickers is not None else tuple(
        f"{i:08d}" for i in range(n)
    )
    # Object labels keep Python's string order (a numpy str array drops trailing NULs).
    order = np.lexsort((np.array(labels, dtype=object), -sample.rho))
    rest = sample.rho[np.sort(order[k:])]
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


def _kde_axis(x, who: str, bandwidth_factor: float = 1.0):
    """Checked sample, working axis t, Scott bandwidth h and log-scale flag.

    Strictly positive samples are smoothed in log space (the back-transform
    is exact), anything else on the raw axis.  ``h`` is None for a constant
    sample, which has no spread to smooth.
    """
    arr = np.asarray(x, dtype=float).ravel()
    if arr.size < 5:
        raise InsufficientDataError(f"{who} needs at least 5 points, got {arr.size}")
    if not np.all(np.isfinite(arr)):
        raise ParameterError(f"{who} requires finite values")
    if float(np.ptp(arr)) == 0.0:
        return arr, arr, None, False
    log_scale = bool(np.all(arr > 0))
    t = np.log(arr) if log_scale else arr
    h = float(np.std(t)) * t.size ** (-0.2) * bandwidth_factor
    if h <= 0 or not math.isfinite(h):
        raise ParameterError(f"{who}: could not form a positive bandwidth")
    return arr, t, h, log_scale


def _histogram(t: np.ndarray, h: float) -> tuple[np.ndarray, np.ndarray, float]:
    """Bin centers, counts and bin width of ``t`` on a grid padded by 4h."""
    lo = float(np.min(t)) - 4.0 * h
    hi = float(np.max(t)) + 4.0 * h
    edges = np.linspace(lo, hi, KDE_GRID_SIZE + 1)
    counts, _ = np.histogram(t, bins=edges)
    return 0.5 * (edges[:-1] + edges[1:]), counts, edges[1] - edges[0]


def _smooth(counts: np.ndarray, h: float, width: float) -> np.ndarray:
    """Gaussian smoothing at h of binned counts along the last axis, zero off the grid.

    The arithmetic of ``scipy.ndimage.gaussian_filter1d(counts, h / width,
    mode="constant", truncate=6.0)`` in its order, so the bits are the same:
    weights exp(-x^2 / 2s^2) for |x| <= int(6s + 0.5), over their sum, and
    out_i = c_i w_0 + sum for j = r down to 1 of (c_(i-j) + c_(i+j)) w_j.
    """
    sigma = h / width
    r = int(6.0 * sigma + 0.5)
    weights = np.exp(-0.5 / (sigma * sigma) * np.arange(-r, r + 1) ** 2)
    weights = weights / weights.sum()
    n = counts.shape[-1]
    padded = np.zeros(counts.shape[:-1] + (n + 2 * r,))
    padded[..., r:r + n] = counts
    out = padded[..., r:r + n] * weights[r]
    for j in range(r, 0, -1):
        out += (padded[..., r - j:r - j + n] + padded[..., r + j:r + j + n]) * weights[r + j]
    return out


def _grid_objective(t: np.ndarray, h: float, log_scale: bool) -> tuple[np.ndarray, np.ndarray]:
    """Grid centers and the binned density objective whose argmax is the mode.

    In log scale the density of X at x=e^t is f_t(t)/e^t, so maximizing
    f_t(t)*e^{-t} finds the mode of X itself.
    """
    centers, counts, width = _histogram(t, h)
    dens = _smooth(counts, h, width) / (t.size * width)
    return centers, dens * np.exp(-centers) if log_scale else dens


def _exact_neg_objective(s: float, t: np.ndarray, h: float, log_scale: bool) -> float:
    z = (s - t) / h
    f = float(np.mean(np.exp(-0.5 * z * z))) / (h * math.sqrt(2.0 * math.pi))
    if f <= 0:
        return math.inf
    return -(math.log(f) - s) if log_scale else -f


def _fminbound(func, a, b, xatol: float):
    """Minimiser of ``func`` on [a, b] by Brent's bounded method, and a success flag.

    scipy 1.17's ``optimize._minimize_scalar_bounded`` at its default
    ``maxiter=500``, without its printing: the same float operations, so the
    same iterates.  Success is False once 500 evaluations are spent or a NaN is met.
    """
    sqrt_eps = math.sqrt(2.2e-16)
    golden_mean = 0.5 * (3.0 - math.sqrt(5.0))
    fulc = a + golden_mean * (b - a)
    nfc = xf = fulc
    rat = e = 0.0
    fx = func(xf)
    num = 1
    fu = np.inf
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = sqrt_eps * np.abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1
    while np.abs(xf - xm) > (tol2 - 0.5 * (b - a)):
        golden = True
        if np.abs(e) > tol1:  # try a parabolic step
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = np.abs(q)
            r = e
            e = rat
            if np.abs(p) < np.abs(0.5 * q * r) and p > q * (a - xf) and p < q * (b - xf):
                golden = False
                rat = (p + 0.0) / q
                x = xf + rat
                if (x - a) < tol2 or (b - x) < tol2:
                    rat = tol1 * (np.sign(xm - xf) + ((xm - xf) == 0))
        if golden:
            e = a - xf if xf >= xm else b - xf
            rat = golden_mean * e
        x = xf + (np.sign(rat) + (rat == 0)) * np.maximum(np.abs(rat), tol1)
        fu = func(x)
        num += 1
        if fu <= fx:
            a, b = (xf, b) if x >= xf else (a, xf)
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            a, b = (x, b) if x < xf else (a, x)
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu
        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * np.abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if num >= 500:
            return xf, False
    return xf, not (np.isnan(xf) or np.isnan(fx) or np.isnan(fu))


def kde_mode(x, bandwidth_factor: float = 1.0) -> KDEModeResult:
    """Gaussian-KDE mode with Scott bandwidth, grid search plus local refine.

    Strictly positive samples are smoothed in log space (the back-transform
    is exact), anything else on the raw axis; the grid has KDE_GRID_SIZE
    bins.  The estimate is flagged unstable when a rival local maximum
    comes within KDE_PEAK_GAP of the top density or the mode moves more
    than KDE_SHIFT_FACTOR bandwidths under a +/-20% bandwidth change.
    """
    arr, t, h, log_scale = _kde_axis(x, "kde_mode", bandwidth_factor)
    if h is None:
        return KDEModeResult(mode=float(arr[0]), bandwidth=0.0, stable=True, log_scale=False)

    centers, obj = _grid_objective(t, h, log_scale)
    k = int(np.argmax(obj))

    # Refine the grid winner against the exact kernel sum.
    lo = centers[max(k - 1, 0)]
    hi = centers[min(k + 1, KDE_GRID_SIZE - 1)]
    x, success = _fminbound(lambda s: _exact_neg_objective(s, t, h, log_scale), lo, hi,
                            xatol=1e-10 * max(1.0, abs(hi - lo)))
    t_mode = float(x) if success else float(centers[k])

    # Rival-peak check on the (back-transformed) density heights.
    interior = (obj[1:-1] > obj[:-2]) & (obj[1:-1] >= obj[2:])
    peaks = np.where(interior)[0] + 1
    stable = True
    if peaks.size >= 2:
        heights = np.sort(obj[peaks])[::-1]
        gap_idx = np.abs(peaks - k) > 1
        if np.any(gap_idx) and heights[1] >= (1.0 - KDE_PEAK_GAP) * heights[0]:
            rivals = peaks[gap_idx]
            if np.any(obj[rivals] >= (1.0 - KDE_PEAK_GAP) * obj[k]):
                stable = False

    # Bandwidth sensitivity check (grid-level is enough for a flag).
    for factor in (0.8, 1.2):
        alt_centers, alt_obj = _grid_objective(t, h * factor, log_scale)
        if abs(float(alt_centers[int(np.argmax(alt_obj))]) - t_mode) > KDE_SHIFT_FACTOR * h:
            stable = False
            break

    mode = math.exp(t_mode) if log_scale else t_mode
    mode = float(np.clip(mode, np.min(arr), np.max(arr)))
    return KDEModeResult(mode=mode, bandwidth=h, stable=stable, log_scale=log_scale)


def kde_mode_bootstrap_stderr(x, seed, replicates: int = 32) -> float:
    """Smoothed-bootstrap standard error of the KDE mode.

    Works on the axis and at the Scott bandwidth h that ``kde_mode`` uses
    by default.  Draws each replicate multinomially from the histogram
    pre-smoothed at h, then re-smooths it at h, so each replicate costs
    O(KDE_GRID_SIZE) instead of O(n).  Resampling the raw histogram instead
    would hand every replicate the sample's own noise bumps: on a
    flat-topped density the replicate modes cluster around those bumps and
    the spread understates the estimator's seed-to-seed scatter.
    """
    arr, t, h, log_scale = _kde_axis(x, "bootstrap stderr")
    if h is None:
        return 0.0
    centers, counts, width = _histogram(t, h)
    tilt = np.exp(-centers) if log_scale else 1.0

    rng = np.random.default_rng(seed)
    smoothed = _smooth(counts, h, width)
    probs = smoothed / smoothed.sum()
    draws = rng.multinomial(arr.size, probs, size=replicates)
    t_star = centers[np.argmax(_smooth(draws, h, width) * tilt, axis=1)]
    modes = [math.exp(t) for t in t_star] if log_scale else t_star
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
    n = len(sample)
    if n < 10:
        raise InsufficientDataError("qq_data needs at least 10 returns")
    empirical = np.sort(np.log(sample.rho))
    positions = (np.arange(1, n + 1) - 0.5) / n
    theoretical = np.asarray(quantile(fitted, positions), dtype=float)
    if isinstance(fitted, LogNormalParams):
        theoretical = np.log(theoretical)
    return np.column_stack([theoretical, empirical])
