"""Empirical total-return pipeline.

Ingests ticker/date/price files, computes total returns rho = X_T / X_0
over a study window, decomposes the index mean into winner contributions,
estimates the distribution mode by Gaussian kernel density, filters the
delisting-driven left tail and fits the macroscopic log-normal law.
"""

from __future__ import annotations

import csv
import datetime as dt
import io
import math
from array import array
from dataclasses import dataclass
from itertools import compress
from pathlib import Path

import numpy as np

from .distributions import (LOG_FLOAT_MAX, LogNormalParams, MomentSummary, _check_count, _clean,
                            fit_lognormal, lognormal_moments, quantile)
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
    """Price histories on a common study window, laid end to end as one table.

    Ticker ``tickers[i]`` (sorted) has ``sizes[i]`` rows, following those of
    the tickers before it in ``dates`` (datetime64[D], strictly increasing
    within each ticker) and ``prices`` (float64, strictly positive).  ``notes``
    collects non-fatal load diagnostics (e.g. rows that needed sorting), in
    file order.
    """

    tickers: tuple[str, ...]
    sizes: np.ndarray
    dates: np.ndarray
    prices: np.ndarray
    window: tuple[dt.date, dt.date]
    notes: tuple[str, ...] = ()


@dataclass(frozen=True)
class ReturnSample:
    """Total returns rho = X_T / X_0 for one index's constituents."""

    rho: np.ndarray
    tickers: tuple[str, ...] | None = None
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
_CHUNK_BYTES = 1 << 20  # bytes of plain rows load_panel parses at once
_FIELD_BYTES = 64  # widest bulk field; merging the chunks pads every distinct ticker to the widest one
_DATE_DIGITS = [0, 1, 2, 3, 5, 6, 8, 9]  # byte positions of the digits of dddd-dd-dd
_DATE_PLACES = 10 ** np.arange(7, -1, -1)  # place values of those digits: yyyy-mm-dd -> yyyymmdd
_EPOCH_ORDINAL = dt.date(1970, 1, 1).toordinal()
_SEGMENT_DAYS = 1 << 23  # over twice the days dt.date spans, so (segment, day) keys never overlap


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


def _csv_records(fh, lineno: int, encoding: str = "utf-8"):
    """Each ``csv.reader`` record of binary file ``fh`` from its position on, with its
    physical end line after ``lineno`` earlier lines; a csv error is a ParseError."""
    with io.TextIOWrapper(fh, encoding=encoding, errors="surrogateescape", newline="") as text:
        reader = csv.reader(text)
        try:
            for row in reader:
                yield lineno + reader.line_num, row
        except csv.Error as exc:
            raise ParseError(str(exc), line=lineno + reader.line_num) from None


def _bulk_rows(chunk: bytes) -> tuple[np.ndarray, np.ndarray] | None:
    """``chunk``'s lines as (ticker, date, price) records, the ticker and date as their
    raw bytes and the price as ``float`` reads it, and each date as the integer of its
    digits; or None if the chunk is not whole lines or fails the gate ``load_panel`` names."""
    if not chunk.endswith(b"\n") or not chunk.isascii() or b'"' in chunk or b"\x7f" in chunk:
        return None
    raw = np.frombuffer(chunk, dtype=np.uint8)
    ends = np.flatnonzero(raw == 10)
    commas = np.flatnonzero(raw == 44)
    if commas.size != 2 * ends.size or np.count_nonzero(raw < 32) != ends.size:  # no control byte but \n
        return None
    # Each line's ticker and price lengths; neither negative puts commas 2i and 2i + 1 on line i.
    first, second = commas[0::2], commas[1::2]
    tickers = first - np.concatenate(([0], ends[:-1] + 1))
    prices = ends - second - 1
    if (second - first != 11).any() or min(tickers.min(), prices.min()) < 0:  # a date is 10 bytes
        return None
    if max(tickers.max(), 10, prices.max()) > min(_FIELD_BYTES, csv.field_size_limit()):
        return None
    ticker_bytes = max(int(tickers.max()), 1)
    try:
        rows = np.loadtxt(io.StringIO(chunk.decode("ascii")), delimiter=",", comments=None, quotechar=None,
                          ndmin=1, dtype=[("ticker", f"S{ticker_bytes}"), ("date", "S10"), ("price", "f8")])
    except ValueError:
        return None
    dates = np.ascontiguousarray(rows["date"]).view(np.uint8).reshape(-1, 10)
    digits = dates[:, _DATE_DIGITS] - 48  # a byte below "0" wraps above 9
    if not ((digits <= 9).all() and (dates[:, [4, 7]] == 45).all()):  # dddd-dd-dd
        return None
    return rows, digits.astype(np.int64) @ _DATE_PLACES


def _distinct(column: np.ndarray, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``column``'s values, one per distinct value of ``keys``, in order of first
    appearance, their keys, and the number of each row's value in that order."""
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    seen = np.argsort(first)
    return column[first[seen]], keys[first[seen]], np.argsort(seen)[inverse]  # argsort inverts the permutation


def _column_codes(codes: dict[str, int], chunks: list) -> np.ndarray:
    """The codes of the rows of consecutive chunks, given as the ``_distinct`` of
    each chunk's column, numbering new byte strings in order of first appearance."""
    strings, keys, numbers = zip(*chunks)
    strings, _, number = _distinct(np.concatenate(strings), np.concatenate(keys))
    code = np.array([codes.setdefault(s.decode("ascii"), len(codes)) for s in strings.tolist()], dtype=np.int64)
    starts = np.cumsum([0, *map(len, keys)])
    return np.concatenate([code[number[start + chunk_number]] for start, chunk_number in zip(starts, numbers)])


def load_panel(source) -> PricePanel:
    """Read a ``ticker,date,adj_close`` file into a validated panel.

    Dates are ISO-8601; duplicate (ticker, date) rows are rejected;
    out-of-order rows are sorted and noted in the panel's load report.
    Each row is read as integer codes of its raw ticker and date strings
    plus its price, so each distinct string is checked and converted once.
    After a plain header, rows are parsed in bulk by ``np.loadtxt``, _CHUNK_BYTES at
    a time, while each chunk passes a gate: only printable ASCII and newlines, no
    quote, two commas on every line, no field over _FIELD_BYTES (or the csv field
    size limit, if lower), every date ``dddd-dd-dd`` and every price read by
    ``np.loadtxt``.  Each bulk chunk keeps only its distinct strings, which are
    decoded and numbered once, after the last one.
    ``csv.reader`` reads from the first chunk that fails it on, storing the same
    rows and lines.
    One stable sort by (ticker, date) then groups the panel, and a faulty
    file reports the physical line its first offending record ends on, with
    the message rebuilt from that row alone.  A byte that is not UTF-8 is
    such a fault, found in each distinct string like any other.
    """
    raw_tickers: dict[str, int] = {}
    raw_dates: dict[str, int] = {}
    ticker_codes, date_codes = array("q"), array("q")
    prices = array("d")
    lines = array("q")  # line of each row after the first n_bulk, which are on lines 2, 3, ...
    stop: Exception | None = None  # what ended the read early, raised if no stored row is faulty

    with open(source, "rb") as fh:
        head = fh.peek()
        head = head[: head.find(b"\n") + 1]  # the header line, if the read buffer holds it
        bulk = bool(head) and fh.seekable() and b'"' not in head and b"\r" not in head
        records = _csv_records(io.BytesIO(head) if bulk else fh, 0, "utf-8-sig")  # the header, or all
        try:
            header = next(records)[1]
        except StopIteration:
            raise ParseError("empty file", line=1) from None
        if tuple(h.strip().lower() for h in header) != _COLUMNS:
            raise _undecodable(1, ",".join(header)) or ParseError(
                f"expected header {','.join(_COLUMNS)!r}, got {','.join(header)!r}", line=1
            )
        lineno, offset = 1, len(head)
        bulk_tickers, bulk_dates = [], []  # the _distinct tickers and dates of each bulk chunk
        while bulk:
            fh.seek(offset)
            chunk = fh.read(_CHUNK_BYTES)
            chunk = chunk[: chunk.rfind(b"\n") + 1]
            if (parsed := _bulk_rows(chunk)) is None:  # this chunk and all after it are left to csv.reader
                fh.seek(offset)
                records = _csv_records(fh, lineno)
                break
            rows, day_keys = parsed
            prices.frombytes(rows["price"].tobytes())
            bulk_tickers.append(_distinct(rows["ticker"], rows["ticker"]))
            bulk_dates.append(_distinct(rows["date"], day_keys))
            lineno += rows.size
            offset += len(chunk)
        if bulk_tickers:  # each column's strings decoded and numbered once
            ticker_codes.frombytes(_column_codes(raw_tickers, bulk_tickers).tobytes())
            date_codes.frombytes(_column_codes(raw_dates, bulk_dates).tobytes())
        del bulk_tickers, bulk_dates  # free their row numbers, 16 bytes a row
        n_bulk = len(prices)
        try:
            for lineno, row in records:
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
        except ParseError as exc:  # a csv error, reported only if no stored row is faulty
            stop = exc

    names = [s.strip() for s in raw_tickers]
    day_of_raw = [_iso_day(s) for s in raw_dates]
    t, d, px = np.asarray(ticker_codes), np.asarray(date_codes), np.asarray(prices)
    bad = ~(np.isfinite(px) & (px > 0))
    bad |= np.array([not n or _undecodable(0, n) is not None for n in names], dtype=bool)[t]
    bad |= np.array([day is None for day in day_of_raw], dtype=bool)[d]
    if bad.any():
        i = int(np.argmax(bad))
        line = i + 2 if i < n_bulk else lines[i - n_bulk]
        raise _row_error(line, (list(raw_tickers)[t[i]], list(raw_dates)[d[i]], prices[i]))
    if stop is not None:
        raise stop
    if not prices:
        raise DataError("no price records found")

    # Raw tickers that strip to the same name share a code, numbered by first appearance,
    # which orders the notes and picks the duplicate reported; the rows go in name order.
    codes_of_name: dict[str, int] = {}
    codes = np.array([codes_of_name.setdefault(n, len(codes_of_name)) for n in names])[t]
    met = list(codes_of_name)
    tickers = tuple(sorted(met))
    rank = {name: i for i, name in enumerate(tickers)}
    ranks = np.array([rank[n] for n in met], dtype=np.int64)[codes]
    days = np.array(day_of_raw, dtype=np.int64)[d]
    order = np.argsort(ranks * _SEGMENT_DAYS + days, kind="stable")  # ticker-major files are nearly in order
    codes, days = codes[order], days[order]
    dates = days.view("datetime64[D]")
    same = codes[1:] == codes[:-1]

    dup = np.flatnonzero(same & (days[1:] == days[:-1]))
    if dup.size:
        k = dup[np.argmin(codes[dup])]  # the first ticker in the file with one, at its earliest date
        raise DataError(f"duplicate (ticker, date) row: {met[codes[k]]} on {dates[k + 1]}")

    notes = tuple(
        f"{met[c]}: rows were out of date order; sorted"
        for c in np.unique(codes[1:][same & (order[1:] < order[:-1])])
    )
    window = (dates.min().astype(dt.date), dates.max().astype(dt.date))
    return PricePanel(tickers, np.bincount(ranks), dates, px[order], window, notes)


# ---------------------------------------------------------------------------
# Total returns
# ---------------------------------------------------------------------------

def _nearest_within(key: np.ndarray, starts: np.ndarray, ends: np.ndarray, edge: dt.date) -> np.ndarray:
    """Per segment of ``key``, the index of its date nearest ``edge`` (the earlier of two
    equidistant ones, as ``argmin`` takes it), or -1 if none is within ENDPOINT_TOLERANCE_DAYS."""
    target = np.arange(starts.size) * _SEGMENT_DAYS + np.datetime64(edge, "D").astype(np.int64)
    j = np.searchsorted(key, target)
    after = np.where(j < ends, np.take(key, j, mode="clip") - target, np.inf)
    before = np.where(j > starts, target - np.take(key, j - 1, mode="clip"), np.inf)
    k = np.where(before <= after, j - 1, j)
    return np.where(np.minimum(before, after) <= ENDPOINT_TOLERANCE_DAYS, k, -1)


def total_returns(
    panel: PricePanel, window: tuple[dt.date, dt.date] | None = None
) -> ReturnSample:
    """One rho per ticker with prices near both window edges.

    Tickers without a price within ENDPOINT_TOLERANCE_DAYS of an edge
    are disqualified and listed with the reason.  All series are searched
    at once: concatenated in ticker order, keyed by segment and day.  A
    return that leaves the float range raises DataError naming its ticker.
    """
    start, end = window if window is not None else panel.window
    tickers, sizes, prices = panel.tickers, panel.sizes, panel.prices
    ends = np.cumsum(sizes)
    starts = ends - sizes
    key = np.repeat(np.arange(len(tickers)) * _SEGMENT_DAYS, sizes) + panel.dates.view(np.int64)
    i0, i1 = (_nearest_within(key, starts, ends, edge) for edge in (start, end))
    keep = (i0 >= 0) & (i1 >= 0) & (i0 != i1)
    if not keep.any():
        raise DataError("no ticker qualifies for the requested window")
    first, last = prices[i0[keep]], prices[i1[keep]]
    with np.errstate(over="ignore", under="ignore"):
        rho = last / first
    kept = tuple(compress(tickers, keep))
    bad = np.flatnonzero(~np.isfinite(rho) | (rho <= 0))
    if bad.size:
        k = bad[0]
        raise DataError(
            f"{kept[k]}: total return {last[k].item()!r} / {first[k].item()!r} leaves the float range"
        )
    return ReturnSample(
        rho=rho,
        tickers=kept,
        excluded=tuple((ticker, "insufficient window coverage") for ticker in compress(tickers, ~keep)),
    )


# ---------------------------------------------------------------------------
# Winner contribution
# ---------------------------------------------------------------------------

def top_contribution(sample: ReturnSample, pct: float) -> float:
    """Mean shortfall, in percent, after excluding the top ``pct`` returns.

    k = max(1, floor(pct*n + 0.5)) entries (pct*n rounded half up) are dropped by
    descending rho (ties by ticker, then position); the result is 100*(1 - mean(rest)/mean(all)).
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
    # Object tickers keep Python's string order (a numpy str array drops trailing NULs);
    # without tickers, lexsort's stability keeps tied returns in position order.
    ties = () if sample.tickers is None else (np.array(sample.tickers, dtype=object),)
    order = np.lexsort((*ties, -sample.rho))
    rest = sample.rho[np.sort(order[k:])]
    total_mean = float(np.mean(sample.rho))
    return 100.0 * (1.0 - float(np.mean(rest)) / total_mean)


# ---------------------------------------------------------------------------
# Kernel density mode
# ---------------------------------------------------------------------------

KDE_GRID_SIZE = 1024
# Fewest points a KDE mode is taken from.
KDE_MIN_POINTS = 5
# Instability thresholds: rival local maximum within this density fraction
# of the top one, or the mode shifting more than this many bandwidths under
# a +/-20% bandwidth perturbation.
KDE_PEAK_GAP = 0.05
KDE_SHIFT_FACTOR = 0.5


def _kde_axis(x, who: str):
    """Checked sample, working axis t, Scott bandwidth h and log-scale flag.

    Strictly positive samples are smoothed in log space (the back-transform
    is exact), anything else on the raw axis.  ``h`` is None for a constant
    sample, which has no spread to smooth.
    """
    arr = _clean(x, KDE_MIN_POINTS, who)
    if float(np.ptp(arr)) == 0.0:
        return arr, arr, None, False
    log_scale = bool(np.all(arr > 0))
    t = np.log(arr) if log_scale else arr
    h = float(np.std(t)) * t.size ** (-0.2)
    if h <= 0 or not math.isfinite(h):
        raise ParameterError(f"{who}: could not form a positive bandwidth")
    return arr, t, h, log_scale


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
    pair = np.empty_like(out)
    for j in range(r, 0, -1):
        np.add(padded[..., r - j:r - j + n], padded[..., r + j:r + j + n], out=pair)
        pair *= weights[r + j]
        out += pair
    return out


def _grid(t: np.ndarray, h: float, log_scale: bool) -> tuple[np.ndarray, float, np.ndarray, np.ndarray | float]:
    """Centers, width, counts smoothed at h and tilt (e^-t, or 1.0 off the log axis) of a grid padded by 4h."""
    edges = np.linspace(float(np.min(t)) - 4.0 * h, float(np.max(t)) + 4.0 * h, KDE_GRID_SIZE + 1)
    counts, _ = np.histogram(t, bins=edges)
    centers, width = 0.5 * (edges[:-1] + edges[1:]), edges[1] - edges[0]
    shift = min(0.0, float(centers[0]) + LOG_FLOAT_MAX / 2)  # a constant factor: a finite tilt far below 0
    return centers, width, _smooth(counts, h, width), np.exp(shift - centers) if log_scale else 1.0


def _grid_objective(t: np.ndarray, h: float, log_scale: bool) -> tuple[np.ndarray, np.ndarray]:
    """Grid centers and the binned density objective whose argmax is the mode.

    In log scale the density of X at x=e^t is f_t(t)/e^t, so maximizing
    f_t(t)*e^{-t} finds the mode of X itself.
    """
    centers, width, smoothed, tilt = _grid(t, h, log_scale)
    return centers, smoothed / (t.size * width) * tilt


def kde_mode(x) -> KDEModeResult:
    """Gaussian-KDE mode with Scott bandwidth, grid search plus parabolic refine.

    Strictly positive samples are smoothed in log space (the back-transform
    is exact), anything else on the raw axis, on KDE_GRID_SIZE bins.  As in
    ``exact_typical_mean_ratio``, the mode is the vertex of the parabola
    through the log objective at the argmax bin and its neighbours, or that
    bin's centre at an end bin, a non-finite log or a convex fit.  It is
    flagged unstable when a local maximum more than a bin from the top comes
    within KDE_PEAK_GAP of its density or a +/-20% bandwidth change moves it
    by more than KDE_SHIFT_FACTOR bandwidths.
    """
    arr, t, h, log_scale = _kde_axis(x, "kde_mode")
    if h is None:
        return KDEModeResult(mode=float(arr[0]), bandwidth=0.0, stable=True, log_scale=False)

    centers, obj = _grid_objective(t, h, log_scale)
    k = int(np.argmax(obj))

    t_mode = float(centers[k])  # moved to the parabola's vertex where the guard allows
    if 0 < k < KDE_GRID_SIZE - 1:
        with np.errstate(divide="ignore"):
            a, b, c = np.log(obj[k - 1 : k + 2])
        if np.isfinite([a, b, c]).all() and a - 2 * b + c < 0:
            t_mode += 0.5 * (a - c) / (a - 2 * b + c) * float(centers[1] - centers[0])

    # Rival-peak check on the (back-transformed) density: an interior local maximum
    # more than a bin from the winner that comes within KDE_PEAK_GAP of it.
    peaks = np.flatnonzero((obj[1:-1] > obj[:-2]) & (obj[1:-1] >= obj[2:])) + 1
    stable = not np.any(obj[peaks[np.abs(peaks - k) > 1]] >= (1.0 - KDE_PEAK_GAP) * obj[k])

    # Bandwidth sensitivity check (grid-level is enough for a flag).
    for factor in (0.8, 1.2):
        alt_centers, alt_obj = _grid_objective(t, h * factor, log_scale)
        if abs(float(alt_centers[int(np.argmax(alt_obj))]) - t_mode) > KDE_SHIFT_FACTOR * h:
            stable = False
            break

    # A log-axis mode past the float range is +inf, which clips to the sample maximum.
    mode = (math.exp(t_mode) if t_mode <= LOG_FLOAT_MAX else math.inf) if log_scale else t_mode
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
    replicates = _check_count(replicates, "replicates", 2)  # a standard error (ddof=1) needs two
    arr, t, h, log_scale = _kde_axis(x, "bootstrap stderr")
    if h is None:
        return 0.0
    centers, width, smoothed, tilt = _grid(t, h, log_scale)

    rng = np.random.default_rng(seed)
    probs = smoothed / smoothed.sum()
    draws = rng.multinomial(arr.size, probs, size=replicates)
    t_star = centers[np.argmax(_smooth(draws, h, width) * tilt, axis=1)]
    modes = [math.exp(t) if t <= LOG_FLOAT_MAX else math.inf for t in t_star] if log_scale else t_star
    # Modes far below 1 are spread on a power-of-two upscale, so the spread cannot underflow.
    scale = 2.0 ** min(1023, max(0, -math.frexp(float(np.max(np.abs(modes))))[1]))
    with np.errstate(over="ignore", invalid="ignore"):  # inf - inf in a spread past the float range
        stderr = float(np.std(np.multiply(modes, scale), ddof=1)) / scale
    if not math.isfinite(stderr):
        raise ParameterError(f"bootstrap stderr: the spread of modes near {max(modes):.3g} overflows a float")
    return stderr


# ---------------------------------------------------------------------------
# Left-tail filter and summary
# ---------------------------------------------------------------------------

def tail_filter(sample: ReturnSample, threshold_log: float = TAIL_THRESHOLD_LOG) -> ReturnSample:
    """Keep entries with ln rho strictly above ``threshold_log`` (``-inf`` keeps all)."""
    if math.isnan(threshold_log):
        raise ParameterError("threshold_log must not be NaN")
    if threshold_log == math.inf:
        raise ParameterError(f"threshold_log must be below +inf, got {threshold_log}")
    keep = np.log(sample.rho) > threshold_log
    tickers = None if sample.tickers is None else tuple(compress(sample.tickers, keep))
    return ReturnSample(rho=sample.rho[keep], tickers=tickers, excluded=sample.excluded, removed=int(np.sum(~keep)))


def _finite_mean(rho: np.ndarray) -> float:
    """Mean of the returns ``rho``; ParameterError where it overflows a float."""
    with np.errstate(over="ignore"):
        mean = float(np.mean(rho))
    if not math.isfinite(mean):
        raise ParameterError(f"the mean of the {rho.size} returns overflows a float")
    return mean


def summarize_index(sample: ReturnSample) -> IndexSummary:
    """Assemble the total-return table row for one index."""
    n = len(sample)
    if n < 2:
        raise InsufficientDataError("summarize_index needs at least 2 returns")
    mean = _finite_mean(sample.rho)  # before the median, the mode and the winner shares
    median = float(np.median(sample.rho))

    mode: float | None = None
    mode_note = ""
    if n < KDE_MIN_POINTS:
        mode_note = "too few returns for kernel density mode"
    else:
        result = kde_mode(sample.rho)
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


def fit_macroscopic(sample: ReturnSample) -> tuple[LogNormalParams, MomentSummary | None]:
    """Log-normal fit of a (tail-filtered) return sample.

    Returns the fitted parameters and their closed-form moment summary; the
    summary is None for a degenerate fit.
    """
    params = fit_lognormal(sample.rho)
    return params, None if params.degenerate else lognormal_moments(params)


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

def write_report(destination, fieldnames, rows, fmt: str = "csv", meta: dict | None = None,
                 footer: dict | None = None) -> None:
    """Write report rows to the file at path ``destination``, creating its directory.

    ``rows`` are sequences of scalars or None in ``fieldnames`` order.  CSV
    is RFC-4180 with None as an empty field, floats as their shortest
    round-trip repr, and ``meta`` / ``footer`` as ``# key=value`` lines
    before the header / after the rows.  JSON is an array of row objects,
    led by a ``{"_meta": meta}`` object when meta is given.
    """
    if fmt not in ("csv", "json"):
        raise ParameterError(f"unknown output format {fmt!r}")
    Path(destination).parent.mkdir(parents=True, exist_ok=True)
    with open(destination, "w", newline="", encoding="utf-8") as fh:
        if fmt == "json":  # the bytes of json.dump(payload, fh, indent=2) plus a newline
            import json  # here, so a launch that writes only CSV does not load it

            head = [{"_meta": meta}] if meta else []
            objects = [dict(zip(fieldnames, row)) for row in rows]
            if not (objects and all(objects)):  # indent=2 writes an empty list or object as [] or {}
                fh.write(json.dumps(head + objects, indent=2) + "\n")
                return
            # C-encoded (no indent), then re-indented at the row breaks: no JSON string holds a raw newline.
            body = json.dumps(objects, separators=(",\n    ", ": "))[2:-2]
            lead = json.dumps(head, indent=2)[:-2] + ",\n" if meta else "[\n"
            fh.write(lead + "  {\n    " + body.replace("},\n    {", "\n  },\n  {\n    ") + "\n  }\n]\n")
            return
        for key, value in (meta or {}).items():
            fh.write(f"# {key}={value}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(fieldnames)
        writer.writerows(rows)
        for key, value in (footer or {}).items():
            fh.write(f"# {key}={value}\n")


_WRITE_BLOCK = 1 << 14  # values per joined block of a single-column sample write


def write_returns_csv(sample: ReturnSample, destination) -> None:
    """Write a return sample as CSV: ``ticker,rho`` (or a single ``rho``
    column when the sample carries no tickers).  Python floats format
    faster than numpy scalars and print the same digits.  A single column
    is written in joined blocks of reprs, the bytes ``write_report`` writes."""
    if sample.tickers is not None:
        write_report(destination, ["ticker", "rho"], zip(sample.tickers, sample.rho.tolist()))
        return
    Path(destination).parent.mkdir(parents=True, exist_ok=True)
    with open(destination, "w", newline="", encoding="utf-8") as fh:
        fh.write("rho\n")
        for start in range(0, sample.rho.size, _WRITE_BLOCK):
            fh.write("\n".join(map(repr, sample.rho[start : start + _WRITE_BLOCK].tolist())) + "\n")


# ---------------------------------------------------------------------------
# QQ data
# ---------------------------------------------------------------------------

def qq_data(sample: ReturnSample, fitted: LogNormalParams) -> np.ndarray:
    """(theoretical, empirical) quantile pairs of ln rho against a fitted log-normal law.

    Plotting positions are (i - 0.5)/n.  The fit describes rho itself, so
    its quantiles are mapped through ln.
    """
    n = len(sample)
    if n < 10:
        raise InsufficientDataError("qq_data needs at least 10 returns")
    empirical = np.sort(np.log(sample.rho))
    positions = (np.arange(1, n + 1) - 0.5) / n
    return np.column_stack([np.log(quantile(fitted, positions)), empirical])
