"""The whole-panel passes of ``total_returns`` and the GBM estimator against
the per-ticker loops they replaced.

``reference_total_returns`` and ``reference_estimate`` are those loops, kept
verbatim as oracles.  Every result must match them bit for bit: the same
float bits, tickers and exclusions, or the same exception type and message.
"""

import dataclasses
import datetime as dt
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bigwinners.empirical import ENDPOINT_TOLERANCE_DAYS, PricePanel, ReturnSample, load_panel, total_returns
from bigwinners.errors import DataError, InsufficientDataError, ParameterError
from bigwinners.gbm import (
    MIN_WINDOW_COVERAGE,
    DriftVolPanel,
    GBMEstimate,
    PricePath,
    build_panel,
    estimate_gbm,
    write_panel_csv,
)
from conftest import build_panel_of_paths, panel_of_series, series_of

EPOCH = dt.date(1970, 1, 1).toordinal()
MIN_DAY = dt.date.min.toordinal() - EPOCH  # 0001-01-01
MAX_DAY = dt.date.max.toordinal() - EPOCH  # 9999-12-31


# ---------------------------------------------------------------------------
# total_returns
# ---------------------------------------------------------------------------

def _nearest_within(dates: np.ndarray, target: np.datetime64) -> int | None:
    gaps = np.abs((dates - target).astype("timedelta64[D]").astype(int))
    k = int(np.argmin(gaps))
    return k if gaps[k] <= ENDPOINT_TOLERANCE_DAYS else None


def reference_total_returns(panel, window=None) -> ReturnSample:
    start, end = window if window is not None else panel.window
    t0 = np.datetime64(start)
    t1 = np.datetime64(end)
    rhos: list[float] = []
    keep: list[str] = []
    excluded: list[tuple[str, str]] = []
    for ticker, (dates, prices) in series_of(panel).items():
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
        excluded=tuple(excluded),
    )


def _date(day: int) -> dt.date:
    return dt.date.fromordinal(day + EPOCH)


def _panel(days_by_ticker: dict[str, list[int]], prices_by_ticker: dict[str, list[float]]) -> PricePanel:
    series = {
        ticker: (np.array(days, dtype=np.int64).view("datetime64[D]"), np.array(prices_by_ticker[ticker]))
        for ticker, days in days_by_ticker.items()
    }
    every = [d for days in days_by_ticker.values() for d in days]
    return panel_of_series(series, window=(_date(min(every)), _date(max(every))))


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (DataError, InsufficientDataError, ParameterError) as exc:
        return type(exc), str(exc)


def _assert_same_sample(got, want):
    if isinstance(want, tuple):
        assert got == want
        return
    assert got.rho.dtype == want.rho.dtype
    assert got.rho.tobytes() == want.rho.tobytes()
    assert got.tickers == want.tickers
    assert got.excluded == want.excluded


edge_days = st.one_of(st.sampled_from([MIN_DAY, MAX_DAY, 0]), st.integers(MIN_DAY, MAX_DAY))


@st.composite
def return_panels(draw):
    """Panels whose dates crowd both window edges, at 10 and 11 days too."""
    t0, t1 = draw(edge_days), draw(edge_days)
    names = draw(st.lists(st.text("ABCab", min_size=1, max_size=3), min_size=1, max_size=6, unique=True))
    days_by_ticker, prices_by_ticker = {}, {}
    for name in names:
        near = st.tuples(st.sampled_from([t0, t1]), st.integers(-12, 12))
        days = {edge + offset for edge, offset in draw(st.lists(near, max_size=6))}
        if draw(st.booleans()):  # one date on each side of an edge, equally far
            edge, gap = draw(st.sampled_from([t0, t1])), draw(st.integers(1, 11))
            days |= {edge - gap, edge + gap}
        days |= set(draw(st.lists(st.integers(MIN_DAY, MAX_DAY), max_size=2)))
        days = sorted(d for d in days if MIN_DAY <= d <= MAX_DAY) or [draw(st.sampled_from([t0, t1]))]
        prices = draw(st.lists(st.floats(1e-3, 1e3), min_size=len(days), max_size=len(days)))
        days_by_ticker[name], prices_by_ticker[name] = days, prices
    window = (_date(t0), _date(t1)) if draw(st.booleans()) else None
    return _panel(days_by_ticker, prices_by_ticker), window


@settings(max_examples=400, deadline=None)
@given(return_panels())
def test_total_returns_matches_the_per_ticker_loop(case):
    panel, window = case
    _assert_same_sample(_outcome(total_returns, panel, window), _outcome(reference_total_returns, panel, window))


def test_total_returns_edge_cases_match_the_loop():
    e0, e1 = 1000, 2000
    days = {
        "TIE": [e0 - 3, e0 + 3, e1 - 5, e1 + 5],  # equidistant: the earlier date wins
        "AT10": [e0 - 10, e1 + 10],
        "AT11": [e0 + 11, e1 - 11],
        "ONE": [e0],  # both edges of a short window pick this row
        "MID": [e0 + 10, e1 - 10],
        "SPAN": [MIN_DAY, MAX_DAY],
    }
    prices = {ticker: [1.0 + 0.5 * i for i in range(len(d))] for ticker, d in days.items()}
    panel = _panel(days, prices)
    windows = [None, (e0, e1), (MIN_DAY, MAX_DAY), (e0, e0 + 5), (0, 5)]
    for window in [w and (_date(w[0]), _date(w[1])) for w in windows]:
        _assert_same_sample(_outcome(total_returns, panel, window), _outcome(reference_total_returns, panel, window))
    sample = total_returns(panel, (_date(e0), _date(e1)))
    assert sample.tickers == ("AT10", "MID", "TIE")
    assert sample.rho.tolist() == [1.5, 1.5, 2.0]
    assert sample.excluded == tuple((t, "insufficient window coverage") for t in ("AT11", "ONE", "SPAN"))
    assert total_returns(panel).tickers == total_returns(panel, (_date(MIN_DAY), _date(MAX_DAY))).tickers == ("SPAN",)
    assert ("ONE", "insufficient window coverage") in total_returns(panel, (_date(e0), _date(e0 + 5))).excluded


# ---------------------------------------------------------------------------
# GBM estimates
# ---------------------------------------------------------------------------

def reference_estimate(path: PricePath, method: str = "endpoint") -> GBMEstimate:
    if path.prices.size < 3:
        raise InsufficientDataError("estimate_gbm needs at least 3 prices")
    r = np.diff(np.log(path.prices))
    t_steps = r.size
    total = float(np.sum(r))
    if method == "endpoint":
        raw_step = (float(np.sum(r * r)) - total * total / (t_steps - 1)) / t_steps
    elif method == "mle":
        raw_step = float(np.var(r))
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


def reference_usable(paths, method):
    """The estimates and exclusions of the per-path loop ``build_panel`` ran."""
    window = max((path.prices.size - 1) * path.dt for path in paths.values())
    usable, excluded = [], []
    for ticker in sorted(paths):
        path = paths[ticker]
        if path.prices.size < 3 or (path.prices.size - 1) * path.dt < MIN_WINDOW_COVERAGE * window:
            excluded.append(ticker)
            continue
        usable.append((ticker, reference_estimate(path, method=method)))
    if len(usable) < 3:
        raise InsufficientDataError(f"build_panel needs at least 3 usable paths, got {len(usable)}")
    return tuple(usable), tuple(excluded)


def _bits(estimate: GBMEstimate):
    """Exact types and float bits, so a numpy scalar or -0.0 for 0.0 would differ."""
    values = (estimate.mu_hat, estimate.sigma_hat, estimate.sigma_sq_raw, estimate.clamped)
    return tuple((type(v), v.hex() if isinstance(v, float) else v) for v in values)


def _rows(panel):
    """The panel's estimate columns as ``(ticker, GBMEstimate)`` rows."""
    columns = (panel.mu_hats, panel.sigma_hats, panel.sigma_sq_raw, panel.clamped)
    return list(zip(panel.tickers, map(GBMEstimate, *(column.tolist() for column in columns))))


def _estimate_outcome(fn, path, method):
    result = _outcome(fn, path, method)
    return _bits(result) if isinstance(result, GBMEstimate) else result


@st.composite
def price_paths(draw, size=None, dt_=None):
    """Random walks, drift-dominated (clamped) and flat paths of 1 to 300 prices,
    or of ``size`` prices at step ``dt_`` where given."""
    if size is None:
        size = draw(st.one_of(st.integers(1, 12), st.integers(1, 300), st.sampled_from([9, 10, 129, 130, 257])))
    if dt_ is None:
        dt_ = draw(st.sampled_from([1.0, 1 / 252, 0.25, 7.0, 3]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["walk", "trend", "flat"]))
    step = {"walk": rng.normal(0.01, 0.2, size - 1), "trend": np.full(size - 1, 0.05), "flat": np.zeros(size - 1)}[kind]
    x0 = float(rng.uniform(0.5, 50.0))
    prices = x0 * np.exp(np.concatenate(([0.0], np.cumsum(step))))
    prices[0] = x0
    return PricePath(x0=x0, prices=prices, dt=dt_)


@settings(max_examples=300, deadline=None)
@given(st.lists(price_paths(), min_size=1, max_size=8), st.sampled_from(["endpoint", "mle"]))
def test_build_panel_estimates_match_the_per_path_formula(paths, method):
    paths = {f"T{i:02d}": p for i, p in enumerate(paths)}
    for path in paths.values():
        assert _estimate_outcome(estimate_gbm, path, method) == _estimate_outcome(reference_estimate, path, method)
    try:
        usable, excluded = reference_usable(paths, method)
    except InsufficientDataError as exc:
        assert _outcome(build_panel_of_paths, paths, method) == (InsufficientDataError, str(exc))
        return
    panel = build_panel_of_paths(paths, method)
    assert [(t, _bits(e)) for t, e in _rows(panel)] == [(t, _bits(e)) for t, e in usable]
    assert panel.excluded == excluded


@pytest.mark.parametrize("method", ["endpoint", "mle"])
def test_every_length_3_to_300_matches_bit_for_bit(method):
    """One path of each length, all spanning about 10 years at their own dt, and all in one pass."""
    rng = np.random.default_rng(11)
    paths = {}
    for size in range(3, 301):
        x0 = float(rng.uniform(1.0, 10.0))
        prices = x0 * np.exp(np.concatenate(([0.0], np.cumsum(rng.normal(0.0, 0.3, size - 1)))))
        prices[0] = x0
        paths[f"L{size:03d}"] = PricePath(x0=x0, prices=prices, dt=10.0 / (size - 1))
    paths["SHORT"] = PricePath(x0=1.0, prices=np.exp(0.01 * np.arange(50.0)), dt=0.1)  # covers 4.9 of 10 years
    paths["TREND"] = PricePath(x0=1.0, prices=np.exp(0.1 * np.arange(300.0)), dt=10.0 / 299)
    panel = build_panel_of_paths(paths, method)
    usable, excluded = reference_usable(paths, method)
    assert [(t, _bits(e)) for t, e in _rows(panel)] == [(t, _bits(e)) for t, e in usable]
    assert len(_rows(panel)) == 299 and panel.excluded == excluded == ("SHORT",)
    assert dict(_rows(panel))["TREND"].clamped is (method == "endpoint")


def _vol_fit_degenerate(panel) -> int:
    """The ``vol_fit_degenerate`` count of ``panel``'s ``panel.csv`` footer, 0 if absent."""
    with tempfile.TemporaryDirectory() as tmp:
        write_panel_csv(panel, Path(tmp) / "panel.csv")
        lines = (Path(tmp) / "panel.csv").read_text(encoding="utf-8").splitlines()
    counts = [int(line.split("=")[1]) for line in lines if line.startswith("# vol_fit_degenerate=")]
    return counts[0] if counts else 0


@st.composite
def usable_panels(draw):
    """Paths at one step: 3 over the whole window of 3 to 60 prices and up to 5
    more of any length up to it; the window's size and the step."""
    window, dt_ = draw(st.integers(3, 60)), draw(st.sampled_from([1.0, 1 / 252, 0.25]))
    sizes = [window] * 3 + draw(st.lists(st.integers(1, window), max_size=5))
    return {f"T{i:02d}": draw(price_paths(size, dt_)) for i, size in enumerate(sizes)}, window, dt_


@settings(max_examples=200, deadline=None)
@given(
    usable_panels(),
    st.sampled_from([("flat", "endpoint"), ("flat", "mle"), ("trend", "endpoint")]),
    st.floats(0.01, 0.3) | st.floats(-0.3, -0.01),
)
def test_a_zero_vol_path_leaves_the_vol_fit_as_it_was(panel, case, growth):
    """One flat path (either estimator) or noiseless trend (``endpoint``, which
    clamps it) added over the whole window leaves ``vol_fit`` as it was and
    raises the ``vol_fit_degenerate`` count by one."""
    (paths, window, dt_), (kind, method) = panel, case
    without = build_panel_of_paths(paths, method)
    steps = np.arange(float(window)) * (growth if kind == "trend" else 0.0)
    with_added = build_panel_of_paths({**paths, "ZERO": PricePath(3.0, 3.0 * np.exp(steps), dt_)}, method)
    assert with_added.sigma_hats[with_added.tickers.index("ZERO")] == 0.0
    assert repr(with_added.vol_fit) == repr(without.vol_fit)
    assert dict(with_added.fit_errors).get("vol_fit") == dict(without.fit_errors).get("vol_fit")
    assert _vol_fit_degenerate(with_added) == _vol_fit_degenerate(without) + 1


def _path(size):
    return PricePath(x0=1.0, prices=np.array([1.0, 1.2, 1.1, 1.3, 1.25][:size]), dt=1.0)


def test_unknown_method_is_refused_once_a_path_is_usable():
    with pytest.raises(ParameterError, match="unknown estimator method 'bogus'"):
        build_panel_of_paths({"A": _path(5), "B": _path(2)}, method="bogus")
    with pytest.raises(ParameterError, match="unknown estimator method 'bogus'"):
        estimate_gbm(_path(3), method="bogus")


def test_no_usable_path_is_insufficient_data_whatever_the_method():
    with pytest.raises(InsufficientDataError, match="got 0"):
        build_panel_of_paths({"A": _path(2), "B": _path(1)}, method="bogus")
    with pytest.raises(InsufficientDataError, match="at least 3 prices"):
        estimate_gbm(_path(2), method="bogus")


@st.composite
def gbm_price_files(draw):
    """Paths of 1 to 40 prices, most over a common window and some delisted early,
    as the rows of a price file, ticker-major or date-major."""
    window = draw(st.integers(3, 40))
    names = draw(st.lists(st.text("ABCab", min_size=1, max_size=3), min_size=3, max_size=10, unique=True))
    paths = {}
    for name in names:
        size = window if draw(st.integers(0, 2)) else draw(st.integers(1, window))
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        kind = draw(st.sampled_from(["walk", "walk", "trend", "flat"]))
        step = {"walk": rng.normal(0.01, 0.2, size - 1), "trend": np.full(size - 1, 0.05), "flat": np.zeros(size - 1)}[kind]
        paths[name] = float(rng.uniform(0.5, 50.0)) * np.exp(np.concatenate(([0.0], np.cumsum(step))))
    rows = [(j, ticker, price) for ticker, prices in paths.items() for j, price in enumerate(prices.tolist())]
    if draw(st.booleans()):
        rows.sort()  # date-major
    day0 = dt.date(2006, 1, 2)
    text = "ticker,date,adj_close\n" + "".join(f"{t},{day0 + dt.timedelta(days=j)},{p!r}\n" for j, t, p in rows)
    return paths, text


def _fields(panel):
    """Every field of a panel: arrays by dtype and bytes, the rest by repr."""
    if isinstance(panel, tuple):
        return panel
    return [
        (value.dtype, value.tobytes()) if isinstance(value, np.ndarray) else repr(value)
        for value in (getattr(panel, field.name) for field in dataclasses.fields(DriftVolPanel))
    ]


@settings(max_examples=150, deadline=None)
@given(gbm_price_files(), st.sampled_from([1.0, 0.25, 1 / 252]), st.sampled_from(["endpoint", "mle"]))
def test_loaded_columns_give_build_panel_of_the_paths(case, dt_, method):
    """The ``gbm`` route (the loaded panel's table) and ``build_panel`` of the
    same prices as ``PricePath``s give the same panel, field for field."""
    paths, text = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "prices.csv"
        path.write_text(text, encoding="utf-8")
        loaded = load_panel(path)
    got = _outcome(build_panel, loaded, dt_, method)
    want = _outcome(build_panel_of_paths, {t: PricePath(float(p[0]), p, dt_) for t, p in paths.items()}, method)
    assert _fields(got) == _fields(want)
