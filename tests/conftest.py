import datetime as dt

import numpy as np
import pytest

from bigwinners.empirical import PricePanel
from bigwinners.gbm import build_panel


def bootstrap_se(values, statistic, seed, replicates=200):
    """Standard error of a statistic by nonparametric bootstrap."""
    rng = np.random.default_rng(seed)
    values = np.asarray(values)
    out = np.empty(replicates)
    for i in range(replicates):
        out[i] = statistic(values[rng.integers(0, values.size, values.size)])
    return float(np.std(out, ddof=1))


def panel_of_series(series, window, notes=()) -> PricePanel:
    """The panel of per-ticker ``series`` (ticker -> (dates, prices)), laid end
    to end in sorted ticker order."""
    tickers = tuple(sorted(series))
    return PricePanel(
        tickers,
        np.array([series[ticker][0].size for ticker in tickers], dtype=np.int64),
        np.concatenate([np.empty(0, "datetime64[D]"), *(series[ticker][0] for ticker in tickers)]),
        np.concatenate([np.empty(0), *(series[ticker][1] for ticker in tickers)]),
        window,
        tuple(notes),
    )


def build_panel_of_paths(paths, method="endpoint"):
    """``build_panel`` of ``paths`` (ticker -> ``PricePath``): their prices laid end
    to end as one table, each ticker at its path's own ``dt``."""
    tickers = sorted(paths)
    series = {ticker: (np.arange(paths[ticker].prices.size).astype("datetime64[D]"), paths[ticker].prices) for ticker in tickers}
    table = panel_of_series(series, (dt.date(1970, 1, 1), dt.date(1970, 1, 1)))
    return build_panel(table, [paths[ticker].dt for ticker in tickers], method)


def series_of(panel: PricePanel) -> dict:
    """The ticker -> (dates, prices) slices of ``panel``, in its ticker order."""
    bounds = [0, *np.cumsum(panel.sizes).tolist()]
    return {ticker: (panel.dates[a:b], panel.prices[a:b]) for ticker, a, b in zip(panel.tickers, bounds, bounds[1:])}


@pytest.fixture
def price_csv(tmp_path):
    """Write ticker/date/price rows to a temp CSV and return its path."""

    def _write(rows, name="prices.csv", header="ticker,date,adj_close"):
        path = tmp_path / name
        lines = [header] + [",".join(str(part) for part in row) for row in rows]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return path

    return _write
