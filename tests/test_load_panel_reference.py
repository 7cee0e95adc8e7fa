"""The columnar ``load_panel`` against the row-by-row loader it replaced.

``reference_load_panel`` is that loader, kept verbatim as an oracle.  On
every generated file both loaders must return equal panels (series order,
dtypes, arrays, notes, window) or raise the same exception type with the
same message.  Which date spellings ``datetime.date.fromisoformat``
accepts depends on the Python version, so acceptance is only ever judged
against the reference, never asserted directly.
"""

import csv
import datetime as dt
import io
import math
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings, strategies as st

from bigwinners.empirical import PricePanel, load_panel
from bigwinners.errors import DataError, ParseError

_COLUMNS = ("ticker", "date", "adj_close")


def reference_load_panel(source) -> PricePanel:
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


# Raw spellings of each ticker: padded ones strip to the same name, and a
# ticker with a comma must be quoted in the file.
TICKERS = {
    "AAA": ["AAA", " AAA", "AAA  "],
    "B,1": ["B,1", " B,1 "],
    "CC": ["CC", "\tCC"],
}
# Spellings of each day: canonical, padded, and valid but non-canonical ISO
# forms (basic and week dates, accepted by newer Pythons only).
DAYS = {
    dt.date(2006, 1, 2): ["2006-01-02", " 2006-01-02", "20060102", "2006-W01-1"],
    dt.date(2006, 1, 3): ["2006-01-03", "2006-01-03 ", "2006-W01-2"],
    dt.date(2005, 12, 30): ["2005-12-30", "20051230"],
    dt.date(2006, 2, 1): ["2006-02-01"],
    dt.date(2007, 6, 15): ["2007-06-15"],
}
GOOD_PRICES = ["10.5", "1_000", " 10.0 ", "1e3", "0.25", "7"]
# Date strings numpy's datetime parser accepts but the loader must reject,
# beside plainly malformed ones.
BAD_DATES = ["2006", "2006-01", "NaT", "2006-01-02T00", "+02006-01-02", "02/01/2006", ""]
BAD_PRICES = ["nan", "inf", "-inf", "0", "-3", "x", ""]
BAD_TICKERS = ["", "   "]

good_row = st.tuples(
    st.sampled_from(sorted(TICKERS)), st.sampled_from(sorted(DAYS))
).flatmap(
    lambda key: st.tuples(
        st.sampled_from(TICKERS[key[0]]), st.sampled_from(DAYS[key[1]]), st.sampled_from(GOOD_PRICES)
    )
)


@st.composite
def bad_row(draw):
    """A row with one or two faults: field count, ticker, date and price."""
    ticker, date, price = draw(good_row)
    kind = draw(st.sampled_from(["fields", "ticker", "date", "price", "date+price", "ticker+price"]))
    if kind == "fields":
        return draw(st.sampled_from([[ticker, date], [ticker, date, price, price]]))
    if "ticker" in kind:
        ticker = draw(st.sampled_from(BAD_TICKERS))
    if "date" in kind:
        date = draw(st.sampled_from(BAD_DATES))
    if "price" in kind:
        price = draw(st.sampled_from(BAD_PRICES))
    return [ticker, date, price]


@st.composite
def price_files(draw):
    """File text: unique good rows, optional duplicates, faults, blank lines
    and a BOM, in a shuffled order."""
    keys = draw(st.lists(
        st.tuples(st.sampled_from(sorted(TICKERS)), st.sampled_from(sorted(DAYS))),
        unique=True, max_size=12,
    ))
    rows = [
        [draw(st.sampled_from(TICKERS[t])), draw(st.sampled_from(DAYS[d])),
         draw(st.sampled_from(GOOD_PRICES))]
        for t, d in keys
    ]
    rows += [list(draw(good_row)) for _ in range(draw(st.integers(0, 1)))]  # may duplicate a key
    rows += draw(st.lists(bad_row(), max_size=2))
    rows += [[] for _ in range(draw(st.integers(0, 2)))] + [["  "]] * draw(st.integers(0, 1))
    rows = draw(st.permutations(rows))

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_COLUMNS)
    writer.writerows(rows)
    return ("\ufeff" if draw(st.booleans()) else "") + buf.getvalue()


def outcome(loader, path):
    try:
        return loader(path)
    except Exception as exc:  # compared by type and message
        return exc


def assert_same_outcome(got, want):
    if isinstance(want, Exception):
        assert type(got) is type(want), (got, want)
        assert str(got) == str(want)
        return
    assert isinstance(got, PricePanel), got
    assert list(got.series) == list(want.series)
    assert got.notes == want.notes
    assert got.window == want.window
    for ticker, (dates, prices) in want.series.items():
        got_dates, got_prices = got.series[ticker]
        assert got_dates.dtype == dates.dtype and got_prices.dtype == prices.dtype
        assert np.array_equal(got_dates, dates) and np.array_equal(got_prices, prices)


@settings(max_examples=400, deadline=None)
@given(price_files())
def test_matches_row_by_row_reference(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "prices.csv"
        path.write_text(text, encoding="utf-8")
        assert_same_outcome(outcome(load_panel, path), outcome(reference_load_panel, path))


def test_fixed_file_with_note_merged_ticker_and_quoted_comma(tmp_path):
    """A fixed file whose load succeeds, with a note, a merged padded ticker
    and a quoted comma ticker."""
    path = tmp_path / "prices.csv"
    path.write_text(
        "ticker,date,adj_close\n"
        'AAA,2006-01-03,2\n"B,1",2006-01-02,5\n AAA ,2006-01-02,1\n\nCC,2007-06-15,1e3\n',
        encoding="utf-8",
    )
    panel = load_panel(path)
    assert list(panel.series) == ["AAA", "B,1", "CC"]
    assert panel.notes == ("AAA: rows were out of date order; sorted",)
    assert_same_outcome(panel, reference_load_panel(path))


def test_undecodable_bytes_after_a_bad_row(tmp_path):
    """A fault on an early line is reported before an undecodable byte that
    the reader meets later in the file, as when rows were checked one by one;
    without the fault, the byte is the fault, named on its own line."""
    good = b"".join(b"AAA,%d-01-02,1\n" % year for year in range(1000, 4000))
    path = tmp_path / "prices.csv"
    path.write_bytes(b"ticker,date,adj_close\nBBB,2006,1\n" + good + b"\xff\n")
    assert str(outcome(load_panel, path)) == "line 2: bad date '2006'"
    assert_same_outcome(outcome(load_panel, path), outcome(reference_load_panel, path))
    path.write_bytes(b"ticker,date,adj_close\n" + good + b"\xff\n")
    assert_same_outcome(outcome(load_panel, path), ParseError("line 3002: byte 0xff is not UTF-8 text"))
