"""The columnar ``load_panel`` against the row-by-row loader it replaced.

``reference_load_panel`` is that loader, kept verbatim as an oracle; only
its per-ticker series are laid out as one table at the end.  On every
generated file both loaders must return equal panels (sorted tickers,
sizes, dates and prices by dtype and value, notes in file order, window)
or raise the same exception type with the same message.  Which date
spellings ``datetime.date.fromisoformat`` accepts depends on the Python
version, so acceptance is only ever judged against the reference, never
asserted directly.
"""

import csv
import datetime as dt
import io
import math
import re
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bigwinners import empirical
from bigwinners.cli import main
from bigwinners.empirical import PricePanel, load_panel
from bigwinners.errors import DataError, ParseError
from conftest import panel_of_series

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
    return panel_of_series(series, window, notes)


# Raw spellings of each ticker: padded ones strip to the same name, and a
# ticker with a comma must be quoted in the file.
TICKERS = {
    "AAA": ["AAA", " AAA", "AAA  "],
    "B,1": ["B,1", " B,1 "],
    "CC": ["CC", "\tCC"],
}
# Spellings of each day: canonical, padded, and valid but non-canonical ISO
# forms (basic and week dates, accepted by newer Pythons only).  The first and
# last days ``dt.date`` holds, and a day before 1970, put negative and extreme
# day numbers into the sort.
DAYS = {
    dt.date(2006, 1, 2): ["2006-01-02", " 2006-01-02", "20060102", "2006-W01-1"],
    dt.date(2006, 1, 3): ["2006-01-03", "2006-01-03 ", "2006-W01-2"],
    dt.date(2005, 12, 30): ["2005-12-30", "20051230"],
    dt.date(2006, 2, 1): ["2006-02-01"],
    dt.date(2007, 6, 15): ["2007-06-15"],
    dt.date(1, 1, 1): ["0001-01-01"],
    dt.date(1969, 12, 31): ["1969-12-31", "19691231"],
    dt.date(9999, 12, 31): ["9999-12-31"],
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
    assert got.tickers == want.tickers
    assert got.notes == want.notes
    assert got.window == want.window
    for field in ("sizes", "dates", "prices"):
        got_column, want_column = getattr(got, field), getattr(want, field)
        assert got_column.dtype == want_column.dtype and np.array_equal(got_column, want_column), field


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
    assert panel.tickers == ("AAA", "B,1", "CC")
    assert panel.notes == ("AAA: rows were out of date order; sorted",)
    assert_same_outcome(panel, reference_load_panel(path))


def test_duplicates_of_several_tickers_name_the_first_met(tmp_path):
    """With duplicates in two tickers, the error names the ticker met first in
    the file, not first by name, at its earliest duplicate date."""
    path = tmp_path / "prices.csv"
    path.write_text(
        "ticker,date,adj_close\n"
        "ZZZ,2006-01-03,1\nAAA,2006-01-02,1\nAAA,2006-01-02,2\nZZZ,2006-01-03,2\nZZZ,2006-01-02,3\n"
        "ZZZ,2006-01-02,4\n",
        encoding="utf-8",
    )
    got = outcome(load_panel, path)
    assert str(got) == "duplicate (ticker, date) row: ZZZ on 2006-01-02"
    assert_same_outcome(got, outcome(reference_load_panel, path))


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


# ---------------------------------------------------------------------------
# Bulk and csv routes: load_panel parses plain rows a chunk at a time and
# hands the first chunk that needs csv.reader, and all after it, to
# csv.reader.  Small chunk sizes put every kind of line on a chunk border.
# ---------------------------------------------------------------------------

CHUNK_SIZES = st.integers(1, 80) | st.just(empirical._CHUNK_BYTES)
# Rows csv.reader must read: a quoted comma or newline, NUL bytes (a csv
# error before Python 3.11), whitespace-only lines, 1 and 5 fields.
MESSY_ROWS = [
    ["B,1", "2006-01-02", "5"], ["A\nA", "2006-01-03", "2"], ["AAA", "2006-01-02\n", "3"],
    ["CC", "2006-02-01", "7\n"], ["\nAAA", "2007-06-15", "1"], [" "], ["\t"], ["AAA"],
    ["AAA", "2006-01-02", "1", "2", "3"],
] + ([["N\0", "2006-01-02", "4"], ["CC", "2006-01-03", "4\0"]] if sys.version_info >= (3, 11) else [])


@st.composite
def messy_price_files(draw):
    """File bytes: rows of ``price_files`` and of MESSY_ROWS, each ended by LF,
    CRLF or CR and some with every field quoted."""
    text = draw(price_files())
    bom = "\ufeff" * text.startswith("\ufeff")
    rows = list(csv.reader(io.StringIO(text[len(bom):])))
    rows[1:] = draw(st.permutations(rows[1:] + draw(st.lists(st.sampled_from(MESSY_ROWS), max_size=4))))
    buf = io.StringIO()
    for row in rows:
        quoting = csv.QUOTE_ALL if draw(st.booleans()) else csv.QUOTE_MINIMAL
        csv.writer(buf, lineterminator=draw(st.sampled_from(["\n", "\r\n", "\r"])), quoting=quoting).writerow(row)
    return (bom + buf.getvalue()).encode("utf-8")


def physical_reference(path):
    """The outcome of ``reference_load_panel``, with the record number its
    error names turned into the physical line that record ends on."""
    want = outcome(reference_load_panel, path)
    found = re.match(r"line (\d+): ", str(want)) if isinstance(want, Exception) else None
    if found is None:
        return want
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        ends = [reader.line_num for _ in reader]
    return type(want)(f"line {ends[int(found[1]) - 1]}: {str(want)[found.end():]}")


def load_in_chunks(path, size):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(empirical, "_CHUNK_BYTES", size)
        return outcome(load_panel, path)


@settings(max_examples=400, deadline=None)
@given(price_files(), CHUNK_SIZES)
def test_chunk_borders_match_the_reference(text, size):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "prices.csv"
        path.write_bytes(text.encode("utf-8"))
        assert_same_outcome(load_in_chunks(path, size), outcome(reference_load_panel, path))


@settings(max_examples=400, deadline=None)
@given(messy_price_files(), CHUNK_SIZES)
def test_rows_for_csv_reader_at_chunk_borders_match_the_reference(data, size):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "prices.csv"
        path.write_bytes(data)
        assert_same_outcome(load_in_chunks(path, size), physical_reference(path))


def plain_rows(n: int) -> bytes:
    """``n`` plain rows of 20 bytes each: 25 tickers over consecutive days."""
    day0 = dt.date(2006, 1, 2)
    return b"".join(b"T%03d,%s,%d.5\n" % (i % 25, str(day0 + dt.timedelta(i // 25)).encode(), 1 + i % 7)
                    for i in range(n))


SIZES = [empirical._CHUNK_BYTES, 5, 24, 61]


@pytest.mark.parametrize("size", SIZES)
def test_three_fields_per_line_not_in_total(tmp_path, capsys, size):
    """Three fields a line, not a field count that is a multiple of 3,
    admits a chunk to the bulk route."""
    path = tmp_path / "prices.csv"
    path.write_bytes(b"ticker,date,adj_close\nAAA\n2006-01-02,5,BBB,2006-01-03,7\n")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(empirical, "_CHUNK_BYTES", size)
        assert main(["analyze", "--input", str(path), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == "analyze: prices: line 2: expected 3 fields, got 1\n"


@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("fault", [b"", b"T999,2006-01-02,x\n"], ids=["clean", "bad_price_after"])
@pytest.mark.parametrize("cr", [(b"\n", b"\r\n"), (b",", b"\r,")], ids=["crlf", "cr_ends_a_ticker"])
def test_cr_first_met_in_the_third_chunk(tmp_path, size, fault, cr):
    """A CR in the third chunk sends it to csv.reader, with the same rows and
    line numbers as reading every row with csv.reader: after a CRLF line end
    the load goes on, and a CR after a ticker ends a 1-field line."""
    per_chunk = max(size // 20, 1)  # whole 20-byte rows in each bulk chunk
    rows = plain_rows(3 * per_chunk + 40).splitlines(keepends=True)
    rows[2 * per_chunk + 1] = rows[2 * per_chunk + 1].replace(*cr, 1)
    path = tmp_path / "prices.csv"
    path.write_bytes(b"ticker,date,adj_close\n" + b"".join(rows) + fault)
    got = load_in_chunks(path, size)
    assert_same_outcome(got, physical_reference(path))
    if cr[0] == b",":
        assert str(got) == f"line {2 * per_chunk + 3}: expected 3 fields, got 1"
    elif fault:
        assert str(got) == f"line {len(rows) + 2}: bad price 'x'"


@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("field", [0, 1, 2], ids=["ticker", "date", "price"])
def test_non_utf8_byte_in_a_bulk_chunk_names_its_line(tmp_path, size, field):
    rows = plain_rows(60).splitlines(keepends=True)
    fields = rows[37].split(b",")
    fields[field] = b"\xe9" + fields[field]
    rows[37] = b",".join(fields)
    path = tmp_path / "prices.csv"
    path.write_bytes(b"ticker,date,adj_close\n" + b"".join(rows))
    assert str(load_in_chunks(path, size)) == "line 39: byte 0xe9 is not UTF-8 text"


def test_plain_rows_never_reach_csv_reader(tmp_path, monkeypatch):
    """On a plain file of many chunks, csv.reader reads the header line alone."""
    seen = []
    real_reader = csv.reader
    monkeypatch.setattr(csv, "reader", lambda lines, *args, **kwargs: real_reader(
        (seen.append(line) or line for line in lines), *args, **kwargs))
    monkeypatch.setattr(empirical, "_CHUNK_BYTES", 64)
    path = tmp_path / "prices.csv"
    path.write_bytes(b"ticker,date,adj_close\n" + plain_rows(200))
    panel = load_panel(path)
    assert seen == ["ticker,date,adj_close\n"]
    monkeypatch.undo()
    assert_same_outcome(panel, reference_load_panel(path))


def test_wide_tickers_filling_a_chunk_keep_the_load_small(tmp_path, monkeypatch):
    """Ten wide tickers that fill the first chunk, then short distinct ones: the
    merge of the chunks' tickers would pad every short ticker to the wide width,
    so the traced peak must stay within a small multiple of the file's size."""
    size = 1 << 16
    wide = b"".join(b"W%d" % i + b"x" * (size // 10 - 16) + b",2006-01-02,1\n" for i in range(10))
    path = tmp_path / "prices.csv"
    path.write_bytes(b"ticker,date,adj_close\n" + wide + b"".join(b"S%06d,2006-01-02,1.5\n" % i for i in range(2000)))
    monkeypatch.setattr(empirical, "_CHUNK_BYTES", size)
    tracemalloc.start()
    try:
        panel = load_panel(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * path.stat().st_size
    assert_same_outcome(panel, reference_load_panel(path))


# ---------------------------------------------------------------------------
# Edges of the bulk gate: each row below either passes it or sends its chunk
# to csv.reader, and every chunk size from 1 to 80 bytes must give what the
# row-by-row reference gives.  The rows sit among plain ones and alone.
# ---------------------------------------------------------------------------

def _priced(price: bytes) -> bytes:
    return b"AAA,2006-01-02," + price + b"\n"


GATE_EDGE_ROWS = (
    [_priced(price) for byte in b"\x1c\x1d\x1e\x1f\x0b\x0c"
     for price in (bytes([byte]) + b"5", b"5" + bytes([byte]))]
    + [_priced(price) for price in (b"1_000", b"inf", b"nan", b"1e309", b"4.9e-324")]
    + ["ÉTF,2006-01-02,5\n".encode("utf-8"), b"ABCDEFGHI,2006-01-02,5\n", b"LONG_TICKER_1,2006-01-02,5\n"]
    + [b"T" * 65 + b",2006-01-02,5\n", _priced(b"0" * 64 + b"5")]  # one byte over the widest bulk field
    + [b"AAA," + date + b",5\n" for date in (b"20060102", b" 2006-01-02", b"2006-02-30", b"0000-01-01", b"9999-12-31",
                                           b"2006/01/02", b"2005-:1-02")]  # the last two have 2006-01-02's digit key
    + [b" T001 ,2006-01-02,5\n", b" T001 ,2006-01-02,-1\n", b"T001  ,2006-02-30,5\n", b"T001,2006-02-30 ,5\n",
       b"T001, 2006-01-0x,5\n"]
    # DEL, NUL, a tab and a quote: the gate tests DEL, the quote and control bytes apart
    + [_priced(b"5\x7f"), b"A\x00A,2006-01-02,5\n", b"\tAAA,2006-01-02,5\n", b'"AAA",2006-01-02,5\n']
)


@pytest.mark.parametrize("alone", [False, True], ids=["among_plain_rows", "alone"])
@pytest.mark.parametrize("row", GATE_EDGE_ROWS, ids=repr)
def test_gate_edges_match_the_reference_at_every_small_chunk_size(tmp_path, row, alone):
    rows = [] if alone else plain_rows(6).splitlines(keepends=True)
    rows.insert(3 if rows else 0, row)
    path = tmp_path / "prices.csv"
    path.write_bytes(b"ticker,date,adj_close\n" + b"".join(rows))
    want = outcome(reference_load_panel, path)
    for size in [*range(1, 81), empirical._CHUNK_BYTES]:
        assert_same_outcome(load_in_chunks(path, size), want)


# A numpy upgrade that changes how np.loadtxt reads a float must fail here
# rather than silently change a loaded price: whatever the bulk route reads
# as a price, ``float`` reads to the same bits.  The converse does not hold
# (``float`` also reads "1_000"); such a chunk goes to csv.reader.
PRINTABLE_NO_DELIMITERS = st.characters(min_codepoint=0x20, max_codepoint=0x7E, exclude_characters=',"')
PRICE_SPELLINGS = (
    st.text(PRINTABLE_NO_DELIMITERS, max_size=12)
    | st.floats().map(repr)
    | st.from_regex(r"\A *[+-]?([0-9_]+\.?[0-9_]*|\.[0-9]+)([eEdD][+-]?[0-9]{1,4})? *\Z")
    | st.from_regex(r"\A *[+-]?(?i:inf|infinity|nan|0x[0-9a-f]+) *\Z")
)


@settings(max_examples=2000, deadline=None)
@given(PRICE_SPELLINGS)
def test_bulk_price_is_read_as_float_reads_it(text):
    parsed = empirical._bulk_rows(_priced(text.encode("ascii")))
    if parsed is None:
        return
    try:
        want = float(text)
    except ValueError:
        pytest.fail(f"the bulk route reads {text!r}, which float rejects")
    assert parsed[0]["price"].tobytes() == np.float64(want).tobytes(), text
