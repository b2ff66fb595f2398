import json
import logging
import re
from dataclasses import FrozenInstanceError, astuple, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import STEP_MS, random_series
from oracles import reference_parse_csv
from tradelab import data
from tradelab.data import (
    Candle,
    CandleSeries,
    DatasetMeta,
    DuplicateTimestamp,
    EmptyWindow,
    GapDetected,
    MalformedRow,
    OhlcViolation,
    ingest,
    load_warehouse,
    parse_csv,
    slice_window,
    write_csv,
)
from tradelab.errors import ValidationError

HEADER = "timestamp,open,high,low,close,volume"


def write_lines(path, rows):
    path.write_text("\n".join([HEADER] + rows) + "\n")
    return path


def test_parse_two_rows(tmp_path):
    path = write_lines(tmp_path / "x.csv",
                       ["0,1,2,0.5,1.5,10", "60000,1.5,2.5,1.0,2.0,11"])
    series = parse_csv(path, "AB", 60)
    assert len(series) == 2
    assert series.candles[0] == Candle(0, 1.0, 2.0, 0.5, 1.5, 10.0)
    assert series.candles[1].ts == 60000


def test_parse_reports_ohlc_violation_line(tmp_path):
    path = write_lines(tmp_path / "x.csv",
                       ["0,1,2,0.5,1.5,10", "60000,2.5,2,3,2.6,1"])
    with pytest.raises(OhlcViolation, match=":3:"):
        parse_csv(path, "AB", 60)


def test_parse_sorts_shuffled_rows(tmp_path):
    series = random_series(3, n=40, symbol="AB")
    ordered = tmp_path / "ordered.csv"
    write_csv(series, ordered)
    lines = ordered.read_text().splitlines()
    shuffled = [lines[0]] + lines[1:][::-1]
    (tmp_path / "shuffled.csv").write_text("\n".join(shuffled) + "\n")
    a = parse_csv(ordered, "AB", 3600)
    b = parse_csv(tmp_path / "shuffled.csv", "AB", 3600)
    assert a == b


def test_parse_rejects_duplicate_timestamp(tmp_path):
    path = write_lines(tmp_path / "x.csv", ["0,1,2,0.5,1.5,10", "0,1,2,0.5,1.5,10"])
    with pytest.raises(DuplicateTimestamp, match=f"^{re.escape(str(path))}: "):
        parse_csv(path, "AB", 60)


def test_parse_gap_handling(tmp_path):
    path = write_lines(tmp_path / "x.csv", ["0,1,2,0.5,1.5,10", "120000,1,2,0.5,1.5,10"])
    with pytest.raises(GapDetected, match=f"^{re.escape(str(path))}: "):
        parse_csv(path, "AB", 60)
    series = parse_csv(path, "AB", 60, allow_gaps=True)
    assert series.has_gaps


def test_parse_allowed_gaps_are_marked_and_warned(tmp_path, caplog):
    path = write_lines(tmp_path / "x.csv", ["0,1,2,0.5,1.5,10", "60000,1,2,0.5,1.5,10",
                                            "180000,1,2,0.5,1.5,10"])
    with caplog.at_level(logging.WARNING, logger="tradelab.data"):
        series = parse_csv(path, "AB", 60, allow_gaps=True)
    assert series.has_gaps and series.timestamps == [0, 60_000, 180_000]
    assert [r.getMessage() for r in caplog.records] == [
        f"{path}: gaps present, series marked has_gaps"]
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="tradelab.data"):
        series = parse_csv(write_lines(tmp_path / "y.csv", ["60000,1,2,0.5,1.5,10",
                                                            "0,1,2,0.5,1.5,10"]),
                           "AB", 60, allow_gaps=True)
    assert not series.has_gaps and not caplog.records
    with pytest.raises(DuplicateTimestamp, match="x.csv"):
        parse_csv(write_lines(path, ["0,1,2,0.5,1.5,10", "180000,1,2,0.5,1.5,10",
                                     "180000,1,2,0.5,1.5,10"]), "AB", 60, allow_gaps=True)


@pytest.mark.parametrize("rows,message", [
    (["0,1,2,0.5,1.5"], "6 columns"),
    (["0,one,2,0.5,1.5,10"], "could not convert"),
    (["0,1,2,0.5,1.5,10,3"], "expected 6 columns, got 7"),
    (["0.5,1,2,0.5,1.5,10"], "invalid literal for int()"),
    (["0,1,2,0.5,1.5,ten"], "could not convert string to float: 'ten'"),
    (["0,9,2,3,2.6,x"], "could not convert string to float: 'x'"),  # bad prices too
])
def test_parse_malformed_rows(tmp_path, rows, message):
    path = write_lines(tmp_path / "x.csv", rows)
    with pytest.raises(MalformedRow, match=f":2: .*{re.escape(message)}"):
        parse_csv(path, "AB", 60)


def test_parse_skips_blank_and_whitespace_lines(tmp_path):
    path = write_lines(tmp_path / "x.csv", ["", "  ", "0,1,2,0.5,1.5,10", "\t",
                                            "60000,1.5,2.5,1.0,2.0,11", " \t "])
    series = parse_csv(path, "AB", 60)
    assert series.timestamps == [0, 60_000]
    write_lines(path, ["", "0,1,2,0.5,1.5,10", "   ", "60000,1.5,2.5"])
    with pytest.raises(MalformedRow, match=":5: expected 6 columns, got 3"):
        parse_csv(path, "AB", 60)


@pytest.mark.parametrize("rows,error", [
    (["0,9,2,3,2.6,1", "60000,x,2,0.5,1.5,10"], OhlcViolation),
    (["0,x,2,0.5,1.5,10", "60000,9,2,3,2.6,1"], MalformedRow),
], ids=["ohlc first", "malformed first"])
def test_parse_reports_the_first_bad_row_in_line_order(tmp_path, rows, error):
    path = write_lines(tmp_path / "x.csv", rows)
    with pytest.raises(ValidationError) as info:
        parse_csv(path, "AB", 60)
    assert type(info.value) is error and f"{path}:2: " in str(info.value)


def test_parse_requires_exact_header(tmp_path):
    (tmp_path / "x.csv").write_text("time,open,high,low,close,volume\n")
    with pytest.raises(MalformedRow, match="header"):
        parse_csv(tmp_path / "x.csv", "AB", 60)


@given(seed=st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_write_parse_round_trip_bit_exact(tmp_path_factory, seed):
    series = random_series(seed, n=64)
    path = tmp_path_factory.mktemp("rt") / "s.csv"
    write_csv(series, path)
    again = parse_csv(path, series.symbol, series.interval)
    assert again == series  # dataclass equality is field (bit) equality


def reference_csv(series):
    """The warehouse format, one row at a time: header, then each candle's
    int timestamp and repr floats, each line ending in a newline."""
    rows = [HEADER]
    for c in series.candles:
        rows.append(f"{c.ts},{c.open!r},{c.high!r},{c.low!r},{c.close!r},{c.volume!r}")
    return "\n".join(rows) + "\n"


PRICES = st.sampled_from([1e-100, 1e100]) | st.floats(1e-100, 1e100)
VOLUMES = st.sampled_from([0.0, -0.0, 1e100]) | st.floats(0.0, 1e100)


@st.composite
def candle_rows(draw):
    start = draw(st.integers(-10**12, 10**12))
    rows = []
    for i in range(draw(st.integers(0, 12))):
        low, a, b, high = sorted(draw(st.lists(PRICES, min_size=4, max_size=4)))
        if draw(st.booleans()):
            a, b = b, a
        rows.append((start + i * STEP_MS, a, high, low, b, draw(VOLUMES)))
    return rows


def field_reprs(candles):
    return [repr(x) for c in candles for x in astuple(c)]


@given(rows=candle_rows())
@settings(max_examples=200, deadline=None)
def test_write_csv_bytes_equal_the_reference_format(tmp_path_factory, rows):
    series = CandleSeries("HYP", 3600, tuple(Candle(*row) for row in rows))
    assert field_reprs(series.candles) == [repr(x) for row in rows for x in row]  # -0.0 kept
    path = tmp_path_factory.mktemp("ref") / "s.csv"
    write_csv(series, path)
    assert path.read_bytes() == reference_csv(series).encode()
    again = parse_csv(path, series.symbol, series.interval)
    assert again == series and field_reprs(again.candles) == field_reprs(series.candles)
    if series.candles:
        c = series.candles[-1]
        with pytest.raises(FrozenInstanceError):
            c.close = c.open
        twin = Candle(*astuple(c))
        assert twin == c and hash(twin) == hash(c) and twin is not c
        with pytest.raises(OhlcViolation, match=f"^ts={c.ts}: prices must satisfy"):
            replace(c, low=c.open * 2)


# field texts that int() or float() refuses, or reads although write_csv
# never writes them, or that break a candle's bounds
ODD_NUMBERS = ["1e2", "100", " 5", "1_0", "-0.0", "nan", "inf", "1e400", "1.5", "", "x",
               "0x10", "5 ", "-1"]
BLANKS = ["", " ", "\t", " \t  "]


@st.composite
def csv_files(draw):
    """A candle CSV body: valid rows, then up to four corruptions (an odd
    number in one field, a field too many or too few, high and low swapped,
    a repeated timestamp, a missing row), blank or whitespace-only lines,
    maybe shuffled, with LF or CRLF endings."""
    start = draw(st.integers(-3, 3)) * 60_000
    rows = []
    for i in range(draw(st.integers(0, 8))):
        low, a, b, high = sorted(draw(st.lists(st.floats(1.0, 100.0), min_size=4, max_size=4)))
        volume = draw(st.floats(0.0, 1e3))
        rows.append([str(start + i * 60_000)] + [repr(x) for x in (a, high, low, b, volume)])
    for _ in range(draw(st.integers(0, 4)) if rows else 0):
        row = rows[draw(st.integers(0, len(rows) - 1))]
        kind = draw(st.sampled_from(["number", "count", "ohlc", "duplicate", "gap"]))
        if kind == "number":
            row[draw(st.integers(0, len(row) - 1))] = draw(st.sampled_from(ODD_NUMBERS))
        elif kind == "count":
            if draw(st.booleans()) or len(row) < 2:
                row.append(draw(st.sampled_from(["1.0", ""])))
            else:
                row.pop(draw(st.integers(0, len(row) - 1)))
        elif kind == "ohlc" and len(row) >= 4:
            row[2], row[3] = row[3], row[2]
        elif kind == "duplicate":
            row[0] = rows[draw(st.integers(0, len(rows) - 1))][0]
        elif kind == "gap":
            rows.remove(row)
            if not rows:
                break
    lines = [",".join(row) for row in rows]
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(BLANKS)))
    if draw(st.booleans()):
        lines = draw(st.permutations(lines))
    ending = draw(st.sampled_from(["\n", "\r\n"]))
    return ending.join([HEADER] + lines) + ending


def parse_outcome(parse, path, allow_gaps):
    """The candles' repr and the gap mark, or the error's type and message."""
    try:
        series = parse(path, "HYP", 60, allow_gaps=allow_gaps)
    except Exception as exc:
        return type(exc), str(exc)
    return repr(series.candles), series.has_gaps


@given(text=csv_files(), allow_gaps=st.booleans())
@settings(max_examples=300, deadline=None)
def test_parse_matches_the_row_by_row_parser(tmp_path_factory, text, allow_gaps):
    path = tmp_path_factory.mktemp("parse") / "x.csv"
    path.write_bytes(text.encode())
    assert parse_outcome(parse_csv, path, allow_gaps) == parse_outcome(
        reference_parse_csv, path, allow_gaps)


def test_a_file_written_by_write_csv_never_enters_the_row_loop(tmp_path, monkeypatch):
    def row_loop(path, lines):
        raise AssertionError(f"{path} went through the row loop")

    monkeypatch.setattr(data, "_parse_rows", row_loop)
    for seed in range(5):
        series = random_series(seed, n=200)
        path = tmp_path / f"{seed}.csv"
        write_csv(series, path)
        assert parse_csv(path, series.symbol, series.interval) == series
    path.write_text(path.read_text() + "\n")  # a blank line does enter it
    with pytest.raises(AssertionError, match="went through the row loop"):
        parse_csv(path, series.symbol, series.interval)


def test_slice_full_range_is_identity():
    series = random_series(1, n=32)
    assert slice_window(series, series.candles[0].ts, series.candles[-1].ts) == series


def test_slice_point():
    series = random_series(1, n=32)
    ts = series.candles[10].ts
    out = slice_window(series, ts, ts)
    assert len(out) == 1 and out.candles[0].ts == ts


def test_slice_empty_window():
    series = random_series(1, n=8)
    with pytest.raises(EmptyWindow):
        slice_window(series, 10**15, 10**15 + 1)


def test_slice_of_gappy_series_is_gappy_only_across_the_gap():
    candles = random_series(1, n=121).candles
    gappy = CandleSeries("RND", 3600, candles[:50] + candles[51:], has_gaps=True)  # gap after bar 49
    ts = gappy.timestamps
    clean = slice_window(gappy, ts[60], ts[119])
    assert not clean.has_gaps and clean.candles == gappy.candles[60:120]
    assert slice_window(gappy, ts[40], ts[119]).has_gaps
    assert not slice_window(gappy, ts[0], ts[49]).has_gaps


@given(seed=st.integers(0, 5000), cut_a=st.integers(1, 30), cut_b=st.integers(1, 30))
@settings(max_examples=40, deadline=None)
def test_slice_concatenation_property(seed, cut_a, cut_b):
    series = random_series(seed, n=64)
    ts = series.timestamps
    i = min(cut_a, 62)
    j = min(i + cut_b, 63)
    whole = slice_window(series, ts[0], ts[j])
    left = slice_window(series, ts[0], ts[i])
    right = slice_window(series, ts[i] + 1, ts[j]) if i < j else None
    joined = left.candles + (right.candles if right else ())
    assert joined == whole.candles


def test_candle_invariant_rejections():
    with pytest.raises(OhlcViolation):
        Candle(0, 1.0, 2.0, 1.5, 1.8, 1.0)  # low > open
    with pytest.raises(OhlcViolation):
        Candle(0, 1.0, 0.9, 0.8, 0.95, 1.0)  # open > high
    with pytest.raises(OhlcViolation):
        Candle(0, 1.0, 2.0, 0.5, 1.5, -1.0)  # negative volume
    with pytest.raises(OhlcViolation):
        Candle(0, -1.0, 2.0, -2.0, 1.5, 1.0)  # non-positive price


INF = float("inf")


@pytest.mark.parametrize("ohlcv,needle", [
    ((1.0, INF, 1.0, 1.0, 1.0), "finite"),  # +inf high
    ((INF, INF, INF, INF, 1.0), "finite"),
    ((1.0, 1.0, 1.0, 1.0, float("nan")), "volume"),
    ((1.0, 1.0, 1.0, 1.0, INF), "volume"),
])
def test_candle_rejects_non_finite_prices_and_volume(ohlcv, needle):
    with pytest.raises(OhlcViolation, match=needle):
        Candle(0, *ohlcv)


def test_parse_reports_non_finite_row_line(tmp_path):
    path = write_lines(tmp_path / "x.csv", ["0,1,2,0.5,1.5,10", "60000,1.5,2.5,1.0,2.0,nan"])
    with pytest.raises(OhlcViolation, match=":3:.*volume"):
        parse_csv(path, "AB", 60)


def test_series_spacing_validation():
    good = random_series(0, n=4)
    with pytest.raises(GapDetected):
        CandleSeries("X", 3600, (good.candles[0], good.candles[2]))
    CandleSeries("X", 3600, (good.candles[0], good.candles[2]), has_gaps=True)


def test_ingest_and_load_round_trip(tmp_path):
    series = random_series(11, n=50, symbol="PAIRX")
    src = tmp_path / "in.csv"
    write_csv(series, src)
    meta = ingest(src, tmp_path / "wh", "PAIRX", 3600, source="unit")
    assert meta == DatasetMeta(source="unit", symbol="PAIRX", interval=3600,
                               first_ts=0, last_ts=49 * STEP_MS, bar_count=50)
    assert meta.bar_count == (meta.last_ts - meta.first_ts) // (3600 * 1000) + 1
    loaded = load_warehouse(tmp_path / "wh", "PAIRX", 3600)
    assert loaded == series
    sidecar = json.loads((tmp_path / "wh" / "PAIRX" / "3600.meta.json").read_text())
    assert sidecar["bar_count"] == 50


def test_ingest_atomicity_on_bad_input(tmp_path):
    bad = write_lines(tmp_path / "bad.csv", ["0,1,2,0.5,1.5,10", "60000,9,2,3,2.6,1"])
    with pytest.raises(OhlcViolation):
        ingest(bad, tmp_path / "wh", "AB", 60)
    assert not (tmp_path / "wh").exists()


# ---------------------------------------------------------------------------
# Re-ingest: a warehouse file that already holds its bytes is left alone
# ---------------------------------------------------------------------------

def stored(wh):
    """The PAIRX entry's files by name, with their bytes, inode and mtime."""
    return {p.name: (p.read_bytes(), p.stat().st_ino, p.stat().st_mtime_ns)
            for p in sorted((wh / "PAIRX").iterdir())}


def contents(entry):
    return {name: stat[0] for name, stat in entry.items()}


def fresh_contents(tmp_path, csv, **kw):
    """The entry's bytes from an ingest of ``csv`` into an empty warehouse."""
    wh = tmp_path / "fresh"
    ingest(csv, wh, "PAIRX", 3600, **kw)
    return contents(stored(wh))


def test_reingesting_identical_input_writes_nothing(tmp_path, monkeypatch):
    src = tmp_path / "in.csv"
    write_csv(random_series(11, n=50, symbol="PAIRX"), src)
    wh = tmp_path / "wh"
    meta = ingest(src, wh, "PAIRX", 3600, source="unit")
    before = stored(wh)
    assert sorted(before) == ["3600.csv", "3600.meta.json"]

    def no_rename(*args):
        raise AssertionError("os.replace called on an unchanged entry")

    monkeypatch.setattr(data.os, "replace", no_rename)
    assert ingest(src, wh, "PAIRX", 3600, source="unit") == meta
    assert stored(wh) == before  # same bytes, inodes and mtimes; no .tmp file


def test_a_changed_price_rewrites_the_csv_only(tmp_path):
    series = random_series(11, n=50, symbol="PAIRX")
    src = tmp_path / "in.csv"
    write_csv(series, src)
    wh = tmp_path / "wh"
    ingest(src, wh, "PAIRX", 3600, source="unit")
    before = stored(wh)
    c = series.candles[20]
    doubled = replace(c, open=2 * c.open, high=2 * c.high, low=2 * c.low, close=2 * c.close)
    write_csv(replace(series, candles=series.candles[:20] + (doubled,) + series.candles[21:]),
              src)
    ingest(src, wh, "PAIRX", 3600, source="unit")
    after = stored(wh)
    assert after["3600.meta.json"] == before["3600.meta.json"]
    assert after["3600.csv"][1] != before["3600.csv"][1]
    assert contents(after) == fresh_contents(tmp_path, src, source="unit")


def test_a_changed_source_rewrites_the_sidecar_only(tmp_path):
    src = tmp_path / "in.csv"
    write_csv(random_series(11, n=50, symbol="PAIRX"), src)
    wh = tmp_path / "wh"
    ingest(src, wh, "PAIRX", 3600, source="unit")
    before = stored(wh)
    ingest(src, wh, "PAIRX", 3600, source="other")
    after = stored(wh)
    assert after["3600.csv"] == before["3600.csv"]
    assert after["3600.meta.json"][1] != before["3600.meta.json"][1]
    assert json.loads(after["3600.meta.json"][0])["source"] == "other"
    assert contents(after) == fresh_contents(tmp_path, src, source="other")


@pytest.mark.parametrize("edit", [
    lambda text: text[:len(text) // 2],  # truncated
    lambda text: text.replace(",", ";", 1) + "\n",  # edited and one byte longer
    lambda text: text[:-2] + ("1" if text[-2] != "1" else "2") + "\n",  # same size
], ids=["truncated", "edited", "edited-same-size"])
def test_a_damaged_warehouse_csv_is_replaced(tmp_path, edit):
    src = tmp_path / "in.csv"
    write_csv(random_series(11, n=50, symbol="PAIRX"), src)
    wh = tmp_path / "wh"
    ingest(src, wh, "PAIRX", 3600, source="unit")
    target = wh / "PAIRX" / "3600.csv"
    damaged = edit(target.read_text())
    assert damaged != target.read_text()
    target.write_text(damaged)
    ingest(src, wh, "PAIRX", 3600, source="unit")
    assert contents(stored(wh)) == fresh_contents(tmp_path, src, source="unit")


def test_a_bad_input_leaves_an_existing_entry_byte_for_byte(tmp_path):
    src = tmp_path / "in.csv"
    write_csv(random_series(11, n=50, symbol="PAIRX"), src)
    wh = tmp_path / "wh"
    ingest(src, wh, "PAIRX", 3600, source="unit")
    before = stored(wh)
    bad = write_lines(tmp_path / "bad.csv", ["0,1,2,0.5,1.5,10", "3600000,9,2,3,2.6,1"])
    with pytest.raises(OhlcViolation):
        ingest(bad, wh, "PAIRX", 3600, source="other")
    assert stored(wh) == before
