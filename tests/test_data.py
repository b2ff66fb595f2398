import json
import logging
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import STEP_MS, random_series, series_from_ohlc
from tradelab.data import (
    Candle,
    CandleSeries,
    DatasetMeta,
    DuplicateTimestamp,
    EmptyResult,
    EmptyWindow,
    GapDetected,
    MalformedRow,
    OhlcViolation,
    ingest,
    load_warehouse,
    parse_csv,
    resample,
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
])
def test_parse_malformed_rows(tmp_path, rows, message):
    path = write_lines(tmp_path / "x.csv", rows)
    with pytest.raises(MalformedRow, match=":2:"):
        parse_csv(path, "AB", 60)


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


def test_resample_factor_one_identity():
    series = random_series(2, n=16)
    assert resample(series, 1) == series


def test_resample_two_bar_example():
    series = series_from_ohlc([(1, 3, 1, 2, 5), (2, 4, 2, 3, 7)])
    out = resample(series, 2)
    assert len(out) == 1
    c = out.candles[0]
    assert (c.open, c.high, c.low, c.close, c.volume) == (1, 4, 1, 3, 12)
    assert out.interval == series.interval * 2


def test_resample_drops_trailing_partial_group():
    series = random_series(7, n=1000)
    out = resample(series, 7)
    # independent count: 1000 // 7 full groups, 1000 - 142*7 = 6 bars dropped
    assert len(out) == 142
    assert out.candles[-1].ts == series.candles[141 * 7].ts


def test_resample_too_short():
    with pytest.raises(EmptyResult):
        resample(random_series(1, n=3), 4)


def test_resample_rejects_gappy_series(tmp_path):
    path = write_lines(tmp_path / "x.csv", ["0,1,2,0.5,1.5,10", "120000,1,2,0.5,1.5,10"])
    series = parse_csv(path, "AB", 60, allow_gaps=True)
    with pytest.raises(ValidationError):
        resample(series, 2)


@given(seed=st.integers(0, 5000), a=st.integers(2, 4), b=st.integers(2, 4))
@settings(max_examples=30, deadline=None)
def test_resample_composition(seed, a, b):
    n = a * b * 10
    series = random_series(seed, n=n)
    direct = resample(series, a * b)
    staged = resample(resample(series, a), b)
    assert len(direct) == len(staged)
    for x, y in zip(direct.candles, staged.candles):
        # prices are copies/extrema (exact); summed volume may re-associate
        assert (x.ts, x.open, x.high, x.low, x.close) == (y.ts, y.open, y.high, y.low, y.close)
        assert x.volume == pytest.approx(y.volume, abs=1e-9)


@given(seed=st.integers(0, 5000), factor=st.integers(1, 9))
@settings(max_examples=30, deadline=None)
def test_resample_output_candles_satisfy_invariants(seed, factor):
    series = random_series(seed, n=120)
    out = resample(series, factor)
    for c in out.candles:  # Candle.__post_init__ would raise, but check explicitly
        assert c.low <= c.open <= c.high
        assert c.low <= c.close <= c.high
        assert c.volume >= 0


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
