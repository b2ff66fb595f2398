
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from helpers import (
    flat_series,
    random_series,
    rewrite_after,
    series_from_closes,
    series_from_ohlc,
)
from tradelab import indicators as ind
from tradelab.data import CandleSeries
from tradelab.errors import ValidationError
from tradelab.indicators import (
    IndicatorSpec,
    InvalidPeriods,
    PeriodExceedsSeries,
    UnknownIndicator,
    compute,
    indicator_lines,
    spec_lines,
)


def assert_matches(output, oracle_values, rtol=1e-9, atol=1e-12):
    assert len(output.values) == len(oracle_values)
    for i, (got, want) in enumerate(zip(output.values, oracle_values)):
        assert (got is None) == (want is None), f"definedness differs at index {i}"
        if got is not None:
            assert got == pytest.approx(want, rel=rtol, abs=atol), f"index {i}"


def assert_no_interior_holes(output):
    for i, v in enumerate(output.values):
        if i < output.warmup:
            assert v is None
        else:
            assert v is not None


SINGLE_LINE_CASES = [
    ("sma", {"p": 14}),
    ("ema", {"p": 14}),
    ("rsi", {"p": 14}),
    ("atr", {"p": 14}),
    ("obv", {}),
    ("momentum", {"p": 10}),
    ("force_index", {"p": 13}),
    ("mfi", {"p": 14}),
    ("cci", {"p": 20}),
    ("williams_r", {"p": 14}),
    ("adx", {"p": 14}),
    ("kst", {}),
    ("vpvr", {"p": 30, "buckets": 12}),
]


def run_oracle(name, params, series):
    h, l, c, v = series.highs, series.lows, series.closes, series.volumes
    if name == "sma":
        return oracles.oracle_sma(c, params["p"])
    if name == "ema":
        return oracles.oracle_ema(c, params["p"])
    if name == "rsi":
        return oracles.oracle_rsi(c, params["p"])
    if name == "atr":
        return oracles.oracle_atr(h, l, c, params["p"])
    if name == "obv":
        return oracles.oracle_obv(c, v)
    if name == "momentum":
        return oracles.oracle_momentum(c, params["p"])
    if name == "force_index":
        return oracles.oracle_force_index(c, v, params["p"])
    if name == "mfi":
        return oracles.oracle_mfi(h, l, c, v, params["p"])
    if name == "cci":
        return oracles.oracle_cci(h, l, c, params["p"])
    if name == "williams_r":
        return oracles.oracle_williams_r(h, l, c, params["p"])
    if name == "adx":
        return oracles.oracle_adx(h, l, c, params["p"])
    if name == "kst":
        return oracles.oracle_kst(c)
    if name == "vpvr":
        return oracles.oracle_vpvr(h, l, c, v, params["p"], params["buckets"])
    raise AssertionError(name)


# ---------------------------------------------------------------------------
# Worked examples
# ---------------------------------------------------------------------------

def test_sma_example():
    out = ind.sma(series_from_closes([1, 2, 3, 4, 5]), 3)
    assert out.values == [None, None, 2.0, 3.0, 4.0]
    assert out.warmup == 2


def test_sma_constant_closes():
    out = ind.sma(flat_series(20, price=7.5), 5)
    assert all(v == 7.5 for v in out.values[out.warmup:])


def test_ema_example_hand_recurrence():
    # p=3 so k=0.5: seed mean(1,2,3)=2, then 0.5*4+0.5*2=3, 0.5*5+0.5*3=4
    out = ind.ema(series_from_closes([1, 2, 3, 4, 5]), 3)
    assert out.values == [None, None, 2.0, 3.0, 4.0]


def test_ema_constant_is_fixed_point():
    out = ind.ema(flat_series(30, price=3.25), 7)
    assert all(v == 3.25 for v in out.values[out.warmup:])


def test_rsi_extremes():
    up = ind.rsi(series_from_closes(range(1, 30)), 14)
    assert all(v == 100.0 for v in up.values[up.warmup:])
    down = ind.rsi(series_from_closes(range(30, 1, -1)), 14)
    assert all(v == 0.0 for v in down.values[down.warmup:])


def test_rsi_flat_reads_midpoint():
    out = ind.rsi(flat_series(30), 14)
    assert all(v == 50.0 for v in out.values[out.warmup:])


def test_atr_zero_on_flat_series():
    out = ind.atr(flat_series(30), 14)
    assert out.warmup == 14
    assert all(v == 0.0 for v in out.values[out.warmup:])


def test_atr_geometric_decay_after_single_spike():
    p = 5
    rows = [(10, 10, 10, 10, 1)] * 10 + [(10, 11, 9, 10, 1)] + [(10, 10, 10, 10, 1)] * 10
    out = ind.atr(series_from_ohlc(rows), p)
    spike_at = 10
    assert out.values[spike_at] == pytest.approx(2 / p)
    for i in range(spike_at + 1, len(rows)):
        assert out.values[i] == pytest.approx(out.values[i - 1] * (p - 1) / p)


def test_macd_constant_closes_all_zero():
    line, sig, hist = ind.macd(flat_series(60), 12, 26, 9)
    for out in (line, sig, hist):
        assert all(v == 0.0 for v in out.values[out.warmup:])
    assert line.warmup == 25
    assert sig.warmup == 25 + 8
    assert hist.warmup == 25 + 8


def test_macd_rejects_inverted_periods():
    with pytest.raises(InvalidPeriods):
        ind.macd(random_series(0, 64), 26, 12, 9)


def test_bollinger_constant_closes():
    upper, middle, lower = ind.bollinger(flat_series(20, price=4.0), 5, 2.0)
    for out in (upper, middle, lower):
        assert all(v == 4.0 for v in out.values[out.warmup:])


def test_bollinger_two_point_example():
    upper, middle, lower = ind.bollinger(series_from_closes([1, 3]), 2, 2.0)
    assert middle.values[1] == 2.0
    assert upper.values[1] == 4.0
    assert lower.values[1] == 0.0


def test_obv_example():
    out = ind.obv(series_from_closes([1, 2, 3], volumes=[10, 20, 30]))
    assert out.values == [0.0, 20.0, 50.0]
    assert out.warmup == 0


def test_obv_constant_closes_all_zero():
    out = ind.obv(flat_series(10))
    assert out.values == [0.0] * 10


def test_momentum_example():
    out = ind.momentum(series_from_closes([1, 2, 4]), 1)
    assert out.values == [None, 1.0, 2.0]


def test_force_index_zero_on_constant_closes():
    out = ind.force_index(flat_series(30), 13)
    assert all(v == 0.0 for v in out.values[out.warmup:])


def test_williams_r_zero_when_close_at_lookback_high():
    rows = [(10, 12, 9, 10, 1)] * 9 + [(10, 12, 9, 12, 1)]
    out = ind.williams_r(series_from_ohlc(rows), 10)
    assert out.values[-1] == 0.0


def test_compute_unknown_indicator():
    with pytest.raises(UnknownIndicator):
        compute(IndicatorSpec("vwap", {"p": 3}), random_series(0, 32))


def test_compute_missing_parameter():
    with pytest.raises(UnknownIndicator):
        compute(IndicatorSpec("sma", {}), random_series(0, 32))


def test_period_exceeds_series():
    with pytest.raises(PeriodExceedsSeries):
        ind.sma(random_series(0, 10), 11)
    with pytest.raises(PeriodExceedsSeries):
        ind.rsi(random_series(0, 14), 14)
    with pytest.raises(PeriodExceedsSeries):
        ind.adx(random_series(0, 27), 14)
    with pytest.raises(PeriodExceedsSeries):
        compute(IndicatorSpec("kst"), random_series(0, 44))


def test_invalid_period_values():
    with pytest.raises(InvalidPeriods):
        ind.sma(random_series(0, 32), 0)
    with pytest.raises(InvalidPeriods):
        ind.bollinger(random_series(0, 32), 1, 2.0)
    with pytest.raises(InvalidPeriods):
        ind.bollinger(random_series(0, 32), 5, 0.0)


def test_fractional_period_rejected():
    # a fractional period must not run as EMA(2) under an 'ema_2.5' label
    with pytest.raises(InvalidPeriods):
        compute(IndicatorSpec("ema", {"p": 2.5}), random_series(0, 32))
    assert compute(IndicatorSpec("ema", {"p": 2.0}), random_series(0, 32)).warmup == 1


def test_bollinger_non_finite_width_rejected():
    for k in (math.nan, math.inf, -math.inf, 10**400, True, "2"):
        with pytest.raises(InvalidPeriods):
            compute(IndicatorSpec("bollinger", {"p": 5, "k": k}), random_series(0, 32))


def test_bollinger_width_is_bounded_like_prices():
    candles = series_from_closes([100.0, 101.0, 103.0, 99.0]).candles
    with pytest.raises(InvalidPeriods, match=r"\(0, 1e100\]"):
        ind.BollingerStream(3, k=1.7e308)
    stream = ind.BollingerStream(3, k=1e100)
    bands = [stream.push(c) for c in candles][2:]
    assert all(math.isfinite(v) for band in bands for v in band)


def test_bollinger_width_defaults_to_two():
    series = random_series(3, 64)
    default = compute(IndicatorSpec("bollinger", {"p": 20}), series)
    explicit = ind.bollinger(series, 20, 2.0)
    assert [o.values for o in default] == [o.values for o in explicit]


@pytest.mark.parametrize("p", [None, math.nan, math.inf, -math.inf, "14", True, 0, -3, 2**40])
def test_non_integer_periods_rejected(p):
    with pytest.raises(InvalidPeriods):
        compute(IndicatorSpec("sma", {"p": p}), random_series(0, 32))


PARAM_VALUES = st.one_of(
    st.integers(-2, 40), st.integers(), st.floats(), st.booleans(), st.none(),
    st.text(max_size=3),
)
EDGE_SERIES = random_series(12, n=60)


@given(name=st.sampled_from(ind.INDICATOR_NAMES),
       params=st.dictionaries(st.sampled_from(["p", "k", "fast", "slow", "signal", "buckets"]),
                              PARAM_VALUES),
       n=st.integers(1, 60))
@settings(max_examples=400, deadline=None)
def test_compute_full_length_or_validation_error(name, params, n):
    series = CandleSeries(EDGE_SERIES.symbol, EDGE_SERIES.interval, EDGE_SERIES.candles[:n])
    spec = IndicatorSpec(name, params)
    try:
        out = compute(spec, series)
    except ValidationError:
        return
    outs = out if isinstance(out, tuple) else (out,)
    assert len(outs) == len(spec_lines(spec))
    for o in outs:
        assert len(o.values) == n
        assert_no_interior_holes(o)


# ---------------------------------------------------------------------------
# Oracle agreement and invariants
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name,params", SINGLE_LINE_CASES)
def test_matches_oracle_on_random_series(name, params):
    for seed in range(6):
        series = random_series(seed * 31 + 1, n=200)
        out = compute(IndicatorSpec(name, params), series)
        assert_matches(out, run_oracle(name, params, series))
        assert_no_interior_holes(out)


def test_macd_matches_composed_ema_oracle():
    for seed in range(6):
        series = random_series(seed + 70, n=220)
        line, sig, hist = ind.macd(series, 12, 26, 9)
        o_line, o_sig, o_hist = oracles.oracle_macd(series.closes, 12, 26, 9)
        assert_matches(line, o_line)
        assert_matches(sig, o_sig)
        assert_matches(hist, o_hist)


def test_bollinger_matches_windowed_statistics_oracle():
    for seed in range(6):
        series = random_series(seed + 90, n=180)
        up, mid, low = ind.bollinger(series, 20, 2.0)
        o_up, o_mid, o_low = oracles.oracle_bollinger(series.closes, 20, 2.0)
        assert_matches(up, o_up)
        assert_matches(mid, o_mid)
        assert_matches(low, o_low)


def test_bounded_indicators_stay_in_range():
    for seed in range(8):
        series = random_series(seed + 200, n=300, vol=0.03)
        for v in ind.rsi(series, 14).defined():
            assert 0.0 <= v <= 100.0
        for v in ind.mfi(series, 14).defined():
            assert 0.0 <= v <= 100.0
        for v in ind.williams_r(series, 14).defined():
            assert -100.0 <= v <= 0.0
        for v in ind.adx(series, 14).defined():
            assert 0.0 <= v <= 100.0


WINDOWED = [("sma", {"p": 10}), ("momentum", {"p": 10}), ("williams_r", {"p": 10}),
            ("cci", {"p": 10}), ("mfi", {"p": 10}), ("vpvr", {"p": 10, "buckets": 8})]


@pytest.mark.parametrize("name,params", WINDOWED)
def test_windowed_shift_equivariance(name, params):
    series = random_series(404, n=160)
    shift = 37
    suffix = CandleSeries(series.symbol, series.interval, series.candles[shift:])
    full = compute(IndicatorSpec(name, params), series)
    part = compute(IndicatorSpec(name, params), suffix)
    for j in range(part.warmup, len(part.values)):
        assert part.values[j] == pytest.approx(full.values[shift + j], rel=1e-9, abs=1e-12)


def test_windowed_shift_equivariance_bollinger():
    series = random_series(405, n=160)
    shift = 23
    suffix = CandleSeries(series.symbol, series.interval, series.candles[shift:])
    for full, part in zip(ind.bollinger(series, 12, 2.0), ind.bollinger(suffix, 12, 2.0)):
        for j in range(part.warmup, len(part.values)):
            assert part.values[j] == pytest.approx(full.values[shift + j], rel=1e-9)


SEEDED = [("ema", {"p": 9}), ("rsi", {"p": 9}), ("atr", {"p": 9}), ("obv", {}),
          ("adx", {"p": 9}), ("kst", {}), ("force_index", {"p": 9})]


@pytest.mark.parametrize("name,params", SEEDED + WINDOWED)
def test_prefix_determinism_bit_identical(name, params):
    series = random_series(777, n=150)
    prefix = CandleSeries(series.symbol, series.interval, series.candles[:100])
    full = compute(IndicatorSpec(name, params), series)
    part = compute(IndicatorSpec(name, params), prefix)
    assert part.values == full.values[:100]  # exact equality, not approx


def test_purity_bit_identical_across_runs():
    series = random_series(31, n=128)
    for name, params in SINGLE_LINE_CASES:
        a = compute(IndicatorSpec(name, params), series)
        b = compute(IndicatorSpec(name, params), series)
        assert a.values == b.values


def test_all_registry_names_compute():
    series = random_series(8, n=128)
    for name in ind.INDICATOR_NAMES:
        spec = IndicatorSpec(name, {"p": 10, "buckets": 8, "fast": 5, "slow": 10, "signal": 4, "k": 2.0})
        filtered = IndicatorSpec(name, {k: v for k, v in spec.params.items()})
        out = compute(filtered, series)
        outs = out if isinstance(out, tuple) else (out,)
        assert len(outs) == len(spec_lines(filtered))
        for o in outs:
            assert len(o.values) == len(series)


# ---------------------------------------------------------------------------
# Windowed VPVR and MFI: the same bits as a full rescan of the window
# ---------------------------------------------------------------------------

# volumes spanning 20 orders of magnitude, so that adding a window's volumes
# in another order than the bars' own usually rounds differently
ORDER_SENSITIVE_VOLUMES = (1e16, 1.0, 3.0, 1e-3, 7.5, 2.0**53, 0.1, 0.0, 999.0, 1e-4)


def bars_at(prices, volumes=ORDER_SENSITIVE_VOLUMES):
    """Degenerate candles at the given typical prices, cycling volumes."""
    return series_from_closes(
        prices, volumes=[volumes[i % len(volumes)] for i in range(len(prices))]).candles


def tie_heavy_bars(rng, n):
    """Bars on a few price levels, some one ulp apart, with volumes over
    many magnitudes."""
    levels = [rng.choice([1.0, 1.0000000000000002, 1.5, 2.0, 2.25, 3.0,
                          3.0000000000000004]) for _ in range(5)]
    return bars_at([rng.choice(levels) for _ in range(n)],
                   [10.0 ** rng.uniform(-3, 17) for _ in range(n)])


def named_windows():
    """(label, candles, p, buckets) for the windows the sorted-window VPVR
    and the split-flow MFI must get right."""
    walk = random_series(5, n=300).candles
    cases = [(f"walk_p{p}_b{b}", walk, p, b)
             for p, b in ((1, 12), (2, 1), (7, 3), (14, 12), (50, 12), (30, 100))]
    cases += [(f"walk_seed{seed}", random_series(seed, n=200, vol=0.03).candles, 20, 8)
              for seed in (41, 42, 43)]
    ties = [2.0, 1.0, 2.0, 2.0, 1.0, 3.0, 1.0, 1.0, 2.0, 3.0, 3.0, 2.0] * 6
    cases += [("repeated_prices_p4", bars_at(ties), 4, 2),
              ("repeated_prices_p9", bars_at(ties), 9, 5)]
    lo_hi = [5.0, 1.0, 9.0, 1.0, 9.0, 1.0, 9.0, 5.0, 5.0, 1.0, 1.0, 9.0, 9.0, 0.5, 12.0] * 4
    cases += [(f"new_bar_at_lo_or_hi_p{p}", bars_at(lo_hi), p, 4) for p in (3, 5)]
    edges = [float(x) for x in (7, 1, 13, 4, 10, 2, 12, 6, 8, 3, 11, 5, 9)] * 5
    cases += [(f"bin_edges_b{b}", bars_at(edges), 13, b) for b in (4, 12, 24)]
    cases += [("flat", bars_at([50.0] * 40), 10, 12),
              ("flat_then_step", bars_at([50.0] * 15 + [51.0] + [50.0] * 15), 10, 3),
              ("p_1", bars_at(edges), 1, 12),
              ("buckets_1", bars_at(edges), 6, 1),
              ("buckets_above_p", walk, 5, 1000),
              ("shorter_than_p", walk[:10], 20, 12)]
    return cases


NAMED_WINDOWS = named_windows()
_rng = random.Random(2024)
TIE_HEAVY_WINDOWS = [(f"tie_heavy_{i}", tie_heavy_bars(_rng, _rng.randint(1, 120)),
                      _rng.randint(1, 50), _rng.randint(1, 100)) for i in range(300)]


def pushed(stream, candles):
    return [repr(stream.push(c)) for c in candles]


@pytest.mark.parametrize("label,candles,p,buckets", NAMED_WINDOWS,
                         ids=[case[0] for case in NAMED_WINDOWS])
def test_vpvr_matches_window_rescan_bit_for_bit(label, candles, p, buckets):
    assert pushed(ind.VpvrStream(p, buckets), candles) == \
        pushed(oracles.RescanVpvrStream(p, buckets), candles)


def test_vpvr_matches_window_rescan_on_tie_heavy_series():
    for label, candles, p, buckets in TIE_HEAVY_WINDOWS:
        assert pushed(ind.VpvrStream(p, buckets), candles) == \
            pushed(oracles.RescanVpvrStream(p, buckets), candles), label


def test_mfi_matches_tuple_window_bit_for_bit():
    for label, candles, p, _ in NAMED_WINDOWS + TIE_HEAVY_WINDOWS:
        assert pushed(ind.MfiStream(p), candles) == \
            pushed(oracles.TupleMfiStream(p), candles), label


# ---------------------------------------------------------------------------
# No lookahead and finiteness over every registered indicator
# ---------------------------------------------------------------------------

EVERY_PARAM = {"p": 10, "buckets": 8, "fast": 5, "slow": 10, "signal": 4, "k": 2.0}


@pytest.mark.parametrize("name", ind.INDICATOR_NAMES)
def test_rewritten_future_bars_leave_past_values_unchanged(name):
    spec = IndicatorSpec(name, EVERY_PARAM)
    series = random_series(606, n=120)
    full = indicator_lines(spec, series)
    for t in (0, 9, 47, 80, 118):
        rewritten = indicator_lines(spec, rewrite_after(series, t, 607 + t))
        for whole, line in zip(full, rewritten):
            assert line[:t + 1] == whole[:t + 1], (name, t)
            assert t > 110 or line != whole  # the rewrite reaches the outputs


BOUNDS = (1e-100, 1e100)
BOUND_PRICES = st.one_of(st.sampled_from(BOUNDS), st.floats(*BOUNDS))
BOUND_VOLUMES = st.one_of(st.sampled_from([0.0, 5e-324, 1e100]), st.floats(0.0, 1e100))


@st.composite
def bars_at_the_bounds(draw):
    rows = draw(st.lists(st.tuples(st.lists(BOUND_PRICES, min_size=4, max_size=4),
                                   st.booleans(), BOUND_VOLUMES),
                         min_size=1, max_size=40))
    candles = []
    for prices, rising, volume in rows:
        low, a, b, high = sorted(prices)
        o, c = (a, b) if rising else (b, a)
        candles.append((o, high, low, c, volume))
    return series_from_ohlc(candles)


@given(series=bars_at_the_bounds(), p=st.integers(1, 40),
       buckets=st.one_of(st.integers(1, 200), st.just(2**31 - 1), st.integers(1, 2**31 - 1)),
       k=st.one_of(st.just(1e100), st.floats(0.0, 1e100, exclude_min=True)))
@settings(max_examples=300, deadline=None)
def test_every_indicator_stays_finite_at_the_price_and_volume_bounds(series, p, buckets, k):
    params = {"p": p, "buckets": buckets, "fast": p, "slow": p + 1, "signal": p, "k": k}
    for name in ind.INDICATOR_NAMES:
        spec = IndicatorSpec(name, dict(params, p=max(p, 2)) if name == "bollinger" else params)
        for line in indicator_lines(spec, series):
            assert all(v is None or math.isfinite(v) for v in line), (name, line)
