import dataclasses
import itertools
import math
import random
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import (STEP_MS, flat_series, random_genome, random_series, series_from_closes,
                     trending_fixture)
from oracles import oracle_ema
from tradelab.backtest import run_backtest
from tradelab.data import Candle, CandleSeries
from tradelab.errors import ValidationError
from tradelab.indicators import IndicatorSpec, InvalidPeriods
from tradelab.neat import EvolutionConfig
from tradelab.strategy import (
    DEGENERATE_SPREAD_STD,
    EmaCrossParams,
    GridParams,
    MisalignedSeries,
    NeatParams,
    NullParams,
    PairsAction,
    PairsParams,
    PositionStopState,
    Side,
    SignalDirection,
    StopSettings,
    StrategyConfig,
    StrategyKind,
    StrategyStateError,
    TradeIntent,
    apply_stops,
    crossing_column,
    ema_crossing,
    ema_crossover_signals,
    network_action,
    new_state,
    pairs_signals,
)


def ema_config(p_short=9, p_long=21, symbol="RND"):
    return StrategyConfig(symbol=symbol, params=EmaCrossParams(p_short, p_long))


def run_stepper(config, series, series_b=None, columns=False):
    """Drive a stepper through ``step`` bar by bar; returns intents indexed
    by bar. ``series_b`` is a pairs stepper's second leg; with ``columns``
    the stepper is built from the series and reads its indicator columns."""
    state = new_state(config, series if columns else None, series_b)
    return [state.step(candle) for candle in series.candles]


# ---------------------------------------------------------------------------
# Trade intents
# ---------------------------------------------------------------------------

def test_intent_size_validation():
    with pytest.raises(ValidationError):
        TradeIntent(Side.OPEN_LONG, "X", size=0.0)
    with pytest.raises(ValidationError):
        TradeIntent(Side.OPEN_LONG, "X", size=1.5)
    with pytest.raises(ValidationError):
        TradeIntent(Side.CLOSE_LONG, "X", size=1.5)  # fraction of position
    TradeIntent(Side.OPEN_LONG, "X", size=1.5, absolute=True)  # quantities may exceed 1


def test_config_kind_derived_from_params():
    assert ema_config().kind is StrategyKind.EMA_CROSS
    assert StrategyConfig("X", NullParams()).kind is StrategyKind.NULL
    with pytest.raises(InvalidPeriods):
        EmaCrossParams(21, 9)


RSI = IndicatorSpec("rsi", {"p": 14})
MACD = IndicatorSpec("macd", {"fast": 12, "slow": 26, "signal": 9})  # three lines


@pytest.mark.parametrize("inputs,norm,genome,needle", [
    ((), (), random_genome(0, 0, 3, 0), "at least one indicator input"),
    ((RSI, MACD), ((50.0, 15.0),) * 3, random_genome(0, 4, 3, 0), "normalization has 3 columns"),
    ((RSI, MACD), ((50.0, 15.0),) * 4, random_genome(0, 3, 3, 0), "genome expects 3 inputs"),
    ((RSI,), ((50.0, 15.0),), random_genome(0, 1, 2, 0), "exactly 3 outputs"),
    ((RSI,), ((math.nan, 15.0),), random_genome(0, 1, 3, 0), "finite means"),
    ((RSI,), ((50.0, -1.0),), random_genome(0, 1, 3, 0), "finite stds >= 0"),
    ((RSI,), ((50.0, math.inf),), random_genome(0, 1, 3, 0), "finite stds >= 0"),
])
def test_neat_params_check_the_network_shape(inputs, norm, genome, needle):
    with pytest.raises(ValidationError, match=needle):
        NeatParams(genome, inputs, norm)


@pytest.mark.parametrize("params,bad", [
    (GridParams, {"levels": 2.5}), (GridParams, {"levels": True}), (GridParams, {"levels": 0}),
    (PairsParams, {"lookback": 2.5}), (PairsParams, {"lookback": 1}),
    (StopSettings, {"atr_period": 0}), (StopSettings, {"atr_period": 14.5}),
    (EmaCrossParams, {"p_short": 9.5}),
], ids=lambda v: v.__name__ if isinstance(v, type) else ",".join(f"{k}={x!r}"
                                                                 for k, x in v.items()))
def test_params_check_their_periods(params, bad):
    """A period is checked by the params type that holds it, so a library
    caller is refused where a config file is, not at backtest time."""
    valid = {GridParams: {"spacing": 1.0, "levels": 2, "level_quantity": 1.0},
             PairsParams: {"symbol_b": "B"}}
    (field,) = bad
    with pytest.raises(ValidationError, match=field):
        params(**{**valid.get(params, {}), **bad})


FLOAT_FIELDS = [(params, f.name) for params in (GridParams, PairsParams, EvolutionConfig)
                for f in dataclasses.fields(params) if f.type == "float"]
VALID_ARGS = {GridParams: {"spacing": 1.0, "levels": 2, "level_quantity": 1.0},
              PairsParams: {"symbol_b": "B"}, EvolutionConfig: {}}


@st.composite
def non_finite_fields(draw):
    """A type, the name of one float field, and arguments that give that
    field NaN, ±inf or an int beyond float range and some other float fields
    any finite value."""
    params, name = draw(st.sampled_from(FLOAT_FIELDS))
    finite = st.floats(allow_nan=False, allow_infinity=False)
    others = {other: draw(finite) for cls, other in FLOAT_FIELDS
              if cls is params and other != name and draw(st.booleans())}
    bad = draw(st.sampled_from([math.nan, math.inf, -math.inf, 10**400, -10**400]))
    return params, name, {**VALID_ARGS[params], **others, name: bad}


@given(case=non_finite_fields())
@settings(max_examples=200, deadline=None)
def test_non_finite_float_fields_are_validation_errors(case):
    """A NaN, infinite or out-of-range float field is refused by the type
    that holds it, as a config file's number is, whatever the other fields
    hold."""
    params, name, args = case
    with pytest.raises(ValidationError, match=f"^{name} must be a finite number"):
        params(**args)


def test_crossing_column_equals_ema_crossing_per_bar():
    rng = random.Random(5)
    # coarse values make equal lines and ties with the previous bar common
    short = [None] * 7 + [float(rng.randint(0, 4)) for _ in range(300)]
    long_ = [None] * 9 + [float(rng.randint(0, 4)) for _ in range(298)]
    column = crossing_column(short, long_)
    assert column == [0] * 10 + [ema_crossing(short[t], long_[t], short[t - 1], long_[t - 1])
                                 for t in range(10, len(short))]
    assert {1, -1, 0} <= set(column)
    assert crossing_column([None] * 5, [1.0] * 5) == [0] * 5
    assert crossing_column([], []) == []


@pytest.mark.parametrize("as_float,as_int", [
    (GridParams(spacing=0.5, levels=2.0, level_quantity=1.0),
     GridParams(spacing=0.5, levels=2, level_quantity=1.0)),
    (PairsParams(symbol_b="B", lookback=20.0, z_entry=1.6, z_exit=0.4),
     PairsParams(symbol_b="B", lookback=20, z_entry=1.6, z_exit=0.4)),
    (EmaCrossParams(5.0, 13.0), EmaCrossParams(5, 13)),
], ids=["grid", "pairs", "ema_cross"])
def test_integral_float_periods_backtest_like_ints(as_float, as_int):
    a, b = synthetic_pair(21, n=400)
    with_floats, with_ints = (
        run_backtest(StrategyConfig("A", params, stops=StopSettings(atr_period=atr_period)), a,
                     aux=b if isinstance(params, PairsParams) else None)
        for params, atr_period in ((as_float, 14.0), (as_int, 14)))
    assert with_floats.fills
    assert with_floats == with_ints


# ---------------------------------------------------------------------------
# EMA crossover
# ---------------------------------------------------------------------------

def test_crossover_no_signals_on_constant_series():
    assert ema_crossover_signals(flat_series(120), 9, 21) == []


def test_crossover_single_ramp_gives_one_buy():
    closes = [100.0] * 60 + [100.0 + 0.5 * i for i in range(1, 61)]
    series = series_from_closes(closes)
    signals = ema_crossover_signals(series, 9, 21)
    assert len(signals) == 1
    assert signals[0][1] is SignalDirection.BUY


def test_crossover_fixture_counts_shrink_with_wider_periods():
    fixture = trending_fixture()
    n_fast = len(ema_crossover_signals(fixture, 9, 21))
    n_slow = len(ema_crossover_signals(fixture, 20, 50))
    assert n_fast > n_slow


def test_crossover_signals_alternate():
    for seed in range(8):
        series = random_series(seed + 40, n=400, vol=0.02)
        signals = ema_crossover_signals(series, 9, 21)
        for (_, a), (_, b) in zip(signals, signals[1:]):
            assert a != b, "two consecutive signals in the same direction"


def test_crossover_rejects_inverted_periods():
    with pytest.raises(InvalidPeriods):
        ema_crossover_signals(flat_series(64), 21, 9)


def test_crossover_matches_ema_column_oracle():
    series = random_series(91, n=300, vol=0.02)
    signals = dict(ema_crossover_signals(series, 9, 21))
    s_col = oracle_ema(series.closes, 9)
    l_col = oracle_ema(series.closes, 21)
    expected = {}
    for i in range(1, len(series)):
        if None in (s_col[i], l_col[i], s_col[i - 1], l_col[i - 1]):
            continue
        if s_col[i] > l_col[i] and s_col[i - 1] <= l_col[i - 1]:
            expected[i] = SignalDirection.BUY
        elif s_col[i] < l_col[i] and s_col[i - 1] >= l_col[i - 1]:
            expected[i] = SignalDirection.SELL
    assert signals == expected


def test_ema_stepper_opens_long_at_first_crossover():
    series = random_series(91, n=300, vol=0.02)
    signals = ema_crossover_signals(series, 9, 21)
    first_buy = next(i for i, d in signals if d is SignalDirection.BUY)
    per_bar = run_stepper(ema_config(), series)
    opens, closes = per_bar[first_buy]
    assert [i.side for i in opens] == [Side.OPEN_LONG]
    assert closes == []
    for opens_i, closes_i in per_bar[:first_buy]:
        assert not opens_i and not closes_i


@pytest.mark.parametrize("seed,n,p_short,p_long", [
    (91, 300, 9, 21), (92, 300, 3, 60), (93, 40, 5, 21),
    (94, 30, 9, 60),  # the long EMA never warms up
])
def test_store_fed_ema_stepper_equals_streamed(seed, n, p_short, p_long):
    series = random_series(seed, n=n, vol=0.02)
    config = ema_config(p_short, p_long)
    assert run_stepper(config, series, columns=True) == run_stepper(config, series)


def test_store_fed_ema_stepper_runs_only_on_its_series():
    series = random_series(91, n=300, vol=0.02)
    config = replace(ema_config(), stops=StopSettings())
    # the same timestamps with other prices, and the same candles with more after them
    longer = CandleSeries(series.symbol, series.interval,
                          series.candles + random_series(91, n=310).candles[300:])
    for other in (random_series(92, n=300, vol=0.02), longer):
        with pytest.raises(StrategyStateError, match="precomputed inputs"):
            run_backtest(new_state(config, series), other)


# ---------------------------------------------------------------------------
# Stepping contract
# ---------------------------------------------------------------------------

def test_step_readies_empty_during_warmup():
    # the long EMA takes 21 bars to warm up
    per_bar = run_stepper(ema_config(), random_series(7, n=10))
    assert len(per_bar) == 10
    assert all(not opens and not closes for opens, closes in per_bar)


def test_step_pairs_needs_aligned_second_history():
    a, b = synthetic_pair(5, n=80)
    config = StrategyConfig("A", PairsParams(symbol_b="B", lookback=40,
                                             z_entry=1.8, z_exit=0.4))
    # the second leg a bar ahead: bar 0 of each leg has a different stamp
    shifted = CandleSeries("B", b.interval, b.candles[1:])
    with pytest.raises(MisalignedSeries):
        new_state(config, aux=shifted).step(a.candles[0])
    emitted = [intent for opens, _ in run_stepper(config, a, b) for intent in opens]
    assert any(i.symbol == "B" for i in emitted)


@pytest.mark.parametrize("leg_bars", [None, 0, 30])
def test_pairs_stepper_refuses_a_bar_its_second_leg_lacks(leg_bars):
    """A pairs stepper built without its second leg, or with one shorter
    than the bars it is stepped on, names the bar it lacks."""
    a, b = synthetic_pair(5, n=80)
    config = StrategyConfig("A", PairsParams(symbol_b="B", lookback=20))
    aux = None if leg_bars is None else CandleSeries("B", b.interval, b.candles[:leg_bars])
    state = new_state(config, aux=aux)
    lacking = leg_bars or 0
    for candle in a.candles[:lacking]:
        state.step(candle)
    with pytest.raises(StrategyStateError, match=f"no bar {lacking} of its second leg 'B'"):
        state.step(a.candles[lacking])


@pytest.mark.parametrize("make_config", [
    lambda: ema_config(5, 13),
    lambda: StrategyConfig("RND", GridParams(spacing=1.0, levels=3, level_quantity=2.0)),
    lambda: StrategyConfig("RND", NullParams()),
])
def test_no_lookahead_appending_future_bars(make_config):
    full = random_series(55, n=240, vol=0.02)
    cut = 160
    prefix_intents = run_stepper(make_config(), CandleSeries(full.symbol, full.interval, full.candles[:cut]))
    full_intents = run_stepper(make_config(), full)
    assert full_intents[:cut] == prefix_intents


def test_deterministic_intent_stream():
    series = random_series(21, n=300, vol=0.02)
    a = run_stepper(ema_config(), series)
    b = run_stepper(ema_config(), series)
    assert a == b


# ---------------------------------------------------------------------------
# Grid
# ---------------------------------------------------------------------------

def grid_config(spacing=1.0, levels=3, qty=2.0):
    return StrategyConfig("RND", GridParams(spacing=spacing, levels=levels, level_quantity=qty))


def test_grid_flat_at_anchor_no_intents():
    per_bar = run_stepper(grid_config(), flat_series(30, price=100.0, symbol="RND"))
    assert all(o == [] or o == () for o, _ in per_bar)
    assert all(not o and not c for o, c in per_bar)


def test_grid_round_trip_one_level():
    series = series_from_closes([100.0, 99.0, 100.0], symbol="RND")
    per_bar = run_stepper(grid_config(spacing=1.0), series)
    assert not per_bar[0][0] and not per_bar[0][1]
    opens, closes = per_bar[1]
    assert [i.side for i in opens] == [Side.OPEN_LONG] and not closes
    assert opens[0].absolute and opens[0].size == 2.0
    opens, closes = per_bar[2]
    assert not opens and [i.side for i in closes] == [Side.CLOSE_LONG]


def test_grid_deep_drop_fills_multiple_levels():
    series = series_from_closes([100.0, 96.5], symbol="RND")
    per_bar = run_stepper(grid_config(spacing=1.0, levels=5), series)
    opens, _ = per_bar[1]
    assert len(opens) == 3  # levels 1..3 at 99, 98, 97


def test_grid_close_counts_never_exceed_open_counts_per_level():
    for seed in range(6):
        series = random_series(seed + 300, n=500, vol=0.02)
        per_bar = run_stepper(grid_config(spacing=series.closes[0] * 0.01, levels=4),
                              series)
        opened, closed = {}, {}
        for opens, closes in per_bar:
            for i in opens:
                opened[i.reason] = opened.get(i.reason, 0) + 1
            for i in closes:
                closed[i.reason] = closed.get(i.reason, 0) + 1
                assert closed[i.reason] <= opened.get(i.reason, 0)


def test_grid_recenters_after_flat():
    # anchor follows the close upward while no level is filled
    series = series_from_closes([100.0, 105.0, 104.0], symbol="RND")
    per_bar = run_stepper(grid_config(spacing=1.0), series)
    opens, _ = per_bar[2]  # 104 is 1 below the re-centered anchor 105
    assert [i.side for i in opens] == [Side.OPEN_LONG]


# ---------------------------------------------------------------------------
# Pairs
# ---------------------------------------------------------------------------

def test_pairs_identical_series_no_signals():
    a = random_series(9, n=200, symbol="A")
    b = CandleSeries("B", a.interval, a.candles)
    assert pairs_signals(a, b, 30, 2.0, 0.5) == []


def test_pairs_scaled_series_no_signals():
    a = random_series(9, n=200, symbol="A")
    doubled = tuple(
        Candle(c.ts, c.open * 2, c.high * 2, c.low * 2, c.close * 2, c.volume)
        for c in a.candles
    )
    b = CandleSeries("B", a.interval, doubled)
    assert pairs_signals(a, b, 30, 2.0, 0.5) == []


def test_pairs_misaligned_series_rejected():
    a = random_series(9, n=200, symbol="A")
    b = random_series(9, n=199, symbol="B")
    with pytest.raises(MisalignedSeries):
        pairs_signals(a, b, 30, 2.0, 0.5)


def synthetic_pair(seed=0, n=400):
    """Leg B trends smoothly; leg A rides a mean-reverting spread on top."""
    rng = np.random.default_rng(seed)
    spread = [0.0]
    for _ in range(n - 1):
        spread.append(0.92 * spread[-1] + rng.normal(0, 0.01))
    b_closes = [50.0 * math.exp(0.0002 * i) for i in range(n)]
    a_closes = [b * math.exp(s) for b, s in zip(b_closes, spread)]
    a = series_from_closes(a_closes, symbol="A")
    b = series_from_closes(b_closes, symbol="B")
    return a, b


def test_pairs_signals_match_crossing_oracle():
    a, b = synthetic_pair(3)
    lookback, z_in, z_out = 40, 1.8, 0.4
    got = pairs_signals(a, b, lookback, z_in, z_out)
    assert got, "fixture should produce at least one entry"

    spread = [math.log(x) - math.log(y) for x, y in zip(a.closes, b.closes)]
    expected = []
    position = None
    prev_abs = None
    for i in range(len(spread)):
        if i < lookback - 1:
            continue
        win = np.asarray(spread[i - lookback + 1:i + 1])
        sd = float(win.std())  # population std over the window
        if sd <= DEGENERATE_SPREAD_STD:
            continue
        z = (spread[i] - float(win.mean())) / sd
        if position is None:
            if prev_abs is not None and prev_abs <= z_in < abs(z):
                action = PairsAction.SHORT_A_LONG_B if z > 0 else PairsAction.LONG_A_SHORT_B
                expected.append((i, action))
                position = action
        elif abs(z) < z_out:
            expected.append((i, PairsAction.EXIT))
            position = None
        prev_abs = abs(z)
    assert got == expected


def test_pairs_stepper_emits_two_legged_intents():
    a, b = synthetic_pair(3)
    config = StrategyConfig("A", PairsParams(symbol_b="B", lookback=40,
                                             z_entry=1.8, z_exit=0.4))
    per_bar = run_stepper(config, a, series_b=b)
    entries = [opens for opens, _ in per_bar if opens]
    assert entries
    for opens in entries:
        sides = {i.symbol: i.side for i in opens}
        assert set(sides) == {"A", "B"}
        assert sorted(s.value for s in sides.values()) == ["open_long", "open_short"]


# the pairs stepper's entry opens, by the side leg A opens with
ENTRY_BY_A_SIDE = {Side.OPEN_SHORT: PairsAction.SHORT_A_LONG_B,
                   Side.OPEN_LONG: PairsAction.LONG_A_SHORT_B}


def test_pairs_signals_list_the_steppers_entries_and_exits():
    """Over seeded pairs with random lookbacks and thresholds, pairs_signals
    lists exactly the bars and directions at which the stepper emits: an
    entry opens leg A on the listed side and leg B on the other, and an exit
    closes both legs of the entry held."""
    rng = random.Random(17)
    listed = 0
    for seed in range(40):
        a, b = synthetic_pair(seed, n=rng.randint(60, 400))
        lookback = rng.randint(2, 60)
        z_entry = rng.uniform(0.5, 3.0)
        z_exit = rng.uniform(0.0, z_entry * 0.95)
        config = StrategyConfig("A", PairsParams(symbol_b="B", lookback=lookback,
                                                 z_entry=z_entry, z_exit=z_exit))
        emitted = []
        held = None
        for i, (opens, closes) in enumerate(run_stepper(config, a, series_b=b)):
            assert not (opens and closes)
            if opens:
                (leg_a, leg_b) = opens
                assert (leg_a.symbol, leg_b.symbol) == ("A", "B")
                assert {leg_a.side, leg_b.side} == {Side.OPEN_LONG, Side.OPEN_SHORT}
                held = ENTRY_BY_A_SIDE[leg_a.side]
                emitted.append((i, held))
            elif closes:
                (leg_a, leg_b) = closes
                long_a = held is PairsAction.LONG_A_SHORT_B
                assert leg_a.side is (Side.CLOSE_LONG if long_a else Side.CLOSE_SHORT)
                assert leg_b.side is (Side.CLOSE_SHORT if long_a else Side.CLOSE_LONG)
                emitted.append((i, PairsAction.EXIT))
        assert pairs_signals(a, b, lookback, z_entry, z_exit) == emitted
        listed += len(emitted)
    assert listed > 100, "the cases should enter and exit many times"


def test_signal_functions_read_the_series_columns():
    """ema_crossover_signals reads the series' memoized EMA lines, which a
    later backtest of the series shares, and a memoized column still
    refuses a period its indicator refuses."""
    series = random_series(21, n=200)
    crosses = ema_crossover_signals(series, 5, 20)
    read = {IndicatorSpec("ema", {"p": 5}), IndicatorSpec("ema", {"p": 20})}
    assert set(series.column_memo) == read
    run_backtest(StrategyConfig("RND", EmaCrossParams(5, 20)), series)
    assert set(series.column_memo) == read
    assert ema_crossover_signals(random_series(21, n=200), 5, 20) == crosses
    ema_crossover_signals(series, 1, 20)
    with pytest.raises(InvalidPeriods):
        ema_crossover_signals(series, True, 20)  # True == 1 keys the p=1 column
    with pytest.raises(InvalidPeriods):
        run_backtest(StrategyConfig("RND", EmaCrossParams(True, 20)), series)


# ---------------------------------------------------------------------------
# Stops
# ---------------------------------------------------------------------------

SETTINGS = StopSettings(atr_period=14, stop_mult=2.0, profit_mult=4.0,
                        fallback_stop_pct=0.05, fallback_profit_pct=0.10)


@pytest.mark.parametrize("field,value", [
    ("stop_mult", 0.0), ("stop_mult", -2.0), ("stop_mult", 1.1e100),
    ("profit_mult", 0.0), ("profit_mult", -1.0), ("profit_mult", math.inf),
    ("fallback_stop_pct", 0.0), ("fallback_stop_pct", 1.0), ("fallback_stop_pct", 7.0),
    ("fallback_stop_pct", -0.05), ("fallback_profit_pct", 0.0),
    ("fallback_profit_pct", -0.1), ("fallback_profit_pct", 1e101),
    ("stop_mult", math.nan), ("fallback_stop_pct", math.nan),
])
def test_stop_settings_reject_stops_on_the_wrong_side(field, value):
    with pytest.raises(ValidationError, match=field):
        StopSettings(**{field: value})


def test_stop_settings_accept_the_range_edges():
    StopSettings(stop_mult=1e100, profit_mult=1e-300, fallback_stop_pct=0.999,
                 fallback_profit_pct=1e100)
    StopSettings(stop_mult=5e-324, fallback_stop_pct=5e-324, fallback_profit_pct=2.0)


def bar_at(price, i=0):
    return Candle(i * STEP_MS, price, price, price, price, 1.0)


def test_stops_quiet_when_price_never_moves():
    pos = PositionStopState.at_entry("X", True, 100.0, 1.0, SETTINGS)
    for i in range(30):
        assert apply_stops(pos, bar_at(100.0, i), 1.0, SETTINGS) is None


def test_stops_trailing_breach_matches_scan():
    closes = [100, 101, 103, 106, 104, 102, 101.5, 99, 97]
    pos = PositionStopState.at_entry("X", True, 100.0, None, SETTINGS)
    emitted = None
    for i, c in enumerate(closes):
        intent = apply_stops(pos, bar_at(float(c), i), None, SETTINGS)
        if intent is not None:
            emitted = (i, intent.reason)
            break
    # oracle: trailing max of close*(1-5%); first close strictly below it
    trail = None
    expected = None
    for i, c in enumerate(closes):
        candidate = c * 0.95
        trail = candidate if trail is None else max(trail, candidate)
        if c < trail:
            expected = (i, "stop-loss")
            break
    assert emitted == expected is not None


def test_stops_take_profit_on_gap_through_target():
    pos = PositionStopState.at_entry("X", True, 100.0, 1.0, SETTINGS)  # target 104
    assert apply_stops(pos, bar_at(103.0, 1), 1.0, SETTINGS) is None
    intent = apply_stops(pos, bar_at(105.0, 2), 1.0, SETTINGS)
    assert intent is not None and intent.reason == "take-profit"
    assert intent.side is Side.CLOSE_LONG


def test_stop_level_never_decreases_for_longs():
    rng = np.random.default_rng(5)
    pos = PositionStopState.at_entry("X", True, 100.0, 2.0, SETTINGS)
    price = 100.0
    prev_stop = -math.inf
    for i in range(200):
        price *= math.exp(rng.normal(0, 0.01))
        apply_stops(pos, bar_at(price, i), 2.0, SETTINGS)
        assert pos.stop >= prev_stop
        prev_stop = pos.stop


def test_short_stops_symmetric():
    pos = PositionStopState.at_entry("X", False, 100.0, 1.0, SETTINGS)  # target 96
    assert apply_stops(pos, bar_at(98.0, 1), 1.0, SETTINGS) is None
    intent = apply_stops(pos, bar_at(95.0, 2), 1.0, SETTINGS)
    assert intent is not None and intent.reason == "take-profit"
    assert intent.side is Side.CLOSE_SHORT


def test_network_action_is_first_argmax():
    # outputs tie often once they saturate at 1.0; the first index wins, as with max()
    for outputs in itertools.product([0.0, 0.5, 1.0, math.nan], repeat=3):
        assert network_action(outputs) == max(range(3), key=outputs.__getitem__)
