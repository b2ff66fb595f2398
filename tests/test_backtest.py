import dataclasses
import pickle
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    RandomStrategy,
    ScriptedStrategy,
    conservation_violation,
    flat_series,
    random_genome,
    random_series,
    series_from_closes,
    series_from_ohlc,
    streamed_backtest,
    trending_fixture,
)
from tradelab.backtest import (
    Book,
    CostModel,
    Fill,
    Metrics,
    OrderStatus,
    TradeLedger,
    TradeRecord,
    ZERO_COSTS,
    compute_metrics,
    run_backtest,
    score,
)
from tradelab.data import Candle, CandleSeries
from tradelab.errors import ValidationError
from tradelab.indicators import IndicatorSpec
from tradelab.neat import (
    ConnectionGene,
    Genome,
    InnovationTracker,
    NetworkEvaluator,
    NodeGene,
    NodeKind,
    initial_genome,
)
from tradelab.strategy import (
    EmaCrossParams,
    GridParams,
    NeatParams,
    NullParams,
    PairsParams,
    Side,
    SignalStepper,
    StopSettings,
    StrategyConfig,
    TradeIntent,
    network_action,
    network_inputs,
    new_state,
    series_lines,
)


def null_config(symbol="RND"):
    return StrategyConfig(symbol, NullParams())


@pytest.mark.parametrize("field", ["fee_bps", "slippage_bps"])
@pytest.mark.parametrize("value", [-50, -1e-9, float("nan"), float("inf"), "5", True,
                                   10_000, 20_000])
def test_cost_model_rejects_bad_costs(field, value):
    with pytest.raises(ValidationError, match=field):
        CostModel(**{field: value})


def test_null_strategy_flat_equity():
    series = random_series(0, n=100)
    report = run_backtest(null_config(), series, 5_000.0, ZERO_COSTS)
    assert report.metrics.trade_count == 0
    assert report.metrics.net_profit_pct == 0.0
    assert set(report.equity) == {5_000.0}
    assert report.score == 0.0
    assert not report.forced_close


def test_paper_profit_arithmetic_entry_to_exit():
    # entry fill at open 1.2983, exit fill at open 2.0223, zero costs
    rows = [
        (1.25, 1.30, 1.20, 1.28, 5.0),
        (1.2983, 1.35, 1.25, 1.33, 5.0),
        (1.40, 1.55, 1.38, 1.52, 5.0),
        (2.0223, 2.10, 1.98, 2.05, 5.0),
        (2.04, 2.08, 2.00, 2.02, 5.0),
    ]
    series = series_from_ohlc(rows, symbol="ADA")
    script = {
        0: ([TradeIntent(Side.OPEN_LONG, "ADA")], []),
        2: ([], [TradeIntent(Side.CLOSE_LONG, "ADA")]),
    }
    report = run_backtest(ScriptedStrategy(script), series, 1_000.0, ZERO_COSTS)
    assert report.metrics.trade_count == 1
    trade = report.trades[0]
    assert trade.entry_price == 1.2983
    assert trade.exit_price == 2.0223
    expected = (2.0223 - 1.2983) / 1.2983 * 100.0
    assert report.metrics.net_profit_pct == pytest.approx(expected, abs=1e-9)
    assert report.metrics.net_profit_pct == pytest.approx(55.77, abs=0.01)
    assert trade.profit_pct == pytest.approx(expected, abs=1e-9)


def test_fills_happen_at_next_bar_open_with_adverse_slippage():
    series = random_series(4, n=30)
    costs = CostModel(fee_bps=10.0, slippage_bps=5.0)
    script = {3: ([TradeIntent(Side.OPEN_LONG, "RND", 0.5)], [])}
    report = run_backtest(ScriptedStrategy(script), series, 1_000.0, costs)
    fills = [f for f in report.fills if not f.forced]
    assert len(fills) == 1
    fill = fills[0]
    assert fill.bar == 4
    assert fill.price == pytest.approx(series.opens[4] * (1 + 0.0005), rel=1e-12)
    assert fill.fee == pytest.approx(fill.price * fill.quantity * 0.001, rel=1e-12)


# ---------------------------------------------------------------------------
# Records with a hand-written __init__ (init=False) must build what the
# generated one would: each case gives a distinct valid value per field and
# a second set for replace, and is compared with a generated frozen twin.
# ---------------------------------------------------------------------------

RECORD_CASES = [
    (Fill, (3, 11, "AB", Side.CLOSE_LONG, 101.5, 2.25, 0.125, "stop", True),
     (4, 12, "CD", Side.OPEN_SHORT, 99.5, 1.75, 0.25, "entry", False)),
    (TradeRecord, ("AB", 2.25, 4, 99.0, 11, 101.5, 2.5, "stop", True, False),
     ("CD", 1.75, 5, 98.0, 12, 97.5, -0.5, "close", False, True)),
    (Candle, (7, 2.0, 3.0, 1.0, 2.5, 4.0), (8, 5.0, 6.0, 4.5, 5.5, 0.5)),
]


@pytest.mark.parametrize("cls, values, others", RECORD_CASES,
                         ids=[case[0].__name__ for case in RECORD_CASES])
def test_hand_written_record_constructors_match_the_generated_ones(cls, values, others):
    specs = dataclasses.fields(cls)
    names = [f.name for f in specs]
    assert len(names) == len(values) == len(set(values))
    twin = dataclasses.make_dataclass(
        cls.__name__,
        [(f.name, f.type) if f.default is dataclasses.MISSING
         else (f.name, f.type, dataclasses.field(default=f.default)) for f in specs],
        frozen=True)
    by_position = cls(*values)
    by_keyword = cls(**dict(zip(names, values)))
    expected = twin(*values)
    for record in (by_position, by_keyword):
        assert [getattr(record, name) for name in names] == list(values)
        if not hasattr(cls, "__slots__"):
            assert list(vars(record)) == names
        assert record == by_position and record != cls(*others)
        assert hash(record) == hash(expected)
        assert repr(record) == repr(expected)
        assert dataclasses.asdict(record) == dataclasses.asdict(expected)
        changed = dataclasses.replace(record, **dict(zip(names, others)))
        assert type(changed) is cls
        assert dataclasses.astuple(changed) == dataclasses.astuple(
            dataclasses.replace(expected, **dict(zip(names, others)))) == others
        copy = pickle.loads(pickle.dumps(record))
        assert type(copy) is cls and copy == record
        assert dataclasses.astuple(copy) == dataclasses.astuple(expected)
        for name, other in zip(names, others):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(record, name, other)
    required = [f for f in specs if f.default is dataclasses.MISSING]
    short = cls(*values[:len(required)])
    for f in specs[len(required):]:
        assert getattr(short, f.name) == f.default


# ---------------------------------------------------------------------------
# The per-fill cost rules of README "Semantics worth knowing", written from
# its formulas: raw price p, quantity q, slippage rate s and fee rate f. Each
# side of a fill is a few float operations, so the engine and the formula
# differ by a few ulps; COST_REL is far above that and far below what a
# wrong rule (a fee charged twice, slippage on the wrong side) moves.
# ---------------------------------------------------------------------------

COST_REL = 1e-12


@st.composite
def round_trips(draw):
    """A long or short round trip of q units: raw entry price, raw exit
    price within a factor of 2 of it (so one cash scale serves both legs),
    and costs of up to 1,000 bps each."""
    p_in = draw(st.floats(0.01, 1e6))
    p_out = p_in * draw(st.floats(0.5, 2.0))
    return (draw(st.booleans()), p_in, p_out, draw(st.floats(1e-6, 1e6)),
            draw(st.floats(0.0, 1_000.0)), draw(st.floats(0.0, 1_000.0)))


def round_trip(is_long, p_in, p_out, q, fee_bps, slippage_bps):
    """Open and close ``q`` through a ``Book`` and a ``TradeLedger``; returns
    each fill with the raw price, signed quantity and cash delta of its leg,
    and the ledger's trade."""
    costs = CostModel(fee_bps=fee_bps, slippage_bps=slippage_bps)
    book = Book(4.0 * q * p_in, costs, True)
    ledger = TradeLedger(costs.fee_rate)
    sign = 1.0 if is_long else -1.0
    legs = []
    for bar, (quantity, raw) in enumerate(((sign * q, p_in), (-sign * q, p_out))):
        cash = book.cash
        fill = book.fill(bar, bar, "AB", quantity, raw)
        assert not isinstance(fill, str), fill
        ledger.record(fill, "AB" not in book.positions)
        legs.append((fill, raw, quantity, book.cash - cash))
    (trade,) = ledger.trades
    return legs, trade, costs


@given(case=round_trips())
@settings(max_examples=300, deadline=None)
def test_a_fills_cash_delta_follows_the_cost_rule(case):
    """A buy moves the cash by -(q·p·(1+s)·(1+f)), a sell by
    +q·p·(1−s)·(1−f), opening or closing."""
    legs, _, costs = round_trip(*case)
    s, f = costs.slippage_rate, costs.fee_rate
    for _, p, quantity, delta in legs:
        q = abs(quantity)
        expected = -(q * p * (1 + s) * (1 + f)) if quantity > 0 else q * p * (1 - s) * (1 - f)
        assert delta == pytest.approx(expected, rel=COST_REL)


@given(case=round_trips())
@settings(max_examples=300, deadline=None)
def test_a_fills_price_and_fee_follow_the_cost_rule(case):
    """A buy fills at p·(1+s) and a sell at p·(1−s), slippage against the
    trader; the fee is f of the filled notional."""
    legs, _, costs = round_trip(*case)
    s, f = costs.slippage_rate, costs.fee_rate
    for fill, p, quantity, _ in legs:
        price = p * (1 + s) if quantity > 0 else p * (1 - s)
        assert fill.quantity == abs(quantity)
        assert fill.price == pytest.approx(price, rel=COST_REL)
        assert fill.fee == pytest.approx(abs(quantity) * price * f, rel=COST_REL)


@given(case=round_trips())
@settings(max_examples=300, deadline=None)
def test_a_trades_profit_follows_from_its_two_fills(case):
    """A long's profit_pct is 100·(x·(1−f) − e·(1+f)) / (e·(1+f)), a
    short's 100·(e·(1−f) − x·(1+f)) / e, from the entry and exit fill
    prices e and x; near zero profit the two terms cancel, so the tolerance
    also allows 1e-12 percentage points."""
    legs, trade, costs = round_trip(*case)
    f = costs.fee_rate
    e, x = legs[0][0].price, legs[1][0].price
    if trade.is_long:
        expected = 100 * (x * (1 - f) - e * (1 + f)) / (e * (1 + f))
    else:
        expected = 100 * (e * (1 - f) - x * (1 + f)) / e
    assert trade.is_long is case[0]
    assert (trade.entry_price, trade.exit_price, trade.quantity) == (e, x, legs[0][0].quantity)
    assert trade.profit_pct == pytest.approx(expected, rel=COST_REL, abs=1e-12)


def test_full_fraction_open_spends_all_cash():
    series = random_series(4, n=10)
    script = {0: ([TradeIntent(Side.OPEN_LONG, "RND", 1.0)], [])}
    report = run_backtest(ScriptedStrategy(script), series, 1_000.0, CostModel())
    # cash after the entry fill is zero up to float residue
    fill = report.fills[0]
    assert fill.price * fill.quantity + fill.fee == pytest.approx(1_000.0, abs=1e-9)


def test_force_close_at_data_end_flagged():
    series = random_series(9, n=40)
    script = {5: ([TradeIntent(Side.OPEN_LONG, "RND")], [])}
    report = run_backtest(ScriptedStrategy(script), series, 1_000.0, ZERO_COSTS)
    assert report.forced_close
    last = report.fills[-1]
    assert last.forced and last.bar == 39
    assert last.price == series.closes[39]
    assert report.trades[-1].exit_reason == "end-of-data"
    assert report.final_equity == report.equity[-1]


def test_rejected_intents_leave_account_unchanged():
    series = flat_series(20, price=100.0, symbol="RND")
    script = {
        2: ([], [TradeIntent(Side.CLOSE_LONG, "RND")]),          # nothing open
        4: ([TradeIntent(Side.OPEN_LONG, "RND", 1e9, absolute=True)], []),  # unaffordable
        6: ([TradeIntent(Side.OPEN_SHORT, "RND", 0.5)], []),     # spot mode: no shorts
    }
    report = run_backtest(ScriptedStrategy(script), series, 1_000.0, ZERO_COSTS)
    assert not report.fills
    rejected = [o for o in report.orders if o.status is OrderStatus.REJECTED]
    assert len(rejected) == 3
    assert {o.reject_reason for o in rejected} == {
        "no open long position", "InsufficientFunds", "shorting disabled in spot mode",
    }
    assert set(report.equity) == {1_000.0}


def test_flat_position_leaves_no_lot_behind():
    # 1e9 of cash buys ~1e7 units; the two lots of each round trip then do
    # not sum exactly to the position, and the residue used to pair with the
    # next round trip's exit as an extra trade
    series = random_series(3, n=60, vol=0.02)
    script = {}
    for bar in (0, 10, 20):
        script[bar] = ([TradeIntent(Side.OPEN_LONG, "RND", 0.25)], [])
        script[bar + 1] = ([TradeIntent(Side.OPEN_LONG, "RND", 0.5)], [])
        script[bar + 5] = ([], [TradeIntent(Side.CLOSE_LONG, "RND")])
    report = run_backtest(ScriptedStrategy(script), series, 1e9, CostModel())
    assert [(t.entry_bar, t.exit_bar) for t in report.trades] == [
        (1, 6), (2, 6), (11, 16), (12, 16), (21, 26), (22, 26),
    ]


def test_unpriced_symbol_rejected():
    series = flat_series(10, symbol="RND")
    script = {1: ([TradeIntent(Side.OPEN_LONG, "OTHER", 0.5)], [])}
    report = run_backtest(ScriptedStrategy(script), series, 1_000.0, ZERO_COSTS)
    assert not report.fills
    assert any("no price feed" in o.reject_reason for o in report.orders)


def test_truncation_keeps_fills_unchanged():
    series = random_series(12, n=300, vol=0.02)
    config = StrategyConfig("RND", EmaCrossParams(5, 13))
    full = run_backtest(config, series, 1_000.0, CostModel())
    for cut in (120, 200, 260):
        part = run_backtest(
            config,
            type(series)(series.symbol, series.interval, series.candles[:cut]),
            1_000.0,
            CostModel(),
        )
        full_fills = [f for f in full.fills if f.bar < cut and not f.forced]
        part_fills = [f for f in part.fills if not f.forced]
        assert part_fills == full_fills


def ema_with_stops(case):
    return StrategyConfig("RND", EmaCrossParams(3 + case % 5, 12 + case),
                          stops=StopSettings(atr_period=10))


def neat_inputs(case):
    """A random network over rsi and the three macd lines (4 inputs)."""
    inputs = (IndicatorSpec("rsi", {"p": 5}),
              IndicatorSpec("macd", {"fast": 3, "slow": 8, "signal": 3}))
    genome = initial_genome(4, 3, InnovationTracker(), random.Random(case), 2.0)
    norm = ((50.0, 15.0), (0.0, 1.0), (0.0, 1.0), (0.0, 1.0))
    return StrategyConfig("RND", NeatParams(genome, inputs, norm))


def emitted_until(report, bar):
    """(bar, intent) of every order the strategy or a stop emitted up to
    ``bar``, including those still pending when the data ran out."""
    return [(o.created_at_bar, o.intent) for o in report.orders
            if o.created_at_bar <= bar and o.intent.reason != "end-of-data"]


@pytest.mark.parametrize("make_config", [ema_with_stops, neat_inputs])
def test_column_path_has_no_lookahead(make_config):
    """A backtest of a whole series reads indicator columns computed over
    all of it. Against a backtest of the prefix that ends at bar t+1, it
    emits the same intents up to bar t+1 and settles the same fills."""
    settled = 0
    for case in range(12):
        config = make_config(case)
        series = random_series(30_000 + case, n=240, vol=0.02)
        full = run_backtest(config, series, 2_000.0, CostModel())
        assert series.column_memo  # the columns were read, not streamed
        for t in (30, 110, 190):
            prefix = CandleSeries(series.symbol, series.interval, series.candles[:t + 2])
            cut = run_backtest(config, prefix, 2_000.0, CostModel())
            assert emitted_until(cut, t + 1) == emitted_until(full, t + 1), (case, t)
            settled_full = [f for f in full.fills if f.bar <= t + 1 and not f.forced]
            assert [f for f in cut.fills if not f.forced] == settled_full, (case, t)
            settled += len(settled_full)
    assert settled > 0


@st.composite
def backtest_cases(draw):
    """A random walk and a config whose stepper reads the walk's columns:
    ema_cross with or without ATR stops, or a grown network whose inputs
    may include a line that warms up near the end of the walk."""
    n = draw(st.integers(2, 160))
    series = random_series(draw(st.integers(0, 10_000)), n=n,
                           vol=draw(st.sampled_from([0.005, 0.02, 0.05])))
    size = draw(st.sampled_from([1.0, 0.5, 0.07]))
    stops = draw(st.none() | st.builds(StopSettings, atr_period=st.integers(2, 20),
                                       stop_mult=st.sampled_from([0.5, 2.0]),
                                       profit_mult=st.sampled_from([1.0, 4.0])))
    if draw(st.booleans()):
        p_short = draw(st.integers(2, 8))
        params = EmaCrossParams(p_short, draw(st.integers(p_short + 1, 30)))
    else:
        late = max(1, n - draw(st.integers(-2, 10)))
        inputs = (IndicatorSpec("rsi", {"p": 5}),
                  IndicatorSpec("macd", {"fast": 3, "slow": 8, "signal": 3}),
                  IndicatorSpec("ema", {"p": late}))[:draw(st.integers(1, 3))]
        width = {1: 1, 2: 4, 3: 5}[len(inputs)]
        genome = random_genome(draw(st.integers(0, 10_000)), width, 3, draw(st.integers(0, 12)),
                               weight_span=draw(st.sampled_from([0.5, 2.0, 30.0])))
        norm = ((50.0, 15.0), (0.0, 1.0), (0.0, 0.0), (0.0, 1.0), (100.0, 5.0))[:width]
        params = NeatParams(genome, inputs, norm)
    costs = CostModel(fee_bps=draw(st.sampled_from([0.0, 10.0])),
                      slippage_bps=draw(st.sampled_from([0.0, 5.0])))
    return StrategyConfig("RND", params, size=size, stops=stops), series, costs


def outcome(report):
    """Everything a backtest reports, as text that tells every float bit."""
    return repr((report.bars, report.timestamps, report.equity, report.fills, report.trades,
                 [(o.id, o.intent, o.created_at_bar, o.status, o.reject_reason)
                  for o in report.orders], report.forced_close, report.score))


@given(case=backtest_cases())
@settings(max_examples=150, deadline=None)
def test_column_backtest_equals_per_bar_walk(case):
    """``run_backtest`` reads columns and jumps over quiet bars; the streamed
    reference steps and marks every bar."""
    config, series, costs = case
    assert outcome(run_backtest(config, series, 1_000.0, costs)) == outcome(
        streamed_backtest(config, series, 1_000.0, costs))


@pytest.mark.parametrize("stops", [None, StopSettings(atr_period=10)])
def test_backtest_steps_only_where_something_can_happen(monkeypatch, stops):
    steps = []
    step = SignalStepper.step

    def counting(self, candle):
        steps.append(self.bars_seen)
        return step(self, candle)

    monkeypatch.setattr(SignalStepper, "step", counting)
    series = random_series(5, n=1_000, vol=0.02)
    configs = [StrategyConfig("RND", EmaCrossParams(5, 20), stops=stops),
               StrategyConfig("RND", NeatParams(random_genome(3, 1, 3, 6),
                                                (IndicatorSpec("rsi", {"p": 14}),),
                                                ((50.0, 15.0),)), stops=stops)]
    assert any(n.kind is NodeKind.HIDDEN for n in configs[1].params.genome.nodes)
    for config in configs:
        steps.clear()
        report = run_backtest(config, series, 1_000.0, CostModel())
        assert report.fills and len(steps) < len(series) // 2
        walked = len(steps)
        assert outcome(report) == outcome(streamed_backtest(config, series, 1_000.0, CostModel()))
        assert len(steps) == walked + len(series)  # the reference steps every bar


def test_stop_armed_stretches_step_only_on_execution_and_emission_bars(monkeypatch):
    """While a stop is armed, the backtest walks the bars where the stepper
    cannot emit with the stop alone: the stepper steps only where an order
    executes or where it emits itself, and the report is the streamed
    walk's. Among the cases are stops that fire on a stretch's last bar, the
    one before the stepper emits, and stretches that run into the
    end-of-data flatten."""
    steps = []
    step = SignalStepper.step

    def counting(self, candle):
        steps.append(self.bars_seen)
        return step(self, candle)

    monkeypatch.setattr(SignalStepper, "step", counting)
    stop_reasons = ("stop-loss", "take-profit")
    seen = {f"{kind} {event}": 0 for kind in ("ema_cross", "neat")
            for event in ("stop on a stretch's last bar", "stretch into the flatten")}
    for seed in range(32):
        series = random_series(600 + seed, n=300, vol=0.02)
        genome = random_genome(seed, 1, 3, 6, weight_span=8.0)
        strategies = {"ema_cross": EmaCrossParams(3 + seed % 5, 12 + seed % 17),
                      "neat": NeatParams(genome, (IndicatorSpec("rsi", {"p": 5}),),
                                         ((50.0, 15.0),))}
        for stops in (StopSettings(atr_period=10, stop_mult=0.5, profit_mult=1.0),
                      StopSettings(atr_period=10)):
            for kind, params in strategies.items():
                config = StrategyConfig("RND", params, stops=stops)
                steps.clear()
                report = run_backtest(config, series, 1_000.0, CostModel())
                orders = [o for o in report.orders if o.intent.reason != "end-of-data"]
                executed_or_emitted = {o.created_at_bar + d for o in orders for d in (0, 1)}
                assert set(steps) <= executed_or_emitted
                assert len(steps) <= 2 * len(report.orders)
                assert outcome(report) == outcome(
                    streamed_backtest(config, series, 1_000.0, CostModel()))
                stop_bars = {o.created_at_bar for o in orders if o.intent.reason in stop_reasons}
                emitted = {o.created_at_bar for o in orders}
                stepper_bars = {o.created_at_bar for o in orders
                                if o.intent.reason not in stop_reasons}
                # bar k starts with no queued order and the stepper emits on k + 1
                seen[f"{kind} stop on a stretch's last bar"] += sum(
                    k - 1 not in emitted and k not in stepper_bars and k + 1 in stepper_bars
                    for k in stop_bars)
                last = report.bars - 1
                seen[f"{kind} stretch into the flatten"] += (
                    report.forced_close and not emitted & {last - 1, last})
    assert min(seen.values()) >= 3, seen


def test_network_signals_with_non_finite_sums_equal_activate():
    """Inputs near 1e300 times weights of 1e10 overflow to +-inf, and inf -
    inf is NaN; the column signal and the column backtest still equal
    activate row by row and the streamed backtest."""
    nodes = [NodeGene(0, NodeKind.INPUT, "identity"), NodeGene(1, NodeKind.INPUT, "identity"),
             NodeGene(2, NodeKind.BIAS, "identity"), NodeGene(3, NodeKind.HIDDEN)]
    nodes += [NodeGene(i, NodeKind.OUTPUT) for i in (4, 5, 6)]
    wiring = [(0, 4, 1e10), (1, 4, -1e10), (0, 3, -1e10), (2, 3, 0.5), (3, 5, 2.0),
              (1, 5, 1e-300), (1, 6, 1e10), (2, 6, -0.2)]
    genome = Genome(nodes, [ConnectionGene(i, *gene) for i, gene in enumerate(wiring)])
    specs = (IndicatorSpec("ema", {"p": 2}), IndicatorSpec("ema", {"p": 3}))
    series = random_series(12, n=400, vol=0.02)
    norm = ((100.0, 1e-298), (100.0, 1e-298))
    start, columns = network_inputs(series, specs, norm)
    assert max(abs(v) for column in columns for v in column) > 1e298
    net = NetworkEvaluator(genome)
    per_row = [net.activate(list(row)) for row in zip(*columns)]
    assert any(v != v for out in per_row for v in out)  # NaN outputs
    signals = (1, -1, 0)
    expected = [signals[network_action(out)] for out in per_row]
    assert net.argmax_columns(columns, signals) == expected
    assert len(set(expected)) == 3
    config = StrategyConfig("RND", NeatParams(genome, specs, norm))
    report = run_backtest(config, series, 1_000.0, CostModel())
    assert report.fills
    assert outcome(report) == outcome(streamed_backtest(config, series, 1_000.0, CostModel()))


def test_determinism_identical_reports():
    series = random_series(3, n=200, vol=0.02)
    config = StrategyConfig("RND", EmaCrossParams(5, 13))
    a = run_backtest(config, series, 1_000.0, CostModel())
    b = run_backtest(config, series, 1_000.0, CostModel())
    assert a.fills == b.fills
    assert a.equity == b.equity
    assert a.score == b.score


def test_ema_cross_on_trending_fixture_profits():
    report = run_backtest(StrategyConfig("TRENDY", EmaCrossParams(20, 50)),
                          trending_fixture(), 10_000.0, CostModel())
    assert report.metrics.trade_count > 0
    assert report.metrics.net_profit_pct > 0


def test_grid_strategy_accounting():
    closes = [100.0, 99.0, 98.0, 99.0, 100.0, 101.0, 100.9]
    series = series_from_closes(closes, symbol="RND")
    config = StrategyConfig("RND", GridParams(spacing=1.0, levels=3, level_quantity=1.0))
    report = run_backtest(config, series, 1_000.0, ZERO_COSTS)
    assert report.metrics.trade_count >= 2
    assert conservation_violation(report, series, 1_000.0, 0.0) < 1e-9


def test_grid_with_a_million_levels_reports_as_with_fifty():
    """A walk that never fills 50 levels gives the same report with
    ``levels`` 10**6: a bar's work follows the levels that change."""
    series = random_series(404, n=1500, vol=0.01)
    spacing = series.closes[0] * 0.01
    stepper = new_state(StrategyConfig("RND", GridParams(spacing, 50, 1.0)))
    deepest = 0
    for candle in series.candles:
        stepper.step(candle)
        deepest = max(deepest, stepper.filled)
    assert 3 <= deepest < 50
    few, many = (run_backtest(StrategyConfig("RND", GridParams(spacing, levels, 1.0)), series)
                 for levels in (50, 10**6))
    assert len(few.trades) >= 20
    assert many == few


def test_stop_loss_closes_position():
    closes = [100.0] * 30 + [100 + 2.0 * i for i in range(1, 11)] + [118.0, 112.0, 104.0, 104.0, 104.0]
    series = series_from_closes(closes, symbol="RND")
    stops = StopSettings(atr_period=5, stop_mult=2.0, profit_mult=100.0)
    script = {30: ([TradeIntent(Side.OPEN_LONG, "RND")], [])}
    strategy = ScriptedStrategy(script)
    strategy.stops = stops
    report = run_backtest(strategy, series, 1_000.0, ZERO_COSTS)
    reasons = {t.exit_reason for t in report.trades}
    assert "stop-loss" in reasons


def test_stop_arms_with_the_atr_of_the_bar_before_the_fill():
    """An open signalled at bar t fills at bar t+1's open; its target is the
    entry price plus profit_mult times the ATR of bar t, so take-profit
    fires at the first bar whose close exceeds it and not before, whether
    the ATR is streamed or read from the series' column."""
    closes = [100.0, 101.0] * 5 + [110.0] + [110.5 + 0.5 * k for k in range(30)]
    series = series_from_closes(closes, symbol="RND")
    stops = StopSettings(atr_period=3, stop_mult=2.0, profit_mult=2.0)
    (atr,) = series_lines(series, IndicatorSpec("atr", {"p": 3}))
    t = 10
    entry = series.candles[t + 1].open

    def take_profit_bar(atr_value):
        target = entry + stops.profit_mult * atr_value
        return next(k for k in range(t + 1, len(closes)) if closes[k] > target)

    expected = take_profit_bar(atr[t])
    # the ATR of the neighbouring bars would fire elsewhere
    assert expected not in (take_profit_bar(atr[t - 1]), take_profit_bar(atr[t + 1]))
    for backtest in (run_backtest, streamed_backtest):
        strategy = ScriptedStrategy({t: ([TradeIntent(Side.OPEN_LONG, "RND")], [])})
        strategy.stops = stops
        report = backtest(strategy, series, 1_000.0, ZERO_COSTS)
        (trade,) = report.trades
        assert (trade.entry_bar, trade.entry_price) == (t + 1, entry)
        assert (trade.exit_reason, trade.exit_bar) == ("take-profit", expected + 1)
        assert [o.created_at_bar for o in report.orders] == [t, expected]


def test_take_profit_closes_position():
    closes = [100.0] * 30 + [130.0] * 10
    series = series_from_closes(closes, symbol="RND")
    stops = StopSettings(atr_period=5, stop_mult=2.0, profit_mult=4.0)
    script = {28: ([TradeIntent(Side.OPEN_LONG, "RND")], [])}
    strategy = ScriptedStrategy(script)
    strategy.stops = stops
    report = run_backtest(strategy, series, 1_000.0, ZERO_COSTS)
    assert any(t.exit_reason == "take-profit" for t in report.trades)


def test_pairs_margin_backtest_runs_and_conserves():
    from test_strategy import synthetic_pair

    a, b = synthetic_pair(11, n=420)
    config = StrategyConfig("A", PairsParams(symbol_b="B", lookback=40,
                                             z_entry=1.6, z_exit=0.4))
    report = run_backtest(config, a, 10_000.0, CostModel(), aux=b)
    assert report.metrics.trade_count >= 2
    sides = {f.side for f in report.fills}
    assert Side.OPEN_SHORT in sides or any(f.quantity for f in report.fills)
    # two-symbol conservation: replay fills per symbol
    cash = 10_000.0
    qty = {"A": 0.0, "B": 0.0}
    closes = {"A": a.closes, "B": b.closes}
    fills_by_bar = {}
    for f in report.fills:
        fills_by_bar.setdefault(f.bar, []).append(f)
    for t in range(report.bars):
        for f in fills_by_bar.get(t, ()):
            if f.side in (Side.OPEN_LONG, Side.CLOSE_SHORT):
                cash -= f.price * f.quantity + f.fee
                qty[f.symbol] += f.quantity
            else:
                cash += f.price * f.quantity - f.fee
                qty[f.symbol] -= f.quantity
        expected = cash + sum(qty[s] * closes[s][t] for s in qty)
        if t == report.bars - 1 and report.forced_close:
            expected = cash
        assert report.equity[t] == pytest.approx(expected, abs=1e-9)


@pytest.mark.parametrize("params,sides,notionals", [
    # the first entry longs A with half the cash, then shorts B with half of what is left
    ({"lookback": 40, "z_entry": 1.6, "z_exit": 0.4},
     (Side.OPEN_LONG, Side.OPEN_SHORT), (5_000.0, 2_500.0)),
    # shorting A first adds its proceeds to the cash that B is sized from
    ({}, (Side.OPEN_SHORT, Side.OPEN_LONG), (5_000.0, 7_500.0)),
])
def test_pairs_leg_b_is_sized_from_cash_left_after_leg_a(params, sides, notionals):
    from test_strategy import synthetic_pair

    a, b = synthetic_pair(8, n=400)
    config = StrategyConfig("A", PairsParams(symbol_b="B", **params))
    report = run_backtest(config, a, 10_000.0, ZERO_COSTS, aux=b)
    leg_a, leg_b = report.fills[:2]
    assert (leg_a.symbol, leg_b.symbol) == ("A", "B") and leg_a.bar == leg_b.bar
    assert (leg_a.side, leg_b.side) == sides
    assert (leg_a.quantity * leg_a.price, leg_b.quantity * leg_b.price) == \
        pytest.approx(notionals, rel=1e-12)


def test_pairs_legs_under_one_symbol_are_refused():
    """The bar loop keys prices, marks and positions by symbol, so two legs
    under one symbol would book into one position and close leg A at leg B's
    price; the config and the series are both refused."""
    a = random_series(1, n=300)
    b = random_series(2, n=300)
    assert a.symbol == b.symbol == "RND"
    with pytest.raises(ValidationError, match="symbol_b 'RND' must differ"):
        run_backtest(StrategyConfig("RND", PairsParams(symbol_b="RND", lookback=30)),
                     a, 10_000.0, aux=b)
    with pytest.raises(ValidationError,
                       match="symbol_b is 'B' but the second leg's series is 'RND'"):
        run_backtest(StrategyConfig("RND", PairsParams(symbol_b="B", lookback=30)),
                     a, 10_000.0, aux=b)


def test_book_funds_check_is_relative_on_a_small_account():
    """The funds check forgives rounding of 1e-12 of the cash and nothing
    more: a long-only book with 1e-12 cash refuses a 1.5e-12 buy, which an
    absolute 1e-9 floor let through, leaving the cash negative."""
    book = Book(1e-12, ZERO_COSTS, False)
    assert book.fill(0, 0, "X", 5e-13, 3.0) == "InsufficientFunds"
    assert book.cash == 1e-12 and book.positions == {}
    fill = book.fill(1, 0, "X", 1e-13 / 3.0, 3.0)
    assert not isinstance(fill, str) and book.cash >= 0.0


def test_book_rejects_nan_cash():
    with pytest.raises(ValidationError, match="initial cash"):
        Book(float("nan"), CostModel(), False)


@pytest.mark.parametrize("cash", [float("inf"), float("-inf"), float("nan")])
def test_backtest_rejects_non_finite_cash(cash):
    with pytest.raises(ValidationError, match="initial cash"):
        run_backtest(null_config(), random_series(0, n=20), cash)


@pytest.mark.parametrize("seed", range(4))
def test_account_size_does_not_change_trading(seed):
    """A full-size open is affordable at any account size: seeded ema_cross
    walks make the same fills, trades and score at 1e4, 1e8 and 1e12 cash,
    with quantities in proportion to the cash and no order rejected."""
    series = random_series(seed + 1, n=400)
    config = StrategyConfig("RND", EmaCrossParams(5, 20))
    reports = {cash: run_backtest(config, series, cash) for cash in (1e4, 1e8, 1e12)}
    base = reports[1e4]
    assert len(base.fills) >= 8
    for cash, report in reports.items():
        assert not [o.reject_reason for o in report.orders if o.status is OrderStatus.REJECTED]
        assert [(f.bar, f.side, f.price, f.reason, f.forced) for f in report.fills] == \
            [(f.bar, f.side, f.price, f.reason, f.forced) for f in base.fills]
        assert [f.quantity / cash for f in report.fills] == \
            pytest.approx([f.quantity / 1e4 for f in base.fills], rel=1e-9)
        assert [(t.entry_bar, t.exit_bar, t.profit_pct) for t in report.trades] == \
            [(t.entry_bar, t.exit_bar, t.profit_pct) for t in base.trades]
        assert report.score == pytest.approx(base.score, rel=1e-9, abs=1e-9)


def test_small_quantities_trade_like_large_ones():
    """The book's and the ledger's quantity tolerances are relative to the
    position: a grid trading 5e-13 units a level makes the orders, rejects,
    fills and trades of one trading 5 units, with quantities at a 1e-13
    scale, where absolute tolerances took the small position for dust."""
    series = random_series(101, n=2000, vol=0.02)
    small, large = (run_backtest(StrategyConfig("RND", GridParams(1.0, 5, quantity)), series,
                                 10_000.0, CostModel(fee_bps=10.0, slippage_bps=5.0))
                    for quantity in (5e-13, 5.0))
    assert len(large.trades) == 33
    assert [(o.status, o.reject_reason) for o in small.orders] == \
        [(o.status, o.reject_reason) for o in large.orders]
    assert [(f.bar, f.side) for f in small.fills] == [(f.bar, f.side) for f in large.fills]
    assert [f.quantity * 1e13 for f in small.fills] == \
        pytest.approx([f.quantity for f in large.fills], rel=1e-9)
    assert [(t.entry_bar, t.exit_bar, t.profit_pct) for t in small.trades] == \
        [(t.entry_bar, t.exit_bar, t.profit_pct) for t in large.trades]


def test_random_strategy_conservation_small():
    for seed in range(10):
        series = random_series(seed + 900, n=600, vol=0.02)
        report = run_backtest(RandomStrategy(seed), series, 2_000.0, CostModel())
        assert conservation_violation(report, series, 2_000.0, 0.001) < 1e-9


def test_bad_inputs_rejected():
    series = random_series(0, n=10)
    with pytest.raises(ValidationError):
        run_backtest(null_config(), series, 0.0)
    gappy = type(series)(series.symbol, series.interval,
                         (series.candles[0], series.candles[2]), has_gaps=True)
    with pytest.raises(ValidationError):
        run_backtest(null_config(), gappy, 100.0)


# ---------------------------------------------------------------------------
# Metrics and score
# ---------------------------------------------------------------------------

def test_metrics_constant_equity():
    m = compute_metrics([100.0] * 50, [])
    assert m.net_profit_pct == 0.0
    assert m.max_drawdown_pct == 0.0
    assert m.win_rate == 0.0
    assert m.trade_count == 0


def test_metrics_worked_example():
    m = compute_metrics([100.0, 120.0, 90.0, 130.0], [])
    assert m.net_profit_pct == pytest.approx(30.0)
    assert m.max_drawdown_pct == pytest.approx(25.0)


@pytest.mark.parametrize("first", [0.0, -1.0, float("nan")])
def test_metrics_refuse_a_curve_that_does_not_start_above_zero(first):
    with pytest.raises(ValidationError, match=f"must start at a number > 0, got {first!r}"):
        compute_metrics([first, 1.0], [])


def test_drawdown_matches_double_loop_oracle():
    rng = np.random.default_rng(17)
    for _ in range(20):
        curve = list(100.0 * np.exp(np.cumsum(rng.normal(0, 0.02, 200))))
        m = compute_metrics(curve, [])
        worst = 0.0
        for i in range(len(curve)):
            for j in range(i, len(curve)):
                if curve[i] > 0:
                    worst = max(worst, (curve[i] - curve[j]) / curve[i] * 100.0)
        assert m.max_drawdown_pct == pytest.approx(worst, rel=1e-12)


def test_score_examples():
    assert score(Metrics(0.0, 0.0, 0.0, 0), 0.5) == 0.0
    assert score(Metrics(30.0, 25.0, 1.0, 2), 0.5) == pytest.approx(17.5)


def test_score_of_report_metrics_is_report_score():
    report = run_backtest(null_config(), random_series(0, n=50), 1_000.0, ZERO_COSTS)
    assert score(report.metrics, 0.5) == report.score == 0.0
