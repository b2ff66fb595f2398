import math
import re
from dataclasses import replace

import pytest

from helpers import (
    RandomStrategy,
    ScriptedStrategy,
    flat_series,
    random_series,
    series_from_ohlc,
    trending_fixture,
)
from tradelab.backtest import CostModel, ZERO_COSTS, run_backtest
from tradelab.broker import (
    AccountSnapshot,
    AckStatus,
    BrokerEndpoint,
    FeedInterrupted,
    OrderAck,
    OrderRequest,
    OrderSide,
    SimulatedBroker,
    UnknownSymbol,
    paper_trade_loop,
)
from tradelab.cli import write_report_files
from tradelab.data import CandleSeries
from tradelab.errors import ValidationError
from tradelab.strategy import (
    EmaCrossParams,
    MisalignedSeries,
    NullParams,
    PairsParams,
    Side,
    StopSettings,
    StrategyConfig,
    TradeIntent,
    new_state,
)


def started_broker(series, cash=1_000.0, costs=None, **kw):
    broker = SimulatedBroker(series, cash, costs or ZERO_COSTS, **kw)
    broker.connect()
    broker.advance()
    return broker


def test_fill_price_and_fee_example():
    series = series_from_ohlc([(100.0, 101.0, 99.0, 100.5, 1.0)], symbol="AB")
    broker = started_broker(series, costs=CostModel(fee_bps=10.0, slippage_bps=0.0))
    ack = broker.place_order(OrderRequest("1", "AB", OrderSide.BUY, 1.0))
    assert ack.status is AckStatus.ACCEPTED
    assert ack.fill.price == 100.0
    assert ack.fill.fee == pytest.approx(0.1)
    assert broker.account().positions["AB"] == 1.0


@pytest.mark.parametrize("cash", [float("inf"), float("nan")])
def test_simulator_rejects_non_finite_cash(cash):
    with pytest.raises(ValidationError, match="initial cash"):
        SimulatedBroker(random_series(0, n=20), cash)


def test_duplicate_client_id_is_idempotent():
    series = flat_series(5, price=100.0, symbol="AB")
    broker = started_broker(series)
    first = broker.place_order(OrderRequest("dup", "AB", OrderSide.BUY, 2.0))
    cash_after = broker.account().cash
    second = broker.place_order(OrderRequest("dup", "AB", OrderSide.BUY, 2.0))
    assert second == first
    assert broker.account().cash == cash_after
    assert broker.account().positions["AB"] == 2.0


def test_a_used_client_id_refuses_a_different_order():
    """A SELL under a BUY's client id is refused, not answered with the
    BUY's ack; the book and the order ids are left as they were."""
    series = flat_series(5, price=100.0, symbol="AB")
    broker = started_broker(series)
    buy = OrderRequest("dup", "AB", OrderSide.BUY, 2.0)
    first = broker.place_order(buy)
    before = broker.account()
    with pytest.raises(ValidationError, match="client id 'dup'"):
        broker.place_order(OrderRequest("dup", "AB", OrderSide.SELL, 2.0))
    with pytest.raises(ValidationError, match="client id 'dup'"):
        broker.place_order(OrderRequest("dup", "AB", OrderSide.BUY, 1.0))
    assert broker.account() == before == AccountSnapshot(before.cash, {"AB": 2.0})
    assert broker.fills == [first.fill]
    assert broker.place_order(buy) == first
    assert broker.place_order(OrderRequest("next", "AB", OrderSide.SELL, 2.0)).broker_order_id == 1


def test_buy_beyond_cash_rejected_account_unchanged():
    series = flat_series(5, price=100.0, symbol="AB")
    broker = started_broker(series, cash=150.0)
    snap_before = broker.account()
    ack = broker.place_order(OrderRequest("big", "AB", OrderSide.BUY, 5.0))
    assert ack.status is AckStatus.REJECTED
    assert ack.reason == "InsufficientFunds"
    assert ack.fill is None
    assert broker.account() == snap_before


def test_sell_more_than_held_rejected_in_spot():
    series = flat_series(5, price=100.0, symbol="AB")
    broker = started_broker(series)
    broker.place_order(OrderRequest("b", "AB", OrderSide.BUY, 1.0))
    ack = broker.place_order(OrderRequest("s", "AB", OrderSide.SELL, 2.0))
    assert ack.status is AckStatus.REJECTED


def test_buy_beyond_short_rejected():
    series = flat_series(5, price=100.0, symbol="AB")
    broker = started_broker(series, allow_short=True)
    broker.place_order(OrderRequest("s", "AB", OrderSide.SELL, 1.0))
    snap = broker.account()
    ack = broker.place_order(OrderRequest("b", "AB", OrderSide.BUY, 500.0))
    assert ack.status is AckStatus.REJECTED
    assert ack.reason == "insufficient position"
    assert broker.account() == snap


def test_unknown_symbol_raises():
    broker = started_broker(flat_series(5, symbol="AB"))
    with pytest.raises(UnknownSymbol):
        broker.place_order(OrderRequest("x", "ZZ", OrderSide.BUY, 1.0))


def test_the_endpoint_contract_is_four_calls():
    assert BrokerEndpoint.__abstractmethods__ == {"connect", "place_order", "account", "close"}


def test_order_before_market_start_rejected():
    broker = SimulatedBroker(flat_series(5, symbol="AB"), 100.0)
    with pytest.raises(ValidationError):
        broker.place_order(OrderRequest("x", "AB", OrderSide.BUY, 1.0))


def test_replaying_request_prefix_leaves_account_identical():
    series = random_series(77, n=30, symbol="AB")
    requests = [
        OrderRequest("1", "AB", OrderSide.BUY, 1.0),
        OrderRequest("2", "AB", OrderSide.SELL, 0.5),
        OrderRequest("3", "AB", OrderSide.BUY, 0.25),
    ]
    broker = started_broker(series, cash=10_000.0, costs=CostModel())
    for r in requests:
        broker.place_order(r)
    snap = broker.account()
    for prefix in (requests[:1], requests[:2], requests):
        for r in prefix:
            broker.place_order(r)
        assert broker.account() == snap


def test_liquidation_on_close():
    series = flat_series(5, price=100.0, symbol="AB")
    broker = started_broker(series)
    broker.place_order(OrderRequest("b", "AB", OrderSide.BUY, 3.0))
    snapshot, fills = broker.close()
    assert "AB" not in snapshot.positions
    assert len(fills) == 1 and fills[0].forced
    assert snapshot.cash == pytest.approx(1_000.0)


def test_advance_walks_the_feeds_shared_timestamps():
    from test_strategy import synthetic_pair

    a, b = synthetic_pair(21, n=6)
    broker = SimulatedBroker({"A": a, "B": b}, 1_000.0)
    assert [broker.advance() for _ in range(6)] == a.timestamps == b.timestamps
    assert broker.advance() is None and broker.advance() is None
    assert broker.bar == 5
    shifted = CandleSeries("B", b.interval, tuple(replace(c, ts=c.ts + 1) for c in b.candles),
                           has_gaps=True)
    with pytest.raises(ValidationError, match="all simulator feeds must share timestamps"):
        SimulatedBroker({"A": a, "B": shifted}, 1_000.0)


def test_an_account_snapshot_is_the_callers_own_copy():
    broker = started_broker(flat_series(5, price=100.0, symbol="AB"))
    broker.place_order(OrderRequest("1", "AB", OrderSide.BUY, 2.0))
    snapshot = broker.account()
    snapshot.positions["AB"] = 99.0
    snapshot.positions["XY"] = 1.0
    assert broker.book.positions == {"AB": 2.0}
    assert broker.account().positions == {"AB": 2.0}
    assert broker.account().cash == snapshot.cash == 800.0


def test_reads_with_no_fill_between_them_return_the_same_snapshot():
    broker = started_broker(flat_series(5, price=100.0, symbol="AB"))
    first = broker.account()
    assert broker.account() is first == AccountSnapshot(1_000.0, {})
    broker.place_order(OrderRequest("1", "AB", OrderSide.BUY, 2.0))
    held = broker.account()
    broker.advance()
    assert broker.account() is held == AccountSnapshot(800.0, {"AB": 2.0})
    # a rejected order leaves the book as it was
    ack = broker.place_order(OrderRequest("2", "AB", OrderSide.BUY, 50.0))
    assert ack.status is AckStatus.REJECTED
    assert broker.account() is held


def _fill(broker):
    broker.place_order(OrderRequest("2", "AB", OrderSide.SELL, 0.5))


def _liquidate(broker):
    return broker.close(liquidate=True)[0]


def _edit_cash(broker):
    broker.book.cash = 123.0


def _edit_positions(broker):
    broker.book.positions["AB"] = 5.0


def _drop_position(broker):
    del broker.book.positions["AB"]


def _edit_handed_out(broker):
    broker.account().positions["AB"] = 99.0


@pytest.mark.parametrize("change", [_fill, _liquidate, _edit_cash, _edit_positions,
                                    _drop_position, _edit_handed_out],
                         ids=lambda change: change.__name__.lstrip("_"))
def test_a_changed_book_or_snapshot_gets_a_new_correct_snapshot(change):
    """The simulator checks its held snapshot against the book on every
    read, so a change that bypasses its fill path is seen too."""
    broker = started_broker(flat_series(5, price=100.0, symbol="AB"))
    broker.place_order(OrderRequest("1", "AB", OrderSide.BUY, 2.0))
    before = broker.account()
    returned = change(broker)
    after = broker.account()
    assert after is not before
    assert after == AccountSnapshot(broker.book.cash, dict(broker.book.positions))
    assert after.positions is not broker.book.positions
    assert returned is None or returned is after
    assert broker.account() is after


class CheckingBroker(SimulatedBroker):
    """Checks every account read against the book at that moment."""

    def __init__(self, *args, **kw):
        super().__init__(*args, **kw)
        self.snapshots = []

    def account(self):
        snapshot = super().account()
        assert snapshot == AccountSnapshot(self.book.cash, dict(self.book.positions))
        assert snapshot.positions is not self.book.positions
        self.snapshots.append(snapshot)
        return snapshot


@pytest.mark.parametrize("seed", [3, 17, 29])
def test_every_account_read_of_a_session_equals_the_book(seed):
    series = random_series(seed + 1600, n=400, vol=0.02)
    config = StrategyConfig("RND", EmaCrossParams(5, 13),
                            stops=StopSettings(atr_period=10, stop_mult=1.5, profit_mult=3.0))
    broker = CheckingBroker(series, 10_000.0, CostModel())
    report = paper_trade_loop(config, series, broker, costs=CostModel())
    assert report.fills
    reads = broker.snapshots
    assert report.bars < len(reads) <= report.bars + len(report.orders) + 1
    # a new snapshot on a read after each fill only (the close included)
    assert len({id(snapshot) for snapshot in reads}) == len(report.fills) + 1


@pytest.mark.parametrize("seed", [3, 17, 29])
def test_streamed_and_column_ema_cross_sessions_are_equal(seed):
    """A session over the series reads its EMA columns; one over the
    candles streams them. Both make the same fills and the same equity,
    with stops and without."""
    series = random_series(seed + 1600, n=400, vol=0.02)
    for config in (StrategyConfig("RND", EmaCrossParams(5, 13),
                                  stops=StopSettings(atr_period=10, stop_mult=1.5,
                                                     profit_mult=3.0)),
                   StrategyConfig("RND", EmaCrossParams(2, 3))):
        reports = [paper_trade_loop(config, feed, SimulatedBroker(series, 10_000.0, CostModel()),
                                    costs=CostModel(), symbol="RND", interval=series.interval)
                   for feed in (series, iter(series.candles))]
        assert reports[0].fills and reports[0].fills == reports[1].fills
        assert reports[0].equity == reports[1].equity
        assert order_rows(reports[0]) == order_rows(reports[1])


@pytest.mark.parametrize("size", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_order_sizes_are_refused_at_both_order_edges(size):
    """A NaN or infinite size is refused where an intent and where an order
    request is built; unrefused, a NaN buy on a short-enabled simulator
    filled and left its cash and position NaN."""
    for absolute in (False, True):
        with pytest.raises(ValidationError, match="intent size must be a finite number"):
            TradeIntent(Side.OPEN_LONG, "AB", size, absolute=absolute)
    broker = started_broker(flat_series(5, price=100.0, symbol="AB"), allow_short=True)
    with pytest.raises(ValidationError, match="order quantity must be a finite number"):
        broker.place_order(OrderRequest("1", "AB", OrderSide.BUY, size))
    assert broker.account() == AccountSnapshot(1_000.0, {})


# ---------------------------------------------------------------------------
# Paper-trading sessions
# ---------------------------------------------------------------------------

def test_null_strategy_places_no_orders():
    series = random_series(5, n=60, symbol="RND")
    broker = SimulatedBroker(series, 1_000.0, ZERO_COSTS)
    report = paper_trade_loop(StrategyConfig("RND", NullParams()), series, broker,
                              costs=ZERO_COSTS)
    assert not report.fills
    assert not broker.fills
    assert set(report.equity) == {1_000.0}


class EmptyAccountEndpoint(BrokerEndpoint):
    """An endpoint whose account holds no cash and which rejects every order."""

    def __init__(self):
        self.closed = None

    def connect(self):
        pass

    def place_order(self, request):
        return OrderAck(request.client_id, 0, AckStatus.REJECTED, reason="no funds")

    def account(self):
        return AccountSnapshot(0.0, {})

    def close(self, liquidate=True):
        self.closed = liquidate
        return AccountSnapshot(0.0, {}), []


def test_a_session_on_an_account_with_no_cash_ends_in_a_validation_error():
    endpoint = EmptyAccountEndpoint()
    with pytest.raises(ValidationError, match="must start at a number > 0, got 0.0"):
        paper_trade_loop(StrategyConfig("RND", EmaCrossParams(3, 5)),
                         random_series(5, n=60, symbol="RND"), endpoint)
    assert endpoint.closed is False


class MisreportingBroker(SimulatedBroker):
    """A simulator whose account reports ``cash`` in place of its own, or
    ``quantity`` as a position in its symbol, when either is given."""

    def __init__(self, series, cash=None, quantity=None):
        super().__init__(series, 10_000.0)
        self.symbol, self.cash, self.quantity = series.symbol, cash, quantity

    def account(self):
        snapshot = super().account()
        cash = snapshot.cash if self.cash is None else self.cash
        positions = snapshot.positions if self.quantity is None else {
            **snapshot.positions, self.symbol: self.quantity}
        return AccountSnapshot(cash, positions)


@pytest.mark.parametrize("cash,quantity,needle", [
    (math.inf, None, "the endpoint's account reports cash inf, not a finite number"),
    (None, math.nan, "the endpoint's account reports a position of nan in 'RND', not a "
                     "finite number"),
], ids=["infinite cash", "nan quantity"])
def test_a_session_refuses_an_account_with_a_non_finite_value(cash, quantity, needle):
    endpoint = MisreportingBroker(random_series(5, n=60, symbol="RND"), cash, quantity)
    with pytest.raises(ValidationError, match=f"^{re.escape(needle)}$"):
        paper_trade_loop(StrategyConfig("RND", NullParams()), endpoint.feeds["RND"], endpoint)


def test_an_order_on_an_account_with_infinite_cash_names_the_account():
    endpoint = MisreportingBroker(random_series(5, n=60, symbol="RND"), cash=math.inf)
    with pytest.raises(ValidationError, match="account reports cash inf"):
        paper_trade_loop(StrategyConfig("RND", EmaCrossParams(3, 5)), endpoint.feeds["RND"],
                         endpoint)
    assert endpoint.fills == []


def assert_session_matches_backtest(strategy_a, strategy_b, series, costs,
                                    cash=10_000.0, aux=None):
    backtest = run_backtest(strategy_a, series, cash, costs, aux=aux)
    feeds = series if aux is None else {series.symbol: series, aux.symbol: aux}
    broker = SimulatedBroker(feeds, cash, costs, allow_short=aux is not None)
    session = paper_trade_loop(strategy_b, series, broker, costs=costs, aux=aux)
    bt_fills = [(f.bar, f.symbol, f.side, f.reason, f.forced, f.quantity, f.price, f.fee)
                for f in backtest.fills]
    se_fills = [(f.bar, f.symbol, f.side, f.reason, f.forced, f.quantity, f.price, f.fee)
                for f in session.fills]
    assert len(bt_fills) == len(se_fills)
    for (*b_exact, bq, bp, bf), (*s_exact, sq, sp, sf) in zip(bt_fills, se_fills):
        assert b_exact == s_exact
        assert bq == pytest.approx(sq, rel=1e-9, abs=1e-12)
        assert bp == pytest.approx(sp, rel=1e-12)
        assert bf == pytest.approx(sf, rel=1e-9, abs=1e-12)
    assert session.final_equity == pytest.approx(backtest.final_equity, abs=1e-9)
    for a, b in zip(backtest.equity, session.equity):
        assert a == pytest.approx(b, abs=1e-9)
    return backtest, session


def test_ema_cross_session_equals_backtest():
    series = trending_fixture()
    config = StrategyConfig("TRENDY", EmaCrossParams(9, 21))
    assert_session_matches_backtest(config, config, series, CostModel())


def test_ema_cross_with_stops_session_equals_backtest():
    series = trending_fixture()
    config = StrategyConfig("TRENDY", EmaCrossParams(9, 21),
                            stops=StopSettings(atr_period=14, stop_mult=2.0, profit_mult=6.0))
    assert_session_matches_backtest(config, config, series, CostModel())


def test_random_strategies_session_equals_backtest():
    for seed in range(8):
        series = random_series(seed + 1300, n=400, vol=0.02)
        assert_session_matches_backtest(RandomStrategy(seed), RandomStrategy(seed),
                                        series, CostModel())


def test_pairs_session_equals_backtest():
    from test_strategy import synthetic_pair

    a, b = synthetic_pair(21, n=400)
    config = StrategyConfig("A", PairsParams(symbol_b="B", lookback=40,
                                             z_entry=1.6, z_exit=0.4))
    assert_session_matches_backtest(config, config, a, CostModel(), aux=b)


def test_pairs_with_stops_session_equals_backtest():
    # the stop component watches the primary leg only; both routes agree
    from test_strategy import synthetic_pair

    a, b = synthetic_pair(33, n=400)
    stops = StopSettings(atr_period=10, stop_mult=1.5, profit_mult=3.0)
    config = StrategyConfig("A", PairsParams(symbol_b="B", lookback=40,
                                             z_entry=1.4, z_exit=0.4), stops=stops)
    backtest, session = assert_session_matches_backtest(config, config, a,
                                                        CostModel(), aux=b)
    assert all(f.symbol in ("A", "B") for f in backtest.fills)


def test_unpriced_symbol_dropped_by_session():
    series = flat_series(10, symbol="RND")
    script = {1: ([TradeIntent(Side.OPEN_LONG, "OTHER", 0.5)], [])}
    broker = SimulatedBroker(series, 1_000.0, ZERO_COSTS)
    report = paper_trade_loop(ScriptedStrategy(script), series, broker, costs=ZERO_COSTS)
    assert not report.fills
    assert set(report.equity) == {1_000.0}


def test_interrupted_feed_keeps_positions_open():
    series = random_series(31, n=120, symbol="RND", vol=0.02)

    def feed():
        for i, candle in enumerate(series.candles):
            if i == 60:
                raise FeedInterrupted("stream lost")
            yield candle

    broker = SimulatedBroker(series, 1_000.0, ZERO_COSTS)
    strategy = RandomStrategy(3, open_p=0.5, close_p=0.0)
    report = paper_trade_loop(strategy, feed(), broker, costs=ZERO_COSTS,
                              symbol="RND", interval=series.interval)
    assert report.interrupted
    assert report.bars == 60
    assert not report.forced_close
    assert broker.account().positions.get("RND", 0.0) > 0.0  # still open, flagged
    assert not any(f.forced for f in report.fills)


# ---------------------------------------------------------------------------
# One bar loop: a session is a backtest with an endpoint for a venue
# ---------------------------------------------------------------------------

def order_rows(report):
    return [(o.id, o.intent, o.created_at_bar, o.status, o.reject_reason)
            for o in report.orders]


def one_loop_cases():
    from test_strategy import synthetic_pair

    for seed in range(6):
        series = random_series(seed + 1400, n=300, vol=0.02)
        yield RandomStrategy(seed), RandomStrategy(seed), series, None
    stops = StopSettings(atr_period=14, stop_mult=2.0, profit_mult=4.0)
    config = StrategyConfig("TRENDY", EmaCrossParams(9, 21), stops=stops)
    yield config, config, trending_fixture(), None
    a, b = synthetic_pair(21, n=400)
    config = StrategyConfig("A", PairsParams(symbol_b="B", lookback=40,
                                             z_entry=1.6, z_exit=0.4), stops=stops)
    yield config, config, a, b
    script = {1: ([TradeIntent(Side.OPEN_LONG, "OTHER", 0.5)], [])}
    yield (ScriptedStrategy(script), ScriptedStrategy(script),
           flat_series(10, symbol="RND"), None)


def test_session_lists_the_backtests_orders_and_equity():
    reasons = set()
    for strategy_a, strategy_b, series, aux in one_loop_cases():
        backtest, session = assert_session_matches_backtest(strategy_a, strategy_b, series,
                                                            CostModel(), aux=aux)
        assert order_rows(session) == order_rows(backtest)
        assert session.equity == backtest.equity
        reasons.update(o.reject_reason for o in session.orders)
    # every reject path is covered: sizing, funds and the missing price feed
    assert {"no open long position", "InsufficientFunds",
            "no price feed for symbol 'OTHER'"} <= reasons


class CountingBroker(SimulatedBroker):
    def __init__(self, *args, **kw):
        super().__init__(*args, **kw)
        self.reads = self.places = 0

    def account(self):
        self.reads += 1
        return super().account()

    def place_order(self, request):
        self.places += 1
        return super().place_order(request)


def test_session_reads_the_account_once_per_bar_and_order():
    stops = StopSettings(atr_period=14, stop_mult=2.0, profit_mult=4.0)
    series = trending_fixture()
    cases = [(StrategyConfig("TRENDY", EmaCrossParams(9, 21), stops=stops), series)]
    cases += [(RandomStrategy(seed), random_series(seed + 1500, n=300, vol=0.02))
              for seed in range(3)]
    for strategy, series in cases:
        broker = CountingBroker(series, 10_000.0, CostModel())
        report = paper_trade_loop(strategy, series, broker, costs=CostModel())
        assert broker.places > 0
        assert broker.reads <= report.bars + broker.places + 2


# ---------------------------------------------------------------------------
# A config trades the symbols of its bars; a session that fails is closed
# ---------------------------------------------------------------------------

class ClosingBroker(SimulatedBroker):
    """Records the ``liquidate`` flag of every ``close`` call."""

    def __init__(self, *args, **kw):
        super().__init__(*args, **kw)
        self.closes = []

    def close(self, liquidate=True):
        self.closes.append(liquidate)
        return super().close(liquidate)


def refused_run(case):
    """``(series A, config, leg B, needle)`` of a run the bar loop refuses."""
    from test_strategy import synthetic_pair

    a, b = synthetic_pair(21, n=400)
    pairs = StrategyConfig("A", PairsParams(symbol_b="B", lookback=40, z_entry=1.6, z_exit=0.4))
    shifted = tuple(replace(c, ts=c.ts + b.interval * 1000) for c in b.candles)
    config, leg_b, needle = {
        "symbol": (StrategyConfig("X", EmaCrossParams(9, 21)), None,
                   "the config trades 'X' but the bars are 'A'"),
        "missing leg": (pairs, None, "pairs strategy needs aux series for 'B'"),
        "leg under another symbol": (pairs, CandleSeries("C", b.interval, b.candles),
                                     "pairs symbol_b is 'B' but the second leg's series is 'C'"),
        "shifted leg": (pairs, CandleSeries("B", b.interval, shifted),
                        "pairs legs must share timestamps"),
    }[case]
    return a, config, leg_b, needle


@pytest.mark.parametrize("case", ["symbol", "missing leg", "leg under another symbol",
                                  "shifted leg"])
@pytest.mark.parametrize("route", ["backtest", "paper"])
def test_a_config_trades_the_symbols_of_its_bars(route, case):
    """The bar loop refuses a config for another symbol and a pairs leg that
    is not the series of ``symbol_b``, on both routes; run, such a config
    would score with every order of the unpriced symbol rejected."""
    series, config, leg_b, needle = refused_run(case)
    if route == "backtest":
        with pytest.raises(ValidationError, match=needle):
            run_backtest(config, series, aux=leg_b)
        return
    broker = ClosingBroker(series, 10_000.0, CostModel(), allow_short=True)
    with pytest.raises(ValidationError, match=needle):
        paper_trade_loop(config, series, broker, costs=CostModel(), aux=leg_b)
    assert broker.closes == [False]


def test_a_session_that_raises_closes_its_endpoint_without_liquidating():
    series = random_series(31, n=120, symbol="RND", vol=0.02)
    # from bar 50 on, the feed's stamps are not the endpoint's
    feed = series.candles[:50] + tuple(replace(c, ts=c.ts + 1) for c in series.candles[50:])
    broker = ClosingBroker(series, 1_000.0, ZERO_COSTS)
    strategy = RandomStrategy(3, open_p=0.5, close_p=0.0)
    with pytest.raises(ValidationError, match="feed and endpoint diverged"):
        paper_trade_loop(strategy, feed, broker, costs=ZERO_COSTS, symbol="RND",
                         interval=series.interval)
    assert broker.closes == [False]
    assert broker.account().positions["RND"] > 0.0  # left open, not liquidated


@pytest.mark.parametrize("feed", ["series", "iterator"])
@pytest.mark.parametrize("strategy, needle", [
    (StrategyConfig("A", EmaCrossParams(9, 21)),
     "'ema_cross' strategies trade one leg, but a second leg 'B' was given"),
    (RandomStrategy(3, symbol="A"),
     "only a pairs config trades a second leg, but 'B' was given with a RandomStrategy"),
], ids=["ema_cross", "duck-typed"])
def test_a_second_leg_for_a_one_leg_strategy_is_refused(feed, strategy, needle):
    """Only a pairs config steps two legs: a second leg given with an
    ema_cross config or a duck-typed strategy is refused on both routes."""
    from test_strategy import synthetic_pair

    a, b = synthetic_pair(21, n=400)
    broker = ClosingBroker({"A": a, "B": b}, 10_000.0, CostModel())
    with pytest.raises(ValidationError, match=needle):
        paper_trade_loop(strategy, a if feed == "series" else list(a.candles), broker,
                         costs=CostModel(), aux=b, symbol="A", interval=a.interval)
    assert broker.closes == [False] and not broker.fills
    with pytest.raises(ValidationError, match=needle):
        run_backtest(strategy, a, aux=b)


@pytest.mark.parametrize("feed", ["series", "iterator"])
def test_a_prebuilt_pairs_stepper_is_refused(feed):
    """A pairs stepper carries its second leg, which the loop prices only
    for a pairs config run with ``aux``; run prebuilt, it traded leg A alone
    while every leg-B order was rejected for want of a price."""
    from test_strategy import synthetic_pair

    a, b = synthetic_pair(21, n=400)
    config = StrategyConfig("A", PairsParams(symbol_b="B", lookback=40, z_entry=1.6, z_exit=0.4))
    needle = "prebuilt pairs stepper .* pass the pairs config and its second leg as aux"
    broker = ClosingBroker({"A": a, "B": b}, 10_000.0, CostModel(), allow_short=True)
    for aux in (None, b):
        with pytest.raises(ValidationError, match=needle):
            paper_trade_loop(new_state(config, aux=b), a if feed == "series" else list(a.candles),
                             broker, costs=CostModel(), aux=aux, symbol="A",
                             interval=a.interval)
        with pytest.raises(ValidationError, match=needle):
            run_backtest(new_state(config, a, b), a, aux=aux)
    assert broker.closes == [False, False] and not broker.fills


def short_leg_run(case):
    """``(pairs config, leg A, leg B, second leg fed, error, needle)`` of a
    session over a candle iterator whose second leg ends or diverges."""
    from test_strategy import run_stepper, synthetic_pair

    a, b = synthetic_pair(21, n=400)
    lookback, z_entry, z_exit = 40, 1.6, 0.4
    config = StrategyConfig("A", PairsParams(symbol_b="B", lookback=lookback,
                                             z_entry=z_entry, z_exit=z_exit))
    # the bar after the first entry, where both legs' orders are queued
    entry = next(i for i, (opens, _) in enumerate(run_stepper(config, a, b)) if opens) + 1
    # leg B without its bar 150: from there on its stamps are a bar ahead
    skipped = CandleSeries("B", b.interval, b.candles[:150] + b.candles[151:], has_gaps=True)
    leg, error, needle = {
        "ends": (b.candles[:200], ValidationError, "the second leg 'B' ends at bar 200, "
                                                   "before the feed"),
        "ends after an entry": (b.candles[:entry], ValidationError,
                                f"the second leg 'B' ends at bar {entry}, before the feed"),
        "diverges": (skipped.candles, MisalignedSeries, "pair timestamps diverge"),
    }[case]
    return config, a, b, CandleSeries("B", b.interval, leg, has_gaps=True), error, needle


@pytest.mark.parametrize("case", ["ends", "ends after an entry", "diverges"])
def test_a_second_leg_that_ends_or_diverges_under_a_candle_iterator(case):
    """Over a candle iterator no series is there to compare the second leg
    with up front, so the loop refuses it at the bar it lacks or whose stamp
    differs, before that bar's queued orders execute, and closes the
    endpoint without liquidating."""
    config, a, b, leg, error, needle = short_leg_run(case)
    broker = ClosingBroker({"A": a, "B": b}, 10_000.0, CostModel(), allow_short=True)
    with pytest.raises(error, match=needle):
        paper_trade_loop(config, list(a.candles), broker, costs=CostModel(), aux=leg,
                         symbol="A", interval=a.interval)
    assert broker.closes == [False]
    if case == "ends after an entry":
        # both legs' entry orders were queued for the bar the leg lacks
        assert not broker.fills and not broker.account().positions


# ---------------------------------------------------------------------------
# What a session marks, and a session resumed on the same endpoint
# ---------------------------------------------------------------------------

class HoldingBroker(ClosingBroker):
    """Reports a holding in 'OLD', which no session here trades, as if the
    account held it before the session began."""

    def account(self):
        snapshot = super().account()
        return AccountSnapshot(snapshot.cash, {**snapshot.positions, "OLD": 3.0})


@pytest.mark.parametrize("legs", ["one leg", "pairs"])
def test_a_holding_the_session_does_not_trade_is_refused(legs):
    """The loop marks each leg at its own close and has no price for any
    other holding: it refuses one at the first bar's mark, names it and
    closes the endpoint without liquidating. Unrefused, it either broke the
    mark of a one-leg session or was marked at the second leg's close."""
    from test_strategy import synthetic_pair

    a, b = synthetic_pair(21, n=400)
    if legs == "one leg":
        config, feeds, aux = StrategyConfig("A", EmaCrossParams(9, 21)), a, None
    else:
        config = StrategyConfig("A", PairsParams(symbol_b="B", lookback=40,
                                                 z_entry=1.6, z_exit=0.4))
        feeds, aux = {"A": a, "B": b}, b
    broker = HoldingBroker(feeds, 10_000.0, CostModel(), allow_short=aux is not None)
    with pytest.raises(ValidationError, match="the venue holds 'OLD', which this run does "
                                              "not trade and cannot mark"):
        paper_trade_loop(config, a, broker, costs=CostModel(), aux=aux)
    assert broker.closes == [False] and not broker.fills and broker.bar == 0


def _resumed_session(script):
    """A session interrupted at bar 10 of a 20-bar simulator after opening
    half its cash long at bar 3, then a second session on the same endpoint
    over the remaining 10 bars, driven by ``script``."""
    series = flat_series(20, price=100.0, symbol="RND")
    broker = SimulatedBroker(series, 1_000.0, ZERO_COSTS)

    def interrupted_feed():
        for i, candle in enumerate(series.candles):
            if i == 10:
                raise FeedInterrupted("stream lost")
            yield candle

    opening = ScriptedStrategy({2: ([TradeIntent(Side.OPEN_LONG, "RND", 0.5)], [])})
    first = paper_trade_loop(opening, interrupted_feed(), broker, costs=ZERO_COSTS,
                             symbol="RND", interval=series.interval)
    assert first.interrupted and [(f.bar, f.side) for f in first.fills] == [(3, Side.OPEN_LONG)]
    second = paper_trade_loop(ScriptedStrategy(script), series.candles[10:], broker,
                              costs=ZERO_COSTS, symbol="RND", interval=series.interval)
    return series, broker, second


def test_a_session_resumed_on_the_same_endpoint_places_its_own_orders():
    """Client ids carry the bar's timestamp: a second session on the
    endpoint of an interrupted one places its close, where reused ids got
    back the first session's ack for the open. Its fills are indexed by
    the session's own bars."""
    _, broker, second = _resumed_session({1: ([], [TradeIntent(Side.CLOSE_LONG, "RND")])})
    assert [(f.bar, f.side, f.quantity, f.forced) for f in second.fills] == [
        (2, Side.CLOSE_LONG, 5.0, False)]
    assert [f.side for f in broker.fills] == [Side.OPEN_LONG, Side.CLOSE_LONG]
    assert broker.account() == AccountSnapshot(1_000.0, {})


def test_a_resumed_session_report_is_written_with_its_own_bars(tmp_path):
    """The report of a session resumed at the simulator's bar 10 indexes
    its fills, the forced close included, from its own first bar, so the
    CLI writes its signals against its own timestamps."""
    series, _, second = _resumed_session({
        1: ([], [TradeIntent(Side.CLOSE_LONG, "RND")]),
        4: ([TradeIntent(Side.OPEN_LONG, "RND", 0.5)], []),
    })
    write_report_files(second, tmp_path)
    assert second.bars == 10
    assert [(f.bar, f.side, f.forced) for f in second.fills] == [
        (2, Side.CLOSE_LONG, False), (5, Side.OPEN_LONG, False), (9, Side.CLOSE_LONG, True)]
    rows = [line.split(",")[:3] for line in
            (tmp_path / "signals.csv").read_text().splitlines()[1:]]
    ts = series.timestamps
    assert rows == [["2", str(ts[12]), "close_long"], ["5", str(ts[15]), "open_long"],
                    ["9", str(ts[19]), "close_long"]]
