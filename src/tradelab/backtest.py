"""Event-driven backtester with cost modelling and score metrics.

Execution model: intents emitted on bar t are queued and filled at bar t+1's
open, with slippage applied adversely and a proportional fee; open positions
left at the end of the data are force-closed at the final close (flagged).
Accounting invariant maintained throughout: equity = cash + sum(qty * close),
and every equity change flows through a fill or a price move.

The fill/ledger kernel lives here and nowhere else: ``size_order`` turns an
intent into a quantity, ``Book`` turns an order into a fill, and
``TradeLedger`` pairs fills into trades and keeps the stop state.

``run_bars`` is the one bar loop. ``run_backtest`` runs it on a ``Book``;
``broker.paper_trade_loop`` runs it on an adapter over a broker endpoint,
which is the only difference between a backtest and a paper session, apart
from a backtest not stepping its stepper on bars where it cannot emit: such
a stretch is marked in bulk, or walked by the stop alone while one is
armed. Both reports list every order with its status and reject reason.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import groupby, islice

from .data import CandleSeries
from .errors import TradeLabError, ValidationError
from .indicators import AtrStream, IndicatorSpec
from .strategy import (
    PositionStopState,
    Side,
    StopSettings,
    StrategyConfig,
    StrategyKind,
    TradeIntent,
    apply_stops,
    new_state,
    series_lines,
)

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class CostModel:
    """Proportional execution costs in basis points; each must be a number in
    [0, 10000): at 100% a sell would fill at a price of zero or net nothing."""

    fee_bps: float = 10.0
    slippage_bps: float = 5.0

    def __post_init__(self) -> None:
        for name in ("fee_bps", "slippage_bps"):
            value = getattr(self, name)
            if type(value) not in (int, float) or not 0 <= value < 10_000:
                raise ValidationError(f"{name} must be a number in [0, 10000), got {value!r}")

    @cached_property
    def fee_rate(self) -> float:
        return self.fee_bps / 10_000.0

    @cached_property
    def slippage_rate(self) -> float:
        return self.slippage_bps / 10_000.0

    def fill_price(self, raw_price: float, buy: bool) -> float:
        """Execution price with slippage applied against the trader."""
        if buy:
            return raw_price * (1.0 + self.slippage_rate)
        return raw_price * (1.0 - self.slippage_rate)


ZERO_COSTS = CostModel(fee_bps=0.0, slippage_bps=0.0)


class OrderStatus(Enum):
    PENDING = "pending"
    FILLED = "filled"
    REJECTED = "rejected"


@dataclass
class Order:
    id: int
    intent: TradeIntent
    created_at_bar: int
    status: OrderStatus = OrderStatus.PENDING
    reject_reason: str = ""


@dataclass(frozen=True)
class Fill:
    order_id: int
    bar: int
    symbol: str
    side: Side
    price: float
    quantity: float
    fee: float
    reason: str = ""
    forced: bool = False


@dataclass(frozen=True)
class TradeRecord:
    symbol: str
    quantity: float
    entry_bar: int
    entry_price: float
    exit_bar: int
    exit_price: float
    profit_pct: float
    exit_reason: str
    forced: bool
    is_long: bool


@dataclass(frozen=True)
class Metrics:
    net_profit_pct: float
    max_drawdown_pct: float
    win_rate: float
    trade_count: int


@dataclass
class BacktestReport:
    symbol: str
    interval: int
    bars: int
    initial_cash: float
    final_equity: float
    timestamps: list[int]
    equity: list[float]
    fills: list[Fill]
    trades: list[TradeRecord]
    orders: list[Order]
    metrics: Metrics
    score: float
    drawdown_lambda: float
    forced_close: bool = False
    interrupted: bool = False


def compute_metrics(equity: list[float], trades: list[TradeRecord]) -> Metrics:
    """Net profit, peak-to-trough drawdown and win rate over a run.

    The drawdown visits each run of equal consecutive marks once: a repeat
    of a mark changes neither the peak nor the largest drawdown.
    """
    if not equity:
        raise ValidationError("equity curve is empty")
    initial = equity[0]
    net = (equity[-1] - initial) / initial * 100.0
    peak = equity[0]
    max_dd = 0.0
    for value, _ in groupby(equity):
        if value > peak:
            peak = value
        elif peak > 0:
            dd = (peak - value) / peak * 100.0
            if dd > max_dd:
                max_dd = dd
    wins = sum(1 for t in trades if t.profit_pct > 0)
    win_rate = wins / len(trades) if trades else 0.0
    return Metrics(net_profit_pct=net, max_drawdown_pct=max_dd,
                   win_rate=win_rate, trade_count=len(trades))


def score(metrics: Metrics, drawdown_lambda: float = 0.5) -> float:
    """Single scalar strategy score: profit penalized by drawdown."""
    return metrics.net_profit_pct - drawdown_lambda * metrics.max_drawdown_pct


def size_order(intent: TradeIntent, held: float, cash: float, raw_price: float,
               costs: CostModel) -> float | str:
    """Signed quantity to trade for an intent (buys > 0, sells < 0), or the
    reason it cannot be placed.

    Fractional opens spend that share of ``cash`` at the slipped price, fees
    included, so a 100% open leaves cash at zero. Closes take a share of the
    position ``held``, or an absolute quantity clamped to it.
    """
    side = intent.side
    if side is Side.OPEN_LONG or side is Side.OPEN_SHORT:
        buy = side is Side.OPEN_LONG
        if buy and held < 0:
            return "symbol currently short"
        if not buy and held > 0:
            return "symbol currently long"
        if intent.absolute:
            qty = intent.size
        else:
            price = costs.fill_price(raw_price, buy)
            qty = intent.size * cash / (price * (1.0 + costs.fee_rate))
        if qty <= 0:
            return "zero quantity"
        return qty if buy else -qty
    if side is Side.CLOSE_LONG:
        if held <= 0:
            return "no open long position"
        return -(min(intent.size, held) if intent.absolute else held * intent.size)
    if held >= 0:
        return "no open short position"
    return min(intent.size, -held) if intent.absolute else -held * intent.size


class Book:
    """One account: cash plus signed base-asset positions.

    :meth:`fill` is the only place where an order becomes a fill. It applies
    slippage against the trader and the proportional fee, checks funds (up
    to rounding relative to the cash) for buys that do not cover a short,
    refuses shorts when shorting is off and closing orders larger than the
    position, and drops a symbol from ``positions`` when a closing fill
    leaves it flat, dust included. The fill's side follows from the
    position held before it.
    """

    def __init__(self, cash: float, costs: CostModel, allow_short: bool):
        if not (isinstance(cash, (int, float)) and 0 < cash < float("inf")):
            raise ValidationError(f"initial cash must be a finite number > 0, got {cash!r}")
        self.cash = cash
        self.costs = costs
        self.allow_short = allow_short
        self.positions: dict[str, float] = {}

    def fill(self, order_id: int, bar: int, symbol: str, quantity: float, raw_price: float,
             reason: str = "", forced: bool = False) -> Fill | str:
        """Trade a signed ``quantity`` (buys > 0) at ``raw_price``. Returns the
        fill, or the reject reason with the book left unchanged."""
        held = self.positions.get(symbol, 0.0)
        buy = quantity > 0
        size = quantity if buy else -quantity
        closing = held < 0 if buy else held > 0
        if closing and size > abs(held) + 1e-9:
            return "insufficient position"
        if not (buy or closing or self.allow_short):
            return "shorting disabled in spot mode"
        price = self.costs.fill_price(raw_price, buy)
        notional = size * price
        fee = notional * self.costs.fee_rate
        if buy:
            if not closing and notional + fee > self.cash + max(1e-9, 1e-12 * self.cash):
                return "InsufficientFunds"
            self.cash -= notional + fee
            side = Side.CLOSE_SHORT if closing else Side.OPEN_LONG
        else:
            self.cash += notional - fee
            side = Side.CLOSE_LONG if closing else Side.OPEN_SHORT
        after = held + quantity
        if closing and abs(after) <= 1e-12:
            del self.positions[symbol]
        else:
            self.positions[symbol] = after
        # positional arguments: a keyword call costs more on every fill
        return Fill(order_id, bar, symbol, side, price, size, fee, reason, forced)

    def flatten(self, next_id: int, bar: int, closes: dict[str, float]) -> list[Fill]:
        """The end-of-data close: flatten every open position at its symbol's
        raw close, in symbol order; the fills take order ids from ``next_id``."""
        positions = self.positions
        return [self.fill(next_id + i, bar, symbol, -positions[symbol], closes[symbol],
                          "end-of-data", True)
                for i, symbol in enumerate(sorted(positions))]


class TradeLedger:
    """Fills in the order they happened, FIFO-matched into trade records,
    plus the stop state of the primary symbol's open position.

    The stop is armed on the primary symbol's first entry fill, with the
    ATR of the bar before that fill, and dropped when a fill leaves that
    position flat, so added entries keep the first entry's stop.
    """

    def __init__(self, symbol: str, stop_settings: StopSettings | None, fee_rate: float):
        self.symbol = symbol
        self.stop_settings = stop_settings
        self.fee_rate = fee_rate
        self.stop: PositionStopState | None = None
        self.fills: list[Fill] = []
        self.trades: list[TradeRecord] = []
        self._lots: dict[str, list[list]] = {}  # symbol -> [[qty_left, entry fill], ...]

    def record(self, fill: Fill, flat: bool, atr: float | None) -> None:
        """Add a fill. ``flat`` tells whether it left its symbol's position
        at zero; ``atr`` is the ATR of the bar before it, for arming a stop."""
        self.fills.append(fill)
        symbol = fill.symbol
        side = fill.side
        if side is Side.OPEN_LONG or side is Side.OPEN_SHORT:
            self._lots.setdefault(symbol, []).append([fill.quantity, fill])
            if self.stop is None and self.stop_settings is not None and symbol == self.symbol:
                self.stop = PositionStopState.at_entry(
                    symbol, side is Side.OPEN_LONG, fill.price, atr, self.stop_settings
                )
            return
        is_long = side is Side.CLOSE_LONG
        fee_rate = self.fee_rate
        remaining = fill.quantity
        lots = self._lots.get(symbol, [])
        while remaining > 1e-12 and lots:
            lot = lots[0]
            take = min(lot[0], remaining)
            entry_fill: Fill = lot[1]
            if is_long:
                entry_unit = entry_fill.price * (1.0 + fee_rate)
                exit_unit = fill.price * (1.0 - fee_rate)
                pct = (exit_unit - entry_unit) / entry_unit * 100.0
            else:
                entry_unit = entry_fill.price * (1.0 - fee_rate)
                exit_unit = fill.price * (1.0 + fee_rate)
                pct = (entry_unit - exit_unit) / entry_fill.price * 100.0
            self.trades.append(TradeRecord(symbol, take, entry_fill.bar, entry_fill.price,
                                           fill.bar, fill.price, pct, fill.reason or "close",
                                           fill.forced, is_long))
            lot[0] -= take
            remaining -= take
            if lot[0] <= 1e-12:
                lots.pop(0)
        if flat:
            # rounding can leave a dust lot once the position is flat; it must
            # not pair with the next round trip's exit
            self._lots.pop(symbol, None)
            if symbol == self.symbol:
                self.stop = None


class FeedInterrupted(TradeLabError):
    """Raised by a candle feed to signal an aborted stream."""


def _unpriced(positions: dict[str, float], *symbols: str) -> ValidationError:
    """The refusal of a holding the bar loop has no price for."""
    name = next(name for name in positions if name not in symbols)
    return ValidationError(f"the venue holds '{name}', which this run does not trade "
                           f"and cannot mark")


def run_bars(strategy, candles, venue, costs: CostModel, symbol: str, interval: int, *,
             series: CandleSeries | None = None, aux: CandleSeries | None = None,
             drawdown_lambda: float = 0.5) -> BacktestReport:
    """The one bar loop, behind ``run_backtest`` and ``broker.paper_trade_loop``.

    ``candles`` yields the primary symbol's bars. ``series`` is the whole
    series they come from, when there is one, and must be gap-free: a
    config's stepper then reads the series' indicator columns; fed from a
    candle iterator alone, it streams. The stop reads its ATR as one line
    indexed by bar: the series' column, or the values the loop has streamed
    so far. ``aux`` is the second pairs leg, which the pairs stepper is
    built with and the loop prices and marks.
    ``venue`` is where orders fill: a ``Book``, or any object with the same
    ``cash``, ``positions``, ``fill`` and ``flatten``.

    A config must trade the symbols of its bars, and this loop checks it:
    its ``symbol`` is ``symbol``; a pairs config's ``aux`` is the series of
    its ``symbol_b``, with the timestamps of ``series`` if there is one; any
    other config, and any duck-typed stepper, takes no ``aux``. A second
    leg that ends before the feed ends the run with a ``ValidationError``
    at the bar it lacks, before that bar's queued orders execute.

    Each bar's equity is the venue's cash plus each leg's position at that
    leg's close. A venue that holds a symbol the run does not trade ends the
    run with a ``ValidationError`` that names it, at the first bar it is held.

    Intents emitted on bar t become orders, sized with ``size_order`` and
    filled by the venue at bar t+1's open. A feed that raises
    ``FeedInterrupted`` ends the run with its open positions left open and
    the report flagged ``interrupted``; otherwise the venue flattens them at
    the last close (``forced_close``).

    A backtest jumps over quiet bars: when the venue is a ``Book``, the
    candles are the series' own and the loop built a column-fed stepper
    from a config, then at a bar with no queued order it asks the stepper
    for the next bar at which it can emit (``quiet_until``) and does not
    step it before that bar. With no armed stop it marks the book for every
    bar of the stretch in bulk. With an armed stop it walks the stretch
    with ``apply_stops`` and the mark alone, and ends it at the bar where
    the stop fires, whose close intent fills at the next open as usual.
    Paper sessions and prebuilt or duck-typed steppers walk every bar. Both
    give the same report, bit for bit.
    """
    if series is not None and series.has_gaps:
        raise ValidationError("backtest data must be gap-free")
    candles_b = symbol_b = None  # the second leg, priced and marked here
    if isinstance(strategy, StrategyConfig):
        if strategy.symbol != symbol:
            raise ValidationError(f"the config trades '{strategy.symbol}' but the bars are "
                                  f"'{symbol}'")
        if strategy.kind is StrategyKind.PAIRS:
            symbol_b = strategy.params.symbol_b
            if aux is None:
                raise ValidationError(f"pairs strategy needs aux series for '{symbol_b}'")
            if aux.symbol != symbol_b:
                raise ValidationError(f"pairs symbol_b is '{symbol_b}' but the second leg's "
                                      f"series is '{aux.symbol}'")
            if series is not None and aux.timestamps != series.timestamps:
                raise ValidationError("pairs legs must share timestamps")
            candles_b = aux.candles
        elif aux is not None:
            raise ValidationError(f"'{strategy.kind.value}' strategies trade one leg, but a "
                                  f"second leg '{aux.symbol}' was given")
        stepper = new_state(strategy, series, aux)
        stop_settings = strategy.stops
    else:
        stepper = strategy  # duck-typed: anything with .step(candle)
        stop_settings = getattr(strategy, "stops", None)
        if aux is not None:
            raise ValidationError(f"only a pairs config trades a second leg, but '{aux.symbol}' "
                                  f"was given with a {type(strategy).__name__}")
    ledger = TradeLedger(symbol, stop_settings, costs.fee_rate)
    atr = push_atr = None  # the stop's ATR by bar: the series' column, or streamed so far
    if stop_settings is not None:
        if series is None:
            atr, push_atr = [], AtrStream(stop_settings.atr_period).push
        else:
            (atr,) = series_lines(series, IndicatorSpec("atr", {"p": stop_settings.atr_period}))
    quiet_until = None  # the stepper's next possible emission, when the loop may jump
    if (isinstance(strategy, StrategyConfig) and series is not None
            and isinstance(venue, Book) and candles is series.candles):
        quiet_until = getattr(stepper, "quiet_until", None)
    stamps: list[int] | None = [] if series is None else None
    orders: list[Order] = []
    queue: list[TradeIntent] = []  # emitted on the previous bar
    equity: list[float] = []

    def execute(intent: TradeIntent, bar: int, raw_price: float) -> None:
        order = Order(len(orders), intent, bar - 1)
        orders.append(order)
        name = intent.symbol
        if name != symbol:
            raw_price = candles_b[bar].open if name == symbol_b else None
        if raw_price is None:
            result = f"no price feed for symbol '{name}'"
        else:
            result = size_order(intent, venue.positions.get(name, 0.0), venue.cash,
                                raw_price, costs)
            if not isinstance(result, str):
                result = venue.fill(order.id, bar, name, result, raw_price, intent.reason)
        if isinstance(result, str):
            order.status = OrderStatus.REJECTED
            order.reject_reason = result
            logger.debug("order %d rejected: %s", order.id, result)
            return
        order.status = OrderStatus.FILLED
        ledger.record(result, venue.positions.get(name, 0.0) == 0.0,
                      None if atr is None else atr[bar - 1])

    interrupted = False
    bars = enumerate(candles)
    try:
        for t, candle in bars:
            if candles_b is not None and t == len(candles_b):
                raise ValidationError(f"the second leg '{symbol_b}' ends at bar {t}, "
                                      f"before the feed")
            if quiet_until is not None and not queue:
                until = quiet_until(t)
                if until > t:
                    # from bar t to until-1 nothing fills and the stepper
                    # emits nothing: mark the book with the per-bar walk's
                    # floats and leave the loop's state as the walk would
                    cash = venue.cash
                    stop = ledger.stop
                    if stop is None:
                        end = until
                        if venue.positions:
                            (qty,) = venue.positions.values()
                            equity.extend([cash + qty * close for close in series.closes[t:end]])
                        else:
                            equity.extend([cash] * (end - t))
                    else:
                        # a stop-armed stretch: only the stop is walked, up
                        # to the bar where it fires
                        (qty,) = venue.positions.values()
                        for end, candle in enumerate(series.candles[t:until], t):
                            equity.append(cash + qty * candle.close)
                            intent = apply_stops(stop, candle, atr[end], stop_settings)
                            if intent is not None:
                                queue.append(intent)
                                break
                        end += 1
                    stepper.bars_seen = end
                    candle = series.candles[end - 1]  # the last bar marked so far
                    next(islice(bars, end - t - 1, end - t - 1), None)
                    continue
            if queue:
                open_price = candle.open
                for intent in queue:
                    execute(intent, t, open_price)
                queue.clear()
            if push_atr is not None:
                atr.append(push_atr(candle))
            stop = ledger.stop
            if stop is not None:
                # the stop component watches the primary series; pairs legs
                # exit on their own signal, not on per-leg stops
                intent = apply_stops(stop, candle, atr[t], stop_settings)
                if intent is not None:
                    queue.append(intent)
            opens_i, closes_i = stepper.step(candle)
            if closes_i:
                queue.extend(closes_i)
            if opens_i:
                queue.extend(opens_i)
            positions = venue.positions
            if not positions:
                equity.append(venue.cash)
            elif candles_b is None:
                qty = positions.get(symbol)
                if qty is None or len(positions) > 1:
                    raise _unpriced(positions, symbol)
                equity.append(venue.cash + qty * candle.close)
            else:
                value = venue.cash
                for name, qty in positions.items():
                    if name == symbol:
                        value += qty * candle.close
                    elif name == symbol_b:
                        value += qty * candles_b[t].close
                    else:
                        raise _unpriced(positions, symbol, symbol_b)
                equity.append(value)
            if stamps is not None:
                stamps.append(candle.ts)
    except FeedInterrupted:
        interrupted = True
        logger.warning("feed interrupted after %d bars; open positions left open", len(equity))

    if not equity:
        raise ValidationError("feed produced no bars")
    last = len(equity) - 1
    for intent in queue:  # emitted on the last bar, never executed
        orders.append(Order(len(orders), intent, last))
    marks = {symbol: candle.close}
    if candles_b is not None:
        marks[symbol_b] = candles_b[last].close
    forced = [] if interrupted else venue.flatten(len(orders), last, marks)
    for fill in forced:
        intent = TradeIntent(fill.side, fill.symbol, reason="end-of-data")
        orders.append(Order(len(orders), intent, last, OrderStatus.FILLED))
        ledger.record(fill, True, None)  # a closing fill arms no stop
    if forced:
        equity[-1] = venue.cash

    metrics = compute_metrics(equity, ledger.trades)
    return BacktestReport(
        symbol=symbol,
        interval=interval,
        bars=len(equity),
        initial_cash=equity[0],
        final_equity=equity[-1],
        timestamps=stamps if stamps is not None else series.timestamps[:len(equity)],
        equity=equity,
        fills=ledger.fills,
        trades=ledger.trades,
        orders=orders,
        metrics=metrics,
        score=score(metrics, drawdown_lambda),
        drawdown_lambda=drawdown_lambda,
        forced_close=bool(forced),
        interrupted=interrupted,
    )


def run_backtest(strategy, data: CandleSeries, initial_cash: float = 10_000.0,
                 costs: CostModel | None = None, *,
                 aux: CandleSeries | None = None,
                 drawdown_lambda: float = 0.5) -> BacktestReport:
    """Replay a strategy over a series with simulated execution on a ``Book``.

    ``strategy`` is a StrategyConfig, or any object with a
    ``step(candle) -> (opens, closes)`` method for custom strategies.
    ``aux`` is a pairs config's second leg, refused for any other strategy.
    Shorting is off (spot semantics) except for pairs configs.
    """
    if not data.candles:
        raise ValidationError("cannot backtest an empty series")
    costs = costs or CostModel()
    book = Book(initial_cash, costs, aux is not None)
    return run_bars(strategy, data.candles, book, costs, data.symbol, data.interval,
                    series=data, aux=aux, drawdown_lambda=drawdown_lambda)
