"""Order routing: a minimal broker contract plus a simulated implementation.

The endpoint contract is five calls (connect, place_order, account,
symbol_info, close) so real exchange adapters can slot in without touching
the rest of the system. Only market orders exist; the request type carries
an order-type field reserved for extension.

``paper_trade_loop`` replays a candle feed bar by bar, routing strategy
intents through an endpoint. It and the bundled simulator use the same
fill/ledger kernel as ``run_backtest`` (``size_order``, ``Book`` and
``TradeLedger`` in ``backtest.py``): the simulator fills at the current
bar's open and liquidates remaining positions at the last seen close when
the session ends normally, so a session against it reproduces the backtest
fill for fill, side included.
"""

from __future__ import annotations

import logging
from abc import ABC, abstractmethod
from dataclasses import dataclass, replace
from enum import Enum

from .backtest import (
    BacktestReport,
    Book,
    CostModel,
    Fill,
    TradeLedger,
    compute_metrics,
    score,
    size_order,
)
from .data import CandleSeries
from .errors import TradeLabError, ValidationError
from .indicators import AtrStream
from .strategy import (
    StrategyConfig,
    StrategyKind,
    TradeIntent,
    apply_stops,
    new_state,
)

logger = logging.getLogger(__name__)


class UnknownSymbol(ValidationError):
    """The endpoint has no market for the requested symbol."""


class FeedInterrupted(TradeLabError):
    """Raised by a candle feed to signal an aborted stream."""


class OrderSide(Enum):
    BUY = "buy"
    SELL = "sell"


class AckStatus(Enum):
    ACCEPTED = "accepted"
    REJECTED = "rejected"


@dataclass(frozen=True)
class OrderRequest:
    client_id: str
    symbol: str
    side: OrderSide
    quantity: float
    order_type: str = "market"

    def __post_init__(self) -> None:
        if self.quantity <= 0:
            raise ValidationError(f"order quantity must be > 0, got {self.quantity}")
        if self.order_type != "market":
            raise ValidationError("only market orders are supported")


@dataclass(frozen=True)
class OrderAck:
    client_id: str
    broker_order_id: int
    status: AckStatus
    fill: Fill | None = None
    reason: str = ""


@dataclass(frozen=True)
class AccountSnapshot:
    cash: float
    positions: dict[str, float]
    fees_paid: float


@dataclass(frozen=True)
class SymbolInfo:
    symbol: str
    interval: int
    bar_count: int


class BrokerEndpoint(ABC):
    """The five-call broker contract."""

    @abstractmethod
    def connect(self) -> None: ...

    @abstractmethod
    def place_order(self, request: OrderRequest) -> OrderAck: ...

    @abstractmethod
    def account(self) -> AccountSnapshot: ...

    @abstractmethod
    def symbol_info(self, symbol: str) -> SymbolInfo: ...

    @abstractmethod
    def close(self, liquidate: bool = True) -> tuple[AccountSnapshot, list[Fill]]: ...


class SimulatedBroker(BrokerEndpoint):
    """In-memory exchange over replayed candle series.

    The session owner steps the market forward with :meth:`advance`; market
    orders fill at the current bar's open, slippage applied adversely, with a
    proportional fee. Order placement is idempotent per client id: a repeated
    id returns the original ack without touching the account.
    """

    def __init__(self, feeds: CandleSeries | dict[str, CandleSeries],
                 initial_cash: float, costs: CostModel | None = None,
                 allow_short: bool = False):
        if isinstance(feeds, CandleSeries):
            feeds = {feeds.symbol: feeds}
        if not feeds:
            raise ValidationError("simulator needs at least one feed")
        stamps = {tuple(s.timestamps) for s in feeds.values()}
        if len(stamps) > 1:
            raise ValidationError("all simulator feeds must share timestamps")
        self.feeds = feeds
        self.costs = costs or CostModel()
        self.book = Book(initial_cash, self.costs, allow_short)
        self.bar = -1
        self.fills: list[Fill] = []
        self._acks: dict[str, OrderAck] = {}
        self._next_order_id = 0
        self._bars_total = len(next(iter(feeds.values())))

    # -- session --------------------------------------------------------

    def connect(self) -> None:
        pass

    def advance(self) -> int | None:
        """Move the market to the next bar; returns its timestamp or None
        when the feed is exhausted."""
        if self.bar + 1 >= self._bars_total:
            return None
        self.bar += 1
        return next(iter(self.feeds.values())).timestamps[self.bar]

    def symbol_info(self, symbol: str) -> SymbolInfo:
        if symbol not in self.feeds:
            raise UnknownSymbol(f"no feed for '{symbol}'")
        series = self.feeds[symbol]
        return SymbolInfo(symbol=symbol, interval=series.interval, bar_count=len(series))

    def account(self) -> AccountSnapshot:
        book = self.book
        return AccountSnapshot(cash=book.cash, positions=dict(book.positions),
                               fees_paid=book.fees_paid)

    def close(self, liquidate: bool = True) -> tuple[AccountSnapshot, list[Fill]]:
        """End the session; by default flattens open positions at the last
        seen close (market-on-close liquidation)."""
        liquidation: list[Fill] = []
        if liquidate and self.bar >= 0:
            positions = self.book.positions
            for symbol in sorted(positions):
                if positions[symbol] != 0.0:
                    raw = self.feeds[symbol].candles[self.bar].close
                    liquidation.append(self._fill(symbol, -positions[symbol], raw,
                                                  reason="end-of-data", forced=True))
        return self.account(), liquidation

    # -- order handling ---------------------------------------------------

    def place_order(self, request: OrderRequest) -> OrderAck:
        prior = self._acks.get(request.client_id)
        if prior is not None:
            return prior
        if request.symbol not in self.feeds:
            raise UnknownSymbol(f"no feed for '{request.symbol}'")
        if self.bar < 0:
            raise ValidationError("market not started; call advance() first")
        raw = self.feeds[request.symbol].candles[self.bar].open
        quantity = request.quantity if request.side is OrderSide.BUY else -request.quantity
        order_id = self._next_order_id
        fill = self._fill(request.symbol, quantity, raw)
        if isinstance(fill, str):
            logger.debug("order %s rejected: %s", request.client_id, fill)
            ack = OrderAck(client_id=request.client_id, broker_order_id=order_id,
                           status=AckStatus.REJECTED, reason=fill)
        else:
            ack = OrderAck(client_id=request.client_id, broker_order_id=order_id,
                           status=AckStatus.ACCEPTED, fill=fill)
        self._acks[request.client_id] = ack
        return ack

    def _fill(self, symbol: str, quantity: float, raw_price: float,
              reason: str = "", forced: bool = False) -> Fill | str:
        """Fill a signed quantity (buys > 0) through the book; every order,
        filled or rejected, takes the next broker order id."""
        order_id = self._next_order_id
        self._next_order_id += 1
        fill = self.book.fill(order_id, self.bar, symbol, quantity, raw_price, reason, forced)
        if not isinstance(fill, str):
            self.fills.append(fill)
        return fill


# ---------------------------------------------------------------------------
# Paper trading session
# ---------------------------------------------------------------------------

def paper_trade_loop(strategy, feed, endpoint: BrokerEndpoint, *,
                     costs: CostModel | None = None,
                     aux_feed: CandleSeries | None = None,
                     drawdown_lambda: float = 0.5,
                     symbol: str | None = None,
                     interval: int = 0) -> BacktestReport:
    """Replay a feed bar by bar, routing strategy intents through an endpoint.

    ``feed`` is a CandleSeries or any iterable of candles (then pass
    ``symbol``/``interval`` explicitly). The feed may raise FeedInterrupted
    to abort mid-session: the report then covers the processed bars only and
    open positions stay open, flagged via ``interrupted``. On normal
    exhaustion the endpoint session is closed with liquidation, matching the
    backtester's end-of-data force close.

    ``costs`` must describe the venue's actual costs; they are used to size
    fractional intents exactly the way the backtester does. Intents that
    cannot be placed (nothing to close, no price for the symbol, ...) are
    dropped before they reach the endpoint.
    """
    costs = costs or CostModel()

    if isinstance(strategy, StrategyConfig):
        stepper = new_state(strategy)
        stop_settings = strategy.stops
        pairs = strategy.kind is StrategyKind.PAIRS
    else:
        stepper = strategy
        stop_settings = getattr(strategy, "stops", None)
        pairs = False

    if isinstance(feed, CandleSeries):
        symbol = feed.symbol
        interval = feed.interval
        candle_iter = iter(feed.candles)
    else:
        if not symbol:
            raise ValidationError("candle-iterator feeds need an explicit symbol")
        candle_iter = iter(feed)
    if pairs and aux_feed is None:
        raise ValidationError("pairs strategies need aux_feed for the second leg")
    aux_candles = aux_feed.candles if aux_feed is not None else None

    endpoint.connect()
    ledger = TradeLedger(symbol, stop_settings, costs.fee_rate)
    atr_stream = AtrStream(stop_settings.atr_period) if stop_settings else None
    last_atr: float | None = None
    pending: list[TradeIntent] = []
    timestamps: list[int] = []
    equity: list[float] = []
    client_seq = 0
    interrupted = False
    bar = -1
    bar_opens: dict[str, float] = {}
    bar_closes: dict[str, float] = {}

    def submit(intent: TradeIntent) -> None:
        nonlocal client_seq
        raw_open = bar_opens.get(intent.symbol)
        if raw_open is None:
            return
        snapshot = endpoint.account()
        qty = size_order(intent, snapshot.positions.get(intent.symbol, 0.0), snapshot.cash,
                         raw_open, costs)
        if isinstance(qty, str):
            return
        side = OrderSide.BUY if qty > 0 else OrderSide.SELL
        request = OrderRequest(str(client_seq), intent.symbol, side, abs(qty))
        client_seq += 1
        ack = endpoint.place_order(request)
        if ack.status is AckStatus.ACCEPTED and ack.fill is not None:
            flat = endpoint.account().positions.get(intent.symbol, 0.0) == 0.0
            ledger.record(replace(ack.fill, reason=intent.reason), flat, last_atr)

    try:
        for candle in candle_iter:
            ts = endpoint.advance() if hasattr(endpoint, "advance") else candle.ts
            if ts is None:
                break
            if ts != candle.ts:
                raise ValidationError(f"feed and endpoint diverged: {candle.ts} vs {ts}")
            bar += 1
            bar_opens[symbol] = candle.open
            bar_closes[symbol] = candle.close
            if aux_candles is not None:
                aux = aux_candles[bar]
                bar_opens[aux_feed.symbol] = aux.open
                bar_closes[aux_feed.symbol] = aux.close
            if pending:
                ready, pending = pending, []
                for intent in ready:
                    submit(intent)
            if atr_stream is not None:
                # primary-series stops only, mirroring the backtester
                atr_value = atr_stream.push(candle)
                if ledger.stop is not None:
                    intent = apply_stops(ledger.stop, candle, atr_value, stop_settings)
                    if intent is not None:
                        pending.append(intent)
                last_atr = atr_value
            if aux_candles is not None:
                opens_i, closes_i = stepper.step_pair(candle, aux_candles[bar])
            else:
                opens_i, closes_i = stepper.step(candle)
            pending.extend(closes_i)
            pending.extend(opens_i)
            snapshot = endpoint.account()
            value = snapshot.cash
            for sym, qty in snapshot.positions.items():
                if qty != 0.0:
                    value += qty * bar_closes[sym]
            timestamps.append(candle.ts)
            equity.append(value)
    except FeedInterrupted:
        interrupted = True
        logger.warning("feed interrupted after %d bars; open positions left open", bar + 1)

    if not timestamps:
        raise ValidationError("feed produced no bars")

    snapshot, liquidation = endpoint.close(liquidate=not interrupted)
    forced_close = bool(liquidation)
    for fill in liquidation:
        ledger.record(fill, True, last_atr)
    if forced_close:
        equity[-1] = snapshot.cash

    metrics = compute_metrics(equity, ledger.trades)
    return BacktestReport(
        symbol=symbol,
        interval=interval,
        bars=len(timestamps),
        initial_cash=equity[0],
        final_equity=equity[-1],
        timestamps=timestamps,
        equity=equity,
        fills=ledger.fills,
        trades=ledger.trades,
        orders=[],
        metrics=metrics,
        score=score(metrics, drawdown_lambda),
        drawdown_lambda=drawdown_lambda,
        forced_close=forced_close,
        interrupted=interrupted,
    )
