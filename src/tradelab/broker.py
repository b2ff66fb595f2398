"""Order routing: a minimal broker contract plus a simulated implementation.

The endpoint contract is four calls (connect, place_order, account, close)
so real exchange adapters can slot in without touching the rest of the
system. Only market orders exist.

``paper_trade_loop`` replays a candle feed through ``backtest.run_bars``, the
bar loop ``run_backtest`` uses, with a thin adapter over an endpoint in the
place of the backtester's ``Book``: the venue is the only difference. The
bundled simulator fills through a ``Book`` of its own at the current bar's
open and flattens remaining positions at the last seen close when the
session ends normally, so a session against it reproduces the backtest order
for order, reject reasons and equity included.
"""

from __future__ import annotations

import logging
from abc import ABC, abstractmethod
from dataclasses import dataclass, replace
from enum import Enum

from .backtest import (  # noqa: F401  FeedInterrupted is re-exported
    BacktestReport,
    Book,
    CostModel,
    FeedInterrupted,
    Fill,
    run_bars,
)
from .data import CandleSeries
from .errors import ValidationError, in_float_range

logger = logging.getLogger(__name__)


class UnknownSymbol(ValidationError):
    """The endpoint has no market for the requested symbol."""


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

    def __post_init__(self) -> None:
        if not in_float_range(self.quantity):
            raise ValidationError(f"order quantity must be a finite number, got {self.quantity}")
        if self.quantity <= 0:
            raise ValidationError(f"order quantity must be > 0, got {self.quantity}")


@dataclass(frozen=True)
class OrderAck:
    client_id: str
    broker_order_id: int
    status: AckStatus
    fill: Fill | None = None
    reason: str = ""


@dataclass(frozen=True, slots=True)  # slots: one snapshot is built on every bar
class AccountSnapshot:
    """``positions`` holds open positions only; a flat symbol is absent."""

    cash: float
    positions: dict[str, float]


class BrokerEndpoint(ABC):
    """The four-call broker contract."""

    @abstractmethod
    def connect(self) -> None: ...

    @abstractmethod
    def place_order(self, request: OrderRequest) -> OrderAck: ...

    @abstractmethod
    def account(self) -> AccountSnapshot: ...

    @abstractmethod
    def close(self, liquidate: bool = True) -> tuple[AccountSnapshot, list[Fill]]: ...


class SimulatedBroker(BrokerEndpoint):
    """In-memory exchange over replayed candle series.

    The session owner steps the market forward with :meth:`advance`; market
    orders fill at the current bar's open, slippage applied adversely, with a
    proportional fee. Order placement is idempotent per client id: the same
    request sent again returns the original ack without touching the account,
    and a different request under a used id is refused.
    """

    def __init__(self, feeds: CandleSeries | dict[str, CandleSeries],
                 initial_cash: float, costs: CostModel | None = None,
                 allow_short: bool = False):
        if isinstance(feeds, CandleSeries):
            feeds = {feeds.symbol: feeds}
        if not feeds:
            raise ValidationError("simulator needs at least one feed")
        stamps = next(iter(feeds.values())).timestamps
        if any(series.timestamps != stamps for series in feeds.values()):
            raise ValidationError("all simulator feeds must share timestamps")
        self.feeds = feeds
        self.costs = costs or CostModel()
        self.book = Book(initial_cash, self.costs, allow_short)
        self.bar = -1
        self.fills: list[Fill] = []
        self._acks: dict[str, tuple[OrderRequest, OrderAck]] = {}
        self._next_order_id = 0
        self._stamps = stamps  # the feeds' shared timestamps, read by advance()

    # -- session --------------------------------------------------------

    def connect(self) -> None:
        pass

    def advance(self) -> int | None:
        """Move the market to the next bar; returns its timestamp or None
        when the feed is exhausted."""
        bar = self.bar + 1
        if bar >= len(self._stamps):
            return None
        self.bar = bar
        return self._stamps[bar]

    def account(self) -> AccountSnapshot:
        book = self.book
        # positional arguments: the session reads the account on every bar
        return AccountSnapshot(book.cash, book.positions.copy())

    def close(self, liquidate: bool = True) -> tuple[AccountSnapshot, list[Fill]]:
        """End the session; by default flattens open positions at the last
        seen close (market-on-close liquidation)."""
        liquidation: list[Fill] = []
        if liquidate and self.bar >= 0:
            closes = {symbol: series.candles[self.bar].close
                      for symbol, series in self.feeds.items()}
            liquidation = self.book.flatten(self._next_order_id, self.bar, closes)
            self._next_order_id += len(liquidation)
            self.fills.extend(liquidation)
        return self.account(), liquidation

    # -- order handling ---------------------------------------------------

    def place_order(self, request: OrderRequest) -> OrderAck:
        """Fill a market order through the book; every order, filled or
        rejected, takes the next broker order id."""
        prior = self._acks.get(request.client_id)
        if prior is not None:
            if prior[0] != request:
                raise ValidationError(f"client id '{request.client_id}' was already used "
                                      "for a different order")
            return prior[1]
        if request.symbol not in self.feeds:
            raise UnknownSymbol(f"no feed for '{request.symbol}'")
        if self.bar < 0:
            raise ValidationError("market not started; call advance() first")
        raw = self.feeds[request.symbol].candles[self.bar].open
        quantity = request.quantity if request.side is OrderSide.BUY else -request.quantity
        order_id = self._next_order_id
        self._next_order_id += 1
        fill = self.book.fill(order_id, self.bar, request.symbol, quantity, raw)
        if isinstance(fill, str):
            logger.debug("order %s rejected: %s", request.client_id, fill)
            ack = OrderAck(client_id=request.client_id, broker_order_id=order_id,
                           status=AckStatus.REJECTED, reason=fill)
        else:
            self.fills.append(fill)
            ack = OrderAck(client_id=request.client_id, broker_order_id=order_id,
                           status=AckStatus.ACCEPTED, fill=fill)
        self._acks[request.client_id] = (request, ack)
        return ack


# ---------------------------------------------------------------------------
# Paper trading session
# ---------------------------------------------------------------------------

class _EndpointBook:
    """An endpoint behind a ``Book``'s face, the venue of a paper session.

    ``cash`` and ``positions`` are the last account snapshot, read once per
    bar and again after each ``place_order``. ``fill`` places a market order
    and keeps the endpoint's fill. Its client id is the bar's timestamp and
    the loop's order id, so a session resumed on the same endpoint does not
    reuse the ids of the one before it. ``flatten`` closes the session with
    the endpoint's own liquidation.
    """

    def __init__(self, endpoint: BrokerEndpoint):
        self.endpoint = endpoint
        self.cash = 0.0
        self.positions: dict[str, float] = {}
        self.ts = None  # the timestamp of the bar the endpoint stands at

    def bars(self, candles):
        """Yield each candle once the endpoint stands at its bar (a simulator
        is advanced in step); stop early when the endpoint runs out."""
        endpoint = self.endpoint
        advance = getattr(endpoint, "advance", None)
        for candle in candles:
            ts = advance() if advance is not None else candle.ts
            if ts is None:
                return
            if ts != candle.ts:
                raise ValidationError(f"feed and endpoint diverged: {candle.ts} vs {ts}")
            self.ts = ts
            self._read(endpoint.account())
            yield candle

    def _read(self, snapshot: AccountSnapshot) -> None:
        self.cash = snapshot.cash
        self.positions = snapshot.positions

    def fill(self, order_id: int, bar: int, symbol: str, quantity: float, raw_price: float,
             reason: str = "") -> Fill | str:
        side = OrderSide.BUY if quantity > 0 else OrderSide.SELL
        ack = self.endpoint.place_order(OrderRequest(f"{self.ts}-{order_id}", symbol, side,
                                                     abs(quantity)))
        self._read(self.endpoint.account())
        if ack.fill is None:
            return ack.reason or f"{ack.status.value} without a fill"
        return replace(ack.fill, bar=bar, reason=reason)

    def flatten(self, next_id: int, bar: int, closes: dict[str, float]) -> list[Fill]:
        snapshot, liquidation = self.endpoint.close(liquidate=True)
        self._read(snapshot)
        return [replace(f, bar=bar) for f in liquidation]


def paper_trade_loop(strategy, feed, endpoint: BrokerEndpoint, *,
                     costs: CostModel | None = None,
                     aux: CandleSeries | None = None,
                     drawdown_lambda: float = 0.5,
                     symbol: str | None = None,
                     interval: int = 0) -> BacktestReport:
    """Replay a feed bar by bar, routing strategy intents through an endpoint.

    ``feed`` is a gap-free CandleSeries, whose indicator columns the
    strategy then reads, or any iterable of candles, which it streams (then
    pass ``symbol``/``interval`` explicitly). ``aux`` is a pairs
    config's second leg, refused for any other strategy. The feed may raise
    FeedInterrupted to abort mid-session: the report then covers the
    processed bars only and open positions stay open, flagged via
    ``interrupted``. On normal exhaustion the endpoint session is closed
    with liquidation, matching the backtester's end-of-data force close;
    when the loop raises, it is closed without liquidation and the error
    propagates.

    ``costs`` must describe the venue's actual costs; they are used to size
    fractional intents exactly the way the backtester does. The report lists
    every order: intents that cannot be placed (nothing to close, no price
    for the symbol, ...) are rejected before they reach the endpoint, with
    the backtester's reasons, and endpoint rejects carry the ack's reason.
    """
    if isinstance(feed, CandleSeries):
        series, candles, symbol, interval = feed, feed.candles, feed.symbol, feed.interval
    elif not symbol:
        raise ValidationError("candle-iterator feeds need an explicit symbol")
    else:
        series, candles = None, feed
    endpoint.connect()
    venue = _EndpointBook(endpoint)
    try:
        report = run_bars(strategy, venue.bars(candles), venue, costs or CostModel(), symbol,
                          interval, series=series, aux=aux, drawdown_lambda=drawdown_lambda)
    except BaseException:
        endpoint.close(liquidate=False)
        raise
    if report.interrupted:
        endpoint.close(liquidate=False)
    return report
