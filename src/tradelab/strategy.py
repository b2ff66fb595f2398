"""Heuristic trading strategies.

A strategy consumes candles one bar at a time and emits, per bar, two lists
of intents: positions to open and positions to close. A stepper streams its
indicators or reads bar i of indicator columns of its series, whose value
at bar i depends only on bars up to i, so no-lookahead holds either way;
feeding the same prefix always reproduces the same intents. The EMA-cross
rule has two forms: ``crossing_column`` over two EMA columns and, streamed,
``indicators.EmaCrossStream``, one coroutine per stepper. Every other
rule has one form, its stepper's ``step``.

Signals are evaluated on bar closes; the backtester fills the resulting
intents at the next bar's open. Intents are frozen, and a stepper may return
the same intent objects and lists on every bar that emits them, so callers
read the lists and never modify them. Each stepper holds its position in
one field; the bar loop alone arms, walks and drops the stop below.

Intent sizing:

* open intents: ``size`` is a fraction of available cash in (0, 1], or a
  base-asset quantity when ``absolute`` is set;
* close intents: ``size`` is a fraction of the open position, or an absolute
  quantity (clamped to the position by the backtester).
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from enum import Enum
from functools import cache, partial

from .data import Candle, CandleSeries
from .errors import TradeLabError, ValidationError, in_float_range, require_finite
from .indicators import (
    EmaCrossStream,
    IndicatorSpec,
    InvalidPeriods,
    indicator_lines,
    make_stream,
    require_period,
    spec_lines,
)
from .neat import Genome, NetworkEvaluator, NodeKind


class MisalignedSeries(ValidationError):
    """Two series that must share timestamps do not."""


class StrategyStateError(TradeLabError):
    """A stepper was stepped on bars its state was not built for."""


class Side(Enum):
    OPEN_LONG = "open_long"
    OPEN_SHORT = "open_short"
    CLOSE_LONG = "close_long"
    CLOSE_SHORT = "close_short"


@dataclass(frozen=True, slots=True)
class TradeIntent:
    side: Side
    symbol: str
    size: float = 1.0
    absolute: bool = False
    reason: str = ""

    def __post_init__(self) -> None:
        if not in_float_range(self.size):
            raise ValidationError(f"intent size must be a finite number, got {self.size}")
        if self.size <= 0:
            raise ValidationError(f"intent size must be > 0, got {self.size}")
        if not self.absolute and self.size > 1.0:
            raise ValidationError(f"fractional size must be in (0, 1], got {self.size}")


_NO_INTENTS: tuple[list[TradeIntent], list[TradeIntent]] = ([], [])


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

def _period(params, name: str) -> int:
    """``require_period`` on a frozen params field, stored as an int (2.0 is 2)."""
    value = require_period(getattr(params, name), name)
    object.__setattr__(params, name, value)
    return value


@dataclass(frozen=True)
class StopSettings:
    """ATR-scaled trailing stop and fixed take-profit.

    While ATR is still warming up the percentage fallbacks apply instead.
    """

    atr_period: int = 14
    stop_mult: float = 2.0
    profit_mult: float = 4.0
    fallback_stop_pct: float = 0.05
    fallback_profit_pct: float = 0.10

    def __post_init__(self) -> None:
        _period(self, "atr_period")
        # a multiple or a profit share of zero or less puts the stop or the
        # target on the wrong side of the close, and a stop share of 1 or
        # more puts the stop at or below zero, where it never fires
        for name in ("stop_mult", "profit_mult", "fallback_profit_pct"):
            value = getattr(self, name)
            if not 0 < value <= 1e100:
                raise ValidationError(f"{name} must be in (0, 1e100], got {value!r}")
        if not 0 < self.fallback_stop_pct < 1:
            raise ValidationError(
                f"fallback_stop_pct must be in (0, 1), got {self.fallback_stop_pct!r}")


@dataclass(frozen=True)
class EmaCrossParams:
    p_short: int = 9
    p_long: int = 21

    def __post_init__(self) -> None:
        if _period(self, "p_short") >= _period(self, "p_long"):
            raise InvalidPeriods(
                f"p_short {self.p_short} must be < p_long {self.p_long}"
            )


@dataclass(frozen=True)
class GridParams:
    spacing: float
    levels: int
    level_quantity: float

    def __post_init__(self) -> None:
        require_finite(self)
        if self.spacing <= 0:
            raise ValidationError(f"grid spacing must be > 0, got {self.spacing}")
        _period(self, "levels")
        if self.level_quantity <= 0:
            raise ValidationError("grid level_quantity must be > 0")


@dataclass(frozen=True)
class PairsParams:
    symbol_b: str
    lookback: int = 50
    z_entry: float = 2.0
    z_exit: float = 0.5
    leg_fraction: float = 0.5

    def __post_init__(self) -> None:
        require_finite(self)
        if _period(self, "lookback") < 3:
            raise ValidationError(f"pairs lookback must be >= 3, got {self.lookback}")
        if not (0 <= self.z_exit < self.z_entry):
            raise ValidationError(
                f"need 0 <= z_exit < z_entry, got exit={self.z_exit} entry={self.z_entry}"
            )
        if not 0 < self.leg_fraction <= 0.5:
            raise ValidationError("leg_fraction must be in (0, 0.5]")


def series_lines(series: CandleSeries, spec: IndicatorSpec) -> tuple[list[float | None], ...]:
    """A spec's output lines on ``series``, with streaming's warm-up
    semantics: a line that never warms up on the series is all ``None``.
    Computed on first request and kept in the series' own ``column_memo``,
    so every backtest of that series object (a tune's candidates, an
    evolution's genomes, the stop ATR) and the standalone signal functions
    share them. A stepper reads bar i of a column only for the very candle
    object it was computed from."""
    memo = series.column_memo
    lines = memo.get(spec)
    if lines is None:
        lines = memo[spec] = indicator_lines(spec, series)
    return lines


def network_inputs(series: CandleSeries, specs, norm: tuple[tuple[float, float], ...]
                   ) -> tuple[int, list[list[float]]]:
    """``(start, columns)``: the first bar where every input line is defined
    (the series' length when one never warms up), and one column of
    ``normalize_row``'s values per input line from that bar on. Lines have
    no holes once defined. Kept in the series' ``column_memo`` per (specs,
    norm)."""
    memo = series.column_memo
    key = (tuple(specs), norm)
    found = memo.get(key)
    if found is None:
        lines = [line for spec in specs for line in series_lines(series, spec)]
        n = len(series)
        start = max((next((i for i, v in enumerate(line) if v is not None), n)
                     for line in lines), default=0)
        columns = [[(v - mean) / std for v in line[start:]] if std > 0 else [0.0] * (n - start)
                   for line, (mean, std) in zip(lines, norm)]
        found = memo[key] = (start, columns)
    return found


@dataclass(frozen=True)
class NeatParams:
    """A frozen evolved network: the genome, its indicator inputs, and the
    normalization constants fitted on the training window. The inputs expand
    to one column per output line; the genome reads that many inputs and has
    three outputs (open/close/hold)."""

    genome: Genome
    input_specs: tuple[IndicatorSpec, ...]
    norm: tuple[tuple[float, float], ...]  # (mean, std) per expanded input column

    def __post_init__(self) -> None:
        if not self.input_specs:
            raise ValidationError("a trading network needs at least one indicator input")
        n_columns = sum(len(spec_lines(spec)) for spec in self.input_specs)
        if len(self.norm) != n_columns:
            raise ValidationError(
                f"normalization has {len(self.norm)} columns, inputs expand to {n_columns}"
            )
        kinds = [node.kind for node in self.genome.nodes]
        if kinds.count(NodeKind.INPUT) != n_columns:
            raise ValidationError(
                f"genome expects {kinds.count(NodeKind.INPUT)} inputs, specs expand to {n_columns}"
            )
        if kinds.count(NodeKind.OUTPUT) != 3:
            raise ValidationError("trading genomes need exactly 3 outputs (open/close/hold)")
        if not all(math.isfinite(m) and 0 <= s < math.inf for m, s in self.norm):
            raise ValidationError(f"norm needs finite means and finite stds >= 0, "
                                  f"got {list(self.norm)}")


@dataclass(frozen=True)
class NullParams:
    """The do-nothing strategy; useful for dry runs and cost baselines."""


class StrategyKind(Enum):
    EMA_CROSS = "ema_cross"
    GRID = "grid"
    PAIRS = "pairs"
    NEAT = "neat"
    NULL = "null"


PARAMS_BY_KIND = {StrategyKind.EMA_CROSS: EmaCrossParams, StrategyKind.GRID: GridParams,
                  StrategyKind.PAIRS: PairsParams, StrategyKind.NEAT: NeatParams,
                  StrategyKind.NULL: NullParams}
_KIND_BY_PARAMS = {params: kind for kind, params in PARAMS_BY_KIND.items()}


@dataclass(frozen=True)
class StrategyConfig:
    """What to trade and how; the data it trades on is the bar loop's
    input, not part of the config."""

    symbol: str
    params: EmaCrossParams | GridParams | PairsParams | NeatParams | NullParams
    size: float = 1.0
    stops: StopSettings | None = None

    def __post_init__(self) -> None:
        if type(self.params) not in _KIND_BY_PARAMS:
            raise ValidationError(f"unsupported params type {type(self.params).__name__}")
        if not 0 < self.size <= 1.0:
            raise ValidationError(f"size must be in (0, 1], got {self.size}")
        # the bar loop keys prices, marks and positions by symbol
        if isinstance(self.params, PairsParams) and self.params.symbol_b == self.symbol:
            raise ValidationError(
                f"pairs symbol_b {self.symbol!r} must differ from the traded symbol")

    @property
    def kind(self) -> StrategyKind:
        return _KIND_BY_PARAMS[type(self.params)]


# ---------------------------------------------------------------------------
# Steppers (strategy state machines), built by ``new_state``
# ---------------------------------------------------------------------------

class NullStepper:
    """Never trades."""

    def __init__(self, config: StrategyConfig, series: CandleSeries | None,
                 aux: CandleSeries | None):
        pass

    def step(self, candle: Candle):
        return _NO_INTENTS


def crossing_column(short: list[float | None], long_: list[float | None]) -> list[int]:
    """The crossing of two indicator lines, which have no holes once
    defined: +1 at a bar where the short line crosses above the long one
    since the previous bar, -1 where it crosses below, 0 otherwise, and 0
    while either line warms up and at the first bar where both are
    defined. ``indicators.EmaCrossStream`` gives the same values bar by
    bar."""
    n = len(short)
    start = next((i for i, (s, l) in enumerate(zip(short, long_))
                  if s is not None and l is not None), n)
    return [0] * min(start + 1, n) + [
        1 if s > l and ps <= pl else -1 if s < l and ps >= pl else 0
        for s, l, ps, pl in zip(short[start + 1:], long_[start + 1:],
                                short[start:-1], long_[start:-1])]


class SignalStepper:
    """A long-only stepper driven by one signal per bar: +1 opens a position
    when the stepper holds none, -1 closes it when it holds one, 0 does
    nothing.

    Built with its series, a subclass computes its whole signal column
    (``_signals``) up front and ``step`` looks bar i up, for the very candle
    the column was computed from only. Without one, ``_stream_signal(candle)``
    computes each bar's signal as the bar arrives: any callable, a method
    (``NeatStepper``) or a stream's ``push`` (``EmaCrossStepper``).
    """

    open_reason: str
    close_reason: str

    def __init__(self, config: StrategyConfig, series: CandleSeries | None):
        self.symbol = config.symbol
        self.size = config.size
        self._candles = series.candles if series is not None else None
        self._signals: list[int] | None = None
        # intents are frozen, so every emission returns the same ones
        self._open = ([TradeIntent(Side.OPEN_LONG, self.symbol, self.size,
                                   reason=self.open_reason)], [])
        self._close = ([], [TradeIntent(Side.CLOSE_LONG, self.symbol, reason=self.close_reason)])
        self.in_position = False
        self.bars_seen = 0

    def step(self, candle: Candle):
        bar = self.bars_seen
        self.bars_seen += 1
        signals = self._signals
        if signals is None:
            signal = self._stream_signal(candle)
        elif bar < len(signals) and self._candles[bar] is candle:
            signal = signals[bar]
        else:
            raise StrategyStateError(f"precomputed inputs were not computed for bar {bar}")
        if signal > 0 and not self.in_position:
            self.in_position = True
            return self._open
        if signal < 0 and self.in_position:
            self.in_position = False
            return self._close
        return _NO_INTENTS

    def quiet_until(self, bar: int) -> int:
        """The first bar from ``bar`` on where ``step`` can emit: the next
        signal that acts on the stepper's own position flag, or the signal
        column's length when none is left. For column-fed steppers only;
        between ``bar`` and that bar, ``step`` would only count bars."""
        signals = self._signals
        try:
            return signals.index(-1 if self.in_position else 1, bar)
        except ValueError:
            return len(signals)


class EmaCrossStepper(SignalStepper):
    """Open long when the short EMA crosses above the long EMA, close when
    it crosses back below.

    Built with its series, the stepper turns the series' two EMA columns
    into one crossing column; without one its ``_stream_signal`` is the
    ``push`` of one ``EmaCrossStream``.
    """

    open_reason = close_reason = "ema-cross"

    def __init__(self, config: StrategyConfig, series: CandleSeries | None,
                 aux: CandleSeries | None):
        super().__init__(config, series)
        p = config.params
        if series is None:
            self._stream_signal = EmaCrossStream(p.p_short, p.p_long).push
        else:
            (short,) = series_lines(series, IndicatorSpec("ema", {"p": p.p_short}))
            (long_,) = series_lines(series, IndicatorSpec("ema", {"p": p.p_long}))
            self._signals = crossing_column(short, long_)


class GridStepper:
    """Ladder of buy levels below an anchor price.

    Level k fills when the close reaches anchor - k*spacing and unwinds one
    spacing higher; the anchor re-centers on the close whenever no level is
    filled. Each level trades a fixed base-asset quantity.

    Neither threshold rises with k (float products and differences are
    monotone), so the held levels are 1..``filled``: a bar closes a top run
    of them and opens the run above those it keeps. A level's two intents
    are built on its first fill and shared after.
    """

    def __init__(self, config: StrategyConfig, series: CandleSeries | None,
                 aux: CandleSeries | None):
        p = config.params
        self.spacing = p.spacing
        self.levels = p.levels
        self.anchor: float | None = None
        self.filled = 0
        self._intent = partial(TradeIntent, symbol=config.symbol, size=p.level_quantity,
                               absolute=True)
        self._opens: list[TradeIntent] = []  # level k's at index k - 1
        self._closes: list[TradeIntent] = []

    def step(self, candle: Candle):
        close = candle.close
        anchor = self.anchor
        if anchor is None:
            self.anchor = close
            return _NO_INTENTS
        spacing = self.spacing
        held = kept = self.filled
        while kept and close >= anchor - (kept - 1) * spacing:
            kept -= 1
        m = kept
        while m < self.levels and close <= anchor - (m + 1) * spacing:
            m += 1
        self.filled = m
        if not m:
            self.anchor = close
        if m == kept == held:
            return _NO_INTENTS
        opens = self._opens
        for k in range(len(opens) + 1, m + 1):
            opens.append(self._intent(Side.OPEN_LONG, reason=f"grid-level-{k}"))
            self._closes.append(self._intent(Side.CLOSE_LONG, reason=f"grid-level-{k}"))
        return (opens[kept:m], self._closes[kept:held])


# Rolling spread deviation at or below this is degenerate: pure float noise
# (~1e-16 per log) on proportional legs, orders of magnitude under any real
# spread movement.
DEGENERATE_SPREAD_STD = 1e-12


class PairsStepper:
    """Mean-reversion on the log-price spread of two legs.

    The stepper is built with its second leg, ``aux``, and ``step`` reads
    that leg's bar at its own bar count. It enters when |z| of the spread
    crosses above the entry threshold, shorting the rich leg, and exits both
    legs when |z| falls back below the exit threshold. Bars where the
    rolling deviation is degenerate produce no signal.
    """

    def __init__(self, config: StrategyConfig, series: CandleSeries | None,
                 aux: CandleSeries | None):
        p = config.params
        self.symbol_b = p.symbol_b
        self._candles_b = aux.candles if aux is not None else ()
        self.bars_seen = 0
        self.lookback = p.lookback
        self.z_entry = p.z_entry
        self.z_exit = p.z_exit
        self._win: deque[float] = deque(maxlen=p.lookback)
        self._prev_abs_z: float | None = None
        a, b, f = config.symbol, p.symbol_b, p.leg_fraction
        # (opens, exit) of each entry, built once: intents are frozen
        self._short_a = (
            ([TradeIntent(Side.OPEN_SHORT, a, f, reason="pairs-entry"),
              TradeIntent(Side.OPEN_LONG, b, f, reason="pairs-entry")], []),
            ([], [TradeIntent(Side.CLOSE_SHORT, a, reason="pairs-exit"),
                  TradeIntent(Side.CLOSE_LONG, b, reason="pairs-exit")]))
        self._long_a = (
            ([TradeIntent(Side.OPEN_LONG, a, f, reason="pairs-entry"),
              TradeIntent(Side.OPEN_SHORT, b, f, reason="pairs-entry")], []),
            ([], [TradeIntent(Side.CLOSE_LONG, a, reason="pairs-exit"),
                  TradeIntent(Side.CLOSE_SHORT, b, reason="pairs-exit")]))
        # the exit intents of the entry held, or None when flat
        self.held: tuple[list[TradeIntent], list[TradeIntent]] | None = None

    def step(self, candle: Candle):
        bar = self.bars_seen
        if bar >= len(self._candles_b):
            raise StrategyStateError(f"the pairs stepper has no bar {bar} of its second "
                                     f"leg '{self.symbol_b}'")
        self.bars_seen = bar + 1
        candle_b = self._candles_b[bar]
        if candle.ts != candle_b.ts:
            raise MisalignedSeries(f"pair timestamps diverge: {candle.ts} vs {candle_b.ts}")
        spread = math.log(candle.close) - math.log(candle_b.close)
        self._win.append(spread)
        if len(self._win) < self.lookback:
            return _NO_INTENTS
        mean = sum(self._win) / self.lookback
        var = sum((x - mean) ** 2 for x in self._win) / self.lookback
        std = math.sqrt(var)
        if std <= DEGENERATE_SPREAD_STD:
            return _NO_INTENTS  # degenerate spread: no signal at this bar
        z = (spread - mean) / std
        prev_abs = self._prev_abs_z
        self._prev_abs_z = abs(z)
        held = self.held
        if held is None:
            if prev_abs is not None and prev_abs <= self.z_entry < abs(z):
                # z > 0: leg A rich, so short A and long B
                opens, self.held = self._short_a if z > 0 else self._long_a
                return opens
        elif abs(z) < self.z_exit:
            self.held = None
            return held
        return _NO_INTENTS


def normalize_row(raw, norm: tuple[tuple[float, float], ...]) -> list[float]:
    """Scale raw input values by the fitted (mean, std) of their columns; a
    column without spread reads 0."""
    return [(v - mean) / std if std > 0 else 0.0 for v, (mean, std) in zip(raw, norm)]


def network_action(outputs) -> int:
    """Index of the largest of the three network outputs (0 open, 1 close,
    2 hold); the first index wins a tie, as with ``max``."""
    o_open, o_close, o_hold = outputs
    best = 1 if o_close > o_open else 0
    return 2 if o_hold > (o_close if best else o_open) else best


# the signal of each network action: open, close, hold
_ACTION_SIGNALS = (1, -1, 0)


class NeatStepper(SignalStepper):
    """Feeds normalized indicator values through an evolved network and maps
    the argmax of its three outputs to open / close / hold.

    Built with its series, the stepper gets its signal column from one pass
    of the network's kernel over the series' input columns that yields each
    row's action as its signal; without one it streams its indicators one
    bar at a time.
    """

    open_reason = "net-open"
    close_reason = "net-close"

    def __init__(self, config: StrategyConfig, series: CandleSeries | None,
                 aux: CandleSeries | None):
        super().__init__(config, series)
        p = config.params
        self._net = NetworkEvaluator(p.genome)
        if series is None:
            self.norm = p.norm
            self._widths = [len(spec_lines(spec)) for spec in p.input_specs]
            self._streams = [make_stream(spec) for spec in p.input_specs]
        else:
            start, columns = network_inputs(series, p.input_specs, p.norm)
            # no signal during warm-up
            self._signals = [0] * start + self._net.argmax_columns(columns, _ACTION_SIGNALS)

    def _stream_signal(self, candle: Candle) -> int:
        """Push the bar into every input stream; the signal of the network's
        action, or 0 while an input is still warming up."""
        raw: list[float] = []
        ready = True
        for stream, width in zip(self._streams, self._widths):
            out = stream.push(candle)
            if width == 1:
                out = (out,)
            for v in out:
                if v is None:
                    ready = False
                    raw.append(0.0)
                else:
                    raw.append(v)
        if not ready:
            return 0
        return _ACTION_SIGNALS[network_action(self._net.activate(normalize_row(raw, self.norm)))]


_STEPPERS = {
    StrategyKind.NULL: NullStepper,
    StrategyKind.EMA_CROSS: EmaCrossStepper,
    StrategyKind.GRID: GridStepper,
    StrategyKind.PAIRS: PairsStepper,
    StrategyKind.NEAT: NeatStepper,
}


def new_state(config: StrategyConfig, series: CandleSeries | None = None,
              aux: CandleSeries | None = None):
    """Create a fresh stepper (the strategy's mutable state) for a config,
    from the series it will step through, whose indicator columns it then
    reads (without one it streams), and a pairs stepper's second leg
    ``aux``. Every stepper steps with ``step(candle) -> (opens, closes)``."""
    return _STEPPERS[config.kind](config, series, aux)


# ---------------------------------------------------------------------------
# Standalone signal operations
# ---------------------------------------------------------------------------

class SignalDirection(Enum):
    BUY = "buy"
    SELL = "sell"


def ema_crossover_signals(series: CandleSeries, p_short: int, p_long: int
                          ) -> list[tuple[int, SignalDirection]]:
    """Bars where the short EMA crosses the long EMA (both defined).

    Buy at bar i iff short[i] > long[i] and short[i-1] <= long[i-1]; sell is
    symmetric. No signals during warm-up.
    """
    EmaCrossParams(p_short, p_long)  # raises InvalidPeriods unless p_short < p_long
    (short,) = series_lines(series, IndicatorSpec("ema", {"p": p_short}))
    (long_,) = series_lines(series, IndicatorSpec("ema", {"p": p_long}))
    return [(i, SignalDirection.BUY if cross > 0 else SignalDirection.SELL)
            for i, cross in enumerate(crossing_column(short, long_)) if cross]


# ---------------------------------------------------------------------------
# Stop-loss / take-profit component
# ---------------------------------------------------------------------------

@dataclass
class PositionStopState:
    """Per-position trailing-stop bookkeeping owned by the bar loop.

    ``target`` is fixed from the entry bar; ``stop`` ratchets with each close
    (never loosening). ``None`` ATR values fall back to the percentage rules.
    """

    symbol: str
    is_long: bool
    target: float
    stop: float | None = None

    @classmethod
    def at_entry(cls, symbol: str, is_long: bool, entry_price: float,
                 atr_at_entry: float | None, settings: StopSettings) -> "PositionStopState":
        if atr_at_entry is not None:
            offset = settings.profit_mult * atr_at_entry
            target = entry_price + offset if is_long else entry_price - offset
        else:
            pct = settings.fallback_profit_pct
            target = entry_price * (1 + pct) if is_long else entry_price * (1 - pct)
        return cls(symbol, is_long, target)


@cache
def _stop_intent(side: Side, symbol: str, reason: str) -> TradeIntent:
    """The close intent of a fired stop: intents are frozen, so one object
    serves every stop of that (side, symbol, reason)."""
    return TradeIntent(side, symbol, reason=reason)


def apply_stops(position: PositionStopState, bar: Candle, atr_value: float | None,
                settings: StopSettings) -> TradeIntent | None:
    """Update the trailing stop with this bar's close and emit a close intent
    when the close strictly breaches the target or the stop."""
    close = bar.close
    if position.is_long:
        if atr_value is not None:
            candidate = close - settings.stop_mult * atr_value
        else:
            candidate = close * (1 - settings.fallback_stop_pct)
        if position.stop is None or candidate > position.stop:
            position.stop = candidate
        if close > position.target:
            return _stop_intent(Side.CLOSE_LONG, position.symbol, "take-profit")
        if close < position.stop:
            return _stop_intent(Side.CLOSE_LONG, position.symbol, "stop-loss")
    else:
        if atr_value is not None:
            candidate = close + settings.stop_mult * atr_value
        else:
            candidate = close * (1 + settings.fallback_stop_pct)
        if position.stop is None or candidate < position.stop:
            position.stop = candidate
        if close < position.target:
            return _stop_intent(Side.CLOSE_SHORT, position.symbol, "take-profit")
        if close > position.stop:
            return _stop_intent(Side.CLOSE_SHORT, position.symbol, "stop-loss")
    return None
