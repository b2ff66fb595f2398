"""Technical-analysis indicators over candle series.

Every indicator is implemented as a small streaming object that consumes one
candle at a time, so strategies can update values incrementally during a
backtest without recomputing history. Each stream's constructor is the one
place its parameters are checked. The registry maps names to stream classes,
and every batch function runs a fresh stream through ``compute``.

Warm-up is explicit: outputs carry ``None`` until enough history has
accumulated, never zeros. Conventions locked here (the usual published ones):

* EMA uses multiplier 2/(p+1) and is seeded with the SMA of the first p closes.
* RSI, ATR and ADX use Wilder smoothing (alpha = 1/p, seeded by a plain mean).
* RSI/MFI with zero losses/outflow read 100; with no movement at all, 50.
* CCI uses the 0.015 constant and mean absolute deviation; zero deviation -> 0.
* Williams %R reads 0 when the window is flat (close equals the window high).
* KST is the conventional 10/15/20/30 ROC blend smoothed over 10/10/10/15
  bars with weights 1..4.
* VPVR is windowed: each bar reports the traded volume in its own price
  bucket over the trailing window, bucketing by typical price.
"""

from __future__ import annotations

import inspect
import math
from bisect import bisect_left, bisect_right
from collections import deque
from dataclasses import dataclass, field

from .data import Candle, CandleSeries
from .errors import ValidationError


class UnknownIndicator(ValidationError):
    """The indicator name is not in the registry."""


class PeriodExceedsSeries(ValidationError):
    """The series is too short for the requested period."""


class InvalidPeriods(ValidationError):
    """Indicator parameters are invalid or inconsistent (e.g. a non-integral
    period, MACD fast >= slow)."""


@dataclass(frozen=True)
class IndicatorSpec:
    """A named indicator plus its parameter map."""

    name: str
    params: dict[str, float] = field(default_factory=dict)

    def label(self) -> str:
        if not self.params:
            return self.name
        parts = "_".join(str(self.params[k]) for k in sorted(self.params))
        return f"{self.name}_{parts}"

    def __hash__(self) -> int:
        # equal specs (params 9 and 9.0 included) hash alike, so a spec can
        # key a column store; a spec with an unhashable value, which its
        # stream will reject or ignore, hashes by its name
        try:
            return hash((self.name, tuple(sorted(self.params.items()))))
        except TypeError:
            return hash(self.name)


@dataclass
class IndicatorOutput:
    """Per-bar values aligned with the input series.

    ``values[i]`` is ``None`` for every i < warmup and a float from warmup
    onward; there are never interior holes.
    """

    values: list[float | None]
    warmup: int


_MAX_PERIOD = 2**31 - 1  # beyond any series; keeps window sizes in range
# with prices bounded by 1e100, a band width up to 1e100 keeps the bands finite
_MAX_BAND_WIDTH = 1e100


def require_period(p, name: str = "p") -> int:
    """An int, or an integral finite float, in [1, _MAX_PERIOD]. Bools,
    strings, None, fractions, NaN and infinities are rejected."""
    if isinstance(p, float) and p.is_integer():
        p = int(p)
    if isinstance(p, bool) or not isinstance(p, int) or not 1 <= p <= _MAX_PERIOD:
        raise InvalidPeriods(f"{name} must be an integer in [1, {_MAX_PERIOD}], got {p!r}")
    return p


# ---------------------------------------------------------------------------
# Streaming primitives
# ---------------------------------------------------------------------------

class _WilderAvg:
    """Wilder recursive average: mean of the first p values, then
    (prev*(p-1) + x)/p."""

    __slots__ = ("p", "_buf", "value")

    def __init__(self, p: int):
        self.p = p
        self._buf: list[float] = []
        self.value: float | None = None

    def push(self, x: float) -> float | None:
        if self.value is None:
            self._buf.append(x)
            if len(self._buf) == self.p:
                self.value = sum(self._buf) / self.p
                self._buf.clear()
            return self.value
        self.value = (self.value * (self.p - 1) + x) / self.p
        return self.value


class _EmaAvg:
    """EMA over pushed scalars, seeded with the SMA of the first p values."""

    __slots__ = ("p", "k", "_buf", "value")

    def __init__(self, p: int):
        self.p = p
        self.k = 2.0 / (p + 1)
        self._buf: list[float] = []
        self.value: float | None = None

    def push(self, x: float) -> float | None:
        if self.value is None:
            self._buf.append(x)
            if len(self._buf) == self.p:
                self.value = sum(self._buf) / self.p
                self._buf.clear()
            return self.value
        self.value = self.k * x + (1.0 - self.k) * self.value
        return self.value


# ---------------------------------------------------------------------------
# Indicator streams: push(candle) -> value(s) or None while warming up
# ---------------------------------------------------------------------------

class SmaStream:
    def __init__(self, p: int):
        self.p = require_period(p)
        self._win: deque[float] = deque(maxlen=self.p)

    def push(self, candle: Candle) -> float | None:
        self._win.append(candle.close)
        if len(self._win) < self.p:
            return None
        return sum(self._win) / self.p


class EmaStream:
    def __init__(self, p: int):
        self._ema = _EmaAvg(require_period(p))

    def push(self, candle: Candle) -> float | None:
        return self._ema.push(candle.close)


class RsiStream:
    def __init__(self, p: int):
        p = require_period(p)
        self._gain = _WilderAvg(p)
        self._loss = _WilderAvg(p)
        self._prev_close: float | None = None

    def push(self, candle: Candle) -> float | None:
        prev = self._prev_close
        self._prev_close = candle.close
        if prev is None:
            return None
        delta = candle.close - prev
        avg_gain = self._gain.push(delta if delta > 0 else 0.0)
        avg_loss = self._loss.push(-delta if delta < 0 else 0.0)
        if avg_gain is None or avg_loss is None:
            return None
        if avg_loss == 0.0:
            return 50.0 if avg_gain == 0.0 else 100.0
        return 100.0 - 100.0 / (1.0 + avg_gain / avg_loss)


def _true_range(high: float, low: float, prev_close: float) -> float:
    """The largest of high - low, high - prev_close and prev_close - low.

    With low <= high this is ``max(high - low, abs(high - prev_close),
    abs(low - prev_close))`` to the bit, since a gap that needs ``abs`` is
    never larger than the other gap; the comparisons cost half of ``max``."""
    tr = high - low
    if high - prev_close > tr:
        tr = high - prev_close
    if prev_close - low > tr:
        tr = prev_close - low
    return tr


class AtrStream:
    def __init__(self, p: int):
        self._atr = _WilderAvg(require_period(p))
        self._prev_close: float | None = None

    def push(self, candle: Candle) -> float | None:
        prev = self._prev_close
        self._prev_close = candle.close
        if prev is None:
            return None
        return self._atr.push(_true_range(candle.high, candle.low, prev))


class MacdStream:
    """Returns (macd_line, signal_line, histogram); components are None
    until their own warm-up is met."""

    lines = ("line", "signal", "hist")

    def __init__(self, fast: int, slow: int, signal: int):
        fast = require_period(fast, "fast")
        slow = require_period(slow, "slow")
        signal = require_period(signal, "signal")
        if fast >= slow:
            raise InvalidPeriods(f"fast period {fast} must be < slow period {slow}")
        self._fast = _EmaAvg(fast)
        self._slow = _EmaAvg(slow)
        self._signal = _EmaAvg(signal)

    def push(self, candle: Candle):
        f = self._fast.push(candle.close)
        s = self._slow.push(candle.close)
        if f is None or s is None:
            return (None, None, None)
        macd = f - s
        sig = self._signal.push(macd)
        if sig is None:
            return (macd, None, None)
        return (macd, sig, macd - sig)


class BollingerStream:
    """Returns (upper, middle, lower) using the population deviation."""

    lines = ("upper", "middle", "lower")

    def __init__(self, p: int, k: float = 2.0):
        p = require_period(p)
        if p < 2:
            raise InvalidPeriods(f"bollinger period must be >= 2, got {p}")
        if type(k) not in (int, float) or not 0 < k <= _MAX_BAND_WIDTH:
            raise InvalidPeriods(f"band width multiplier must be a number in (0, 1e100], got {k!r}")
        self.p = p
        self.k = float(k)
        self._win: deque[float] = deque(maxlen=p)

    def push(self, candle: Candle):
        self._win.append(candle.close)
        if len(self._win) < self.p:
            return (None, None, None)
        mean = sum(self._win) / self.p
        var = sum((x - mean) ** 2 for x in self._win) / self.p
        dev = self.k * math.sqrt(var)
        return (mean + dev, mean, mean - dev)


class ObvStream:
    def __init__(self):
        self.value = 0.0
        self._prev_close: float | None = None

    def push(self, candle: Candle) -> float:
        prev = self._prev_close
        self._prev_close = candle.close
        if prev is None:
            return self.value
        if candle.close > prev:
            self.value += candle.volume
        elif candle.close < prev:
            self.value -= candle.volume
        return self.value


class MomentumStream:
    def __init__(self, p: int):
        self.p = require_period(p)
        self._win: deque[float] = deque(maxlen=self.p + 1)

    def push(self, candle: Candle) -> float | None:
        self._win.append(candle.close)
        if len(self._win) <= self.p:
            return None
        return self._win[-1] - self._win[0]


class ForceIndexStream:
    """EMA-smoothed (close change * volume)."""

    def __init__(self, p: int):
        self._ema = _EmaAvg(require_period(p))
        self._prev_close: float | None = None

    def push(self, candle: Candle) -> float | None:
        prev = self._prev_close
        self._prev_close = candle.close
        if prev is None:
            return None
        return self._ema.push((candle.close - prev) * candle.volume)


class MfiStream:
    """Money Flow Index over typical-price flows.

    A bar with unchanged typical price contributes to neither flow; zero
    negative flow reads 100, and a window with no flow at all reads 50.
    Positive and negative flows sit in two windows of p floats, and each bar
    sums each window oldest first with ``sum``.
    """

    def __init__(self, p: int):
        self.p = require_period(p)
        self._pos: deque[float] = deque(maxlen=self.p)
        self._neg: deque[float] = deque(maxlen=self.p)
        self._prev_tp: float | None = None

    def push(self, candle: Candle) -> float | None:
        tp = (candle.high + candle.low + candle.close) / 3.0
        prev = self._prev_tp
        self._prev_tp = tp
        if prev is None:
            return None
        flow = tp * candle.volume
        self._pos.append(flow if tp > prev else 0.0)
        self._neg.append(flow if tp < prev else 0.0)
        if len(self._pos) < self.p:
            return None
        pos = sum(self._pos)
        neg = sum(self._neg)
        if neg == 0.0:
            return 50.0 if pos == 0.0 else 100.0
        return 100.0 - 100.0 / (1.0 + pos / neg)


class CciStream:
    def __init__(self, p: int):
        self.p = require_period(p)
        self._win: deque[float] = deque(maxlen=self.p)

    def push(self, candle: Candle) -> float | None:
        tp = (candle.high + candle.low + candle.close) / 3.0
        self._win.append(tp)
        if len(self._win) < self.p:
            return None
        mean = sum(self._win) / self.p
        mad = sum(abs(x - mean) for x in self._win) / self.p
        if mad == 0.0:
            return 0.0
        return (tp - mean) / (0.015 * mad)


class WilliamsRStream:
    def __init__(self, p: int):
        self.p = require_period(p)
        self._highs: deque[float] = deque(maxlen=self.p)
        self._lows: deque[float] = deque(maxlen=self.p)

    def push(self, candle: Candle) -> float | None:
        self._highs.append(candle.high)
        self._lows.append(candle.low)
        if len(self._highs) < self.p:
            return None
        hh = max(self._highs)
        ll = min(self._lows)
        if hh == ll:
            return 0.0
        return -100.0 * (hh - candle.close) / (hh - ll)


class AdxStream:
    """Average Directional Index via Wilder-smoothed +DM/-DM/TR then
    Wilder-smoothed DX; first value appears at index 2p-1."""

    def __init__(self, p: int):
        p = require_period(p)
        self._tr = _WilderAvg(p)
        self._pos_dm = _WilderAvg(p)
        self._neg_dm = _WilderAvg(p)
        self._adx = _WilderAvg(p)
        self._prev: Candle | None = None

    def push(self, candle: Candle) -> float | None:
        prev = self._prev
        self._prev = candle
        if prev is None:
            return None
        up = candle.high - prev.high
        down = prev.low - candle.low
        pos_dm = up if (up > down and up > 0) else 0.0
        neg_dm = down if (down > up and down > 0) else 0.0
        tr_s = self._tr.push(_true_range(candle.high, candle.low, prev.close))
        pos_s = self._pos_dm.push(pos_dm)
        neg_s = self._neg_dm.push(neg_dm)
        if tr_s is None:
            return None
        if tr_s == 0.0:
            pos_di = neg_di = 0.0
        else:
            pos_di = 100.0 * pos_s / tr_s
            neg_di = 100.0 * neg_s / tr_s
        di_sum = pos_di + neg_di
        dx = 0.0 if di_sum == 0.0 else 100.0 * abs(pos_di - neg_di) / di_sum
        return self._adx.push(dx)


KST_ROC_PERIODS = (10, 15, 20, 30)
KST_SMOOTH_PERIODS = (10, 10, 10, 15)
KST_WEIGHTS = (1.0, 2.0, 3.0, 4.0)


class KstStream:
    """Know Sure Thing: weighted sum of four SMA-smoothed rates of change."""

    def __init__(self):
        self._closes: deque[float] = deque(maxlen=max(KST_ROC_PERIODS) + 1)
        self._smooth = [deque(maxlen=m) for m in KST_SMOOTH_PERIODS]

    def push(self, candle: Candle) -> float | None:
        self._closes.append(candle.close)
        n_close = len(self._closes)
        ready = True
        for roc_p, win in zip(KST_ROC_PERIODS, self._smooth):
            if n_close > roc_p:
                roc = 100.0 * (self._closes[-1] / self._closes[-1 - roc_p] - 1.0)
                win.append(roc)
            if len(win) < win.maxlen:
                ready = False
        if not ready:
            return None
        total = 0.0
        for weight, win in zip(KST_WEIGHTS, self._smooth):
            total += weight * (sum(win) / len(win))
        return total


class VpvrStream:
    """Volume-by-price over a trailing window.

    The window's typical-price range is split into ``buckets`` equal bins;
    each bar's full volume lands in the bin of its typical price. The output
    at bar i is the accumulated volume in bar i's own bin, summed oldest bar
    first. A flat window degenerates to a single bin holding the whole window
    volume.

    Beside the window, the stream keeps its typical prices sorted (ties
    oldest first) with each price's bar number. The range is the first and
    last sorted price. A bar's bin never decreases as its price grows, so
    the bars sharing the new bar's bin are one run of the sorted prices
    around it; only that run is visited, and its volumes are added in bar
    order, so every value is the same float a full rescan of the window
    gives.
    """

    def __init__(self, p: int, buckets: int):
        self.p = require_period(p)
        self.buckets = require_period(buckets, "buckets")
        self._tps: deque[float] = deque(maxlen=self.p)
        self._vols: deque[float] = deque(maxlen=self.p)
        self._prices: list[float] = []  # the window's typical prices, sorted
        self._bars: list[int] = []  # the bar number of each sorted price
        self._n = 0  # bars pushed so far

    def push(self, candle: Candle) -> float | None:
        tp = (candle.high + candle.low + candle.close) / 3.0
        prices, bars, n, p = self._prices, self._bars, self._n, self.p
        if n >= p:
            # the evicted bar is the oldest, so it comes first among its ties
            k = bisect_left(prices, self._tps[0])
            del prices[k], bars[k]
        i = bisect_right(prices, tp)
        prices.insert(i, tp)
        bars.insert(i, n)
        self._tps.append(tp)
        self._vols.append(candle.volume)
        self._n = n = n + 1
        if n < p:
            return None
        lo, hi = prices[0], prices[-1]
        if hi == lo:
            return sum(self._vols)
        width = (hi - lo) / self.buckets
        # bin(t) = min(int((t - lo) / width), buckets - 1); below the new bar
        # a price shares its bin iff (t - lo) / width >= mine, and above it
        # iff (t - lo) / width < mine + 1 or mine is the top bin
        mine = int((tp - lo) / width)
        start, stop = i, i + 1
        if mine >= self.buckets - 1:
            mine = self.buckets - 1
            stop = len(prices)
        else:
            while stop < len(prices) and (prices[stop] - lo) / width < mine + 1:
                stop += 1
        while start and (prices[start - 1] - lo) / width >= mine:
            start -= 1
        first = n - p  # bar number of the window's oldest bar
        vols = self._vols
        total = 0.0  # one addition per bar as in a rescan; sum() compensates from 3.12
        for bar in sorted(bars[start:stop]):
            total += vols[bar - first]
        return total


# ---------------------------------------------------------------------------
# Registry (name -> stream class) and batch API. A spec's parameters are the
# class's constructor keywords; multi-line classes name their output ``lines``.
# ---------------------------------------------------------------------------

_REGISTRY: dict[str, type] = {
    "sma": SmaStream,
    "ema": EmaStream,
    "rsi": RsiStream,
    "atr": AtrStream,
    "macd": MacdStream,
    "bollinger": BollingerStream,
    "obv": ObvStream,
    "momentum": MomentumStream,
    "force_index": ForceIndexStream,
    "mfi": MfiStream,
    "cci": CciStream,
    "williams_r": WilliamsRStream,
    "adx": AdxStream,
    "kst": KstStream,
    "vpvr": VpvrStream,
}

INDICATOR_NAMES = tuple(sorted(_REGISTRY))

# name -> ((parameter, required), ...), read once from each constructor
_PARAMETERS = {
    name: tuple((p.name, p.default is p.empty)
                for p in inspect.signature(cls).parameters.values())
    for name, cls in _REGISTRY.items()
}


def _stream_class(name: str) -> type:
    if name not in _REGISTRY:
        raise UnknownIndicator(f"unknown indicator '{name}'")
    return _REGISTRY[name]


def spec_lines(spec: IndicatorSpec) -> tuple[str, ...]:
    """Output-line suffixes for a spec ('' for single-line indicators)."""
    return getattr(_stream_class(spec.name), "lines", ("",))


def make_stream(spec: IndicatorSpec):
    """Build a fresh streaming instance for a spec; parameters the indicator
    does not declare are ignored."""
    cls = _stream_class(spec.name)
    kwargs = {}
    for name, required in _PARAMETERS[spec.name]:
        if name in spec.params:
            kwargs[name] = spec.params[name]
        elif required:
            raise UnknownIndicator(f"{spec.name}: missing parameter '{name}'")
    return cls(**kwargs)


def indicator_lines(spec: IndicatorSpec, series: CandleSeries
                    ) -> tuple[list[float | None], ...]:
    """A spec's streamed values over the series, one list per output line,
    ``None`` while the line warms up; a line that never warms up on the
    series is all ``None``."""
    push = make_stream(spec).push
    rows = [push(candle) for candle in series.candles]
    n = len(spec_lines(spec))
    return (rows,) if n == 1 else tuple([row[j] for row in rows] for j in range(n))


def compute(spec: IndicatorSpec, series: CandleSeries):
    """Compute any registered indicator; returns one IndicatorOutput or a
    tuple of them for multi-line indicators. Raises PeriodExceedsSeries when
    an output line has no defined value on the series."""
    outputs = []
    for values in indicator_lines(spec, series):
        warmup = next((i for i, v in enumerate(values) if v is not None), None)
        if warmup is None:
            raise PeriodExceedsSeries(f"{spec.label()}: needs more than {len(series)} bars")
        outputs.append(IndicatorOutput(values, warmup))
    return outputs[0] if len(outputs) == 1 else tuple(outputs)
