"""Technical-analysis indicators over candle series.

Every indicator is a stream that consumes one candle at a time, so strategies
can update values incrementally during a backtest without recomputing
history. A stream is a primed generator coroutine: its state lives in the
coroutine's locals, its warm-up is a loop of its own ahead of the steady-state
loop, and ``stream.push`` is the coroutine's ``send``, which takes a candle and
returns that bar's value. Each stream class's constructor is the one place
its parameters are checked. The registry maps names to stream classes, and
batch ``compute`` maps a fresh stream's ``push`` over the candles. A stream
that feeds a paper bar keeps its averages in its own locals, not in inner
coroutines: ATR inlines its Wilder average and true range, and the
unregistered ``EmaCrossStream`` holds two EMAs and returns their crossing,
so each is one send per bar.

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

from .data import CandleSeries
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
        # key a series' column memo; a spec with an unhashable value, which its
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
# Streaming primitives. Every stream and average below is a generator
# coroutine: it is primed once, and each send() hands it the next input and
# returns that input's value. Its state lives in the coroutine's locals.
# ---------------------------------------------------------------------------

def _started(coroutine):
    """Prime a coroutine and return its bound ``send``."""
    next(coroutine)
    return coroutine.send


def _wilder(p: int):
    """Wilder recursive average over sent scalars: the mean of the first p
    values, then (prev*(p-1) + x)/p."""
    buf = []
    x = yield
    for _ in range(p - 1):
        buf.append(x)
        x = yield None
    buf.append(x)
    value = sum(buf) / p
    q = p - 1
    while True:
        x = yield value
        value = (value * q + x) / p


def _ema(p: int):
    """EMA over sent scalars, seeded with the SMA of the first p values."""
    k = 2.0 / (p + 1)
    j = 1.0 - k
    buf = []
    x = yield
    for _ in range(p - 1):
        buf.append(x)
        x = yield None
    buf.append(x)
    value = sum(buf) / p
    while True:
        x = yield value
        value = k * x + j * value


# ---------------------------------------------------------------------------
# Indicator streams: push(candle) -> value(s) or None while warming up. Each
# class checks its parameters and binds ``push`` to its coroutine's send.
# ---------------------------------------------------------------------------

def _sma(p: int):
    win = deque(maxlen=p)
    candle = yield
    for _ in range(p - 1):
        win.append(candle.close)
        candle = yield None
    while True:
        win.append(candle.close)
        candle = yield sum(win) / p


class SmaStream:
    def __init__(self, p: int):
        self.push = _started(_sma(require_period(p)))


def _ema_of_closes(p: int):
    ema = _started(_ema(p))
    candle = yield
    while True:
        candle = yield ema(candle.close)


class EmaStream:
    def __init__(self, p: int):
        self.push = _started(_ema_of_closes(require_period(p)))


def _ema_cross(p_short: int, p_long: int):
    # both EMAs of _ema, in these locals: an inner send per bar costs more
    # than the arithmetic
    ks = 2.0 / (p_short + 1)
    js = 1.0 - ks
    kl = 2.0 / (p_long + 1)
    jl = 1.0 - kl
    closes = []  # the first p_long closes, whose prefixes seed both EMAs
    candle = yield
    for _ in range(p_short - 1):
        closes.append(candle.close)
        candle = yield 0
    closes.append(candle.close)
    s = sum(closes) / p_short
    for _ in range(p_long - p_short):
        candle = yield 0
        close = candle.close
        closes.append(close)
        s = ks * close + js * s
    l = sum(closes) / p_long
    # no crossing at the long EMA's first bar: there is no previous bar
    candle = yield 0
    while True:
        close = candle.close
        ps, pl = s, l
        s = ks * close + js * s
        l = kl * close + jl * l
        candle = yield 1 if s > l and ps <= pl else -1 if s < l and ps >= pl else 0


class EmaCrossStream:
    """The crossing of the short EMA of closes over the long one: +1 when
    the short line crosses above the long one between the previous bar and
    this one, -1 when it crosses below, 0 otherwise, and 0 while the long
    EMA warms up and at its first bar. Its EMAs are ``EmaStream``'s values
    and its crossings those ``strategy.crossing_column`` finds in the two
    EMA lines. Not a registered indicator: its output is a signal, not a
    line."""

    def __init__(self, p_short: int, p_long: int):
        p_short = require_period(p_short, "p_short")
        p_long = require_period(p_long, "p_long")
        if p_short >= p_long:
            raise InvalidPeriods(f"p_short {p_short} must be < p_long {p_long}")
        self.push = _started(_ema_cross(p_short, p_long))


def _rsi(p: int):
    gain = _started(_wilder(p))
    loss = _started(_wilder(p))
    candle = yield
    prev = candle.close
    candle = yield None
    # both averages warm up on the same bar
    for _ in range(p - 1):
        close = candle.close
        delta = close - prev
        prev = close
        gain(delta if delta > 0 else 0.0)
        loss(-delta if delta < 0 else 0.0)
        candle = yield None
    while True:
        close = candle.close
        delta = close - prev
        prev = close
        avg_gain = gain(delta if delta > 0 else 0.0)
        avg_loss = loss(-delta if delta < 0 else 0.0)
        if avg_loss == 0.0:
            candle = yield 50.0 if avg_gain == 0.0 else 100.0
        else:
            candle = yield 100.0 - 100.0 / (1.0 + avg_gain / avg_loss)


class RsiStream:
    def __init__(self, p: int):
        self.push = _started(_rsi(require_period(p)))


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


def _atr(p: int):
    # _wilder fed _true_range, both inlined with the same expressions: an
    # inner send and a call per bar cost more than the arithmetic
    trs = []
    candle = yield
    prev = candle.close
    for _ in range(p):
        candle = yield None
        high, low = candle.high, candle.low
        tr = high - low
        if high - prev > tr:
            tr = high - prev
        if prev - low > tr:
            tr = prev - low
        trs.append(tr)
        prev = candle.close
    value = sum(trs) / p
    q = p - 1
    while True:
        candle = yield value
        high, low = candle.high, candle.low
        tr = high - low
        if high - prev > tr:
            tr = high - prev
        if prev - low > tr:
            tr = prev - low
        value = (value * q + tr) / p
        prev = candle.close


class AtrStream:
    def __init__(self, p: int):
        self.push = _started(_atr(require_period(p)))


def _macd(fast: int, slow: int, signal: int):
    fast_ema = _started(_ema(fast))
    slow_ema = _started(_ema(slow))
    signal_ema = _started(_ema(signal))
    candle = yield
    # the slow average warms up last
    for _ in range(slow - 1):
        fast_ema(candle.close)
        slow_ema(candle.close)
        candle = yield (None, None, None)
    while True:
        macd = fast_ema(candle.close) - slow_ema(candle.close)
        sig = signal_ema(macd)
        if sig is None:
            candle = yield (macd, None, None)
        else:
            candle = yield (macd, sig, macd - sig)


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
        self.push = _started(_macd(fast, slow, signal))


def _bollinger(p: int, k: float):
    sqrt = math.sqrt
    win = deque(maxlen=p)
    candle = yield
    for _ in range(p - 1):
        win.append(candle.close)
        candle = yield (None, None, None)
    while True:
        win.append(candle.close)
        mean = sum(win) / p
        var = sum([(x - mean) ** 2 for x in win]) / p
        dev = k * sqrt(var)
        candle = yield (mean + dev, mean, mean - dev)


class BollingerStream:
    """Returns (upper, middle, lower) using the population deviation."""

    lines = ("upper", "middle", "lower")

    def __init__(self, p: int, k: float = 2.0):
        p = require_period(p)
        if p < 2:
            raise InvalidPeriods(f"bollinger period must be >= 2, got {p}")
        if type(k) not in (int, float) or not 0 < k <= _MAX_BAND_WIDTH:
            raise InvalidPeriods(f"band width multiplier must be a number in (0, 1e100], got {k!r}")
        self.push = _started(_bollinger(p, float(k)))


def _obv():
    value = 0.0
    candle = yield
    prev = candle.close
    candle = yield value
    while True:
        close = candle.close
        if close > prev:
            value += candle.volume
        elif close < prev:
            value -= candle.volume
        prev = close
        candle = yield value


class ObvStream:
    def __init__(self):
        self.push = _started(_obv())


def _momentum(p: int):
    win = deque(maxlen=p + 1)
    candle = yield
    for _ in range(p):
        win.append(candle.close)
        candle = yield None
    while True:
        close = candle.close
        win.append(close)
        candle = yield close - win[0]


class MomentumStream:
    def __init__(self, p: int):
        self.push = _started(_momentum(require_period(p)))


def _force_index(p: int):
    ema = _started(_ema(p))
    candle = yield
    prev = candle.close
    candle = yield None
    while True:
        close = candle.close
        value = ema((close - prev) * candle.volume)
        prev = close
        candle = yield value


class ForceIndexStream:
    """EMA-smoothed (close change * volume)."""

    def __init__(self, p: int):
        self.push = _started(_force_index(require_period(p)))


def _mfi(p: int):
    pos = deque(maxlen=p)
    neg = deque(maxlen=p)
    candle = yield
    prev = (candle.high + candle.low + candle.close) / 3.0
    candle = yield None
    for _ in range(p - 1):
        tp = (candle.high + candle.low + candle.close) / 3.0
        flow = tp * candle.volume
        pos.append(flow if tp > prev else 0.0)
        neg.append(flow if tp < prev else 0.0)
        prev = tp
        candle = yield None
    while True:
        tp = (candle.high + candle.low + candle.close) / 3.0
        flow = tp * candle.volume
        pos.append(flow if tp > prev else 0.0)
        neg.append(flow if tp < prev else 0.0)
        prev = tp
        pos_sum = sum(pos)
        neg_sum = sum(neg)
        if neg_sum == 0.0:
            candle = yield 50.0 if pos_sum == 0.0 else 100.0
        else:
            candle = yield 100.0 - 100.0 / (1.0 + pos_sum / neg_sum)


class MfiStream:
    """Money Flow Index over typical-price flows.

    A bar with unchanged typical price contributes to neither flow; zero
    negative flow reads 100, and a window with no flow at all reads 50.
    Positive and negative flows sit in two windows of p floats, and each bar
    sums each window oldest first with ``sum``.
    """

    def __init__(self, p: int):
        self.push = _started(_mfi(require_period(p)))


def _cci(p: int):
    win = deque(maxlen=p)
    candle = yield
    for _ in range(p - 1):
        win.append((candle.high + candle.low + candle.close) / 3.0)
        candle = yield None
    while True:
        tp = (candle.high + candle.low + candle.close) / 3.0
        win.append(tp)
        mean = sum(win) / p
        # |x - mean| to the bit: IEEE subtraction is sign-symmetric
        mad = sum([x - mean if x >= mean else mean - x for x in win]) / p
        candle = yield 0.0 if mad == 0.0 else (tp - mean) / (0.015 * mad)


class CciStream:
    def __init__(self, p: int):
        self.push = _started(_cci(require_period(p)))


def _williams_r(p: int):
    highs = deque(maxlen=p)
    lows = deque(maxlen=p)
    candle = yield
    for _ in range(p - 1):
        highs.append(candle.high)
        lows.append(candle.low)
        candle = yield None
    highs.append(candle.high)
    lows.append(candle.low)
    hh = max(highs)
    ll = min(lows)
    while True:
        candle = yield 0.0 if hh == ll else -100.0 * (hh - candle.close) / (hh - ll)
        # the window's extremes change with the bar that enters it, or are
        # rescanned when the bar that leaves it held one; read the leaving
        # bar before the append evicts it
        high, low = candle.high, candle.low
        left_high, left_low = highs[0], lows[0]
        highs.append(high)
        lows.append(low)
        if high >= hh:
            hh = high
        elif left_high == hh:
            hh = max(highs)
        if low <= ll:
            ll = low
        elif left_low == ll:
            ll = min(lows)


class WilliamsRStream:
    def __init__(self, p: int):
        self.push = _started(_williams_r(require_period(p)))


def _adx(p: int):
    tr_avg = _started(_wilder(p))
    pos_avg = _started(_wilder(p))
    neg_avg = _started(_wilder(p))
    adx_avg = _started(_wilder(p))
    candle = yield
    prev = candle
    candle = yield None
    # the three directional averages warm up on the same bar
    for _ in range(p - 1):
        up = candle.high - prev.high
        down = prev.low - candle.low
        tr_avg(_true_range(candle.high, candle.low, prev.close))
        pos_avg(up if (up > down and up > 0) else 0.0)
        neg_avg(down if (down > up and down > 0) else 0.0)
        prev = candle
        candle = yield None
    while True:
        up = candle.high - prev.high
        down = prev.low - candle.low
        pos_dm = up if (up > down and up > 0) else 0.0
        neg_dm = down if (down > up and down > 0) else 0.0
        tr_s = tr_avg(_true_range(candle.high, candle.low, prev.close))
        pos_s = pos_avg(pos_dm)
        neg_s = neg_avg(neg_dm)
        prev = candle
        if tr_s == 0.0:
            pos_di = neg_di = 0.0
        else:
            pos_di = 100.0 * pos_s / tr_s
            neg_di = 100.0 * neg_s / tr_s
        di_sum = pos_di + neg_di
        dx = 0.0 if di_sum == 0.0 else 100.0 * abs(pos_di - neg_di) / di_sum
        candle = yield adx_avg(dx)


class AdxStream:
    """Average Directional Index via Wilder-smoothed +DM/-DM/TR then
    Wilder-smoothed DX; first value appears at index 2p-1."""

    def __init__(self, p: int):
        self.push = _started(_adx(require_period(p)))


KST_ROC_PERIODS = (10, 15, 20, 30)
KST_SMOOTH_PERIODS = (10, 10, 10, 15)
KST_WEIGHTS = (1.0, 2.0, 3.0, 4.0)


def _kst():
    r1, r2, r3, r4 = KST_ROC_PERIODS
    m1, m2, m3, m4 = KST_SMOOTH_PERIODS
    w1, w2, w3, w4 = KST_WEIGHTS
    s1, s2, s3, s4 = deque(maxlen=m1), deque(maxlen=m2), deque(maxlen=m3), deque(maxlen=m4)
    closes = deque(maxlen=max(KST_ROC_PERIODS) + 1)
    # a window takes one rate of change a bar once its period has passed, and
    # the blend waits for the last window to fill
    warmup = max(r + m for r, m in zip(KST_ROC_PERIODS, KST_SMOOTH_PERIODS)) - 1
    candle = yield
    for bar in range(warmup):
        close = candle.close
        closes.append(close)
        if bar >= r1:
            s1.append(100.0 * (close / closes[-1 - r1] - 1.0))
        if bar >= r2:
            s2.append(100.0 * (close / closes[-1 - r2] - 1.0))
        if bar >= r3:
            s3.append(100.0 * (close / closes[-1 - r3] - 1.0))
        if bar >= r4:
            s4.append(100.0 * (close / closes[-1 - r4] - 1.0))
        candle = yield None
    while True:
        close = candle.close
        closes.append(close)
        s1.append(100.0 * (close / closes[-1 - r1] - 1.0))
        s2.append(100.0 * (close / closes[-1 - r2] - 1.0))
        s3.append(100.0 * (close / closes[-1 - r3] - 1.0))
        s4.append(100.0 * (close / closes[-1 - r4] - 1.0))
        # a running total from 0.0, in weight order; the 0.0 turns a -0.0
        # blend into +0.0
        candle = yield (0.0 + w1 * (sum(s1) / m1) + w2 * (sum(s2) / m2)
                        + w3 * (sum(s3) / m3) + w4 * (sum(s4) / m4))


class KstStream:
    """Know Sure Thing: weighted sum of four SMA-smoothed rates of change."""

    def __init__(self):
        self.push = _started(_kst())


def _vpvr(p: int, buckets: int):
    tps = deque(maxlen=p)
    vols = deque(maxlen=p)
    prices = []  # the window's typical prices, sorted
    bars = []  # the bar number of each sorted price
    candle = yield
    for n in range(p - 1):
        tp = (candle.high + candle.low + candle.close) / 3.0
        i = bisect_right(prices, tp)
        prices.insert(i, tp)
        bars.insert(i, n)
        tps.append(tp)
        vols.append(candle.volume)
        candle = yield None
    n = p - 1  # the new bar's number
    while True:
        tp = (candle.high + candle.low + candle.close) / 3.0
        i = bisect_right(prices, tp)
        prices.insert(i, tp)
        bars.insert(i, n)
        tps.append(tp)
        vols.append(candle.volume)
        lo, hi = prices[0], prices[-1]
        if hi == lo:
            total = sum(vols)
        else:
            width = (hi - lo) / buckets
            # bin(t) = min(int((t - lo) / width), buckets - 1); below the new
            # bar a price shares its bin iff (t - lo) / width >= mine, and
            # above it iff (t - lo) / width < mine + 1 or mine is the top bin
            mine = int((tp - lo) / width)
            start, stop = i, i + 1
            if mine >= buckets - 1:
                mine = buckets - 1
                stop = p
            else:
                while stop < p and (prices[stop] - lo) / width < mine + 1:
                    stop += 1
            while start and (prices[start - 1] - lo) / width >= mine:
                start -= 1
            first = n + 1 - p  # bar number of the window's oldest bar
            total = 0.0  # one addition per bar as in a rescan; sum() compensates from 3.12
            for bar in sorted(bars[start:stop]):
                total += vols[bar - first]
        # the next bar evicts the oldest, which comes first among its ties
        k = bisect_left(prices, tps[0])
        del prices[k], bars[k]
        n += 1
        candle = yield total


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
        self.push = _started(_vpvr(require_period(p), require_period(buckets, "buckets")))


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
    rows = list(map(make_stream(spec).push, series.candles))
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
