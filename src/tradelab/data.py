"""OHLCV market data: candle types, CSV ingestion and windowing.

Series are stored as plain CSV files under a warehouse directory laid out as
``<root>/<symbol>/<interval>.csv`` with a ``<interval>.meta.json`` sidecar.
The CSV format is fixed: header ``timestamp,open,high,low,close,volume``,
timestamps in integer milliseconds since epoch (UTC), prices/volumes written
with ``repr`` so a write/parse round trip is bit-exact.
"""

from __future__ import annotations

import json
import logging
import os
from dataclasses import asdict, dataclass
from functools import cached_property
from operator import attrgetter
from pathlib import Path

from .errors import ValidationError

logger = logging.getLogger(__name__)

CSV_HEADER = "timestamp,open,high,low,close,volume"
# Bars outside these bounds are refused at the edge: within them every
# indicator's products, squares and bin widths stay finite and non-zero.
_MIN_PRICE, _MAX_PRICE = 1e-100, 1e100
_MAX_VOLUME = 1e100
# A frozen dataclass sets its fields through object.__setattr__; the alias
# saves Candle.__init__ a builtin and an attribute lookup per field.
_set = object.__setattr__
_by_ts = attrgetter("ts")


class MalformedRow(ValidationError):
    """A CSV row could not be parsed (wrong column count or bad number)."""


class OhlcViolation(ValidationError):
    """Candle prices break the low <= open/close <= high ordering."""


class DuplicateTimestamp(ValidationError):
    """Two candles share the same timestamp."""


class GapDetected(ValidationError):
    """Consecutive candles are not exactly one interval apart."""


class EmptyWindow(ValidationError):
    """A slice request matched no candles."""


@dataclass(frozen=True, slots=True, init=False)
class Candle:
    """One OHLCV bar. ``ts`` is in milliseconds since epoch (UTC). Prices lie
    in [1e-100, 1e100] with low <= open/close <= high; volume lies in
    [0, 1e100]."""

    ts: int
    open: float
    high: float
    low: float
    close: float
    volume: float

    # Hand-written (init=False): every CSV row builds one candle, so the
    # checks read the arguments and each field is set once through _set.
    def __init__(self, ts: int, open: float, high: float, low: float, close: float,
                 volume: float) -> None:
        if not (low <= open <= high) or not (low <= close <= high):
            raise OhlcViolation(
                f"ts={ts}: prices must satisfy low <= open/close <= high "
                f"(o={open}, h={high}, l={low}, c={close})"
            )
        if not (_MIN_PRICE <= low and high <= _MAX_PRICE):
            raise OhlcViolation(f"ts={ts}: prices must be finite and lie in [1e-100, 1e100]")
        if not 0 <= volume <= _MAX_VOLUME:
            raise OhlcViolation(f"ts={ts}: volume must be finite and lie in [0, 1e100]")
        _set(self, "ts", ts)
        _set(self, "open", open)
        _set(self, "high", high)
        _set(self, "low", low)
        _set(self, "close", close)
        _set(self, "volume", volume)


@dataclass(frozen=True)
class CandleSeries:
    """An ordered, regularly spaced run of candles for one symbol.

    ``interval`` is the bar duration in seconds. Timestamps must be strictly
    increasing and, unless ``has_gaps`` marks the series, consecutive bars
    must be exactly one interval apart. Instances are immutable and safe to
    share across threads.
    """

    symbol: str
    interval: int
    candles: tuple[Candle, ...]
    has_gaps: bool = False

    def __post_init__(self) -> None:
        if self.interval < 1:
            raise ValidationError(f"interval must be >= 1 second, got {self.interval}")
        step = self.interval * 1000
        prev = None
        for c in self.candles:
            if prev is not None:
                if c.ts == prev:
                    raise DuplicateTimestamp(f"duplicate timestamp {c.ts} in {self.symbol}")
                if c.ts < prev:
                    raise ValidationError(f"timestamps not increasing at {c.ts} in {self.symbol}")
                if c.ts - prev != step and not self.has_gaps:
                    raise GapDetected(
                        f"{self.symbol}: expected {prev + step} after {prev}, got {c.ts}"
                    )
            prev = c.ts

    def __len__(self) -> int:
        return len(self.candles)

    @cached_property
    def opens(self) -> list[float]:
        return [c.open for c in self.candles]

    @cached_property
    def highs(self) -> list[float]:
        return [c.high for c in self.candles]

    @cached_property
    def lows(self) -> list[float]:
        return [c.low for c in self.candles]

    @cached_property
    def closes(self) -> list[float]:
        return [c.close for c in self.candles]

    @cached_property
    def volumes(self) -> list[float]:
        return [c.volume for c in self.candles]

    @cached_property
    def timestamps(self) -> list[int]:
        return [c.ts for c in self.candles]

    @cached_property
    def column_memo(self) -> dict:
        """Indicator columns computed on this series, kept by
        ``strategy.series_lines`` and ``strategy.network_inputs`` for every
        backtest of it."""
        return {}


@dataclass(frozen=True, slots=True)
class DatasetMeta:
    """Sidecar description of one warehoused series."""

    source: str
    symbol: str
    interval: int
    first_ts: int
    last_ts: int
    bar_count: int

    @classmethod
    def for_series(cls, series: CandleSeries, source: str) -> "DatasetMeta":
        return cls(
            source=source,
            symbol=series.symbol,
            interval=series.interval,
            first_ts=series.candles[0].ts if series.candles else 0,
            last_ts=series.candles[-1].ts if series.candles else 0,
            bar_count=len(series),
        )


def parse_csv(path: str | Path, symbol: str, interval: int, allow_gaps: bool = False) -> CandleSeries:
    """Read a candle CSV and return a validated series.

    Rows are sorted by timestamp, so file order does not matter. Gaps are an
    error unless ``allow_gaps`` downgrades them to a warning and marks the
    returned series.
    """
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc
    lines = text.splitlines()
    if not lines or lines[0].strip() != CSV_HEADER:
        raise MalformedRow(f"{path}:1: header must be exactly '{CSV_HEADER}'")

    candles = []
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != 6:
            if not line.strip():
                continue
            raise MalformedRow(f"{path}:{lineno}: expected 6 columns, got {len(parts)}")
        t, o, h, l, c, v = parts
        # the conversions run left to right before the constructor, so a bad
        # number is reported ahead of bad prices on the same row
        try:
            candles.append(Candle(int(t), float(o), float(h), float(l), float(c), float(v)))
        except ValueError as exc:
            raise MalformedRow(f"{path}:{lineno}: {exc}") from exc
        except OhlcViolation as exc:
            raise OhlcViolation(f"{path}:{lineno}: {exc}") from exc

    candles.sort(key=_by_ts)

    def series(has_gaps: bool) -> CandleSeries:
        try:
            return CandleSeries(symbol, interval, tuple(candles), has_gaps=has_gaps)
        except ValidationError as exc:
            raise type(exc)(f"{path}: {exc}") from exc

    try:
        return series(False)
    except GapDetected:
        if not allow_gaps:
            raise
    logger.warning("%s: gaps present, series marked has_gaps", path)
    return series(True)


def write_csv(series: CandleSeries, path: str | Path) -> None:
    """Write a series in the warehouse CSV format (repr floats, int ms)."""
    path = Path(path)
    rows = [f"{c.ts},{c.open!r},{c.high!r},{c.low!r},{c.close!r},{c.volume!r}\n"
            for c in series.candles]
    path.write_text(f"{CSV_HEADER}\n" + "".join(rows))


def slice_window(series: CandleSeries, from_ts: int, to_ts: int) -> CandleSeries:
    """Return the contiguous sub-series with from_ts <= ts <= to_ts; it is
    marked ``has_gaps`` only when a gap falls inside the window."""
    if from_ts > to_ts:
        raise ValidationError(f"from_ts {from_ts} > to_ts {to_ts}")
    picked = tuple(c for c in series.candles if from_ts <= c.ts <= to_ts)
    if not picked:
        raise EmptyWindow(f"{series.symbol}: no candles in [{from_ts}, {to_ts}]")
    try:
        return CandleSeries(series.symbol, series.interval, picked)
    except GapDetected:  # only a gappy series has a gappy window
        return CandleSeries(series.symbol, series.interval, picked, has_gaps=True)


def warehouse_csv_path(root: str | Path, symbol: str, interval: int) -> Path:
    return Path(root) / symbol / f"{interval}.csv"


def warehouse_meta_path(root: str | Path, symbol: str, interval: int) -> Path:
    return Path(root) / symbol / f"{interval}.meta.json"


def ingest(csv_path: str | Path, root: str | Path, symbol: str, interval: int,
           allow_gaps: bool = False, source: str = "csv") -> DatasetMeta:
    """Validate an input CSV and store it in the warehouse layout.

    Writes are atomic: the target files only appear once the whole input has
    validated, so a bad row never leaves a partial warehouse entry.
    """
    series = parse_csv(csv_path, symbol, interval, allow_gaps=allow_gaps)
    meta = DatasetMeta.for_series(series, source=source)
    target = warehouse_csv_path(root, symbol, interval)
    target.parent.mkdir(parents=True, exist_ok=True)
    tmp = target.with_suffix(".csv.tmp")
    write_csv(series, tmp)
    os.replace(tmp, target)
    meta_target = warehouse_meta_path(root, symbol, interval)
    meta_tmp = meta_target.with_suffix(".json.tmp")
    meta_tmp.write_text(json.dumps(asdict(meta), sort_keys=True, separators=(",", ":")) + "\n")
    os.replace(meta_tmp, meta_target)
    return meta


def load_warehouse(root: str | Path, symbol: str, interval: int,
                   allow_gaps: bool = False) -> CandleSeries:
    """Load a previously ingested series from the warehouse."""
    path = warehouse_csv_path(root, symbol, interval)
    if not path.exists():
        raise ValidationError(f"no warehoused data at {path}")
    return parse_csv(path, symbol, interval, allow_gaps=allow_gaps)
