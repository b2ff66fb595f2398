"""Shared builders for test data: seeded random-walk candle series plus
scripted/random strategies used to fuzz the execution layer, and the XOR
fitness function."""

from __future__ import annotations

import random
from pathlib import Path

import numpy as np

from tradelab.backtest import Book, CostModel, run_bars
from tradelab.data import Candle, CandleSeries, parse_csv
from tradelab.neat import EvolutionConfig, InnovationTracker, NetworkEvaluator, initial_genome, mutate
from tradelab.strategy import Side, TradeIntent

FIXTURES = Path(__file__).parent / "fixtures"

INTERVAL = 3600
STEP_MS = INTERVAL * 1000


def random_series(seed: int, n: int = 256, symbol: str = "RND",
                  drift: float = 0.0, vol: float = 0.01,
                  start_price: float = 100.0) -> CandleSeries:
    """Valid gap-free OHLCV random walk; fully determined by the seed."""
    rng = np.random.default_rng(seed)
    log_ret = rng.normal(drift, vol, n)
    closes = start_price * np.exp(np.cumsum(log_ret))
    candles = []
    prev_close = float(closes[0]) * (1 - rng.uniform(0, vol))
    for i in range(n):
        o = prev_close
        c = float(closes[i])
        hi = max(o, c) * (1 + float(abs(rng.normal(0, vol / 2))))
        lo = min(o, c) * (1 - float(abs(rng.normal(0, vol / 2))))
        v = float(rng.uniform(0, 1000))
        candles.append(Candle(i * STEP_MS, o, hi, lo, c, v))
        prev_close = c
    return CandleSeries(symbol, INTERVAL, tuple(candles))


def flat_series(n: int = 64, price: float = 50.0, volume: float = 10.0,
                symbol: str = "FLAT") -> CandleSeries:
    candles = tuple(Candle(i * STEP_MS, price, price, price, price, volume)
                    for i in range(n))
    return CandleSeries(symbol, INTERVAL, candles)


def series_from_closes(closes, symbol: str = "SEQ", volumes=None) -> CandleSeries:
    """Degenerate candles (o=h=l=c) from a close sequence; handy for
    hand-computed examples."""
    if volumes is None:
        volumes = [10.0] * len(closes)
    candles = tuple(Candle(i * STEP_MS, float(c), float(c), float(c), float(c), float(v))
                    for i, (c, v) in enumerate(zip(closes, volumes)))
    return CandleSeries(symbol, INTERVAL, candles)


def series_from_ohlc(rows, symbol: str = "OHLC") -> CandleSeries:
    """rows: iterable of (open, high, low, close, volume)."""
    candles = tuple(Candle(i * STEP_MS, *map(float, row)) for i, row in enumerate(rows))
    return CandleSeries(symbol, INTERVAL, candles)


def rewrite_after(series: CandleSeries, t: int, seed: int) -> CandleSeries:
    """The series with every bar after bar ``t`` replaced by the same bar of
    another seeded walk (same timestamps, other prices and volumes)."""
    other = random_series(seed, n=len(series), symbol=series.symbol, vol=0.02)
    candles = series.candles[:t + 1] + other.candles[t + 1:]
    return CandleSeries(series.symbol, series.interval, candles)


def trending_fixture() -> CandleSeries:
    return parse_csv(FIXTURES / "trending.csv", "TRENDY", INTERVAL)


def streamed_backtest(config, series: CandleSeries, initial_cash: float = 10_000.0,
                      costs: CostModel | None = None, **kwargs):
    """The streamed reference for a single-symbol backtest: ``run_bars`` fed
    a candle iterator and a ``Book``, so the stepper and the stop ATR stream
    their indicators instead of reading the series' columns."""
    costs = costs or CostModel()
    return run_bars(config, iter(series.candles), Book(initial_cash, costs, False), costs,
                    series.symbol, series.interval, **kwargs)


class RandomStrategy:
    """Seeded intent spammer for execution-layer fuzzing.

    Emits fractional and absolute opens (sometimes unaffordable) and closes
    (sometimes with nothing open) so rejection paths get exercised too.
    """

    def __init__(self, seed: int, symbol: str = "RND",
                 open_p: float = 0.04, close_p: float = 0.06):
        self.rng = random.Random(seed)
        self.symbol = symbol
        self.open_p = open_p
        self.close_p = close_p
        self.bars_seen = 0

    def step(self, candle):
        self.bars_seen += 1
        rng = self.rng
        roll = rng.random()
        if roll < self.open_p:
            if rng.random() < 0.3:
                intent = TradeIntent(Side.OPEN_LONG, self.symbol,
                                     size=rng.uniform(0.1, 2000.0), absolute=True)
            else:
                intent = TradeIntent(Side.OPEN_LONG, self.symbol,
                                     size=rng.uniform(0.05, 1.0))
            return ([intent], [])
        if roll < self.open_p + self.close_p:
            if rng.random() < 0.3:
                intent = TradeIntent(Side.CLOSE_LONG, self.symbol,
                                     size=rng.uniform(0.1, 100.0), absolute=True)
            else:
                intent = TradeIntent(Side.CLOSE_LONG, self.symbol,
                                     size=rng.uniform(0.1, 1.0))
            return ([], [intent])
        return ([], [])


class ScriptedStrategy:
    """Replays a fixed per-bar intent script."""

    def __init__(self, script: dict):
        self.script = script
        self.bars_seen = 0

    def step(self, candle):
        out = self.script.get(self.bars_seen, ([], []))
        self.bars_seen += 1
        return out


def conservation_violation(report, series, initial_cash: float,
                           fee_rate: float) -> float:
    """Replay fills independently; return the worst absolute difference
    between the engine's equity curve and cash + qty*close per bar."""
    fills_by_bar: dict[int, list] = {}
    for f in report.fills:
        fills_by_bar.setdefault(f.bar, []).append(f)
    cash = initial_cash
    qty = 0.0
    worst = 0.0
    closes = series.closes
    for t in range(report.bars):
        for f in fills_by_bar.get(t, ()):
            if f.side in (Side.OPEN_LONG, Side.CLOSE_SHORT):  # buys
                cash -= f.price * f.quantity + f.fee
                qty += f.quantity
            else:  # sells
                cash += f.price * f.quantity - f.fee
                qty -= f.quantity
        expected = cash + qty * closes[t]
        if t == report.bars - 1 and report.forced_close:
            expected = cash  # engine rewrites the last point after liquidation
        worst = max(worst, abs(report.equity[t] - expected))
    return worst


XOR_CASES = [((0.0, 0.0), 0.0), ((0.0, 1.0), 1.0), ((1.0, 0.0), 1.0), ((1.0, 1.0), 0.0)]


def xor_fitness(genome) -> float:
    """4 minus the squared error of the genome's output over the XOR table."""
    net = NetworkEvaluator(genome)
    err = 0.0
    for inputs, target in XOR_CASES:
        out = net.activate(list(inputs))[0]
        err += (out - target) ** 2
    return 4.0 - err


def fresh_genome(seed=0, n_in=3, n_out=2, weight_span=2.0):
    tracker = InnovationTracker()
    tracker.begin_generation()
    return initial_genome(n_in, n_out, tracker, random.Random(seed), weight_span), tracker


def random_genome(seed, n_in=3, n_out=2, rounds=25, config=None, weight_span=2.0):
    """Grow a genome by repeated mutation, one tracker generation per round
    so every structural event gets fresh innovation numbers. Added nodes
    split a connection and leave it disabled."""
    config = config or EvolutionConfig(population_size=30, add_connection_rate=0.5,
                                       add_node_rate=0.4)
    genome, tracker = fresh_genome(seed, n_in, n_out, weight_span)
    rng = random.Random(seed + 77)
    for _ in range(rounds):
        tracker.begin_generation()
        genome = mutate(genome, config, rng, tracker)
    return genome
