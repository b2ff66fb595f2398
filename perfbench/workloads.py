"""The four benchmark workloads, their seeded inputs and their output checks.

Each workload has the same life cycle, driven by ``run.py``:

* ``__init__`` generates the inputs from the seed (a random-walk candle CSV
  and a run-config JSON). This is the benchmark's own work and is not timed.
* ``setup`` is the program's set-up before the first op (``ingest``,
  ``load_warehouse``, ``load_config``); it is timed as ``setup_s``.
* ``job`` is one timed unit of work after set-up (``wall_s``). It appends
  the latency of every op it completes to the log it is given.
* ``check`` re-derives the job's results through other public entry points
  and returns the problems it found; it runs outside the timed window.
* ``digest`` is a sha256 of the job's written artifacts and results, so that
  a change of behaviour shows as a changed digest for the same seed.

The workloads call tradelab only through module attributes (``data.ingest``,
``cli.main``, ...), so the wrappers of a traced run see every call.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import hashlib
import io
import json
import math
import random
import shutil
import time
from dataclasses import replace
from pathlib import Path

from tradelab import backtest, broker, cli, config, data, indicators, neat, optimize, strategy

INTERVAL = 3600
SYMBOL = "WALK"
COSTS = {"fee_bps": 10.0, "slippage_bps": 5.0, "initial_cash": 10000.0}
STOPS = {"atr_period": 14, "stop_mult": 2.0, "profit_mult": 4.0}
EVOLVE_INPUTS = ["rsi:p=14", "ema:p=9", "ema:p=21", "atr:p=14"]
TUNE_GRID = {"p_short": list(range(3, 13)), "p_long": list(range(15, 61, 5))}
# One spec per registered indicator; VPVR(50,12) as in the roadmap baseline.
REPLAY_INDICATORS = [
    "sma:p=20", "ema:p=20", "rsi:p=14", "atr:p=14", "macd:fast=12,slow=26,signal=9",
    "bollinger:p=20,k=2.0", "obv", "momentum:p=10", "force_index:p=13", "mfi:p=14",
    "cci:p=20", "williams_r:p=14", "adx:p=14", "kst", "vpvr:p=50,buckets=12",
]
XOR_CASES = [((0.0, 0.0), 0.0), ((0.0, 1.0), 1.0), ((1.0, 0.0), 1.0), ((1.0, 1.0), 0.0)]

# Input sizes. "full" is what the benchmark measures; "tiny" is for the
# self-test. Every full job makes at least 100 ops, so op_p90_us always has
# ten samples beyond it.
SIZES = {
    "full": {
        "evolve": {"bars": 1100, "population": 40, "generations": 2},
        "tune": {"bars": 3000},
        "replay": {"bars": 8000},
        "xor": {"runs": 5, "generations": 40, "population": 150},
    },
    "tiny": {
        "evolve": {"bars": 120, "population": 6, "generations": 1},
        "tune": {"bars": 120},
        "replay": {"bars": 1000},
        "xor": {"runs": 1, "generations": 3, "population": 20},
    },
}


class JobFailed(Exception):
    """A job ended without the outputs it should have produced."""


def random_walk(seed: int, bars: int, vol: float = 0.01):
    """Yield the gap-free hourly OHLCV rows of a geometric random walk.

    The rows are generated again where a check needs them, so the process
    does not hold them while the program runs."""
    rng = random.Random(seed)
    price = 100.0
    for i in range(bars):
        o = price
        c = o * math.exp(rng.gauss(0.0, vol))
        h = max(o, c) * (1.0 + abs(rng.gauss(0.0, vol / 2)))
        l = min(o, c) * (1.0 - abs(rng.gauss(0.0, vol / 2)))
        yield (i * INTERVAL * 1000, o, h, l, c, rng.uniform(1.0, 1000.0))
        price = c


def write_rows(rows, path: Path) -> None:
    with open(path, "w") as fh:
        fh.write("timestamp,open,high,low,close,volume\n")
        fh.writelines(f"{t},{o!r},{h!r},{l!r},{c!r},{v!r}\n" for t, o, h, l, c, v in rows)


def run_cli(argv: list[str]) -> int:
    """Call ``tradelab.cli.main`` with its progress lines kept off stdout."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


@contextlib.contextmanager
def timed_calls(owner, attr: str, latencies):
    """Append the duration of every call of ``owner.attr`` to ``latencies``."""
    original = getattr(owner, attr)
    clock = time.perf_counter

    @functools.wraps(original)
    def timed(*args, **kwargs):
        start = clock()
        try:
            return original(*args, **kwargs)
        finally:
            latencies.append(clock() - start)

    setattr(owner, attr, timed)
    try:
        yield
    finally:
        setattr(owner, attr, original)


def sha256_files(folder: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(folder.iterdir()):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def sha256_text(parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode() + b"\n")
    return h.hexdigest()


def costs_of(cfg) -> backtest.CostModel:
    return backtest.CostModel(fee_bps=cfg.costs.fee_bps, slippage_bps=cfg.costs.slippage_bps)


class Workload:
    """Shared input generation: a seeded walk, its CSV and a run config."""

    def __init__(self, seed: int, size: dict, work: Path):
        self.seed = seed
        self.size = size
        self.bars = size.get("bars", 0)
        work.mkdir(parents=True, exist_ok=True)
        self.csv = work / "walk.csv"
        self.warehouse = work / "warehouse"
        self.out = work / "out"
        self.config_path = work / "config.json"
        if self.bars:
            write_rows(random_walk(seed, self.bars), self.csv)
        doc = {"seed": seed, "out_dir": str(self.out), "costs": COSTS,
               "data": {"warehouse": str(self.warehouse), "symbol": SYMBOL,
                        "interval": INTERVAL}}
        doc.update(self.config_sections())
        self.config_path.write_text(json.dumps(doc, indent=2))

    def config_sections(self) -> dict:
        return {}

    def input_sizes(self) -> dict:
        return dict(self.size)

    def setup(self) -> None:
        data.ingest(self.csv, self.warehouse, SYMBOL, INTERVAL, source="perfbench")
        self.config = config.load_config(self.config_path)
        self.series = data.load_warehouse(self.warehouse, SYMBOL, INTERVAL)

    def fresh_out(self) -> Path:
        shutil.rmtree(self.out, ignore_errors=True)
        return self.out


class Evolve(Workload):
    """``tradelab optimize --mode evolve``; one op is one genome fitness call.

    A run of 2 generations: a longer run settles on a trading habit by
    chance, and a genome's cost then depends on the seed (see README)."""

    def config_sections(self):
        return {"optimize": {"mode": "evolve", "inputs": EVOLVE_INPUTS,
                             "evolution": {"population_size": self.size["population"],
                                           "max_generations": self.size["generations"]}}}

    def job(self, latencies):
        out = self.fresh_out()
        with timed_calls(optimize, "run_backtest", latencies):
            code = run_cli(["optimize", "--config", str(self.config_path),
                            "--mode", "evolve", "--out", str(out)])
        if code != 0:
            raise JobFailed(f"optimize --mode evolve exited with {code}")
        return out

    def check(self, out):
        problems = []
        artifact = config.load_network_artifact(out / "best_strategy.json")
        genome = artifact.genome
        rescored = backtest.run_backtest(
            optimize.network_strategy(genome, SYMBOL, artifact.input_specs, artifact.norm),
            self.series, self.config.costs.initial_cash, costs_of(self.config),
            drawdown_lambda=self.config.optimize.drawdown_lambda)
        if rescored.score != genome.fitness:
            problems.append(f"best genome re-scores {rescored.score!r}, "
                            f"file says {genome.fitness!r}")
        with open(out / "fitness_history.csv", newline="") as fh:
            history = list(csv.DictReader(fh))
        if len(history) != self.size["generations"] + 1:
            problems.append(f"fitness history has {len(history)} rows")
        elif max(float(r["best_fitness"]) for r in history) != genome.fitness:
            problems.append("best genome is not the best of the fitness history")
        return problems

    def digest(self, out):
        return sha256_files(out)


class Tune(Workload):
    """``tradelab optimize --mode tune`` over a 10x10 ema_cross grid with
    ATR stops; one op is one candidate backtest."""

    def config_sections(self):
        return {"strategy": {"kind": "ema_cross", "params": {"p_short": 9, "p_long": 21},
                             "stops": STOPS},
                "optimize": {"mode": "tune", "grid": TUNE_GRID}}

    def input_sizes(self):
        return {**self.size, "candidates": len(optimize.expand_grid(TUNE_GRID))}

    def job(self, latencies):
        out = self.fresh_out()
        with timed_calls(optimize, "run_backtest", latencies):
            code = run_cli(["optimize", "--config", str(self.config_path),
                            "--mode", "tune", "--out", str(out)])
        if code != 0:
            raise JobFailed(f"optimize --mode tune exited with {code}")
        return out

    def check(self, out):
        problems = []
        with open(out / "leaderboard.csv", newline="") as fh:
            board = list(csv.DictReader(fh))
        scores = [float(r["score"]) for r in board]
        expected = len(optimize.expand_grid(TUNE_GRID))
        if len(board) != expected:
            problems.append(f"leaderboard has {len(board)} rows, expected {expected}")
        if scores != sorted(scores, reverse=True):
            problems.append("leaderboard is not ordered by score")
        best = json.loads((out / "best_params.json").read_text())
        cfg = self.config
        report = backtest.run_backtest(
            optimize.make_config(strategy.StrategyKind.EMA_CROSS, SYMBOL, best,
                                 stops=cfg.strategy.stops),
            self.series, cfg.costs.initial_cash, costs_of(cfg),
            drawdown_lambda=cfg.optimize.drawdown_lambda)
        if not scores or report.score != scores[0]:
            problems.append(f"winning candidate re-scores {report.score!r}, "
                            f"leaderboard top is {scores[:1]}")
        return problems

    def digest(self, out):
        return sha256_files(out)


def timed_feed(candles, latencies):
    """Yield candles, appending how long the consumer spent on each one."""
    clock = time.perf_counter
    for candle in candles:
        start = clock()
        yield candle
        latencies.append(clock() - start)


def close_enough(a: float, b: float, tol: float = 1e-9) -> bool:
    return math.isclose(a, b, rel_tol=tol, abs_tol=tol)


class Replay(Workload):
    """Batch ``compute`` of all 15 indicators, then ``paper_trade_loop`` over
    ``SimulatedBroker`` with ema_cross and ATR stops; one op is one paper bar."""

    def config_sections(self):
        return {"strategy": {"kind": "ema_cross", "params": {"p_short": 9, "p_long": 21},
                             "stops": STOPS}}

    def input_sizes(self):
        return {**self.size, "indicators": len(REPLAY_INDICATORS)}

    def setup(self):
        super().setup()
        self.specs = [config.parse_indicator_spec(s) for s in REPLAY_INDICATORS]

    def job(self, latencies):
        series = self.series
        columns = [indicators.compute(spec, series) for spec in self.specs]
        cash = self.config.costs.initial_cash
        costs = costs_of(self.config)
        endpoint = broker.SimulatedBroker(series, cash, costs)
        report = broker.paper_trade_loop(self.config.strategy,
                                         timed_feed(series.candles, latencies), endpoint,
                                         costs=costs, symbol=series.symbol,
                                         interval=series.interval)
        return columns, report

    def check(self, out):
        columns, report = out
        problems = []
        candles = self.series.candles
        if len(candles) != self.bars or any(
                (c.ts, c.open, c.high, c.low, c.close, c.volume) != row
                for c, row in zip(candles, random_walk(self.seed, self.bars))):
            problems.append("ingest -> load_warehouse round trip is not bit-exact")
        for spec, column in zip(self.specs, columns):
            lines = column if isinstance(column, tuple) else (column,)
            if any(len(line.values) != self.bars for line in lines):
                problems.append(f"{spec.label()} has the wrong length")
        reference = backtest.run_backtest(self.config.strategy, self.series,
                                          self.config.costs.initial_cash,
                                          costs_of(self.config))
        if len(reference.fills) != len(report.fills):
            problems.append(f"paper loop made {len(report.fills)} fills, "
                            f"backtest {len(reference.fills)}")
        for bf, pf in zip(reference.fills, report.fills):
            if (bf.bar != pf.bar or bf.symbol != pf.symbol
                    or not close_enough(bf.price, pf.price)
                    or not close_enough(bf.quantity, pf.quantity)
                    or not close_enough(bf.fee, pf.fee)):
                problems.append(f"fill at bar {pf.bar} differs from the backtest's")
                break
        if not close_enough(reference.final_equity, report.final_equity):
            problems.append("paper final equity differs from the backtest's")
        return problems

    def digest(self, out):
        columns, report = out
        parts = []
        for column in columns:
            for line in column if isinstance(column, tuple) else (column,):
                parts.append(repr(line.values))
        parts.append(repr(report.equity))
        parts.extend(repr(f) for f in report.fills)
        parts.extend(repr(t) for t in report.trades)
        return sha256_text(parts)


def xor_fitness(genome) -> float:
    net = neat.NetworkEvaluator(genome)
    err = 0.0
    for inputs, target in XOR_CASES:
        out = net.activate(list(inputs))[0]
        err += (out - target) ** 2
    return 4.0 - err


class Xor(Workload):
    """Seeded NEAT XOR runs for a fixed number of generations with no early
    stop; one op is one generation (breeding plus evaluation)."""

    def config_sections(self):
        return {"optimize": {"mode": "evolve",
                             "evolution": {"population_size": self.size["population"],
                                           "max_generations": self.size["generations"]}}}

    def setup(self):
        self.config = config.load_config(self.config_path)

    def job(self, latencies):
        base = self.config.optimize.evolution
        clock = time.perf_counter
        results = []
        for run in range(self.size["runs"]):
            evo = neat.Evolution(2, 1, replace(base, seed=base.seed * self.size["runs"] + run))
            evo.evaluate(xor_fitness)
            for _ in range(base.max_generations):
                start = clock()
                evo.next_generation()
                evo.evaluate(xor_fitness)
                latencies.append(clock() - start)
            results.append((evo.best.copy(keep_fitness=True), list(evo.history)))
        return results

    def check(self, out):
        problems = []
        for run, (best, history) in enumerate(out):
            if xor_fitness(best) != best.fitness:
                problems.append(f"run {run}: best genome re-evaluates differently")
            if max(h.best_fitness for h in history) != best.fitness:
                problems.append(f"run {run}: best genome is not the best of its history")
        return problems

    def digest(self, out):
        parts = []
        for best, history in out:
            parts.append(repr((best.nodes, best.connections, best.fitness)))
            parts.extend(repr(h) for h in history)
        return sha256_text(parts)


WORKLOADS = {"evolve": Evolve, "tune": Tune, "replay": Replay, "xor": Xor}
