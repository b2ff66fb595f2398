"""Acceptance suite: one test per release criterion, each printing a
[PASS]/[FAIL] line (run with ``pytest tests/test_acceptance.py -s`` to see
the lines as they complete).

Criteria:
 1. profit arithmetic of the documented example trade (entry 1.2983,
    exit 2.0223, zero costs -> 55.77% +/- 0.01pp)
 2. indicator implementations match brute-force definitional oracles on 100
    random series each, within 1e-9 relative
 3. accounting conservation over 1,000 fuzzed backtests on 10,000-bar
    fixtures (equity = cash + qty*close at every bar, 1e-9)
 4. no-lookahead: future bars never change intents; truncation never
    changes settled fills
 5. neuroevolution mechanics: distance identity, invariant-preserving
    mutation/crossover, elitism monotonicity
 6. capability: XOR solved within 300 generations in >= 16 of 20 seeded runs
 7. parameter-optimization story on the frozen trending fixture: crossover
    signal counts strictly decrease and (20,50) wins the tuning grid
 8. simulated-broker sessions reproduce backtests fill for fill on 50
    random strategy/series pairs
 9. CLI runs are byte-identical given identical config, data and seed
"""

import json
import math
import random
from contextlib import contextmanager

import numpy as np
import pytest

import oracles
from helpers import (
    RandomStrategy,
    ScriptedStrategy,
    random_series,
    rewrite_after,
    series_from_ohlc,
    streamed_backtest,
    trending_fixture,
    xor_fitness,
)
from test_backtest import emitted_until, ema_with_stops, neat_inputs
from test_neat import mutation_fuzz, random_genome, sibling_genomes, weight_sum_fitness
from tradelab.backtest import CostModel, ZERO_COSTS, run_backtest
from tradelab.broker import SimulatedBroker, paper_trade_loop
from tradelab.cli import main
from tradelab.data import CandleSeries, ingest
from tradelab.indicators import IndicatorSpec, compute
from tradelab.neat import (
    Evolution,
    EvolutionConfig,
    compatibility_distance,
    crossover,
    validate_genome,
)
from tradelab.optimize import tune_parameters
from tradelab.strategy import (
    EmaCrossParams,
    GridParams,
    Side,
    StrategyConfig,
    StrategyKind,
    TradeIntent,
    ema_crossover_signals,
    new_state,
)

from helpers import FIXTURES


@contextmanager
def criterion(number, label):
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {number}: {label}")
        raise
    print(f"[PASS] criterion {number}: {label}")


# ---------------------------------------------------------------------------
# 1. Example-trade profit arithmetic
# ---------------------------------------------------------------------------

def test_criterion_1_profit_arithmetic():
    with criterion(1, "example trade nets 55.77% +/- 0.01pp at zero cost"):
        rows = [
            (1.25, 1.30, 1.20, 1.28, 5.0),
            (1.2983, 1.35, 1.25, 1.33, 5.0),
            (1.40, 1.55, 1.38, 1.52, 5.0),
            (2.0223, 2.10, 1.98, 2.05, 5.0),
            (2.04, 2.08, 2.00, 2.02, 5.0),
        ]
        series = series_from_ohlc(rows, symbol="ADA")
        script = {
            0: ([TradeIntent(Side.OPEN_LONG, "ADA")], []),
            2: ([], [TradeIntent(Side.CLOSE_LONG, "ADA")]),
        }
        report = run_backtest(ScriptedStrategy(script), series, 1_000.0, ZERO_COSTS)
        assert report.trades[0].entry_price == 1.2983
        assert report.trades[0].exit_price == 2.0223
        assert report.metrics.net_profit_pct == pytest.approx(55.77, abs=0.01)


# ---------------------------------------------------------------------------
# 2. Indicator oracle suite
# ---------------------------------------------------------------------------

ORACLE_SUITE = [
    ("sma", {"p": 14}, lambda s: oracles.oracle_sma(s.closes, 14)),
    ("ema", {"p": 14}, lambda s: oracles.oracle_ema(s.closes, 14)),
    ("rsi", {"p": 14}, lambda s: oracles.oracle_rsi(s.closes, 14)),
    ("atr", {"p": 14}, lambda s: oracles.oracle_atr(s.highs, s.lows, s.closes, 14)),
    ("obv", {}, lambda s: oracles.oracle_obv(s.closes, s.volumes)),
    ("momentum", {"p": 10}, lambda s: oracles.oracle_momentum(s.closes, 10)),
    ("force_index", {"p": 13}, lambda s: oracles.oracle_force_index(s.closes, s.volumes, 13)),
    ("mfi", {"p": 14}, lambda s: oracles.oracle_mfi(s.highs, s.lows, s.closes, s.volumes, 14)),
    ("cci", {"p": 20}, lambda s: oracles.oracle_cci(s.highs, s.lows, s.closes, 20)),
    ("williams_r", {"p": 14}, lambda s: oracles.oracle_williams_r(s.highs, s.lows, s.closes, 14)),
    ("adx", {"p": 14}, lambda s: oracles.oracle_adx(s.highs, s.lows, s.closes, 14)),
    ("kst", {}, lambda s: oracles.oracle_kst(s.closes)),
    ("vpvr", {"p": 30, "buckets": 12},
     lambda s: oracles.oracle_vpvr(s.highs, s.lows, s.closes, s.volumes, 30, 12)),
]


def _assert_close(got, want, where):
    assert len(got) == len(want), where
    for i, (a, b) in enumerate(zip(got, want)):
        assert (a is None) == (b is None), f"{where}: definedness at {i}"
        if a is not None:
            assert a == pytest.approx(b, rel=1e-9, abs=1e-12), f"{where}: index {i}"


def test_criterion_2_indicator_oracles():
    with criterion(2, "15 indicators match definitional oracles on 100 random series"):
        rng = np.random.default_rng(2024)
        lengths = rng.integers(64, 513, size=100)
        for run, n in enumerate(lengths):
            series = random_series(10_000 + run, n=int(n), vol=0.02)
            for name, params, oracle in ORACLE_SUITE:
                got = compute(IndicatorSpec(name, params), series).values
                _assert_close(got, oracle(series), f"{name} run {run}")
            line, sig, hist = compute(IndicatorSpec("macd", {"fast": 12, "slow": 26, "signal": 9}), series)
            o_line, o_sig, o_hist = oracles.oracle_macd(series.closes, 12, 26, 9)
            _assert_close(line.values, o_line, f"macd line run {run}")
            _assert_close(sig.values, o_sig, f"macd signal run {run}")
            _assert_close(hist.values, o_hist, f"macd hist run {run}")
            up, mid, low = compute(IndicatorSpec("bollinger", {"p": 20, "k": 2.0}), series)
            o_up, o_mid, o_low = oracles.oracle_bollinger(series.closes, 20, 2.0)
            _assert_close(up.values, o_up, f"bollinger up run {run}")
            _assert_close(mid.values, o_mid, f"bollinger mid run {run}")
            _assert_close(low.values, o_low, f"bollinger low run {run}")


# ---------------------------------------------------------------------------
# 3. Accounting conservation under fuzzing
# ---------------------------------------------------------------------------

def vector_conservation_violation(report, closes, initial_cash):
    """Worst |equity - (cash + qty*close)| per bar, via an independent replay
    of the fills."""
    bars = report.bars
    cash_curve = np.full(bars, initial_cash)
    qty_curve = np.zeros(bars)
    cash = initial_cash
    qty = 0.0
    marks = [(0, cash, qty)]
    for f in report.fills:
        if f.side in (Side.OPEN_LONG, Side.CLOSE_SHORT):
            cash -= f.price * f.quantity + f.fee
            qty += f.quantity
        else:
            cash += f.price * f.quantity - f.fee
            qty -= f.quantity
        marks.append((f.bar, cash, qty))
    for bar, c, q in marks:
        cash_curve[bar:] = c
        qty_curve[bar:] = q
    expected = cash_curve + qty_curve * closes
    if report.forced_close:
        expected[-1] = cash
    return float(np.max(np.abs(np.asarray(report.equity) - expected)))


def test_criterion_3_accounting_conservation():
    with criterion(3, "1,000 fuzzed backtests conserve cash+inventory to 1e-9"):
        fixtures = [random_series(5_000 + i, n=10_000, vol=0.015) for i in range(5)]
        closes = [np.asarray(s.closes) for s in fixtures]
        costs = CostModel()
        any_rejects = 0
        worst = 0.0
        for seed in range(1_000):
            series = fixtures[seed % 5]
            report = run_backtest(RandomStrategy(seed), series, 2_000.0, costs)
            worst = max(worst, vector_conservation_violation(report, closes[seed % 5], 2_000.0))
            any_rejects += sum(1 for o in report.orders if o.status.value == "rejected")
        assert worst < 1e-9, f"worst conservation violation {worst}"
        assert any_rejects > 0, "fuzz should exercise rejections"
        # rejected intents leave the account unchanged
        flat = series_from_ohlc([(100, 100, 100, 100, 1)] * 20, symbol="RND")
        script = {i: ([], [TradeIntent(Side.CLOSE_LONG, "RND")]) for i in range(10)}
        report = run_backtest(ScriptedStrategy(script), flat, 500.0, ZERO_COSTS)
        assert set(report.equity) == {500.0}
        assert not report.fills


# ---------------------------------------------------------------------------
# 4. No-lookahead
# ---------------------------------------------------------------------------

def _random_strategy_factory(rng):
    kind = rng.randrange(3)
    if kind == 0:
        p_short = rng.randrange(3, 15)
        p_long = p_short + rng.randrange(2, 30)
        config = StrategyConfig("RND", EmaCrossParams(p_short, p_long))
        return lambda: new_state(config), config
    if kind == 1:
        config = StrategyConfig("RND", GridParams(spacing=rng.uniform(0.5, 3.0),
                                                  levels=rng.randrange(1, 5),
                                                  level_quantity=1.0))
        return lambda: new_state(config), config
    seed = rng.randrange(10**6)
    return lambda: RandomStrategy(seed), None


def test_criterion_4_no_lookahead():
    with criterion(4, "future bars never alter intents; truncation never alters fills"):
        rng = random.Random(42)
        for case in range(200):
            make_stepper, config = _random_strategy_factory(rng)
            n_future = rng.randrange(5, 60)
            t = rng.randrange(50, 200)
            series = random_series(20_000 + case, n=t + 1 + n_future, vol=0.02)
            prefix = CandleSeries(series.symbol, series.interval, series.candles[:t + 1])

            stepper = make_stepper()
            at_t = None
            for candle in prefix.candles:
                at_t = stepper.step(candle)
            stepper = make_stepper()
            at_t_extended = None
            for candle in series.candles[:t + 1]:
                at_t_extended = stepper.step(candle)
            assert at_t == at_t_extended, f"case {case}: intents at bar {t} changed"

            runner = make_stepper()
            full = run_backtest(runner, series, 2_000.0, CostModel())
            runner = make_stepper()
            cut = run_backtest(runner, CandleSeries(series.symbol, series.interval,
                                                    series.candles[:t + 2]),
                               2_000.0, CostModel())
            settled_full = [f for f in full.fills if f.bar <= t + 1 and not f.forced]
            settled_cut = [f for f in cut.fills if not f.forced]
            assert settled_cut == settled_full, f"case {case}: fills <= t+1 changed"


def streamed_ema_cross(case):
    return StrategyConfig("RND", EmaCrossParams(3 + case % 5, 12 + case))


@pytest.mark.parametrize("make_config,run", [
    (streamed_ema_cross, streamed_backtest),
    (ema_with_stops, run_backtest),
    (neat_inputs, run_backtest),
], ids=["streamed_ema_cross", "column_ema_cross_with_stops", "column_neat"])
def test_rewritten_future_bars_never_alter_intents(make_config, run):
    """Criterion 4's guarantee on the full-length path: rewriting every bar
    after t+1 leaves the intents emitted up to t+1 unchanged, whether the
    stepper streams its indicators or reads columns of the whole series."""
    emitted = 0
    for case in range(12):
        config = make_config(case)
        series = random_series(40_000 + case, n=240, vol=0.02)
        full = run(config, series, 2_000.0, CostModel())
        for t in (30, 110, 190):
            rewritten = run(config, rewrite_after(series, t + 1, 50_000 + case),
                            2_000.0, CostModel())
            assert emitted_until(rewritten, t + 1) == emitted_until(full, t + 1), (case, t)
            assert rewritten.equity != full.equity  # the rewrite reached the run
            emitted += len(emitted_until(full, t + 1))
    assert emitted > 0


# ---------------------------------------------------------------------------
# 5. Neuroevolution mechanics
# ---------------------------------------------------------------------------

def test_criterion_5_neat_mechanics():
    with criterion(5, "distance identity, invariant-safe mutation/crossover, elitism"):
        config = EvolutionConfig(population_size=30)
        for seed in range(1_000):
            g = random_genome(seed, rounds=8)
            assert compatibility_distance(g, g, config) == 0.0
        assert mutation_fuzz(300, 25) == 7_500
        rng = random.Random(1)
        for seed in range(250):
            a, b = sibling_genomes(seed, rounds=12)
            for _ in range(10):
                a.fitness = rng.uniform(-1, 1)
                b.fitness = a.fitness if rng.random() < 0.3 else rng.uniform(-1, 1)
                child = crossover(a, b, rng)
                validate_genome(child)
        evo = Evolution(3, 2, EvolutionConfig(population_size=40, elitism=1, seed=13))
        best = -math.inf
        evo.evaluate(weight_sum_fitness)
        for _ in range(100):
            evo.next_generation()
            stats = evo.evaluate(weight_sum_fitness)
            assert stats.best_fitness >= best - 1e-12
            best = max(best, stats.best_fitness)


# ---------------------------------------------------------------------------
# 6. Capability: XOR
# ---------------------------------------------------------------------------

XOR_THRESHOLD = 3.9


def test_criterion_6_xor_capability():
    with criterion(6, ">= 16 of 20 seeded runs solve XOR within 300 generations"):
        solved = 0
        for seed in range(20):
            evo = Evolution(2, 1, EvolutionConfig(seed=seed))
            best, _ = evo.run(xor_fitness, 300, stop_at=XOR_THRESHOLD)
            solved += best.fitness >= XOR_THRESHOLD
        assert solved >= 16, f"only {solved}/20 runs solved XOR"


# ---------------------------------------------------------------------------
# 7. Parameter-optimization story on the frozen fixture
# ---------------------------------------------------------------------------

PERIOD_GRID = [(9, 21), (9, 30), (20, 30), (20, 50)]
GOLDEN_SIGNAL_COUNTS = (42, 36, 18, 10)  # frozen with tests/fixtures/trending.csv


def test_criterion_7_parameter_optimization_progression():
    with criterion(7, "signal counts strictly decrease and (20,50) wins the grid"):
        series = trending_fixture()
        counts = tuple(len(ema_crossover_signals(series, a, b)) for a, b in PERIOD_GRID)
        assert counts == GOLDEN_SIGNAL_COUNTS
        assert all(counts[i] > counts[i + 1] for i in range(len(counts) - 1))
        best, leaderboard = tune_parameters(
            StrategyKind.EMA_CROSS,
            [{"p_short": a, "p_long": b} for a, b in PERIOD_GRID],
            series, costs=CostModel(),
        )
        assert best == {"p_short": 20, "p_long": 50}
        assert leaderboard[0].params == best


# ---------------------------------------------------------------------------
# 8. Simulator / backtester equivalence
# ---------------------------------------------------------------------------

def test_criterion_8_simulator_equivalence():
    with criterion(8, "50 paper-trade sessions reproduce backtests to 1e-9"):
        rng = random.Random(7)
        for case in range(50):
            series = random_series(30_000 + case, n=400, vol=0.02)
            if case % 2:
                p_short = rng.randrange(3, 12)
                strategy_a = StrategyConfig("RND", EmaCrossParams(p_short, p_short + 10))
                strategy_b = strategy_a
            else:
                seed = rng.randrange(10**6)
                strategy_a, strategy_b = RandomStrategy(seed), RandomStrategy(seed)
            costs = CostModel()
            backtest = run_backtest(strategy_a, series, 5_000.0, costs)
            broker = SimulatedBroker(series, 5_000.0, costs)
            session = paper_trade_loop(strategy_b, series, broker, costs=costs)
            assert len(backtest.fills) == len(session.fills), f"case {case}"
            for bf, sf in zip(backtest.fills, session.fills):
                assert bf.bar == sf.bar and bf.symbol == sf.symbol
                assert bf.price == pytest.approx(sf.price, rel=1e-12)
                assert bf.quantity == pytest.approx(sf.quantity, rel=1e-9, abs=1e-12)
                assert bf.fee == pytest.approx(sf.fee, rel=1e-9, abs=1e-12)
            assert session.final_equity == pytest.approx(backtest.final_equity, abs=1e-9)


# ---------------------------------------------------------------------------
# 9. End-to-end determinism
# ---------------------------------------------------------------------------

def _hash_dir(path):
    import hashlib
    out = {}
    for p in sorted(path.iterdir()):
        out[p.name] = hashlib.sha256(p.read_bytes()).hexdigest()
    return out


def test_criterion_9_cli_byte_determinism(tmp_path):
    with criterion(9, "backtest and optimize outputs are byte-identical across runs"):
        wh = tmp_path / "wh"
        ingest(FIXTURES / "trending.csv", wh, "TRENDY", 3600, source="fixture")
        cfg = {
            "seed": 3,
            "out_dir": str(tmp_path / "out_bt"),
            "data": {"warehouse": str(wh), "symbol": "TRENDY", "interval": 3600},
            "costs": {"fee_bps": 10.0, "slippage_bps": 5.0, "initial_cash": 10000.0},
            "strategy": {"kind": "ema_cross", "params": {"p_short": 9, "p_long": 21}},
            "optimize": {
                "mode": "evolve",
                "inputs": ["rsi:p=5", "ema:p=4"],
                "grid": [{"p_short": 9, "p_long": 21}, {"p_short": 20, "p_long": 50}],
                "evolution": {"population_size": 10, "max_generations": 2},
            },
        }
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(cfg))

        assert main(["backtest", "--config", str(cfg_path)]) == 0
        first = _hash_dir(tmp_path / "out_bt")
        assert main(["backtest", "--config", str(cfg_path)]) == 0
        assert _hash_dir(tmp_path / "out_bt") == first

        out_tune = tmp_path / "out_tune"
        assert main(["optimize", "--config", str(cfg_path), "--mode", "tune",
                     "--out", str(out_tune)]) == 0
        first = _hash_dir(out_tune)
        assert main(["optimize", "--config", str(cfg_path), "--mode", "tune",
                     "--out", str(out_tune)]) == 0
        assert _hash_dir(out_tune) == first

        out_ev = tmp_path / "out_evolve"
        assert main(["optimize", "--config", str(cfg_path), "--mode", "evolve",
                     "--out", str(out_ev)]) == 0
        first = _hash_dir(out_ev)
        assert main(["optimize", "--config", str(cfg_path), "--mode", "evolve",
                     "--out", str(out_ev)]) == 0
        assert _hash_dir(out_ev) == first
