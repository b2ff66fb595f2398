"""Byte identity of pairs and grid runs.

No benchmark workload trades ``pairs`` or ``grid``, so these digests pin
what they produce: a pairs backtest, a pairs paper session over a candle
iterator against a two-feed ``SimulatedBroker``, a small pairs tune, and
grid backtests with and without ATR stops. The walks are the benchmark's
own ``random_walk`` (imported from ``perfbench/workloads.py``, not edited):
leg A at the seed, leg B at the seed plus one. Every case trades often
enough that a changed entry, exit, fill or reject shows in its digest.
"""

import hashlib
import sys
from collections import Counter

import pytest

from test_benchmark_digests import load_workloads
from tradelab.backtest import CostModel, OrderStatus, run_backtest
from tradelab.broker import SimulatedBroker, paper_trade_loop
from tradelab.data import Candle, CandleSeries
from tradelab.optimize import tune_parameters
from tradelab.strategy import GridParams, PairsParams, StopSettings, StrategyConfig, StrategyKind

pytestmark = pytest.mark.skipif(
    sys.version_info >= (3, 12),
    reason="from 3.12 on sum() adds floats with compensated summation, "
           "which changes the last bits of the rolling spread statistics")

BARS = 1500
INTERVAL = 3600
CASH = 10_000.0
COSTS = CostModel(fee_bps=10.0, slippage_bps=5.0)
PAIRS = PairsParams(symbol_b="B", lookback=30, z_entry=2.0, z_exit=0.5)
PAIRS_GRID = {"symbol_b": ["B"], "lookback": [20, 30], "z_entry": [1.5, 2.0], "z_exit": [0.5]}
GRID = GridParams(spacing=1.0, levels=5, level_quantity=5.0)
STOPS = StopSettings(atr_period=14, stop_mult=2.0, profit_mult=4.0)

DIGESTS = {
    ("pairs backtest", 101): "b6039a01063ec0ded40f48908580648cab89b2f7e322891c77766a65047b0d11",
    ("pairs backtest", 202): "1d20a2b414e791c53b144a041dc68d38bb61d3a51173f8b50b109f7c04e5fc38",
    ("pairs backtest", 303): "7a441d69b30a0f1530778fe7ca49e567fe2c6498c4b7753bc6dd39129ebbf62d",
    ("pairs paper", 101): "b6039a01063ec0ded40f48908580648cab89b2f7e322891c77766a65047b0d11",
    ("pairs paper", 202): "1d20a2b414e791c53b144a041dc68d38bb61d3a51173f8b50b109f7c04e5fc38",
    ("pairs paper", 303): "7a441d69b30a0f1530778fe7ca49e567fe2c6498c4b7753bc6dd39129ebbf62d",
    ("pairs tune", 101): "0a43261be29c9659fa6bd5edc5af0890f6822835091d928d7aacb39a104b264b",
    ("pairs tune", 202): "ca341c040ef1030fa3f37c78fdbe13c101911be3edc1479be09a8b6380dad2cb",
    ("pairs tune", 303): "58084ed58cc415bf4e4395d8fb9de31ad8bedf4c79e259d7b132ec8672ee5a22",
    ("grid", 101): "6cd48b27f91824c4b0d24de8cbaf5e4f1dde768b0e6d1782ff26ec5e1ed6e9bc",
    ("grid", 202): "7f46e4f6a669e7a00a30e67bf62c0a86a4555c490ccc8b4d6fd464ee3de0127f",
    ("grid", 303): "9e7059dd22497256c9cd2c347f19ee406329dc2caf04fd640090c2d662cee4c3",
    ("grid stops", 101): "3d65f8058d5d39037ecbb2d3ecb16a3ce760667133cffc0f7977b9abddb6d2d2",
    ("grid stops", 202): "203cfb67fd1f58390e1fe277fbf52dc7b6d9519de6a471d9f8960c97b3b2fc47",
    ("grid stops", 303): "30caeaf3276b60eb69275f8a9b526e2b90b9e99cc063bfe173417eb2028b96d2",
}


def walk(symbol, seed):
    return CandleSeries(symbol, INTERVAL, tuple(
        Candle(*row) for row in load_workloads().random_walk(seed, BARS)))


def report_digest(report):
    h = hashlib.sha256()
    parts = [repr(report.equity)]
    parts.extend(repr(f) for f in report.fills)
    parts.extend(repr(t) for t in report.trades)
    parts.extend(repr((o.id, o.intent, o.created_at_bar, o.status, o.reject_reason))
                 for o in report.orders)
    for part in parts:
        h.update(part.encode() + b"\n")
    return h.hexdigest()


def round_trips(report):
    """The pairs entries or exits that filled, whichever are fewer; each
    fills two orders, one per leg."""
    filled = Counter(o.intent.reason for o in report.orders if o.status is OrderStatus.FILLED)
    return min(filled["pairs-entry"], filled["pairs-exit"]) // 2


def run_case(case, seed):
    a, b = walk("A", seed), walk("B", seed + 1)
    if case == "pairs backtest":
        return run_backtest(StrategyConfig("A", PAIRS), a, CASH, COSTS, aux=b)
    if case == "pairs paper":
        venue = SimulatedBroker({"A": a, "B": b}, CASH, COSTS, allow_short=True)
        return paper_trade_loop(StrategyConfig("A", PAIRS), iter(a.candles), venue,
                                costs=COSTS, aux=b, symbol="A", interval=INTERVAL)
    if case == "pairs tune":
        return tune_parameters(StrategyKind.PAIRS, PAIRS_GRID, a, initial_cash=CASH,
                               costs=COSTS, aux=b)
    stops = STOPS if case == "grid stops" else None
    return run_backtest(StrategyConfig("A", GRID, stops=stops), a, CASH, COSTS)


CASES = [(case, seed) for case in ("pairs backtest", "pairs paper", "pairs tune", "grid",
                                   "grid stops")
         for seed in (101, 202, 303)]


@pytest.mark.parametrize("case,seed", CASES)
def test_pairs_and_grid_digests_are_unchanged(case, seed):
    out = run_case(case, seed)
    if case == "pairs tune":
        best, board = out
        # every candidate makes at least 20 round trips, two trades each
        assert len(board) == 4 and all(entry.trade_count >= 40 for entry in board)
        digest = hashlib.sha256(repr((best, board)).encode()).hexdigest()
    else:
        digest = report_digest(out)
        if case.startswith("pairs"):
            assert round_trips(out) >= 20
        else:
            assert out.fills
        if case == "grid stops":
            assert any(o.reject_reason == "no open long position" for o in out.orders)
    assert digest == DIGESTS[case, seed]
