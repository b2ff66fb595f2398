"""End-to-end demo: ingest -> indicators -> backtest -> paper -> tune -> evolve -> report.

Drives the CLI exactly as a user would, against the bundled trending fixture.
It then derives a second leg from the fixture, trades the pair with
``pairs`` and the fixture alone with ``grid``, each as a backtest and as a
paper session over the simulator, with ATR stops and without, and fails
unless each backtest and its paper session write the same bytes.
Everything lands under ./demo_run/ (deleted and rebuilt on each invocation).

Run from the repo root:  python3 scripts/run_pipeline.py
"""

from __future__ import annotations

import json
import math
import random
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from tradelab.cli import main  # noqa: E402
from tradelab.data import Candle, CandleSeries, load_warehouse, write_csv  # noqa: E402

WORKDIR = ROOT / "demo_run"


def run(argv):
    print(f"\n$ tradelab {' '.join(argv)}")
    code = main(argv)
    if code != 0:
        raise SystemExit(f"step failed with exit code {code}")


def second_leg(series: CandleSeries, symbol: str) -> CandleSeries:
    """A leg that co-moves with ``series``: each bar's four prices scaled by
    exp(s_t), where s is a seeded AR(1) spread (coefficient 0.9, sigma 0.01)."""
    rng = random.Random(7)
    s = 0.0
    candles = []
    for c in series.candles:
        s = 0.9 * s + rng.gauss(0.0, 0.01)
        k = math.exp(s)
        candles.append(Candle(c.ts, c.open * k, c.high * k, c.low * k, c.close * k, c.volume))
    return CandleSeries(symbol, series.interval, tuple(candles))


def same_files(a: Path, b: Path) -> bool:
    names = sorted(path.name for path in a.iterdir())
    return names == sorted(path.name for path in b.iterdir()) and all(
        (a / name).read_bytes() == (b / name).read_bytes() for name in names)


def pipeline() -> None:
    if WORKDIR.exists():
        shutil.rmtree(WORKDIR)
    WORKDIR.mkdir()
    warehouse = WORKDIR / "warehouse"

    fixture = ROOT / "tests" / "fixtures" / "trending.csv"
    run(["ingest", "--csv", str(fixture),
         "--symbol", "TRENDY", "--interval", "3600", "--warehouse", str(warehouse)])
    # the fixture is written by write_csv, so ingest must store it unchanged:
    # drift in the writer or the sort fails here
    stored = warehouse / "TRENDY" / "3600.csv"
    if stored.read_bytes() != fixture.read_bytes():
        raise SystemExit(f"{stored} differs from {fixture}")

    config = {
        "seed": 0,
        "out_dir": str(WORKDIR / "out"),
        "data": {"warehouse": str(warehouse), "symbol": "TRENDY", "interval": 3600},
        "costs": {"fee_bps": 10.0, "slippage_bps": 5.0, "initial_cash": 10_000.0},
        "strategy": {"kind": "ema_cross", "params": {"p_short": 9, "p_long": 21}},
        "optimize": {
            "mode": "tune",
            "grid": [
                {"p_short": 9, "p_long": 21},
                {"p_short": 9, "p_long": 30},
                {"p_short": 20, "p_long": 30},
                {"p_short": 20, "p_long": 50},
            ],
            "inputs": ["rsi:p=14", "ema:p=9", "ema:p=21", "atr:p=14"],
            "evolution": {"population_size": 40, "max_generations": 10},
        },
    }
    config_path = WORKDIR / "config.json"
    config_path.write_text(json.dumps(config, indent=2))

    run(["indicator", "--config", str(config_path),
         "--indicator", "ema:p=9", "--indicator", "ema:p=21", "--indicator", "rsi:p=14"])
    run(["backtest", "--config", str(config_path)])
    run(["backtest", "--config", str(config_path), "--paper",
         "--out", str(WORKDIR / "paper")])
    run(["optimize", "--config", str(config_path), "--mode", "tune",
         "--out", str(WORKDIR / "tuned")])
    run(["optimize", "--config", str(config_path), "--mode", "evolve",
         "--out", str(WORKDIR / "evolved")])
    run(["report", "--config", str(config_path),
         "--report", str(WORKDIR / "out" / "report.json"),
         "--out", str(WORKDIR / "plots")])

    # a pair, the fixture against a leg derived from it, and a grid on the
    # fixture; a backtest and a paper session of each config must write the
    # same bytes
    paired = WORKDIR / "paired.csv"
    write_csv(second_leg(load_warehouse(warehouse, "TRENDY", 3600), "PAIRED"), paired)
    run(["ingest", "--csv", str(paired),
         "--symbol", "PAIRED", "--interval", "3600", "--warehouse", str(warehouse)])
    heuristics = (("pairs", {"symbol_b": "PAIRED"}),
                  ("grid", {"spacing": 2.0, "levels": 5, "level_quantity": 5.0}))
    for kind, params in heuristics:
        for name, stops in ((kind, None), (f"{kind}_stops", {"atr_period": 14})):
            config["strategy"] = {"kind": kind, "params": params, "stops": stops}
            strategy_path = WORKDIR / f"{name}_config.json"
            strategy_path.write_text(json.dumps(config, indent=2))
            backtest_out, paper_out = WORKDIR / name, WORKDIR / f"{name}_paper"
            run(["backtest", "--config", str(strategy_path), "--out", str(backtest_out)])
            run(["backtest", "--config", str(strategy_path), "--paper", "--out", str(paper_out)])
            if not same_files(backtest_out, paper_out):
                raise SystemExit(f"{paper_out} differs from {backtest_out}")

    best = json.loads((WORKDIR / "tuned" / "best_params.json").read_text())
    print(f"\ndemo complete under {WORKDIR}")
    print(f"tuned EMA periods: {best}")


if __name__ == "__main__":
    pipeline()
