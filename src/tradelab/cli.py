"""Command-line entry point.

Subcommands mirror the service split: ``ingest`` (data), ``indicator``
(analysis columns), ``backtest`` (validation), ``optimize`` (tuning /
evolution), ``report`` (plot-ready extracts). The CLI only sequences library
calls and file IO; given the same config, data and seed, every output file
is byte-identical across runs.

Exit codes: 0 success, 1 validation error (bad input/config), 2 runtime error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from pathlib import Path

from . import data as data_mod
from .backtest import BacktestReport, run_backtest
from .config import (OptimizeSection, RunConfig, load_config, parse_indicator_spec,
                     write_network_artifact)
from .errors import TradeLabError, ValidationError
from .indicators import IndicatorSpec, compute, spec_lines
from .optimize import evolve_strategy, tune_parameters
from .strategy import EmaCrossParams, NeatParams, StrategyKind

JSON_KW = {"sort_keys": True, "indent": 2}


class MissingReport(ValidationError):
    """The report file to post-process does not exist."""


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_rows(path: Path, header: list[str], rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) if v is not None else "" for v in row))
    path.write_text("\n".join(lines) + "\n")
    print(f"wrote {path}")


def _write_indicators(path: Path, specs: list[IndicatorSpec],
                      series: data_mod.CandleSeries) -> None:
    """One timestamp column plus one column per indicator output line."""
    header = ["timestamp"]
    columns = []
    for spec in specs:
        outputs = compute(spec, series)
        lines = spec_lines(spec)
        if len(lines) == 1:
            outputs = (outputs,)
        for line, out in zip(lines, outputs):
            header.append(spec.label() if not line else f"{spec.label()}_{line}")
            columns.append(out.values)
    _write_rows(path, header, ([ts] + [col[i] for col in columns]
                               for i, ts in enumerate(series.timestamps)))


def _out_dir(args, config: RunConfig | None = None) -> Path:
    out = args.out or (config.out_dir if config else "out")
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _load_series(config: RunConfig, symbol: str | None = None):
    """The configured symbol's series (or ``symbol``'s), windowed by the data section."""
    series = data_mod.load_warehouse(config.data.warehouse, symbol or config.data.symbol,
                                     config.data.interval, allow_gaps=config.data.allow_gaps)
    if config.data.from_ts is not None or config.data.to_ts is not None:
        lo = config.data.from_ts if config.data.from_ts is not None else series.candles[0].ts
        hi = config.data.to_ts if config.data.to_ts is not None else series.candles[-1].ts
        series = data_mod.slice_window(series, lo, hi)
    return series


def _second_leg(config: RunConfig):
    """A pairs config's second leg, loaded like its first; ``None`` otherwise."""
    if config.strategy is not None and config.strategy.kind is StrategyKind.PAIRS:
        return _load_series(config, config.strategy.params.symbol_b)
    return None


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_ingest(args) -> int:
    meta = data_mod.ingest(args.csv, args.warehouse, args.symbol, args.interval,
                           allow_gaps=args.allow_gaps, source=args.source or str(args.csv))
    print(f"ingested {meta.bar_count} bars of {meta.symbol}@{meta.interval}s "
          f"({meta.first_ts}..{meta.last_ts}) into {args.warehouse}")
    return 0


def cmd_indicator(args) -> int:
    config = load_config(args.config)
    series = _load_series(config)
    specs = [parse_indicator_spec(s) for s in args.indicator]
    if not specs:
        raise ValidationError("no indicators requested (use --indicator name:p=14)")
    _write_indicators(_out_dir(args, config) / "indicators.csv", specs, series)
    return 0


def report_to_dict(report: BacktestReport) -> dict:
    return {
        "symbol": report.symbol,
        "interval": report.interval,
        "bars": report.bars,
        "initial_cash": report.initial_cash,
        "final_equity": report.final_equity,
        "forced_close": report.forced_close,
        "interrupted": report.interrupted,
        "score": report.score,
        "drawdown_lambda": report.drawdown_lambda,
        "metrics": asdict(report.metrics),
        "trades": [asdict(t) for t in report.trades],
    }


def write_report_files(report: BacktestReport, out: Path) -> None:
    report_path = out / "report.json"
    report_path.write_text(json.dumps(report_to_dict(report), **JSON_KW) + "\n")
    print(f"wrote {report_path}")
    _write_rows(out / "equity.csv", ["timestamp", "equity"],
                zip(report.timestamps, report.equity))
    _write_rows(
        out / "signals.csv",
        ["bar", "timestamp", "side", "price", "quantity", "reason"],
        ([f.bar, report.timestamps[f.bar], f.side.value, f.price, f.quantity, f.reason]
         for f in report.fills),
    )


def cmd_backtest(args) -> int:
    config = load_config(args.config)
    if config.strategy is None:
        raise ValidationError("config has no strategy section")
    series = _load_series(config)
    aux = _second_leg(config)
    # tune's lambda (0.5 without an optimize section): tune's top score is backtest's
    drawdown_lambda = (config.optimize or OptimizeSection).drawdown_lambda
    if args.paper:
        # route execution through the bundled simulator instead of the
        # backtester's internal accounting; reports share one shape
        from .broker import SimulatedBroker, paper_trade_loop

        feeds = {leg.symbol: leg for leg in (series, aux) if leg is not None}
        endpoint = SimulatedBroker(feeds, config.costs.initial_cash, config.costs,
                                   allow_short=aux is not None)
        report = paper_trade_loop(config.strategy, series, endpoint, costs=config.costs,
                                  aux=aux, drawdown_lambda=drawdown_lambda)
    else:
        report = run_backtest(config.strategy, series, config.costs.initial_cash,
                              config.costs, aux=aux, drawdown_lambda=drawdown_lambda)
    write_report_files(report, _out_dir(args, config))
    m = report.metrics
    print(f"net profit {m.net_profit_pct:.4f}%  max drawdown {m.max_drawdown_pct:.4f}%  "
          f"win rate {m.win_rate:.3f}  trades {m.trade_count}  score {report.score:.4f}")
    return 0


def cmd_optimize(args) -> int:
    config = load_config(args.config, seed=args.seed)
    if config.optimize is None:
        raise ValidationError("config has no optimize section")
    mode = args.mode or config.optimize.mode
    series = _load_series(config)
    out = _out_dir(args, config)
    if mode == "tune":
        if config.strategy is None:
            raise ValidationError("tune mode needs a strategy section for the kind")
        if config.optimize.grid is None:
            raise ValidationError("tune mode needs an optimize.grid")
        best, leaderboard = tune_parameters(
            config.strategy.kind, config.optimize.grid, series,
            initial_cash=config.costs.initial_cash, costs=config.costs,
            size=config.strategy.size, stops=config.strategy.stops,
            drawdown_lambda=config.optimize.drawdown_lambda,
            aux=_second_leg(config),
        )
        param_names = sorted({k for e in leaderboard for k in e.params})
        _write_rows(
            out / "leaderboard.csv",
            ["rank"] + param_names + ["score", "net_profit_pct", "max_drawdown_pct", "trade_count"],
            ([rank] + [e.params.get(k) for k in param_names]
             + [e.score, e.net_profit_pct, e.max_drawdown_pct, e.trade_count]
             for rank, e in enumerate(leaderboard, start=1)),
        )
        best_path = out / "best_params.json"
        best_path.write_text(json.dumps(best, **JSON_KW) + "\n")
        print(f"wrote {best_path}")
        print(f"best params: {best} (score {leaderboard[0].score:.4f})")
    else:
        if not config.optimize.inputs:
            raise ValidationError("evolve mode needs optimize.inputs indicator specs")
        best, history, norm = evolve_strategy(
            series, list(config.optimize.inputs), config.optimize.evolution,
            initial_cash=config.costs.initial_cash, costs=config.costs,
            drawdown_lambda=config.optimize.drawdown_lambda,
        )
        _write_rows(out / "fitness_history.csv",
                    ["generation", "best_fitness", "mean_fitness"],
                    ([h.generation, h.best_fitness, h.mean_fitness] for h in history))
        genome_path, artifact_path = out / "best_genome.txt", out / "best_strategy.json"
        write_network_artifact(artifact_path, NeatParams(best, config.optimize.inputs, norm),
                               genome_path.name)
        print(f"wrote {genome_path}")
        print(f"wrote {artifact_path}")
        print(f"best fitness {best.fitness:.4f} over {len(history)} generations")
    return 0


def cmd_report(args) -> int:
    config = load_config(args.config)
    report_path = Path(args.report)
    if not report_path.exists():
        raise MissingReport(f"no report at {report_path}")
    try:
        report = json.loads(report_path.read_text())
    except (OSError, ValueError) as exc:
        raise ValidationError(f"cannot read report {report_path}: {exc}") from exc
    series = _load_series(config)
    ts_by_bar = series.timestamps
    markers = []
    try:
        for t in report.get("trades", []):
            for kind, buy in (("entry", t["is_long"]), ("exit", not t["is_long"])):
                bar = t[kind + "_bar"]
                if type(bar) is not int or not 0 <= bar < len(ts_by_bar):
                    raise IndexError(f"{kind}_bar {bar!r} is not a bar of the series")
                markers.append([kind, bar, ts_by_bar[bar], t[kind + "_price"], t["quantity"],
                                "buy" if buy else "sell"])
    except KeyError as exc:
        raise ValidationError(f"report {report_path}: a trade has no {exc} field") from exc
    except (AttributeError, TypeError, IndexError) as exc:
        raise ValidationError(f"report {report_path} is malformed: {exc}") from exc
    out = _out_dir(args, config)

    candles_path = out / "candles.csv"
    data_mod.write_csv(series, candles_path)
    print(f"wrote {candles_path}")

    specs = [parse_indicator_spec(s) for s in args.indicator]
    if not specs and isinstance(config.strategy.params if config.strategy else None, EmaCrossParams):
        p = config.strategy.params
        specs = [IndicatorSpec("ema", {"p": p.p_short}), IndicatorSpec("ema", {"p": p.p_long})]
    _write_indicators(out / "overlays.csv", specs, series)

    _write_rows(out / "markers.csv",
                ["type", "bar", "timestamp", "price", "quantity", "side"], markers)
    return 0


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="tradelab",
                                     description="Heuristic trading strategy lab")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="validate a candle CSV into the warehouse")
    p.add_argument("--csv", required=True)
    p.add_argument("--symbol", required=True)
    p.add_argument("--interval", type=int, required=True)
    p.add_argument("--warehouse", required=True)
    p.add_argument("--allow-gaps", action="store_true")
    p.add_argument("--source", default=None)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("indicator", help="write indicator columns for a series")
    p.add_argument("--config", required=True)
    p.add_argument("--indicator", action="append", default=[],
                   help="spec like ema:p=9 or macd:fast=12,slow=26,signal=9 (repeatable)")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_indicator)

    p = sub.add_parser("backtest", help="run and score a strategy on warehoused data")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--paper", action="store_true",
                   help="replay through the bundled simulated broker")
    p.set_defaults(func=cmd_backtest)

    p = sub.add_parser("optimize", help="tune parameters or evolve a network strategy")
    p.add_argument("--config", required=True)
    p.add_argument("--mode", choices=("tune", "evolve"), default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("report", help="emit plot-ready CSVs for a backtest report")
    p.add_argument("--config", required=True)
    p.add_argument("--report", required=True)
    p.add_argument("--indicator", action="append", default=[])
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except TradeLabError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
