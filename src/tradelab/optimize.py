"""Strategy optimization: exhaustive parameter tuning and evolved networks.

Both paths share one objective: the backtest score (net profit penalized by
drawdown) on a training series. ``tune_parameters`` walks a finite parameter
grid; ``evolve_strategy`` evolves network genomes whose inputs are normalized
indicator values and whose three outputs vote open/close/hold per bar.
"""

from __future__ import annotations

import itertools
import logging
import math
from dataclasses import dataclass

from .backtest import CostModel, run_backtest
from .data import CandleSeries
from .errors import ValidationError
from .indicators import IndicatorSpec, compute, spec_lines
from .neat import Evolution, EvolutionConfig, GenerationStats, Genome
from .strategy import (
    EmaCrossParams,
    GridParams,
    InputMatrix,
    NeatParams,
    PairsParams,
    StrategyConfig,
    StrategyKind,
    normalize_row,
)

logger = logging.getLogger(__name__)


class EmptySearchSpace(ValidationError):
    """The tuning grid contains no candidates."""


_PARAM_TYPES = {
    StrategyKind.EMA_CROSS: EmaCrossParams,
    StrategyKind.GRID: GridParams,
    StrategyKind.PAIRS: PairsParams,
}


def make_config(kind: StrategyKind, symbol: str, params: dict,
                size: float = 1.0, stops=None) -> StrategyConfig:
    """Build a StrategyConfig for a tunable kind from a plain parameter dict."""
    if kind not in _PARAM_TYPES:
        raise ValidationError(f"kind {kind.value} is not grid-tunable")
    return StrategyConfig(symbol=symbol, params=_PARAM_TYPES[kind](**params),
                          size=size, stops=stops)


def expand_grid(search_space) -> list[dict]:
    """Normalize a search space into explicit candidate dicts.

    Accepts either a list of candidate dicts or a mapping of parameter name
    to a list of values (full cartesian product, insertion order preserved).
    """
    if isinstance(search_space, dict):
        names = list(search_space)
        value_lists = [list(search_space[n]) for n in names]
        if not names or any(not vals for vals in value_lists):
            return []
        return [dict(zip(names, combo)) for combo in itertools.product(*value_lists)]
    return [dict(c) for c in search_space]


@dataclass(frozen=True)
class LeaderboardEntry:
    params: dict
    score: float
    net_profit_pct: float
    max_drawdown_pct: float
    trade_count: int


def tune_parameters(kind: StrategyKind, search_space, train: CandleSeries, *,
                    symbol: str | None = None,
                    initial_cash: float = 10_000.0,
                    costs: CostModel | None = None,
                    stops=None,
                    drawdown_lambda: float = 0.5,
                    aux_series: dict[str, CandleSeries] | None = None,
                    ) -> tuple[dict, list[LeaderboardEntry]]:
    """Score every candidate parameter set by backtest and return the best.

    The leaderboard keeps every evaluated candidate, ordered by descending
    score (ties keep candidate order), so the returned best parameters are
    exactly the argmax of the leaderboard.
    """
    candidates = expand_grid(search_space)
    if not candidates:
        raise EmptySearchSpace("no candidates to evaluate")
    symbol = symbol or train.symbol
    entries = []
    for params in candidates:
        config = make_config(kind, symbol, params, stops=stops)
        report = run_backtest(config, train, initial_cash, costs,
                              aux_series=aux_series, drawdown_lambda=drawdown_lambda)
        entries.append(
            LeaderboardEntry(params=params, score=report.score,
                             net_profit_pct=report.metrics.net_profit_pct,
                             max_drawdown_pct=report.metrics.max_drawdown_pct,
                             trade_count=report.metrics.trade_count)
        )
    leaderboard = sorted(range(len(entries)), key=lambda i: (-entries[i].score, i))
    ordered = [entries[i] for i in leaderboard]
    return dict(ordered[0].params), ordered


# ---------------------------------------------------------------------------
# Neuroevolution over indicator inputs
# ---------------------------------------------------------------------------

def _input_columns(train: CandleSeries, input_specs) -> list[list[float | None]]:
    """Each indicator input over the series, one column per output line."""
    columns = []
    for spec in input_specs:
        outputs = compute(spec, train)
        if len(spec_lines(spec)) == 1:
            outputs = (outputs,)
        columns.extend(out.values for out in outputs)
    return columns


def _fit_normalization(columns) -> tuple[tuple[float, float], ...]:
    stats = []
    for values in columns:
        defined = [v for v in values if v is not None]  # never empty: compute checks
        mean = sum(defined) / len(defined)
        var = sum((v - mean) ** 2 for v in defined) / len(defined)
        stats.append((mean, math.sqrt(var)))
    return tuple(stats)


def input_normalization(train: CandleSeries, input_specs: list[IndicatorSpec]
                        ) -> tuple[tuple[float, float], ...]:
    """Fit per-column (mean, std) over the defined indicator values of the
    training window; multi-line indicators expand to one column per line."""
    return _fit_normalization(_input_columns(train, input_specs))


def network_strategy(genome: Genome, symbol: str, input_specs,
                     norm: tuple[tuple[float, float], ...],
                     size: float = 1.0, stops=None,
                     inputs: InputMatrix | None = None) -> StrategyConfig:
    """Wrap an evolved genome as a runnable strategy config. ``inputs``, the
    normalized rows of the series it will run on, saves it from streaming
    its indicators."""
    return StrategyConfig(
        symbol=symbol,
        params=NeatParams(genome=genome, input_specs=tuple(input_specs), norm=norm,
                          inputs=inputs),
        size=size,
        stops=stops,
    )


def evolve_strategy(train: CandleSeries, input_specs: list[IndicatorSpec],
                    config: EvolutionConfig, *,
                    initial_cash: float = 10_000.0,
                    costs: CostModel | None = None,
                    drawdown_lambda: float = 0.5,
                    ) -> tuple[Genome, list[GenerationStats], tuple[tuple[float, float], ...]]:
    """Evolve a trading network on a training series.

    Fitness of a genome is the backtest score of the strategy that feeds the
    normalized indicator columns through the network each bar. The columns
    and their normalized rows are computed once per run; each genome's
    backtest evaluates all rows in one batched pass, with the same float
    operations as a streamed backtest of the returned genome. Returns the
    best genome ever seen, the per-generation fitness history, and the
    normalization constants needed to redeploy the genome.
    """
    if not input_specs:
        raise ValidationError("need at least one indicator input")
    columns = _input_columns(train, input_specs)
    norm = _fit_normalization(columns)
    rows = tuple(None if None in raw else tuple(normalize_row(raw, norm))
                 for raw in zip(*columns))
    inputs = InputMatrix(train.candles, rows)
    n_inputs = len(norm)
    costs = costs or CostModel()

    def fitness(genome: Genome) -> float:
        strategy = network_strategy(genome, train.symbol, input_specs, norm, inputs=inputs)
        report = run_backtest(strategy, train, initial_cash, costs,
                              drawdown_lambda=drawdown_lambda)
        return report.score

    evolution = Evolution(n_inputs, 3, config)
    best, history = evolution.run(fitness, config.max_generations)
    logger.info("evolved %d generations; best score %.4f", len(history) - 1,
                best.fitness if best.fitness is not None else float("nan"))
    return best, history, norm
