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
from .config import read_params
from .data import CandleSeries
from .errors import ValidationError
from .indicators import IndicatorSpec, PeriodExceedsSeries
from .neat import Evolution, EvolutionConfig, GenerationStats, Genome
from .strategy import NeatParams, StrategyConfig, StrategyKind, series_lines

logger = logging.getLogger(__name__)


class EmptySearchSpace(ValidationError):
    """The tuning grid contains no candidates."""


def make_config(kind: StrategyKind, symbol: str, params: dict,
                size: float = 1.0, stops=None) -> StrategyConfig:
    """Build a StrategyConfig for a tunable kind from a parameter dict read
    like a config's ``strategy.params``."""
    if kind is StrategyKind.NEAT or kind is StrategyKind.NULL:
        raise ValidationError(f"kind {kind.value} is not grid-tunable")
    return StrategyConfig(symbol=symbol, params=read_params(kind, params),
                          size=size, stops=stops)


def expand_grid(search_space) -> list[dict]:
    """Normalize a search space into explicit candidate dicts.

    Accepts either a list of candidate dicts or a mapping of parameter name
    to a list of values (full cartesian product, insertion order preserved).
    """
    if isinstance(search_space, dict) and all(isinstance(v, list) for v in search_space.values()):
        combos = itertools.product(*search_space.values()) if search_space else ()
        return [dict(zip(search_space, combo)) for combo in combos]
    if isinstance(search_space, list) and all(isinstance(c, dict) for c in search_space):
        return [dict(c) for c in search_space]
    raise ValidationError("a tune grid must be an object of lists or a list of objects, "
                          f"got {search_space!r}")


@dataclass(frozen=True)
class LeaderboardEntry:
    params: dict
    score: float
    net_profit_pct: float
    max_drawdown_pct: float
    trade_count: int


def tune_parameters(kind: StrategyKind, search_space, train: CandleSeries, *,
                    initial_cash: float = 10_000.0,
                    costs: CostModel | None = None,
                    size: float = 1.0,
                    stops=None,
                    drawdown_lambda: float = 0.5,
                    aux: CandleSeries | None = None,
                    ) -> tuple[dict, list[LeaderboardEntry]]:
    """Score every candidate parameter set by backtest and return the best.
    Each candidate trades with the given position ``size`` and ``stops``.

    The leaderboard keeps every evaluated candidate, ordered by descending
    score (ties keep candidate order), so the returned best parameters are
    exactly the argmax of the leaderboard. Every candidate's backtest reads
    the indicator columns of ``train``, so each distinct indicator (an EMA
    period, the stop ATR) is computed once; each has the same float
    operations as a streamed backtest of its config.
    """
    candidates = expand_grid(search_space)
    if not candidates:
        raise EmptySearchSpace("no candidates to evaluate")
    configs = [make_config(kind, train.symbol, params, size, stops)
               for params in candidates]  # a bad candidate fails before any backtest
    entries = []
    for params, config in zip(candidates, configs):
        report = run_backtest(config, train, initial_cash, costs,
                              aux=aux, drawdown_lambda=drawdown_lambda)
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

def input_normalization(train: CandleSeries, input_specs: list[IndicatorSpec]
                        ) -> tuple[tuple[float, float], ...]:
    """Fit per-column (mean, std) over the defined indicator values of the
    training window; multi-line indicators expand to one column per line.
    An input line that never warms up raises PeriodExceedsSeries."""
    stats = []
    for spec in input_specs:
        for values in series_lines(train, spec):
            defined = [v for v in values if v is not None]
            if not defined:
                raise PeriodExceedsSeries(f"{spec.label()}: needs more than {len(train)} bars")
            mean = sum(defined) / len(defined)
            var = sum((v - mean) ** 2 for v in defined) / len(defined)
            stats.append((mean, math.sqrt(var)))
    return tuple(stats)


def network_strategy(genome: Genome, symbol: str, input_specs,
                     norm: tuple[tuple[float, float], ...],
                     size: float = 1.0, stops=None) -> StrategyConfig:
    """Wrap an evolved genome as a runnable strategy config."""
    return StrategyConfig(
        symbol=symbol,
        params=NeatParams(genome=genome, input_specs=tuple(input_specs), norm=norm),
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
    and their normalized input columns belong to ``train`` and are computed
    once; each genome's backtest evaluates them in one column-wise pass and
    gives the same bits as a streamed backtest of the returned genome.
    Returns the best genome ever seen, the per-generation fitness history,
    and the normalization constants needed to redeploy the genome.
    """
    if not input_specs:
        raise ValidationError("need at least one indicator input")
    norm = input_normalization(train, input_specs)
    n_inputs = len(norm)
    costs = costs or CostModel()

    def fitness(genome: Genome) -> float:
        strategy = network_strategy(genome, train.symbol, input_specs, norm)
        report = run_backtest(strategy, train, initial_cash, costs,
                              drawdown_lambda=drawdown_lambda)
        return report.score

    evolution = Evolution(n_inputs, 3, config)
    best, history = evolution.run(fitness, config.max_generations)
    logger.info("evolved %d generations; best score %.4f", len(history) - 1,
                best.fitness if best.fitness is not None else float("nan"))
    return best, history, norm
