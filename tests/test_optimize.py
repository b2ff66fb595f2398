import pytest

from helpers import random_series, streamed_backtest, trending_fixture
from tradelab.backtest import CostModel, run_backtest
from tradelab.data import CandleSeries
from tradelab.errors import ValidationError
from tradelab.indicators import IndicatorSpec, PeriodExceedsSeries, indicator_lines, make_stream
from tradelab.neat import EvolutionConfig, NodeKind
from tradelab.optimize import (
    EmptySearchSpace,
    evolve_strategy,
    expand_grid,
    input_normalization,
    make_config,
    network_strategy,
    tune_parameters,
)
from tradelab.strategy import (
    StopSettings,
    StrategyKind,
    StrategyStateError,
    network_inputs,
    new_state,
    normalize_row,
)

EMA_GRID = [{"p_short": 9, "p_long": 21}, {"p_short": 9, "p_long": 30},
            {"p_short": 20, "p_long": 30}, {"p_short": 20, "p_long": 50}]


def test_expand_grid_product_and_list():
    assert expand_grid(EMA_GRID) == EMA_GRID
    grid = expand_grid({"a": [1, 2], "b": [3]})
    assert grid == [{"a": 1, "b": 3}, {"a": 2, "b": 3}]


@pytest.mark.parametrize("grid", [5, "abc", [1, 2], {"p_short": 5}, {"p_short": "abc"},
                                  [{"p_short": 9}, [9]], None])
def test_expand_grid_rejects_other_shapes(grid):
    with pytest.raises(ValidationError, match="tune grid"):
        expand_grid(grid)


@pytest.mark.parametrize("bad", [{"p_short": "3", "p_long": 20}, {"p_short": 3, "foo": 1},
                                 {"p_short": 3.5, "p_long": 20}, {"p_short": 30, "p_long": 20}])
def test_tune_reads_every_candidate_before_any_backtest(monkeypatch, bad):
    calls = []
    monkeypatch.setattr("tradelab.optimize.run_backtest", lambda *a, **k: calls.append(a))
    with pytest.raises(ValidationError):
        tune_parameters(StrategyKind.EMA_CROSS, [{"p_short": 3, "p_long": 20}, bad],
                        trending_fixture())
    assert calls == []


def test_singleton_search_space_returns_that_candidate():
    series = trending_fixture()
    best, leaderboard = tune_parameters(StrategyKind.EMA_CROSS,
                                        [{"p_short": 9, "p_long": 21}], series)
    assert best == {"p_short": 9, "p_long": 21}
    assert len(leaderboard) == 1


def test_empty_search_space():
    with pytest.raises(EmptySearchSpace):
        tune_parameters(StrategyKind.EMA_CROSS, [], trending_fixture())
    with pytest.raises(EmptySearchSpace):
        tune_parameters(StrategyKind.EMA_CROSS, {"p_short": []}, trending_fixture())


def test_best_is_argmax_of_leaderboard():
    series = random_series(60, n=400, vol=0.02)
    grid = {"p_short": [5, 8, 12], "p_long": [20, 34]}
    best, leaderboard = tune_parameters(StrategyKind.EMA_CROSS, grid, series)
    assert len(leaderboard) == 6
    assert best == leaderboard[0].params
    assert leaderboard[0].score == max(e.score for e in leaderboard)
    # every leaderboard entry reproducible by a direct backtest
    probe = leaderboard[3]
    config = make_config(StrategyKind.EMA_CROSS, series.symbol, probe.params)
    report = run_backtest(config, series, 10_000.0, CostModel())
    assert report.score == probe.score


def test_fixture_grid_reproduces_parameter_optimization_progression():
    series = trending_fixture()
    best, leaderboard = tune_parameters(StrategyKind.EMA_CROSS, EMA_GRID, series,
                                        costs=CostModel())
    assert best == {"p_short": 20, "p_long": 50}
    by_params = {tuple(sorted(e.params.items())): e.score for e in leaderboard}
    ordered = [by_params[tuple(sorted(p.items()))] for p in EMA_GRID]
    assert ordered == sorted(ordered), "wider periods should score progressively better"


STOPS = StopSettings(atr_period=14, stop_mult=2.0, profit_mult=4.0)
BENCH_GRID = {"p_short": list(range(3, 13)), "p_long": list(range(15, 61, 5))}


def recorded_tune_backtests(monkeypatch, *args, **kwargs):
    """Run tune_parameters and return its leaderboard plus (config, report)
    for every candidate backtest."""
    calls = []

    def recording(config, *a, **kw):
        report = run_backtest(config, *a, **kw)
        calls.append((config, report))
        return report

    monkeypatch.setattr("tradelab.optimize.run_backtest", recording)
    best, leaderboard = tune_parameters(*args, **kwargs)
    return leaderboard, calls


@pytest.mark.parametrize("n,grid,stops", [
    (400, {"p_short": [3, 5, 8], "p_long": [12, 20, 34]}, None),
    (400, {"p_short": [3, 5, 8], "p_long": [12, 20, 34]}, STOPS),
    # shorter than one p_long and than the stop ATR: those columns never warm up
    (40, {"p_short": [3, 10], "p_long": [20, 60]}, StopSettings(atr_period=50)),
])
def test_tune_entries_equal_streamed_backtests(monkeypatch, n, grid, stops):
    series = random_series(33, n=n, vol=0.02)
    costs = CostModel(fee_bps=10.0, slippage_bps=5.0)
    leaderboard, calls = recorded_tune_backtests(
        monkeypatch, StrategyKind.EMA_CROSS, grid, series, costs=costs, stops=stops)
    assert len(calls) == len(leaderboard) == len(expand_grid(grid))
    # every candidate read the series' columns: one per EMA period, plus the stop ATR
    read = {IndicatorSpec("ema", {"p": p}) for p in grid["p_short"] + grid["p_long"]}
    if stops is not None:
        read.add(IndicatorSpec("atr", {"p": stops.atr_period}))
    assert set(series.column_memo) == read
    entries = {tuple(e.params.items()): e for e in leaderboard}
    for config, report in calls:
        params = {"p_short": config.params.p_short, "p_long": config.params.p_long}
        streamed = streamed_backtest(make_config(StrategyKind.EMA_CROSS, series.symbol, params,
                                                 stops=stops),
                                     series, 10_000.0, costs)
        assert streamed.score == report.score
        assert streamed.metrics == report.metrics
        assert streamed.fills == report.fills
        entry = entries[tuple(params.items())]
        assert (entry.score, entry.net_profit_pct, entry.max_drawdown_pct, entry.trade_count) == \
            (streamed.score, streamed.metrics.net_profit_pct,
             streamed.metrics.max_drawdown_pct, streamed.metrics.trade_count)
    if n > 60:
        assert sum(len(report.fills) for _, report in calls) > 0
    else:
        cold = [e for e in leaderboard if e.params["p_long"] == 60]
        assert cold and all(e.score == 0.0 and e.trade_count == 0 for e in cold)


@pytest.mark.parametrize("grid,fills", [
    ({"p_short": [3, 5], "p_long": [15, 20]}, 5),
    (BENCH_GRID, 21),  # 20 distinct EMA periods and the stop ATR
])
def test_tune_fills_each_indicator_once_per_run(monkeypatch, grid, fills):
    built = []

    def counting_make_stream(spec):
        built.append(spec)
        return make_stream(spec)

    def no_stream(*args, **kwargs):
        raise AssertionError("a candidate built its own indicator stream")

    monkeypatch.setattr("tradelab.indicators.make_stream", counting_make_stream)
    monkeypatch.setattr("tradelab.strategy.make_stream", no_stream)
    monkeypatch.setattr("tradelab.strategy.EmaCrossStream", no_stream)
    tune_parameters(StrategyKind.EMA_CROSS, grid, random_series(5, n=200), stops=STOPS)
    assert len(built) == fills
    assert len(set(built)) == fills


INPUTS = [IndicatorSpec("rsi", {"p": 5}), IndicatorSpec("ema", {"p": 4})]
TINY = EvolutionConfig(population_size=8, max_generations=2, seed=0)


def test_input_normalization_shapes_and_stats():
    series = random_series(2, n=120)
    norm = input_normalization(series, INPUTS + [IndicatorSpec("macd", {"fast": 3, "slow": 6, "signal": 3})])
    assert len(norm) == 5  # rsi + ema + three macd lines
    for mean, std in norm:
        assert std >= 0.0


def test_evolve_zero_generations_returns_initial_best():
    series = random_series(14, n=160, vol=0.02)
    config = EvolutionConfig(population_size=6, max_generations=0, seed=3)
    best, history, norm = evolve_strategy(series, INPUTS, config)
    assert len(history) == 1
    assert history[0].generation == 0
    assert best.fitness == history[0].best_fitness


def test_evolved_genome_is_runnable_strategy():
    series = random_series(14, n=160, vol=0.02)
    best, history, norm = evolve_strategy(series, INPUTS, TINY)
    strategy = network_strategy(best, series.symbol, INPUTS, norm)
    report = run_backtest(strategy, series, 10_000.0, CostModel())
    assert report.score == pytest.approx(best.fitness, abs=1e-12)


def test_evolve_seeded_determinism():
    series = random_series(14, n=160, vol=0.02)
    a = evolve_strategy(series, INPUTS, TINY)
    b = evolve_strategy(series, INPUTS, TINY)
    assert a[1] == b[1]  # bit-identical history
    assert [(c.innovation, c.weight) for c in a[0].connections] == \
           [(c.innovation, c.weight) for c in b[0].connections]
    assert a[2] == b[2]


def test_evolve_with_multiline_indicator_inputs():
    # macd expands to three network inputs; the evolved genome must run
    series = random_series(15, n=200, vol=0.02)
    inputs = [IndicatorSpec("macd", {"fast": 5, "slow": 12, "signal": 4}),
              IndicatorSpec("rsi", {"p": 7})]
    best, history, norm = evolve_strategy(series, inputs, TINY)
    assert len(norm) == 4
    strategy = network_strategy(best, series.symbol, inputs, norm)
    report = run_backtest(strategy, series, 10_000.0, CostModel())
    assert report.score == pytest.approx(best.fitness, abs=1e-12)


MIXED_INPUTS = [IndicatorSpec("macd", {"fast": 5, "slow": 12, "signal": 4}),
                IndicatorSpec("rsi", {"p": 7}), IndicatorSpec("atr", {"p": 5})]
BREEDING = EvolutionConfig(population_size=12, max_generations=2, add_node_rate=0.3,
                           add_connection_rate=0.3, seed=4)


def recorded_fitness_backtests(monkeypatch, series, costs):
    """Run evolve_strategy and return (strategy, report) for every fitness backtest."""
    calls = []

    def recording(strategy, *args, **kwargs):
        report = run_backtest(strategy, *args, **kwargs)
        calls.append((strategy, report))
        return report

    monkeypatch.setattr("tradelab.optimize.run_backtest", recording)
    best, history, norm = evolve_strategy(series, MIXED_INPUTS, BREEDING, costs=costs)
    return calls, norm


def test_evolve_fitness_equals_streamed_backtest(monkeypatch):
    series = random_series(21, n=300, vol=0.02)
    costs = CostModel(fee_bps=10.0, slippage_bps=5.0)
    calls, norm = recorded_fitness_backtests(monkeypatch, series, costs)
    assert len(calls) >= 20
    assert any(len(s.params.genome.ids_of(NodeKind.HIDDEN)) for s, _ in calls)
    assert sum(len(report.fills) for _, report in calls) > 0
    assert (tuple(MIXED_INPUTS), norm) in series.column_memo  # genomes read the input columns
    for evolved, report in calls:
        genome = evolved.params.genome
        streamed = streamed_backtest(network_strategy(genome, series.symbol, MIXED_INPUTS, norm),
                                     series, 10_000.0, costs)
        assert streamed.score == report.score == genome.fitness
        assert streamed.fills == report.fills


def test_precomputed_rows_equal_streamed_inputs(monkeypatch):
    series = random_series(21, n=300, vol=0.02)
    calls, norm = recorded_fitness_backtests(monkeypatch, series, CostModel())
    key = (tuple(MIXED_INPUTS), norm)
    assert key in series.column_memo  # the input columns the fitness backtests read
    inputs = network_inputs(series, MIXED_INPUTS, norm)
    assert inputs is series.column_memo[key]
    start, columns = inputs
    assert len(columns) == len(norm)
    assert all(len(column) == len(series) - start for column in columns)
    streams = [make_stream(spec) for spec in MIXED_INPUTS]
    for bar, candle in enumerate(series.candles):
        raw = []
        for stream in streams:
            out = stream.push(candle)
            raw.extend(out if isinstance(out, tuple) else (out,))
        if bar < start:
            assert None in raw
        else:
            row = [column[bar - start] for column in columns]  # bar's row of the columns
            assert row == normalize_row(raw, norm)
    assert 0 < start < len(series)


@pytest.mark.parametrize("population", [4, 10])
def test_evolve_computes_each_input_once_per_run(monkeypatch, population):
    computed = []

    def counting_lines(spec, series):
        computed.append(spec.name)
        return indicator_lines(spec, series)

    def no_streams(spec):
        raise AssertionError(f"evolve streamed {spec.name} outside the series' columns")

    monkeypatch.setattr("tradelab.strategy.indicator_lines", counting_lines)
    monkeypatch.setattr("tradelab.strategy.make_stream", no_streams)
    config = EvolutionConfig(population_size=population, max_generations=1, seed=2)
    evolve_strategy(random_series(8, n=200), MIXED_INPUTS, config)
    assert computed == ["macd", "rsi", "atr"]


def test_precomputed_inputs_run_only_on_their_series(monkeypatch):
    series = random_series(21, n=300, vol=0.02)
    calls, _ = recorded_fitness_backtests(monkeypatch, series, CostModel())
    evolved = calls[0][0]
    # the same timestamps with other prices, and the same candles with more after them
    longer = CandleSeries(series.symbol, series.interval,
                          series.candles + random_series(21, n=310).candles[300:])
    for other in (random_series(22, n=300, vol=0.02), longer):
        with pytest.raises(StrategyStateError, match="precomputed inputs"):
            run_backtest(new_state(evolved, series), other, 10_000.0, CostModel())


def test_evolve_input_that_never_warms_up_is_an_error():
    with pytest.raises(PeriodExceedsSeries, match="needs more than 200 bars"):
        evolve_strategy(random_series(8, n=200), [IndicatorSpec("ema", {"p": 4}),
                                                  IndicatorSpec("rsi", {"p": 500})], TINY)
