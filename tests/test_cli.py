import hashlib
import importlib.util
import json
import math
import re
from pathlib import Path

import pytest

from helpers import FIXTURES, random_genome, random_series
from tradelab.cli import main
from tradelab.config import (
    ConfigError,
    load_config,
    load_network_artifact,
    parse_indicator_spec,
    write_network_artifact,
)
from tradelab.data import ingest, write_csv
from tradelab.strategy import NeatParams, StrategyKind

ROOT = Path(__file__).resolve().parent.parent


def sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def setup_warehouse(tmp_path):
    wh = tmp_path / "wh"
    ingest(FIXTURES / "trending.csv", wh, "TRENDY", 3600, source="fixture")
    return wh


def write_config(tmp_path, wh, strategy=None, optimize=None, seed=0, costs=None):
    cfg = {
        "seed": seed,
        "out_dir": str(tmp_path / "out"),
        "data": {"warehouse": str(wh), "symbol": "TRENDY", "interval": 3600},
        "costs": costs or {"fee_bps": 10.0, "slippage_bps": 5.0, "initial_cash": 10000.0},
    }
    if strategy is not None:
        cfg["strategy"] = strategy
    if optimize is not None:
        cfg["optimize"] = optimize
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg, indent=1))
    return path


EMA_STRATEGY = {"kind": "ema_cross", "params": {"p_short": 9, "p_long": 21}}


# ---------------------------------------------------------------------------
# Config loading
# ---------------------------------------------------------------------------

def test_parse_indicator_spec_strings():
    spec = parse_indicator_spec("macd:fast=12,slow=26,signal=9")
    assert spec.name == "macd"
    assert spec.params == {"fast": 12, "slow": 26, "signal": 9}
    assert parse_indicator_spec("bollinger:p=20,k=2.5").params["k"] == 2.5
    with pytest.raises(ConfigError):
        parse_indicator_spec("sma:p")
    with pytest.raises(ConfigError, match="repeated key 'p'"):
        parse_indicator_spec("ema:p=9,p=10")


def test_a_blank_indicator_spec_key_is_refused():
    """A key of only spaces is blank: it was kept as '' and then ignored."""
    for entry in ("ema: =5", "ema:p=9, =5", "ema:=5", "ema:p=9,  =5"):
        with pytest.raises(ConfigError, match=f"^bad indicator spec '{entry}'$"):
            parse_indicator_spec(entry)
    assert parse_indicator_spec("ema: p =5").params == {"p": 5}


def test_network_artifact_reads_back_what_was_written(tmp_path):
    inputs = (parse_indicator_spec("rsi:p=14"), parse_indicator_spec("macd:fast=3,slow=8,signal=3"))
    genome = random_genome(7, 4, 3, 12)
    genome.fitness = 1.25
    params = NeatParams(genome, inputs, ((50.0, 15.5), (0.0, 1.0), (0.1, 0.0), (-2.0, 3.0)))
    write_network_artifact(tmp_path / "net.json", params, "net_genome.txt")
    assert load_network_artifact(tmp_path / "net.json") == params


def test_load_config_defaults_and_strategy(tmp_path):
    wh = setup_warehouse(tmp_path)
    path = write_config(tmp_path, wh, strategy=EMA_STRATEGY)
    config = load_config(path)
    assert config.seed == 0
    assert config.strategy.kind is StrategyKind.EMA_CROSS
    assert config.costs.fee_bps == 10.0
    override = load_config(path, seed=7)
    assert override.seed == 7


def test_load_config_rejects_bad_inputs(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(bad)
    no_data = tmp_path / "nodata.json"
    no_data.write_text("{}")
    with pytest.raises(ConfigError, match="data"):
        load_config(no_data)
    wh = setup_warehouse(tmp_path)
    weird = write_config(tmp_path, wh, strategy={"kind": "astrology"})
    with pytest.raises(ConfigError, match="astrology"):
        load_config(weird)


@pytest.mark.parametrize("first,repeat,needle", [
    ('"fee_bps": 10.0', '"fee_bps": 9999.0', "repeated key 'fee_bps'"),
    ('"p_short": 9', '"p_short": 3', "repeated key 'p_short'"),
])
def test_config_with_a_repeated_key_exit_1(tmp_path, capsys, first, repeat, needle):
    wh = setup_warehouse(tmp_path)
    path = write_config(tmp_path, wh, strategy=EMA_STRATEGY)
    text = path.read_text()
    assert text.count(first) == 1
    path.write_text(text.replace(first, f"{first}, {repeat}"))
    with pytest.raises(ConfigError, match=needle):
        load_config(path)
    assert main(["backtest", "--config", str(path)]) == 1
    assert_one_line_error(capsys, needle)


def test_network_artifact_with_a_repeated_key_exit_1(tmp_path, capsys):
    wh = setup_warehouse(tmp_path)
    (tmp_path / "g.txt").write_text(TRADING_GENOME)
    (tmp_path / "artifact.json").write_text(
        '{"genome": "g.txt", "inputs": [{"name": "rsi", "params": {"p": 14, "p": 5}}],'
        ' "norm": [[50.0, 15.0]]}')
    with pytest.raises(ConfigError, match="repeated key 'p'"):
        load_network_artifact(tmp_path / "artifact.json")
    cfg = write_config(tmp_path, wh, strategy={"kind": "neat", "artifact": "artifact.json"})
    assert main(["backtest", "--config", str(cfg)]) == 1
    assert_one_line_error(capsys, "repeated key 'p'")


# ---------------------------------------------------------------------------
# ingest
# ---------------------------------------------------------------------------

def test_cmd_ingest_ok(tmp_path, capsys):
    wh = tmp_path / "wh"
    code = main(["ingest", "--csv", str(FIXTURES / "trending.csv"),
                 "--symbol", "TRENDY", "--interval", "3600", "--warehouse", str(wh)])
    assert code == 0
    assert (wh / "TRENDY" / "3600.csv").exists()
    assert (wh / "TRENDY" / "3600.meta.json").exists()
    assert "1100 bars" in capsys.readouterr().out


def test_cmd_ingest_malformed_exit_1(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("timestamp,open,high,low,close,volume\n0,1,2,0.5,oops,1\n")
    wh = tmp_path / "wh"
    code = main(["ingest", "--csv", str(bad), "--symbol", "X", "--interval", "60",
                 "--warehouse", str(wh)])
    assert code == 1
    assert ":2:" in capsys.readouterr().err
    assert not wh.exists()


def test_cmd_ingest_a_csv_that_is_not_utf8_exit_1(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_bytes(b"timestamp,open,high,low,close,volume\n0,1,2,0.5,1.5,10\n"
                    b"60000,1.5,2.5,1.0,2.0,1\xff\n")
    wh = tmp_path / "wh"
    assert main(["ingest", "--csv", str(bad), "--symbol", "X", "--interval", "60",
                 "--warehouse", str(wh)]) == 1
    assert_one_line_error(capsys, f"cannot read {bad}: 'utf-8' codec can't decode byte 0xff")
    assert not wh.exists()


def test_cmd_ingest_reproducible_bytes(tmp_path):
    wh = tmp_path / "wh"
    argv = ["ingest", "--csv", str(FIXTURES / "trending.csv"), "--symbol", "TRENDY",
            "--interval", "3600", "--warehouse", str(wh), "--source", "fixture"]
    assert main(argv) == 0
    first = sha(wh / "TRENDY" / "3600.csv"), sha(wh / "TRENDY" / "3600.meta.json")
    assert main(argv) == 0
    second = sha(wh / "TRENDY" / "3600.csv"), sha(wh / "TRENDY" / "3600.meta.json")
    assert first == second


def test_cmd_ingest_into_a_warehouse_that_is_a_file_exit_1(tmp_path, capsys):
    wh = tmp_path / "wh"
    wh.write_text("not a warehouse\n")
    assert main(["ingest", "--csv", str(FIXTURES / "trending.csv"), "--symbol", "TRENDY",
                 "--interval", "3600", "--warehouse", str(wh)]) == 1
    assert_one_line_error(capsys, f"cannot store TRENDY@3600s in warehouse {wh}: ")
    assert wh.read_text() == "not a warehouse\n"


# ---------------------------------------------------------------------------
# indicator
# ---------------------------------------------------------------------------

def test_cmd_indicator_writes_aligned_csv(tmp_path):
    wh = setup_warehouse(tmp_path)
    cfg = write_config(tmp_path, wh)
    code = main(["indicator", "--config", str(cfg),
                 "--indicator", "ema:p=9", "--indicator", "macd:fast=12,slow=26,signal=9"])
    assert code == 0
    lines = (tmp_path / "out" / "indicators.csv").read_text().splitlines()
    header = lines[0].split(",")
    assert header == ["timestamp", "ema_9", "macd_12_9_26_line", "macd_12_9_26_signal",
                      "macd_12_9_26_hist"]
    assert len(lines) == 1101
    first_row = lines[1].split(",")
    assert first_row[1] == ""  # warm-up cells stay empty
    assert lines[-1].split(",")[1] != ""


def test_cmd_indicator_requires_specs(tmp_path):
    wh = setup_warehouse(tmp_path)
    cfg = write_config(tmp_path, wh)
    assert main(["indicator", "--config", str(cfg)]) == 1


def assert_one_line_error(capsys, needle):
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert needle in err


@pytest.mark.parametrize("spec,needle", [
    ("ema:p=1e1", "ema:p=1e1"), ("ema:p=abc", "ema:p=abc"), ("ema:p=2.5", "2.5"),
    ("bollinger:p=20,k=-1.0", "-1.0"), ("bollinger:p=20,k=1.7e308", "1.7e+308"),
    ("ema:p=5000", "ema_5000"),
    ("sma", "missing parameter"), ("vwap:p=3", "vwap"),
    ("ema:p=9,p=10", "repeated key 'p'"), ("ema:p=9, p =10", "repeated key 'p'"),
    ("ema: =5", "bad indicator spec 'ema: =5'"),
])
def test_cmd_indicator_bad_spec_exit_1(tmp_path, capsys, spec, needle):
    wh = setup_warehouse(tmp_path)
    cfg = write_config(tmp_path, wh)
    assert main(["indicator", "--config", str(cfg), "--indicator", spec]) == 1
    assert_one_line_error(capsys, needle)


def test_parse_indicator_spec_rejects_malformed_entries():
    for entry in ("ema:p=1e1", "ema:p=abc", {"params": {"p": 3}}, {"name": 3},
                  {"name": "ema", "params": [3]}, 7):
        with pytest.raises(ConfigError):
            parse_indicator_spec(entry)
    assert parse_indicator_spec({"name": "ema", "params": {"p": 3}}).params == {"p": 3}


# ---------------------------------------------------------------------------
# backtest
# ---------------------------------------------------------------------------

def test_cmd_backtest_null_strategy(tmp_path, capsys):
    wh = setup_warehouse(tmp_path)
    cfg = write_config(tmp_path, wh, strategy={"kind": "null"})
    assert main(["backtest", "--config", str(cfg)]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["metrics"]["trade_count"] == 0
    assert report["metrics"]["net_profit_pct"] == 0.0
    signals = (tmp_path / "out" / "signals.csv").read_text().splitlines()
    assert len(signals) == 1  # header only


def test_cmd_backtest_matches_golden_report(tmp_path):
    wh = setup_warehouse(tmp_path)
    cfg = write_config(tmp_path, wh, strategy=EMA_STRATEGY)
    assert main(["backtest", "--config", str(cfg)]) == 0
    got = json.loads((tmp_path / "out" / "report.json").read_text())
    golden = json.loads((FIXTURES / "golden_report.json").read_text())
    assert got == golden


def test_cmd_backtest_byte_identical_across_runs(tmp_path):
    wh = setup_warehouse(tmp_path)
    cfg = write_config(tmp_path, wh, strategy=EMA_STRATEGY)
    assert main(["backtest", "--config", str(cfg)]) == 0
    first = {p.name: sha(p) for p in (tmp_path / "out").iterdir()}
    assert main(["backtest", "--config", str(cfg)]) == 0
    second = {p.name: sha(p) for p in (tmp_path / "out").iterdir()}
    assert first == second


def test_cmd_backtest_without_strategy_exit_1(tmp_path):
    wh = setup_warehouse(tmp_path)
    cfg = write_config(tmp_path, wh)
    assert main(["backtest", "--config", str(cfg)]) == 1


@pytest.mark.parametrize("paper", [[], ["--paper"]])
def test_cmd_backtest_negative_fee_exit_1(tmp_path, capsys, paper):
    wh = setup_warehouse(tmp_path)
    cfg = write_config(tmp_path, wh, strategy=EMA_STRATEGY,
                       costs={"fee_bps": -50, "slippage_bps": 5.0, "initial_cash": 10000.0})
    assert main(["backtest", "--config", str(cfg)] + paper) == 1
    assert_one_line_error(capsys, "fee_bps")


GRID_PARAMS = {"spacing": 1.0, "levels": 3, "level_quantity": 1.0}


@pytest.mark.parametrize("strategy,needle", [
    ({"kind": "grid", "params": {"spacing": 1.0, "level_quantity": 1.0}}, "'levels'"),
    ({"kind": "grid", "params": {**GRID_PARAMS, "levels": "many"}}, "many"),
    ({"kind": "grid", "params": {**GRID_PARAMS, "spacing": [1.0]}}, "grid"),
    ({"kind": "pairs", "params": {}}, "'symbol_b'"),
    ({"kind": "ema_cross", "params": [9, 21]}, "'params'"),
    ({"kind": "ema_cross", "stops": {"atr_period": "fast"}}, "fast"),
    ({"kind": "ema_cross", "stops": 14}, "'stops'"),
    ({"kind": "ema_cross", "size": None}, "ema_cross"),
    ({"kind": "ema_cross", "params": {"p_short": 9.7, "p_long": 21.2}}, "p_short"),
    ({"kind": "ema_cross", "params": {"p_short": 9, "p_long": "21"}}, "p_long"),
    ({"kind": "grid", "params": {**GRID_PARAMS, "levels": 2.5}}, "levels"),
    ({"kind": "pairs", "params": {"symbol_b": "B", "lookback": 40.5}}, "lookback"),
    ({"kind": "ema_cross", "stops": {"atr_period": 14.5}}, "atr_period"),
])
def test_cmd_backtest_bad_strategy_section_exit_1(tmp_path, capsys, strategy, needle):
    wh = setup_warehouse(tmp_path)
    cfg = write_config(tmp_path, wh, strategy=strategy)
    assert main(["backtest", "--config", str(cfg)]) == 1
    assert_one_line_error(capsys, needle)


TRADING_GENOME = ("node 0 input identity\nnode 1 bias identity\nnode 2 output sigmoid\n"
                  "node 3 output sigmoid\nnode 4 output sigmoid\n")
BIAS_ONLY_GENOME = ("node 0 bias identity\nnode 1 output sigmoid\nnode 2 output sigmoid\n"
                    "node 3 output sigmoid\nconn 0 0 1 1.5 1\n")


@pytest.mark.parametrize("artifact,needle", [
    ({"inputs": [], "norm": []}, "'genome'"),
    ({"genome": "absent.txt", "inputs": [], "norm": []}, "cannot read genome"),
    ({"genome": "g.txt", "norm": []}, "'inputs'"),
    ({"genome": "g.txt", "inputs": [{"params": {"p": 3}}], "norm": []}, "bad indicator spec"),
    ({"genome": "g.txt", "inputs": [], "norm": [[0.0]]}, "bad network artifact"),
    ({"genome": 7, "inputs": [], "norm": []}, "bad network artifact"),
    (["g.txt"], "bad network artifact"),
    ({"genome": "g.txt", "inputs": ["rsi:p=14"], "norm": [[float("nan"), 1.0]]}, "finite means"),
    ({"genome": "g.txt", "inputs": ["rsi:p=14"], "norm": [[50.0, float("inf")]]}, "finite means"),
    ({"genome": "g.txt", "inputs": ["rsi:p=14"], "norm": [[50.0, -3.0]]}, "finite means"),
    ({"genome": "bias.txt", "inputs": [], "norm": []}, "at least one indicator input"),
])
def test_cmd_backtest_bad_network_artifact_exit_1(tmp_path, capsys, artifact, needle):
    wh = setup_warehouse(tmp_path)
    (tmp_path / "g.txt").write_text(TRADING_GENOME)
    (tmp_path / "bias.txt").write_text(BIAS_ONLY_GENOME)
    (tmp_path / "artifact.json").write_text(json.dumps(artifact))
    cfg = write_config(tmp_path, wh, strategy={"kind": "neat", "artifact": "artifact.json"})
    for paper in ([], ["--paper"]):
        assert main(["backtest", "--config", str(cfg)] + paper) == 1
        assert_one_line_error(capsys, needle)


# ---------------------------------------------------------------------------
# optimize
# ---------------------------------------------------------------------------

EMA_GRID = [{"p_short": 9, "p_long": 21}, {"p_short": 9, "p_long": 30},
            {"p_short": 20, "p_long": 30}, {"p_short": 20, "p_long": 50}]


def test_cmd_optimize_a_config_that_is_not_utf8_exit_1(tmp_path, capsys):
    wh = setup_warehouse(tmp_path)
    cfg = write_config(tmp_path, wh, strategy=EMA_STRATEGY,
                       optimize={"mode": "tune", "grid": {"p_short": [5], "p_long": [20]}})
    cfg.write_bytes(cfg.read_bytes().replace(b'"TRENDY"', b'"TREN\xffDY"'))
    assert main(["optimize", "--config", str(cfg)]) == 1
    assert_one_line_error(capsys, f"cannot read config {cfg}: 'utf-8' codec can't decode")


def test_cmd_optimize_tune_singleton(tmp_path):
    wh = setup_warehouse(tmp_path)
    cfg = write_config(tmp_path, wh, strategy=EMA_STRATEGY,
                       optimize={"mode": "tune", "grid": [{"p_short": 9, "p_long": 21}]})
    assert main(["optimize", "--config", str(cfg)]) == 0
    rows = (tmp_path / "out" / "leaderboard.csv").read_text().splitlines()
    assert len(rows) == 2


def test_cmd_optimize_tune_fixture_grid_best(tmp_path):
    wh = setup_warehouse(tmp_path)
    cfg = write_config(tmp_path, wh, strategy=EMA_STRATEGY,
                       optimize={"mode": "tune", "grid": EMA_GRID})
    assert main(["optimize", "--config", str(cfg)]) == 0
    best = json.loads((tmp_path / "out" / "best_params.json").read_text())
    assert best == {"p_short": 20, "p_long": 50}


@pytest.mark.parametrize("stops", [None, {"atr_period": 10}])
def test_cmd_optimize_tune_scores_the_configured_size(tmp_path, stops):
    """A candidate trades as ``backtest`` trades the same config: with the
    strategy's position size and stops."""
    wh = setup_warehouse(tmp_path)
    cfg = write_config(tmp_path, wh, strategy={**EMA_STRATEGY, "size": 0.5, "stops": stops},
                       optimize={"mode": "tune", "grid": [EMA_STRATEGY["params"]]})
    assert main(["optimize", "--config", str(cfg)]) == 0
    assert main(["backtest", "--config", str(cfg)]) == 0
    board = (tmp_path / "out" / "leaderboard.csv").read_text().splitlines()
    top = dict(zip(board[0].split(","), board[1].split(",")))
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["metrics"]["trade_count"] > 0
    assert float(top["score"]) == report["score"]


@pytest.mark.parametrize("paper", [False, True], ids=["plain", "paper"])
def test_cmd_backtest_scores_with_the_configured_lambda(tmp_path, paper):
    """``backtest`` scores with ``optimize.lambda``, as tune does, so the
    leaderboard's top score is the score backtest gives the winning params."""
    wh = setup_warehouse(tmp_path)
    winner = {"p_short": 20, "p_long": 50}
    cfg = write_config(tmp_path, wh, strategy={"kind": "ema_cross", "params": winner},
                       optimize={"mode": "tune", "grid": [winner, {"p_short": 9, "p_long": 21}],
                                 "lambda": 2.0})
    assert main(["optimize", "--config", str(cfg)]) == 0
    assert json.loads((tmp_path / "out" / "best_params.json").read_text()) == winner
    assert main(["backtest", "--config", str(cfg)] + (["--paper"] if paper else [])) == 0
    board = (tmp_path / "out" / "leaderboard.csv").read_text().splitlines()
    top = dict(zip(board[0].split(","), board[1].split(",")))
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["drawdown_lambda"] == 2.0
    assert report["metrics"]["max_drawdown_pct"] > 0
    assert float(top["score"]) == pytest.approx(report["score"], abs=1e-9)


TINY_EVOLUTION = {"population_size": 10, "max_generations": 2}
EVOLVE_INPUTS = ["rsi:p=5", "ema:p=4"]


def test_cmd_optimize_evolve_zero_generations(tmp_path):
    wh = setup_warehouse(tmp_path)
    cfg = write_config(tmp_path, wh, optimize={
        "mode": "evolve", "inputs": EVOLVE_INPUTS,
        "evolution": {"population_size": 6, "max_generations": 0}})
    assert main(["optimize", "--config", str(cfg)]) == 0
    rows = (tmp_path / "out" / "fitness_history.csv").read_text().splitlines()
    assert len(rows) == 2  # header + generation 0


@pytest.mark.parametrize("params,code", [
    ({"p": [4]}, 1),  # rejected by the indicator's period rule
    ({"p": 4, "note": [1]}, 0),  # an undeclared key is ignored, whatever its value
])
def test_cmd_optimize_evolve_list_valued_spec_params(tmp_path, capsys, params, code):
    wh = setup_warehouse(tmp_path)
    cfg = write_config(tmp_path, wh, optimize={
        "mode": "evolve", "inputs": [{"name": "ema", "params": params}],
        "evolution": {"population_size": 6, "max_generations": 1}})
    assert main(["optimize", "--config", str(cfg)]) == code
    if code:
        assert_one_line_error(capsys, "p must be an integer")


def test_cmd_optimize_evolve_input_that_never_warms_up_exit_1(tmp_path, capsys):
    series = random_series(8, n=200)
    src = tmp_path / "short.csv"
    write_csv(series, src)
    wh = tmp_path / "wh"
    ingest(src, wh, "TRENDY", 3600)
    cfg = write_config(tmp_path, wh, optimize={
        "mode": "evolve", "inputs": ["ema:p=4", "rsi:p=500"], "evolution": TINY_EVOLUTION})
    assert main(["optimize", "--config", str(cfg), "--mode", "evolve"]) == 1
    assert_one_line_error(capsys, "needs more than 200 bars")


def test_cmd_optimize_evolve_outputs_runnable_artifact(tmp_path):
    wh = setup_warehouse(tmp_path)
    cfg = write_config(tmp_path, wh, optimize={
        "mode": "evolve", "inputs": EVOLVE_INPUTS, "evolution": TINY_EVOLUTION})
    assert main(["optimize", "--config", str(cfg)]) == 0
    out = tmp_path / "out"
    assert (out / "best_genome.txt").exists()
    artifact = json.loads((out / "best_strategy.json").read_text())
    assert artifact["genome"] == "best_genome.txt"
    # the artifact round-trips into a runnable neat strategy
    cfg2 = write_config(tmp_path, wh, strategy={
        "kind": "neat", "artifact": str(out / "best_strategy.json")})
    assert main(["backtest", "--config", str(cfg2), "--out", str(tmp_path / "out2")]) == 0


@pytest.mark.parametrize("evolution", [
    TINY_EVOLUTION,
    {**TINY_EVOLUTION, "weight_init_span": 1e100, "weight_cap": 1e100, "weight_step": 1e100},
])
def test_evolve_artifact_reads_back_and_backtests_at_its_fitness(tmp_path, evolution):
    wh = setup_warehouse(tmp_path)
    cfg = write_config(tmp_path, wh, optimize={
        "mode": "evolve", "inputs": EVOLVE_INPUTS, "evolution": evolution}, seed=3)
    assert main(["optimize", "--config", str(cfg)]) == 0
    artifact = tmp_path / "out" / "best_strategy.json"
    genome = load_network_artifact(artifact).genome
    cap = evolution.get("weight_cap", 8.0)
    assert max(abs(c.weight) for c in genome.connections) > cap / 100
    assert all(abs(c.weight) <= cap for c in genome.connections)
    cfg = write_config(tmp_path, wh, strategy={"kind": "neat", "artifact": str(artifact)})
    assert main(["backtest", "--config", str(cfg), "--out", str(tmp_path / "scored")]) == 0
    report = json.loads((tmp_path / "scored" / "report.json").read_text())
    assert report["metrics"]["trade_count"] > 0
    assert report["score"] == genome.fitness


def test_cmd_optimize_byte_identical_across_runs(tmp_path):
    wh = setup_warehouse(tmp_path)
    cfg = write_config(tmp_path, wh, optimize={
        "mode": "evolve", "inputs": EVOLVE_INPUTS, "evolution": TINY_EVOLUTION}, seed=4)
    assert main(["optimize", "--config", str(cfg)]) == 0
    first = {p.name: sha(p) for p in (tmp_path / "out").iterdir()}
    assert main(["optimize", "--config", str(cfg)]) == 0
    second = {p.name: sha(p) for p in (tmp_path / "out").iterdir()}
    assert first == second


@pytest.mark.parametrize("mode", ["evolve", "tune"])
def test_cmd_optimize_seed_override_changes_outcome_files(tmp_path, mode):
    """The seed steers evolution only: tune backtests every candidate of
    its grid, so it writes the same files under every seed."""
    wh = setup_warehouse(tmp_path)
    if mode == "evolve":
        cfg = write_config(tmp_path, wh, optimize={
            "mode": "evolve", "inputs": EVOLVE_INPUTS, "evolution": TINY_EVOLUTION}, seed=4)
    else:
        cfg = write_config(tmp_path, wh, strategy=EMA_STRATEGY,
                           optimize={"mode": "tune", "grid": EMA_GRID}, seed=4)
    out = tmp_path / "out"
    assert main(["optimize", "--config", str(cfg)]) == 0
    baseline = {p.name: sha(p) for p in out.iterdir()}
    assert main(["optimize", "--config", str(cfg), "--seed", "5"]) == 0
    outcome = {p.name: sha(p) for p in out.iterdir()}
    if mode == "evolve":
        assert outcome["best_genome.txt"] != baseline["best_genome.txt"]
    else:
        assert outcome == baseline and "leaderboard.csv" in outcome


# ---------------------------------------------------------------------------
# config edge: one type rule per field, undeclared keys rejected
# ---------------------------------------------------------------------------

NAN = float("nan")
TUNE = ["optimize", "--mode", "tune"]


def edited_config(tmp_path, path, value):
    """An ema_cross config with stops and a two-candidate tune grid, with the
    entry at the dotted ``path`` set to ``value`` (the whole file for '')."""
    wh = setup_warehouse(tmp_path)
    cfg = json.loads(write_config(
        tmp_path, wh, strategy={**EMA_STRATEGY, "stops": {"atr_period": 14}},
        optimize={"mode": "tune", "grid": EMA_GRID[:2]}).read_text())
    if not path:
        cfg = value
    else:
        *parents, leaf = path.split(".")
        node = cfg
        for key in parents:
            node = node.setdefault(key, {})
        node[leaf] = value
    out = tmp_path / "edited.json"
    out.write_text(json.dumps(cfg))
    return out


@pytest.mark.parametrize("path,value,command,needle", [
    ("", [], ["backtest"], "'config' must be an object"),
    ("costs.fee_bps", "abc", ["backtest"], "'fee_bps' must be a finite number"),
    ("seed", "x", ["backtest"], "'seed' must be an integer"),
    ("optimize.lambda", "x", ["backtest"], "'lambda' must be a finite number"),
    ("data.from_ts", "abc", ["backtest"], "'from_ts' must be an integer"),
    # --paper always runs the bundled simulator: there is no endpoint to configure
    ("broker", {"endpoint": "simulator"}, ["backtest", "--paper"], "unknown key 'broker'"),
    ("optimize.evolution.population_size", "ten", ["backtest"], "'population_size'"),
    ("optimize.evolution.population_size", 2.5, ["backtest"], "'population_size'"),
    ("optimize.grid", {"p_short": ["3"], "p_long": [20]}, TUNE, "p_short"),
    ("optimize.grid", {"foo": [1]}, TUNE, "unknown key 'foo'"),
    ("optimize.grid", 5, TUNE, "'grid'"),
    ("optimize.grid", [1, 2], TUNE, "tune grid"),
    ("data.allow_gaps", "false", ["backtest"], "'allow_gaps' must be true or false"),
    ("data.interval", 3600.9, ["backtest"], "'interval' must be an integer"),
    ("costs.initial_cash", NAN, ["backtest"], "'initial_cash' must be a finite number"),
    ("strategy.stops.stop_mult", NAN, ["backtest"], "'stop_mult' must be a finite number"),
    ("strategy.stops.atr_perod", 14, ["backtest"], "unknown key 'atr_perod'"),
    ("optimize.inputs", "rsi:p=5", ["backtest"], "'inputs' must be a list"),
    ("optimize.evolution.seed", 3, ["backtest"], "unknown key 'seed'"),
    ("costs.slippage_bps", 20000, ["backtest"], "slippage_bps must be a number in [0, 10000)"),
    ("strategy.stops.stop_mult", -2.0, ["backtest"], "stop_mult must be in (0, 1e100]"),
    ("strategy.stops.profit_mult", 0, ["backtest"], "profit_mult must be in (0, 1e100]"),
    ("strategy.stops.fallback_stop_pct", 7.0, ["backtest"],
     "fallback_stop_pct must be in (0, 1)"),
    ("strategy.stops.fallback_profit_pct", -0.1, ["backtest"],
     "fallback_profit_pct must be in (0, 1e100]"),
    ("strategy.stops.stop_mult", 1e101, TUNE, "stop_mult must be in (0, 1e100]"),
    ("strategy", {"kind": "pairs", "params": {"symbol_b": "TRENDY"}}, ["backtest"],
     "symbol_b 'TRENDY' must differ from the traded symbol"),
    ("costs.fee_bps", 20000, ["indicator", "--indicator", "rsi:p=5"],
     "fee_bps must be a number in [0, 10000)"),
    ("costs.fee_bps", 20000, ["report", "--report", "report.json"],
     "fee_bps must be a number in [0, 10000)"),
    ("optimize.inputs", ["rsi:p=5", "ema:p=9, =5"], ["backtest"],
     "bad indicator spec 'ema:p=9, =5'"),
    ("optimize.lambda", -1.0, ["backtest"], "lambda must be in [0, 1e100], got -1.0"),
    ("optimize.lambda", 1e308, ["backtest"], "lambda must be in [0, 1e100], got 1e+308"),
    ("optimize.lambda", -1.0, TUNE, "lambda must be in [0, 1e100], got -1.0"),
    ("optimize.lambda", 1e308, TUNE, "lambda must be in [0, 1e100], got 1e+308"),
    ("strategy", {"kind": "pairs", "params": {"symbol_b": "PAIRED", "lookback": 2}},
     ["backtest"], "pairs lookback must be >= 3, got 2"),
    ("strategy", {"kind": "grid", "params": {**GRID_PARAMS, "spacing": -1.0}}, ["backtest"],
     "grid spacing must be > 0, got -1.0"),
    ("strategy", {"kind": "grid", "params": {**GRID_PARAMS, "spacing": 0}}, ["backtest"],
     "grid spacing must be > 0, got 0.0"),
    ("strategy", {"kind": "grid", "params": {**GRID_PARAMS, "level_quantity": 0.0}},
     ["backtest"], "grid level_quantity must be > 0"),
    ("strategy", {"kind": "grid", "params": {**GRID_PARAMS, "level_quantity": -2.5}},
     ["backtest"], "grid level_quantity must be > 0"),
    ("strategy", {"kind": "pairs", "params": {"symbol_b": "PAIRED", "z_entry": 0.5,
                                              "z_exit": 0.5}},
     ["backtest"], "need 0 <= z_exit < z_entry, got exit=0.5 entry=0.5"),
    ("strategy", {"kind": "pairs", "params": {"symbol_b": "PAIRED", "z_exit": -0.1}},
     ["backtest"], "need 0 <= z_exit < z_entry, got exit=-0.1 entry=2.0"),
])
def test_cmd_bad_config_entry_exit_1(tmp_path, capsys, path, value, command, needle):
    cfg = edited_config(tmp_path, path, value)
    assert main(command + ["--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    assert_one_line_error(capsys, needle)


@pytest.mark.parametrize("command", [["backtest"], TUNE], ids=["backtest", "optimize"])
def test_cmd_out_path_that_is_a_file_exit_1(tmp_path, capsys, command):
    out = tmp_path / "F"
    out.write_text("not a directory\n")
    cfg = write_config(tmp_path, setup_warehouse(tmp_path), strategy=EMA_STRATEGY,
                       optimize={"mode": "tune", "grid": EMA_GRID[:2]})
    assert main(command + ["--config", str(cfg), "--out", str(out)]) == 1
    assert_one_line_error(capsys, f"cannot use {out} as the output directory: ")
    assert out.read_text() == "not a directory\n"


@pytest.mark.parametrize("row", ["0,1,inf,1,1,1", "0,1,1,1,1,nan", "0,1,1,1,1,inf"])
def test_cmd_ingest_non_finite_row_exit_1(tmp_path, capsys, row):
    bad = tmp_path / "bad.csv"
    bad.write_text(f"timestamp,open,high,low,close,volume\n{row}\n")
    assert main(["ingest", "--csv", str(bad), "--symbol", "X", "--interval", "60",
                 "--warehouse", str(tmp_path / "wh")]) == 1
    assert_one_line_error(capsys, ":2:")


@pytest.mark.parametrize("row,needle", [
    ("0,1e300,1e300,1e300,1e300,1", "prices"), ("0,1.7e308,1.7e308,1.7e308,1.7e308,1", "prices"),
    ("0,5e-324,5e-324,5e-324,5e-324,1", "prices"), ("0,1,1e101,1,1,1", "prices"),
    ("0,1,1,1e-101,1,1", "prices"), ("0,1,1,1,1,1.1e100", "volume"),
])
def test_cmd_ingest_out_of_range_row_exit_1(tmp_path, capsys, row, needle):
    bad = tmp_path / "bad.csv"
    bad.write_text(f"timestamp,open,high,low,close,volume\n{row}\n")
    assert main(["ingest", "--csv", str(bad), "--symbol", "X", "--interval", "60",
                 "--warehouse", str(tmp_path / "wh")]) == 1
    assert_one_line_error(capsys, needle)


def test_cmd_indicator_finite_at_the_price_and_volume_bounds(tmp_path):
    rows = ["timestamp,open,high,low,close,volume"]
    for i, (price, volume) in enumerate([(1e100, 1e100), (1e-100, 0.0), (1e100, 1e100),
                                         (1e-100, 1e100), (1e100, 5e-324), (1e-100, 1e100)]):
        rows.append(f"{i * 3_600_000},{price},{price},{price},{price},{volume}")
    (tmp_path / "edge.csv").write_text("\n".join(rows) + "\n")
    wh = tmp_path / "wh"
    assert main(["ingest", "--csv", str(tmp_path / "edge.csv"), "--symbol", "TRENDY",
                 "--interval", "3600", "--warehouse", str(wh)]) == 0
    cfg = write_config(tmp_path, wh)
    specs = ["vpvr:p=2,buckets=12", "vpvr:p=3,buckets=2147483647", "bollinger:p=2",
             "cci:p=2", "mfi:p=2", "force_index:p=2", "rsi:p=2"]
    assert main(["indicator", "--config", str(cfg)]
                + [arg for spec in specs for arg in ("--indicator", spec)]) == 0
    lines = (tmp_path / "out" / "indicators.csv").read_text().splitlines()
    cells = [cell for line in lines[1:] for cell in line.split(",")[1:]]
    assert all(math.isfinite(float(cell)) for cell in cells if cell)
    assert all(lines[-1].split(","))


@pytest.mark.parametrize("name", ["evolve", "tune", "replay", "xor"])
def test_benchmark_configs_keep_loading(tmp_path, name):
    """A stricter reader must not reject the configs the benchmark writes."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    job = workloads.WORKLOADS[name](101, workloads.SIZES["tiny"][name], tmp_path)
    config = load_config(job.config_path)
    assert config.seed == 101 and config.costs.initial_cash == 10_000.0
    assert config.optimize is not None or config.strategy is not None


@pytest.mark.parametrize("name", ["evolve", "tune", "replay", "xor"])
def test_benchmark_workload_runs_checks_and_repeats(tmp_path, name):
    """Each benchmark workload at its tiny size: set-up, two jobs, no problem
    found by its checks (the paper session against the backtest, the exact
    re-scores), and the same output digest from both jobs."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    job = workloads.WORKLOADS[name](101, workloads.SIZES["tiny"][name], tmp_path)
    job.setup()
    digests = []
    for _ in range(2):
        latencies = []
        out = job.job(latencies)
        assert latencies
        assert job.check(out) == []
        digests.append(job.digest(out))
    assert digests[0] == digests[1]


def test_readme_config_schema_keeps_loading(tmp_path):
    readme = (ROOT / "README.md").read_text()
    block = readme.split("### Config schema", 1)[1].split("```json", 1)[1].split("```", 1)[0]
    text = re.sub(r"//[^\n]*", "", block)
    (tmp_path / "readme.json").write_text(text)
    config = load_config(tmp_path / "readme.json")
    assert config.strategy.kind is StrategyKind.EMA_CROSS
    assert config.strategy.stops.atr_period == 14
    assert config.optimize.evolution.population_size == 150
    assert [s.label() for s in config.optimize.inputs] == ["rsi_14", "ema_9"]


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

def test_cmd_report_outputs(tmp_path):
    wh = setup_warehouse(tmp_path)
    cfg = write_config(tmp_path, wh, strategy=EMA_STRATEGY)
    assert main(["backtest", "--config", str(cfg)]) == 0
    out2 = tmp_path / "plots"
    assert main(["report", "--config", str(cfg), "--report",
                 str(tmp_path / "out" / "report.json"), "--out", str(out2)]) == 0
    candles = (out2 / "candles.csv").read_text().splitlines()
    assert len(candles) == 1101
    overlays = (out2 / "overlays.csv").read_text().splitlines()
    assert overlays[0] == "timestamp,ema_9,ema_21"  # defaults to the strategy EMAs
    markers = (out2 / "markers.csv").read_text().splitlines()
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert len(markers) == 1 + 2 * len(report["trades"])


REPORT_TRADE = {"entry_bar": 10, "entry_price": 100.0, "exit_bar": 20, "exit_price": 101.0,
                "quantity": 1.0, "is_long": True}


@pytest.mark.parametrize("text,needle", [
    ("{bad", "cannot read report"),
    ("[1]", "is malformed"),
    ('{"trades": 5}', "is malformed"),
    ('{"trades": [{}]}', "a trade has no 'is_long' field"),
    (json.dumps({"trades": [{**REPORT_TRADE, "entry_bar": 99999}]}),
     "entry_bar 99999 is not a bar"),
])
def test_cmd_report_malformed_report_exit_1(tmp_path, capsys, text, needle):
    wh = setup_warehouse(tmp_path)
    cfg = write_config(tmp_path, wh, strategy=EMA_STRATEGY)
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    assert main(["report", "--config", str(cfg), "--report", str(bad),
                 "--out", str(tmp_path / "plots")]) == 1
    assert_one_line_error(capsys, needle)
    assert not (tmp_path / "plots").exists()  # checked before any file is written
    bad.write_text(json.dumps({"trades": [REPORT_TRADE]}))
    assert main(["report", "--config", str(cfg), "--report", str(bad),
                 "--out", str(tmp_path / "plots")]) == 0


def test_cmd_report_no_trades_header_only(tmp_path):
    wh = setup_warehouse(tmp_path)
    cfg = write_config(tmp_path, wh, strategy={"kind": "null"})
    assert main(["backtest", "--config", str(cfg)]) == 0
    out2 = tmp_path / "plots"
    assert main(["report", "--config", str(cfg), "--report",
                 str(tmp_path / "out" / "report.json"), "--out", str(out2),
                 "--indicator", "sma:p=5"]) == 0
    markers = (out2 / "markers.csv").read_text().splitlines()
    assert markers == ["type,bar,timestamp,price,quantity,side"]
    overlays = (out2 / "overlays.csv").read_text().splitlines()
    assert overlays[0].count(",") == 1  # timestamp + exactly one configured column


def test_cmd_report_missing_report_exit_1(tmp_path):
    wh = setup_warehouse(tmp_path)
    cfg = write_config(tmp_path, wh, strategy=EMA_STRATEGY)
    assert main(["report", "--config", str(cfg),
                 "--report", str(tmp_path / "nope.json")]) == 1


# ---------------------------------------------------------------------------
# cross-cutting
# ---------------------------------------------------------------------------

def write_pairs_config(tmp_path, **window):
    """Warehouse legs A and B of a synthetic pair; ``window`` adds data keys."""
    from test_strategy import synthetic_pair

    a, b = synthetic_pair(8, n=400)
    wh = tmp_path / "wh"
    for series in (a, b):
        src = tmp_path / f"{series.symbol}.csv"
        write_csv(series, src)
        ingest(src, wh, series.symbol, 3600)
    cfg = {
        "seed": 0,
        "out_dir": str(tmp_path / "out"),
        "data": {"warehouse": str(wh), "symbol": "A", "interval": 3600, **window},
        "costs": {"fee_bps": 10.0, "slippage_bps": 5.0, "initial_cash": 10000.0},
        "strategy": {"kind": "pairs",
                     "params": {"symbol_b": "B", "lookback": 40,
                                "z_entry": 1.6, "z_exit": 0.4}},
    }
    path = tmp_path / "pairs.json"
    path.write_text(json.dumps(cfg))
    return path


def test_cmd_backtest_pairs_loads_second_leg_from_warehouse(tmp_path):
    path = write_pairs_config(tmp_path)
    assert main(["backtest", "--config", str(path)]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["metrics"]["trade_count"] >= 2
    assert {t["symbol"] for t in report["trades"]} == {"A", "B"}


def test_cmd_backtest_windowed_pairs_windows_both_legs(tmp_path):
    step = 3600 * 1000
    path = write_pairs_config(tmp_path, from_ts=50 * step, to_ts=349 * step)
    assert main(["backtest", "--config", str(path)]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["bars"] == 300
    assert main(["backtest", "--config", str(path), "--paper",
                 "--out", str(tmp_path / "paper")]) == 0
    paper = json.loads((tmp_path / "paper" / "report.json").read_text())
    assert paper["bars"] == 300
    assert paper["metrics"]["trade_count"] == report["metrics"]["trade_count"]


def test_same_strategy_scores_differ_across_fixtures(tmp_path):
    """Score depends on the data a strategy is tested on: record both runs,
    no equality expected in either direction."""
    from tradelab.backtest import CostModel, run_backtest
    from tradelab.strategy import EmaCrossParams, StrategyConfig

    config = StrategyConfig("RND", EmaCrossParams(9, 21))
    score_a = run_backtest(config, random_series(1, n=600, vol=0.02), 10_000.0,
                           CostModel()).score
    score_b = run_backtest(config, random_series(2, n=600, vol=0.02), 10_000.0,
                           CostModel()).score
    for s in (score_a, score_b):
        assert isinstance(s, float) and s == s  # finite, recorded


@pytest.mark.parametrize("paper", [[], ["--paper"]])
def test_cmd_backtest_gappy_series_exit_1(tmp_path, capsys, paper):
    rows = (FIXTURES / "trending.csv").read_text().splitlines()
    gappy = tmp_path / "gappy.csv"
    gappy.write_text("\n".join(rows[:101] + rows[106:]) + "\n")  # bars 100-104 removed
    wh = tmp_path / "wh"
    assert main(["ingest", "--csv", str(gappy), "--symbol", "TRENDY", "--interval", "3600",
                 "--warehouse", str(wh), "--allow-gaps"]) == 0
    cfg = json.loads(write_config(tmp_path, wh, strategy=EMA_STRATEGY).read_text())
    cfg["data"]["allow_gaps"] = True
    path = tmp_path / "gappy.json"
    path.write_text(json.dumps(cfg))
    capsys.readouterr()
    assert main(["backtest", "--config", str(path)] + paper) == 1
    assert_one_line_error(capsys, "backtest data must be gap-free")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("first,code", [(60, 0), (40, 1)])
def test_cmd_backtest_window_of_gappy_warehouse(tmp_path, capsys, first, code):
    rows = (FIXTURES / "trending.csv").read_text().splitlines()
    gappy = tmp_path / "gappy.csv"
    gappy.write_text("\n".join(rows[:51] + rows[52:122]) + "\n")  # 120 bars, gap after bar 49
    wh = tmp_path / "wh"
    assert main(["ingest", "--csv", str(gappy), "--symbol", "TRENDY", "--interval", "3600",
                 "--warehouse", str(wh), "--allow-gaps"]) == 0
    stamps = [int(row.split(",")[0]) for row in rows[1:]]
    stamps = stamps[:50] + stamps[51:121]
    cfg = json.loads(write_config(tmp_path, wh, strategy=EMA_STRATEGY).read_text())
    cfg["data"].update(allow_gaps=True, from_ts=stamps[first], to_ts=stamps[119])
    path = tmp_path / "window.json"
    path.write_text(json.dumps(cfg))
    capsys.readouterr()
    assert main(["backtest", "--config", str(path)]) == code
    if code:
        assert_one_line_error(capsys, "backtest data must be gap-free")
    else:
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["bars"] == 120 - first


def test_cmd_backtest_paper_session_matches_metrics(tmp_path):
    wh = setup_warehouse(tmp_path)
    cfg = write_config(tmp_path, wh, strategy=EMA_STRATEGY)
    assert main(["backtest", "--config", str(cfg)]) == 0
    plain = json.loads((tmp_path / "out" / "report.json").read_text())
    assert main(["backtest", "--config", str(cfg), "--paper",
                 "--out", str(tmp_path / "paper")]) == 0
    paper = json.loads((tmp_path / "paper" / "report.json").read_text())
    assert paper["metrics"]["trade_count"] == plain["metrics"]["trade_count"]
    assert paper["final_equity"] == pytest.approx(plain["final_equity"], abs=1e-9)
    assert paper["metrics"]["net_profit_pct"] == pytest.approx(
        plain["metrics"]["net_profit_pct"], abs=1e-9)


def test_config_rejects_unknown_broker_endpoint(tmp_path):
    """There is no broker section: ``--paper`` always runs the bundled
    simulator, so any endpoint or credentials are refused with the key."""
    wh = setup_warehouse(tmp_path)
    cfg = json.loads(write_config(tmp_path, wh, strategy=EMA_STRATEGY).read_text())
    cfg["broker"] = {"endpoint": "realexchange", "credentials": {"key": "k"}}
    path = tmp_path / "broker.json"
    path.write_text(json.dumps(cfg))
    with pytest.raises(ConfigError, match="unknown key 'broker'"):
        load_config(path)


def test_cli_report_reproducible_by_direct_service_calls(tmp_path):
    """The command layer only sequences library calls: invoking the services
    directly reproduces the CLI's report byte for byte."""
    from tradelab.backtest import CostModel, run_backtest
    from tradelab.cli import report_to_dict
    from tradelab.data import load_warehouse
    from tradelab.strategy import EmaCrossParams, StrategyConfig

    wh = setup_warehouse(tmp_path)
    cfg = write_config(tmp_path, wh, strategy=EMA_STRATEGY)
    assert main(["backtest", "--config", str(cfg)]) == 0
    via_cli = json.loads((tmp_path / "out" / "report.json").read_text())

    series = load_warehouse(wh, "TRENDY", 3600)
    report = run_backtest(StrategyConfig("TRENDY", EmaCrossParams(9, 21)), series,
                          10_000.0, CostModel(fee_bps=10.0, slippage_bps=5.0))
    assert report_to_dict(report) == via_cli
