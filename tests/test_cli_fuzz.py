"""Property: whatever one input file holds, ``tradelab backtest``, ``backtest
--paper`` and ``optimize --mode tune`` end with exit code 0, or with exit
code 1 and one ``error:`` line; no exception escapes ``cli.main``.

Each example takes a valid run and corrupts one thing in it: one entry or
section of the config, one field of a warehouse CSV row, one part of a
network artifact's indicator spec, or one token of its genome file. The
values come from a fixed pool, none of which is a valid but large run size.
A second property replaces one byte of one of those files with 0xff, which
is never UTF-8, so every command ends with exit code 1.
"""

import contextlib
import copy
import io
import json
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_series
from tradelab.cli import main
from tradelab.data import ingest, write_csv

POOL = ["abc", "", True, None, [], {}, [1], -1, 0, 2.5, float("nan"), float("inf"),
        float("-inf"), 1e30]

CONFIG = {
    "seed": 0,
    "out_dir": "out",
    "data": {"warehouse": "wh", "symbol": "RND", "interval": 3600,
             "from_ts": None, "to_ts": None, "allow_gaps": False},
    "costs": {"fee_bps": 10.0, "slippage_bps": 5.0, "initial_cash": 10000.0},
    "strategy": {"kind": "ema_cross", "params": {"p_short": 3, "p_long": 8}, "size": 1.0,
                 "stops": {"atr_period": 5, "stop_mult": 2.0, "profit_mult": 4.0,
                           "fallback_stop_pct": 0.05, "fallback_profit_pct": 0.1}},
    "optimize": {"mode": "tune", "grid": {"p_short": [3, 5], "p_long": [8]},
                 "inputs": ["rsi:p=5"], "evolution": {"population_size": 6,
                                                      "max_generations": 1},
                 "lambda": 0.5},
}
ARTIFACT = {"genome": "genome.txt", "inputs": [{"name": "rsi", "params": {"p": 5}}],
            "norm": [[50.0, 10.0]]}
GENOME = ("node 0 input identity\nnode 1 bias identity\nnode 2 output sigmoid\n"
          "node 3 output sigmoid\nnode 4 output sigmoid\n"
          "conn 0 0 2 1.5 1\nconn 1 1 3 -0.5 1\nconn 2 0 4 0.25 1\n")
COMMANDS = (["backtest"], ["backtest", "--paper"], ["optimize", "--mode", "tune"])


def paths(node, prefix=()):
    """Every entry of a JSON document, as a key path; () is the document."""
    yield prefix
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield from paths(child, prefix + (key,))


def replaced(document, path, value):
    if not path:
        return value
    document = copy.deepcopy(document)
    node = document
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return document


CONFIG_PATHS = list(paths(CONFIG))
ARTIFACT_PATHS = [p for p in paths(ARTIFACT) if p[:1] == ("inputs",)]
GENOME_TOKENS = [(i, j) for i, line in enumerate(GENOME.splitlines())
                 for j in range(len(line.split()))]


@pytest.fixture(scope="module")
def warehouse_csv(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    write_csv(random_series(4, n=60), root / "in.csv")
    ingest(root / "in.csv", root / "wh", "RND", 3600)
    return root / "wh" / "RND" / "3600.csv"


corruption = st.one_of(
    st.tuples(st.just("config"), st.sampled_from(CONFIG_PATHS)),
    st.tuples(st.just("csv"), st.tuples(st.integers(1, 60), st.integers(0, 5))),
    st.tuples(st.just("spec"), st.sampled_from(ARTIFACT_PATHS)),
    st.tuples(st.just("genome"), st.sampled_from(GENOME_TOKENS)),
)


def write_run(root: Path, csv_path: Path, where, target, value) -> Path:
    """The files of one run under ``root``, with one thing corrupted; a
    ``where`` of None writes the ema_cross run and "neat" the neat run as is."""
    (root / "wh" / "RND").mkdir(parents=True)
    lines = csv_path.read_text().splitlines()
    if where == "csv":
        row, column = target
        fields = lines[row].split(",")
        fields[column] = str(value)
        lines[row] = ",".join(fields)
    (root / "wh" / "RND" / "3600.csv").write_text("\n".join(lines) + "\n")
    config = copy.deepcopy(CONFIG)
    config["data"]["warehouse"] = str(root / "wh")
    if where == "config":
        config = replaced(config, target, value)
    if where in ("neat", "spec", "genome"):
        config["strategy"] = {"kind": "neat", "artifact": "artifact.json"}
        artifact = replaced(ARTIFACT, target, value) if where == "spec" else ARTIFACT
        (root / "artifact.json").write_text(json.dumps(artifact))
        genome = [line.split() for line in GENOME.splitlines()]
        if where == "genome":
            genome[target[0]][target[1]] = str(value)
        (root / "genome.txt").write_text("\n".join(map(" ".join, genome)) + "\n")
    (root / "config.json").write_text(json.dumps(config))
    return root / "config.json"


def run_command(command, config: Path, out: Path):
    """``command``'s exit code and stderr lines, its output removed."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(command + ["--config", str(config), "--out", str(out)])
    shutil.rmtree(out, ignore_errors=True)
    return code, err.getvalue().splitlines()


@pytest.mark.parametrize("where,commands", [
    (None, COMMANDS), ("neat", COMMANDS[:2]),
], ids=["ema_cross", "neat"])
def test_the_uncorrupted_run_exits_0(tmp_path, warehouse_csv, where, commands):
    """Guards the property below against passing vacuously: a stale key in
    ``CONFIG`` would end every example with the same early error."""
    config = write_run(tmp_path, warehouse_csv, where, None, None)
    for command in commands:
        assert run_command(command, config, tmp_path / "out") == (0, []), command


@settings(max_examples=200, deadline=None, derandomize=True)
@given(corruption, st.sampled_from(POOL))
def test_cli_ends_with_exit_0_or_one_error_line(warehouse_csv, corrupt, value):
    where, target = corrupt
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        config = write_run(root, warehouse_csv, where, target, value)
        for command in COMMANDS:
            code, lines = run_command(command, config, root / "out")
            assert code in (0, 1) and len(lines) <= 1, (command, code, lines)
            assert code == 0 or lines and lines[0].startswith("error: "), (command, lines)


@pytest.mark.parametrize("name", ["config", "csv", "artifact", "genome"])
@settings(max_examples=25, deadline=None, derandomize=True)
@given(at=st.floats(0.0, 1.0, exclude_max=True))
def test_a_byte_that_is_not_utf8_ends_in_one_error_line(warehouse_csv, name, at):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        neat = name in ("artifact", "genome")
        config = write_run(root, warehouse_csv, "neat" if neat else None, None, None)
        path = {"config": config, "csv": root / "wh" / "RND" / "3600.csv",
                "artifact": root / "artifact.json", "genome": root / "genome.txt"}[name]
        raw = bytearray(path.read_bytes())
        raw[int(at * len(raw))] = 0xFF
        path.write_bytes(raw)
        for command in COMMANDS[:2] if neat else COMMANDS:
            code, lines = run_command(command, config, root / "out")
            assert code == 1 and len(lines) == 1, (command, code, lines)
            assert lines[0].startswith("error: ") and "can't decode byte 0xff" in lines[0], (
                command, lines)
