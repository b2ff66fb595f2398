"""Traced runs: spans and counts around calls into tradelab's layers.

``instrument`` patches the public functions and methods of each layer for
the duration of a ``with`` block and restores them afterwards; tradelab's
source is not changed. Coarse boundaries (a CSV parse, a backtest, a NEAT
generation) are recorded as spans with name, start, end and parent. Per-bar
boundaries (``step``, ``push``, ``activate``, ``account``, ``place_order``)
are recorded only as call counts and summed durations. Every boundary also
keeps its self time: its duration minus the time of the instrumented calls
made inside it. Work in uninstrumented code counts as self time of the
nearest instrumented caller.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

LAYERS = ("data", "config", "indicators", "strategy", "neat", "optimize",
          "backtest", "broker", "cli")
BATCH_INDICATORS = ("adx", "atr", "bollinger", "cci", "ema", "force_index", "kst", "macd",
                    "mfi", "momentum", "obv", "rsi", "sma", "vpvr", "williams_r")


class Tracer:
    """In-memory store of spans, call counts, durations and event counts."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent span index or None]
        self.calls: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[list] = [[None, 0.0]]  # open boundaries: [span index, child seconds]

    def wrap(self, name, fn, span: bool = False, observe=None):
        """Return ``fn`` instrumented as the boundary ``name``, which is a
        string or a function of the call's arguments. ``observe(tracer,
        result, *args)`` updates event counts after each call."""
        clock = time.perf_counter
        stack, spans = self._stack, self.spans
        calls, total, self_time = self.calls, self.total, self.self_time
        fixed = name if isinstance(name, str) else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = fixed or name(*args)
            parent = stack[-1]
            if span:
                index = len(spans)
                spans.append([label, 0.0, 0.0, parent[0]])
            else:
                index = parent[0]
            frame = [index, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                parent[1] += elapsed
                calls[label] += 1
                total[label] += elapsed
                self_time[label] += elapsed - frame[1]
                if span:
                    spans[index][1] = start
                    spans[index][2] = end
            if observe is not None:
                observe(self, result, *args)
            return result

        return traced

    def layer_self_seconds(self) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for label, seconds in self.self_time.items():
            out[label.split(".", 1)[0]] += seconds
        return out

    def write(self, path: Path, extra: dict) -> None:
        doc = dict(extra)
        doc["spans"] = [{"name": n, "start": s, "end": e, "parent": p}
                        for n, s, e, p in self.spans]
        doc["boundaries"] = {label: {"calls": self.calls[label], "total_s": self.total[label],
                                     "self_s": self.self_time[label]}
                             for label in sorted(self.calls)}
        doc["counts"] = dict(sorted(self.counts.items()))
        doc["layer_self_s"] = dict(sorted(self.layer_self_seconds().items()))
        path.write_text(json.dumps(doc, indent=1) + "\n")


class _TracedStream:
    """A stream whose ``push`` is instrumented; other attributes pass through."""

    def __init__(self, stream, push):
        self._stream = stream
        self.push = push

    def __getattr__(self, attr):
        return getattr(self._stream, attr)


def counting(key: str, amount):
    """An observer that adds ``amount(result, *args)`` to ``counts[key]``."""
    def observe(tracer, result, *args):
        tracer.counts[key] += amount(result, *args)
    return observe


def _size(result, *args):
    return len(result)


def _indicator_bars(tracer, result, spec, series):
    tracer.counts["indicators.bars." + spec.name] += len(series)


def _backtest_counts(tracer, report, strategy, series, *args):
    tracer.counts["backtest.bars"] += len(series)
    tracer.counts["backtest.orders"] += len(report.orders)
    tracer.counts["backtest.fills"] += len(report.fills)


@contextmanager
def instrument(tracer: Tracer):
    """Install the layer wrappers for the duration of the block."""
    from tradelab import backtest, broker, cli, config, data, indicators, neat, optimize, strategy

    modules = (data, config, indicators, strategy, neat, optimize, backtest, broker, cli)
    saved: list[tuple] = []

    def set_attr(owner, attr, value):
        saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def function(module, attr, name, **kw):
        """Wrap a module function in every tradelab module that binds it."""
        original = getattr(module, attr)
        wrapped = tracer.wrap(name, original, **kw)
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is original:
                    set_attr(m, key, wrapped)

    def method(cls, attr, name, **kw):
        set_attr(cls, attr, tracer.wrap(name, cls.__dict__[attr], **kw))

    # data
    function(data, "parse_csv", "data.parse_csv", span=True,
             observe=counting("data.bars_parsed", _size))
    function(data, "write_csv", "data.write_csv", span=True,
             observe=counting("data.bars_written", lambda result, series, *args: len(series)))
    function(data, "ingest", "data.ingest", span=True)
    function(data, "load_warehouse", "data.load_warehouse", span=True,
             observe=counting("data.bars_loaded", _size))
    # config
    function(config, "load_config", "config.load_config", span=True)
    # indicators: batch compute per indicator name, and streaming pushes of
    # the streams that other layers build (batch compute builds its own)
    function(indicators, "compute", lambda spec, series: "indicators.compute." + spec.name,
             span=True, observe=_indicator_bars)
    factories = [obj for name, obj in vars(indicators).items()
                 if name == "make_stream" or (name.endswith("Stream") and isinstance(obj, type))]

    def traced_factory(factory):
        def make(*args, **kwargs):
            stream = factory(*args, **kwargs)
            return _TracedStream(stream, tracer.wrap("indicators.push", stream.push))
        return make

    for m in modules:
        if m is indicators:
            continue
        for key, value in list(vars(m).items()):
            if any(value is factory for factory in factories):
                set_attr(m, key, traced_factory(value))
    # strategy
    for name, cls in vars(strategy).items():
        if name.endswith("Stepper") and isinstance(cls, type):
            for attr in ("step", "step_pair"):
                if attr in cls.__dict__:
                    method(cls, attr, "strategy.step", observe=counting(
                        "strategy.intents", lambda result, *args: len(result[0]) + len(result[1])))
    function(strategy, "apply_stops", "strategy.apply_stops", observe=counting(
        "strategy.intents", lambda result, *args: result is not None))
    # neat
    method(neat.NetworkEvaluator, "activate", "neat.activate")
    method(neat.NetworkEvaluator, "__init__", "neat.evaluator_build")
    method(neat.Evolution, "next_generation", "neat.next_generation", span=True)
    function(neat, "speciate", "neat.speciate", span=True)
    function(neat, "compatibility_distance", "neat.compatibility_distance")
    evaluate = neat.Evolution.__dict__["evaluate"]

    def traced_evaluate(self, fitness_fn):
        tracer.counts["neat.genomes"] += len(self.population)
        owner = getattr(fitness_fn, "__module__", "") or ""
        layer = "optimize" if owner.startswith("tradelab") else "bench"
        return evaluate(self, tracer.wrap(layer + ".fitness", fitness_fn))

    set_attr(neat.Evolution, "evaluate", tracer.wrap("neat.evaluate", traced_evaluate, span=True))
    # optimize
    function(optimize, "input_normalization", "optimize.input_normalization", span=True)
    function(optimize, "evolve_strategy", "optimize.evolve_strategy", span=True)
    function(optimize, "tune_parameters", "optimize.tune_parameters", span=True,
             observe=counting("optimize.tuned", lambda result, *args: len(result[1])))
    # backtest
    function(backtest, "run_backtest", "backtest.run_backtest", span=True,
             observe=_backtest_counts)
    function(backtest, "compute_metrics", "backtest.compute_metrics", span=True)
    # broker
    function(broker, "paper_trade_loop", "broker.paper_trade_loop", span=True,
             observe=counting("broker.bars", lambda report, *args: report.bars))
    method(broker.SimulatedBroker, "account", "broker.account")
    method(broker.SimulatedBroker, "place_order", "broker.place_order", observe=counting(
        "broker.rejected", lambda ack, *args: ack.status is broker.AckStatus.REJECTED))
    # cli
    function(cli, "main", "cli.main", span=True)
    try:
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


PER_LAYER = [
    ("data.parse_csv_us_per_bar", "us"), ("data.write_csv_us_per_bar", "us"),
    ("data.bars_loaded", "count"),
    ("config.load_config_ms", "ms"),
    *[(f"indicators.{name}_us_per_bar", "us") for name in BATCH_INDICATORS],
    ("indicators.push_calls", "count"), ("indicators.push_us_per_call", "us"),
    ("strategy.step_calls", "count"), ("strategy.step_self_us", "us"),
    ("strategy.apply_stops_calls", "count"), ("strategy.apply_stops_us", "us"),
    ("strategy.intents", "count"),
    ("neat.activate_calls", "count"), ("neat.activate_us_per_call", "us"),
    ("neat.evaluator_build_us", "us"), ("neat.next_generation_ms", "ms"),
    ("neat.speciate_ms", "ms"), ("neat.compatibility_distance_calls", "count"),
    ("neat.evaluated_ratio", "ratio"),
    ("optimize.input_normalization_ms", "ms"), ("optimize.fitness_ms_per_genome", "ms"),
    ("optimize.candidates", "count"),
    ("backtest.run_backtest_calls", "count"), ("backtest.self_us_per_bar", "us"),
    ("backtest.orders", "count"), ("backtest.fills", "count"),
    ("backtest.fill_ratio", "ratio"), ("backtest.compute_metrics_ms", "ms"),
    ("broker.paper_self_us_per_bar", "us"), ("broker.account_calls", "count"),
    ("broker.account_us_per_call", "us"), ("broker.place_order_calls", "count"),
    ("broker.place_order_us_per_call", "us"), ("broker.ack_reject_ratio", "ratio"),
    ("broker.prefiltered_intents", "count"),
    ("cli.self_ms", "ms"),
    *[(f"{layer}.layer_self_ms", "ms") for layer in LAYERS],
    ("trace.overhead_ratio", "ratio"),
]


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(tr: Tracer, overhead_ratio: float) -> dict[str, float]:
    """The per-layer metrics of one traced set-up plus job, by name."""
    # copies, so that looking up a boundary that never ran adds nothing to the tracer
    calls, total, self_time, counts = (defaultdict(int, tr.calls), defaultdict(float, tr.total),
                                       defaultdict(float, tr.self_time),
                                       defaultdict(int, tr.counts))
    us, ms = 1e6, 1e3
    m = {
        "data.parse_csv_us_per_bar": _ratio(total["data.parse_csv"], counts["data.bars_parsed"]) * us,
        "data.write_csv_us_per_bar": _ratio(total["data.write_csv"], counts["data.bars_written"]) * us,
        "data.bars_loaded": counts["data.bars_loaded"],
        "config.load_config_ms": _ratio(total["config.load_config"], calls["config.load_config"]) * ms,
    }
    for name in BATCH_INDICATORS:
        m[f"indicators.{name}_us_per_bar"] = _ratio(total["indicators.compute." + name],
                                                    counts["indicators.bars." + name]) * us
    fitness_calls = calls["optimize.fitness"] + calls["bench.fitness"]
    paper_bars = counts["broker.bars"]
    m.update({
        "indicators.push_calls": calls["indicators.push"],
        "indicators.push_us_per_call": _ratio(total["indicators.push"], calls["indicators.push"]) * us,
        "strategy.step_calls": calls["strategy.step"],
        "strategy.step_self_us": _ratio(self_time["strategy.step"], calls["strategy.step"]) * us,
        "strategy.apply_stops_calls": calls["strategy.apply_stops"],
        "strategy.apply_stops_us": _ratio(total["strategy.apply_stops"],
                                          calls["strategy.apply_stops"]) * us,
        "strategy.intents": counts["strategy.intents"],
        "neat.activate_calls": calls["neat.activate"],
        "neat.activate_us_per_call": _ratio(total["neat.activate"], calls["neat.activate"]) * us,
        "neat.evaluator_build_us": _ratio(total["neat.evaluator_build"],
                                          calls["neat.evaluator_build"]) * us,
        "neat.next_generation_ms": _ratio(total["neat.next_generation"],
                                          calls["neat.next_generation"]) * ms,
        "neat.speciate_ms": _ratio(total["neat.speciate"], calls["neat.speciate"]) * ms,
        "neat.compatibility_distance_calls": calls["neat.compatibility_distance"],
        "neat.evaluated_ratio": _ratio(fitness_calls, counts["neat.genomes"]),
        "optimize.input_normalization_ms": _ratio(total["optimize.input_normalization"],
                                                  calls["optimize.input_normalization"]) * ms,
        "optimize.fitness_ms_per_genome": _ratio(total["optimize.fitness"],
                                                 calls["optimize.fitness"]) * ms,
        "optimize.candidates": counts["optimize.tuned"] + calls["optimize.fitness"],
        "backtest.run_backtest_calls": calls["backtest.run_backtest"],
        "backtest.self_us_per_bar": _ratio(self_time["backtest.run_backtest"],
                                           counts["backtest.bars"]) * us,
        "backtest.orders": counts["backtest.orders"],
        "backtest.fills": counts["backtest.fills"],
        "backtest.fill_ratio": _ratio(counts["backtest.fills"], counts["backtest.orders"]),
        "backtest.compute_metrics_ms": _ratio(total["backtest.compute_metrics"],
                                              calls["backtest.compute_metrics"]) * ms,
        "broker.paper_self_us_per_bar": _ratio(self_time["broker.paper_trade_loop"],
                                               paper_bars) * us,
        "broker.account_calls": calls["broker.account"],
        "broker.account_us_per_call": _ratio(total["broker.account"], calls["broker.account"]) * us,
        "broker.place_order_calls": calls["broker.place_order"],
        "broker.place_order_us_per_call": _ratio(total["broker.place_order"],
                                                 calls["broker.place_order"]) * us,
        "broker.ack_reject_ratio": _ratio(counts["broker.rejected"], calls["broker.place_order"]),
        # intents the paper loop emitted but never turned into an order
        "broker.prefiltered_intents": (counts["strategy.intents"] - calls["broker.place_order"]
                                       if calls["broker.paper_trade_loop"] else 0),
        "cli.self_ms": _ratio(self_time["cli.main"], calls["cli.main"]) * ms,
    })
    layer_self = tr.layer_self_seconds()
    for layer in LAYERS:
        m[f"{layer}.layer_self_ms"] = layer_self.get(layer, 0.0) * ms
    m["trace.overhead_ratio"] = overhead_ratio
    return m
