"""Run configuration: one JSON file with sections mirroring the services.

Sections: ``data`` (warehouse/symbol/interval/range), ``strategy``,
``costs``, ``optimize``, plus a global ``seed`` (default 0) and ``out_dir``.
CLI flags override individual keys. See README for the full schema.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from .errors import ValidationError
from .indicators import IndicatorSpec, require_period
from .neat import EvolutionConfig, read_genome
from .strategy import (
    EmaCrossParams,
    GridParams,
    NeatParams,
    NullParams,
    PairsParams,
    StopSettings,
    StrategyConfig,
)


class ConfigError(ValidationError):
    """The run configuration file is missing or inconsistent."""


@dataclass(frozen=True)
class DataSection:
    warehouse: str
    symbol: str
    interval: int
    from_ts: int | None = None
    to_ts: int | None = None
    allow_gaps: bool = False


@dataclass(frozen=True)
class CostsSection:
    fee_bps: float = 10.0
    slippage_bps: float = 5.0
    initial_cash: float = 10_000.0


@dataclass(frozen=True)
class OptimizeSection:
    mode: str = "tune"
    grid: list | dict | None = None
    inputs: tuple[IndicatorSpec, ...] = ()
    evolution: EvolutionConfig = field(default_factory=EvolutionConfig)
    drawdown_lambda: float = 0.5


@dataclass(frozen=True)
class BrokerSection:
    """Endpoint selection; credentials are passed through to real adapters
    and ignored by the simulator."""

    endpoint: str = "simulator"
    credentials: dict = field(default_factory=dict)


@dataclass(frozen=True)
class RunConfig:
    seed: int
    out_dir: str
    data: DataSection
    costs: CostsSection
    strategy: StrategyConfig | None
    optimize: OptimizeSection | None
    broker: BrokerSection = field(default_factory=BrokerSection)


def _section(raw: dict, name: str, required: bool = True) -> dict:
    value = raw.get(name)
    if value is None:
        if required:
            raise ConfigError(f"missing config section '{name}'")
        return {}
    if not isinstance(value, dict):
        raise ConfigError(f"config section '{name}' must be an object")
    return value


def parse_indicator_spec(entry) -> IndicatorSpec:
    """Accept {"name": ..., "params": {...}} objects or 'name:k=v,k=v' strings;
    a value with a '.' is a float, any other value an int."""
    if isinstance(entry, str):
        name, _, rest = entry.partition(":")
        params = {}
        if rest:
            for pair in rest.split(","):
                key, _, value = pair.partition("=")
                if not key or not value:
                    raise ConfigError(f"bad indicator spec '{entry}'")
                try:
                    params[key.strip()] = float(value) if "." in value else int(value)
                except ValueError as exc:
                    raise ConfigError(f"bad indicator spec '{entry}': {exc}") from exc
        return IndicatorSpec(name=name.strip(), params=params)
    if isinstance(entry, dict) and isinstance(entry.get("name"), str):
        params = dict(_section(entry, "params", required=False))
        return IndicatorSpec(name=entry["name"], params=params)
    raise ConfigError(f"bad indicator spec {entry!r}")


def _build_stops(raw: dict) -> StopSettings | None:
    if not raw:
        return None
    return StopSettings(
        atr_period=require_period(raw.get("atr_period", 14), "atr_period"),
        stop_mult=float(raw.get("stop_mult", 2.0)),
        profit_mult=float(raw.get("profit_mult", 4.0)),
        fallback_stop_pct=float(raw.get("fallback_stop_pct", 0.05)),
        fallback_profit_pct=float(raw.get("fallback_profit_pct", 0.10)),
    )


def build_strategy(section: dict, symbol: str, base_dir: Path) -> StrategyConfig:
    kind = section.get("kind")
    params = _section(section, "params", required=False)
    try:
        stops = _build_stops(_section(section, "stops", required=False))
        size = float(section.get("size", 1.0))
        if kind == "null":
            built = NullParams()
        elif kind == "ema_cross":
            built = EmaCrossParams(p_short=require_period(params.get("p_short", 9), "p_short"),
                                   p_long=require_period(params.get("p_long", 21), "p_long"))
        elif kind == "grid":
            built = GridParams(spacing=float(params["spacing"]),
                               levels=require_period(params["levels"], "levels"),
                               level_quantity=float(params["level_quantity"]))
        elif kind == "pairs":
            built = PairsParams(symbol_b=str(params["symbol_b"]),
                                lookback=require_period(params.get("lookback", 50), "lookback"),
                                z_entry=float(params.get("z_entry", 2.0)),
                                z_exit=float(params.get("z_exit", 0.5)),
                                leg_fraction=float(params.get("leg_fraction", 0.5)))
        elif kind == "neat":
            artifact = section.get("artifact")
            if not artifact:
                raise ConfigError("neat strategy needs an 'artifact' file path")
            built = load_network_artifact(base_dir / artifact)
        else:
            raise ConfigError(f"unknown strategy kind '{kind}'")
    except KeyError as exc:
        raise ConfigError(f"{kind} strategy params missing key {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad {kind} strategy value: {exc}") from exc
    return StrategyConfig(symbol=symbol, params=built, size=size, stops=stops)


def load_network_artifact(path: Path) -> NeatParams:
    """Read an evolved-strategy artifact: genome file reference, indicator
    inputs, and normalization constants."""
    try:
        raw = json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read network artifact {path}: {exc}") from exc
    try:
        genome = read_genome(Path(path).parent / raw["genome"])
        inputs = tuple(parse_indicator_spec(e) for e in raw["inputs"])
        norm = tuple((float(m), float(s)) for m, s in raw["norm"])
    except KeyError as exc:
        raise ConfigError(f"network artifact {path} missing key {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad network artifact {path}: {exc}") from exc
    return NeatParams(genome=genome, input_specs=inputs, norm=norm)


def build_evolution(raw: dict, seed: int) -> EvolutionConfig:
    known = {f for f in EvolutionConfig.__dataclass_fields__}
    unknown = set(raw) - known
    if unknown:
        raise ConfigError(f"unknown evolution keys: {sorted(unknown)}")
    merged = dict(raw)
    merged["seed"] = seed
    config = EvolutionConfig(**merged)
    config.validate()
    return config


def load_config(path: str | Path, seed: int | None = None) -> RunConfig:
    """Parse and validate a run config; ``seed`` overrides the file's seed."""
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path} is not valid JSON: {exc}") from exc

    seed = int(raw.get("seed", 0)) if seed is None else int(seed)
    out_dir = str(raw.get("out_dir", "out"))
    data_raw = _section(raw, "data")
    try:
        data = DataSection(
            warehouse=str(data_raw["warehouse"]),
            symbol=str(data_raw["symbol"]),
            interval=int(data_raw["interval"]),
            from_ts=data_raw.get("from_ts"),
            to_ts=data_raw.get("to_ts"),
            allow_gaps=bool(data_raw.get("allow_gaps", False)),
        )
    except KeyError as exc:
        raise ConfigError(f"data section missing key {exc}") from exc

    costs_raw = _section(raw, "costs", required=False)
    costs = CostsSection(
        fee_bps=float(costs_raw.get("fee_bps", 10.0)),
        slippage_bps=float(costs_raw.get("slippage_bps", 5.0)),
        initial_cash=float(costs_raw.get("initial_cash", 10_000.0)),
    )
    if costs.initial_cash <= 0:
        raise ConfigError("initial_cash must be > 0")

    strategy_raw = _section(raw, "strategy", required=False)
    strategy = None
    if strategy_raw:
        strategy = build_strategy(strategy_raw, data.symbol, path.parent)

    optimize_raw = _section(raw, "optimize", required=False)
    optimize = None
    if optimize_raw:
        mode = optimize_raw.get("mode", "tune")
        if mode not in ("tune", "evolve"):
            raise ConfigError(f"optimize mode must be tune or evolve, got '{mode}'")
        optimize = OptimizeSection(
            mode=mode,
            grid=optimize_raw.get("grid"),
            inputs=tuple(parse_indicator_spec(e) for e in optimize_raw.get("inputs", [])),
            evolution=build_evolution(optimize_raw.get("evolution", {}), seed),
            drawdown_lambda=float(optimize_raw.get("lambda", 0.5)),
        )

    broker_raw = _section(raw, "broker", required=False)
    endpoint = str(broker_raw.get("endpoint", "simulator"))
    if endpoint != "simulator":
        raise ConfigError(f"unknown broker endpoint '{endpoint}' (only 'simulator' ships)")
    broker = BrokerSection(endpoint=endpoint,
                           credentials=dict(broker_raw.get("credentials", {})))

    return RunConfig(seed=seed, out_dir=out_dir, data=data, costs=costs,
                     strategy=strategy, optimize=optimize, broker=broker)
