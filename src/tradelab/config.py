"""Run configuration: one JSON file with sections mirroring the services.

Sections: ``data`` (warehouse/symbol/interval/range), ``strategy``,
``costs`` and ``optimize``, plus a global ``seed`` (default 0) and
``out_dir``. CLI flags override individual keys. ``_read`` reads every
section through the field table of its dataclass. See README for the schema.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path

from .backtest import CostModel
from .errors import ValidationError, in_float_range
from .indicators import IndicatorSpec
from .neat import EvolutionConfig, read_genome, write_genome
from .strategy import PARAMS_BY_KIND, NeatParams, StopSettings, StrategyConfig, StrategyKind


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
class CostsSection(CostModel):
    """The run's cost model plus the cash it starts with."""

    initial_cash: float = 10_000.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.initial_cash > 0:
            raise ConfigError("initial_cash must be > 0")


@dataclass(frozen=True)
class OptimizeSection:
    mode: str = "tune"
    grid: list | dict | None = None
    inputs: tuple[IndicatorSpec, ...] = ()
    evolution: EvolutionConfig = field(default_factory=EvolutionConfig)
    drawdown_lambda: float = 0.5  # the "lambda" key

    def __post_init__(self) -> None:
        if self.mode not in ("tune", "evolve"):
            raise ConfigError(f"optimize mode must be tune or evolve, got '{self.mode}'")


@dataclass(frozen=True)
class StrategySection:  # the keys of a strategy section; params follow the kind
    kind: str
    params: dict = field(default_factory=dict)
    size: float = 1.0
    stops: StopSettings | None = None
    artifact: str | None = None


@dataclass(frozen=True, kw_only=True)
class RunConfig:
    seed: int = 0
    out_dir: str = "out"
    data: DataSection
    costs: CostsSection = field(default_factory=CostsSection)
    strategy: StrategyConfig | None = None
    optimize: OptimizeSection | None = None


def _int(value, key: str) -> int:
    if type(value) is int or type(value) is float and value.is_integer():
        return int(value)
    raise ConfigError(f"'{key}' must be an integer, got {value!r}")


def _float(value, key: str) -> float:
    if (type(value) is float or type(value) is int) and in_float_range(value):
        return float(value)
    raise ConfigError(f"'{key}' must be a finite number, got {value!r}")


def _exactly(types: tuple, what: str):
    def check(value, key: str):
        if type(value) not in types:
            raise ConfigError(f"'{key}' must be {what}, got {value!r}")
        return value
    return check


def _optional(check):
    return lambda value, key: None if value is None else check(value, key)


def _section(cls):  # null reads as an empty object
    return lambda value, key: cls(**_read(cls, {} if value is None else value, key))


_object, _list, _str, _bool, _maybe_object = (_exactly(types, what) for types, what in (
    ((dict,), "an object"), ((list,), "a list"), ((str,), "a string"),
    ((bool,), "true or false"), ((dict, type(None)), "an object")))
_stops = _section(StopSettings)
_CHECKS = {  # annotation -> type rule: check(value, key) gives the value to store, or raises
    "int": _int, "float": _float, "bool": _bool, "str": _str, "dict": _object,
    "int | None": _optional(_int), "str | None": _optional(_str),
    "list | dict | None": _exactly((list, dict, type(None)), "an object or a list"),
    "tuple[IndicatorSpec, ...]": lambda v, key: tuple(map(parse_indicator_spec, _list(v, key))),
    # an empty stops object means no stops, as null does
    "StopSettings | None": lambda v, key: None if v is None or v == {} else _stops(v, key),
    **{cls.__name__: _section(cls) for cls in (DataSection, CostsSection)},
    # read as objects, then built by load_config, which knows the symbol and seed
    "StrategyConfig | None": _maybe_object, "OptimizeSection | None": _maybe_object,
    "EvolutionConfig": _object,
}
_KEYS = {"drawdown_lambda": "lambda"}  # field -> key, where they differ
_KINDS = {kind.value: kind for kind in StrategyKind}


def _table(cls, skip: tuple[str, ...] = ()):
    """key -> (field, check) for the fields of ``cls`` a file sets; required fields."""
    declared = [f for f in fields(cls) if f.name not in skip]
    return ({_KEYS.get(f.name, f.name): (f.name, _CHECKS[f.type]) for f in declared},
            tuple(f.name for f in declared
                  if f.default is MISSING and f.default_factory is MISSING))


_TABLES = {cls: _table(cls) for cls in (
    RunConfig, DataSection, CostsSection, OptimizeSection, StrategySection, StopSettings,
    *(p for p in PARAMS_BY_KIND.values() if p is not NeatParams))}
_TABLES[EvolutionConfig] = _table(EvolutionConfig, skip=("seed",))  # the run seed


def _read(cls, raw, where: str) -> dict:
    """The fields of ``cls`` set by the JSON object ``raw``; errors name ``where``."""
    if type(raw) is not dict:
        raise ConfigError(f"'{where}' must be an object, got {raw!r}")
    table, required = _TABLES[cls]
    values = {}
    try:
        for key, value in raw.items():
            try:
                name, check = table[key]
            except KeyError:
                raise ConfigError(f"unknown key '{key}'") from None
            values[name] = check(value, key)
    except ValidationError as exc:
        raise ConfigError(f"{where}: {exc}") from exc
    for name in required:
        if name not in values:
            raise ConfigError(f"{where}: missing key '{name}'")
    return values


def read_params(kind: StrategyKind, raw):
    """The params of a kind other than neat, read from a JSON object."""
    cls = PARAMS_BY_KIND[kind]
    return cls(**_read(cls, raw, f"{kind.value} params"))


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
        params = dict(_maybe_object(entry.get("params"), "params") or {})
        return IndicatorSpec(name=entry["name"], params=params)
    raise ConfigError(f"bad indicator spec {entry!r}")


def build_strategy(section: dict, symbol: str, base_dir: Path) -> StrategyConfig:
    read = StrategySection(**_read(StrategySection, section, section.get("kind") or "strategy"))
    kind = _KINDS.get(read.kind)
    if kind is None:
        raise ConfigError(f"unknown strategy kind '{read.kind}'")
    if kind is StrategyKind.NEAT and not read.artifact:
        raise ConfigError("neat strategy needs an 'artifact' file path")
    params = (load_network_artifact(base_dir / read.artifact) if kind is StrategyKind.NEAT
              else read_params(kind, read.params))
    return StrategyConfig(symbol=symbol, params=params, size=read.size, stops=read.stops)


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
    try:
        return NeatParams(genome=genome, input_specs=inputs, norm=norm)
    except ValidationError as exc:
        raise ConfigError(f"bad network artifact {path}: {exc}") from exc


def write_network_artifact(path: Path, params: NeatParams, genome_name: str) -> None:
    """Write what ``load_network_artifact`` reads back: the genome to the
    file ``genome_name`` beside ``path``, and the artifact at ``path``."""
    path = Path(path)
    write_genome(params.genome, path.parent / genome_name)
    artifact = {
        "genome": genome_name,
        "inputs": [{"name": s.name, "params": s.params} for s in params.input_specs],
        "norm": [[m, s] for m, s in params.norm],
    }
    path.write_text(json.dumps(artifact, sort_keys=True, indent=2) + "\n")


def load_config(path: str | Path, seed: int | None = None) -> RunConfig:
    """Parse and validate a run config; ``seed`` overrides the file's seed."""
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path} is not valid JSON: {exc}") from exc

    values = _read(RunConfig, raw, "config")
    if seed is not None:
        values["seed"] = seed
    # strategy and optimize were read as objects; an empty one is no section
    strategy, optimize = values.get("strategy"), values.get("optimize")
    values["strategy"] = values["optimize"] = None
    if strategy:
        values["strategy"] = build_strategy(strategy, values["data"].symbol, path.parent)
    if optimize:
        evolution = EvolutionConfig(**_read(EvolutionConfig, optimize.get("evolution", {}),
                                            "evolution"), seed=values.get("seed", RunConfig.seed))
        values["optimize"] = OptimizeSection(**{**_read(OptimizeSection, optimize, "optimize"),
                                                "evolution": evolution})
    return RunConfig(**values)
