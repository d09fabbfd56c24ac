"""Scenario configuration files: a strict, versioned JSON schema.

Unknown keys are rejected (typo safety).  Problems are collected with their
field paths before anything is constructed, and all sections' problems are
reported together; a section's range checks run once all its values are
numbers (a market with "p": "x" and "beta": 2.0 reports market.p alone).
The keys of the market, contract, oracle, sweep and demand-parameter
sections are the fields of the type each builds.
"""
from __future__ import annotations

import dataclasses
import functools
import json
import os
import stat
from dataclasses import dataclass
from pathlib import Path

from .demand import (
    _FAMILIES,
    DemandDistribution,
    InvalidValue,
    _check_each,
    _check_positive,
    _field_names,
)
from .oracle import _check_draws
from .profit import MarketParams, OptionContract
from .sweep import FIXED_PRICE, _check_k_grid, _check_mode, _k_range

SCHEMA_VERSION = 1

DEFAULT_SAMPLES = 1_000_000
DEFAULT_SEED = 42
DEFAULT_GRID_STEP = 0.05
# Largest scenario file read; the packaged one is under 1 kB.
MAX_CONFIG_BYTES = 1 << 20
# Read first, so that a scenario-sized file does not allocate a buffer the size of the bound.
_FIRST_READ = 1 << 16

_DEMAND_KEYS = {"family", "params"}
_KGRID_KEYS = {"start", "stop", "step"}


class ConfigError(Exception):
    """Base class for scenario-configuration problems."""


class ConfigNotFound(ConfigError):
    pass


class ConfigParseError(ConfigError):
    def __init__(self, path: str, line: int, column: int, reason: str):
        super().__init__(f"{path}:{line}:{column}: {reason}")
        self.line = line
        self.column = column


class ConfigValidationError(ConfigError):
    def __init__(self, problems: list[str]):
        super().__init__("invalid configuration:\n  " + "\n  ".join(problems))
        self.problems = list(problems)


@dataclass(frozen=True)
class OracleSettings:
    """Monte-Carlo draws and seed; ``grid_step`` is validated but unread, kept so schema-1 files load."""

    samples: int = DEFAULT_SAMPLES
    seed: int = DEFAULT_SEED
    grid_step: float = DEFAULT_GRID_STEP

    def __post_init__(self):
        _check_each((_check_draws, self.samples, self.seed), (_check_positive, "grid_step", self.grid_step))


@dataclass(frozen=True)
class SweepSettings:
    """A config's sweep section: mode, the fixed price it reads, and an optional k grid."""

    mode: str
    c0: float | None = None
    ce: float | None = None
    k_grid: tuple[float, ...] | None = None  # None selects the mode's default grid


@dataclass(frozen=True)
class ScenarioConfig:
    """A validated scenario file: demand, market, contract, k, oracle and sweep settings."""

    demand: DemandDistribution
    market: MarketParams
    contract: OptionContract | None
    overconfidence: float
    oracle: OracleSettings
    sweep: SweepSettings | None


def load_config(path) -> ScenarioConfig:
    """Read, parse, and validate a scenario file; the text is read on every call."""
    file_path = Path(path)
    try:
        mode = os.stat(file_path).st_mode
        if stat.S_ISDIR(mode):
            raise ConfigNotFound(f"configuration path is a directory: {file_path}")
        if not stat.S_ISREG(mode):  # a FIFO would block in open, a device read without end
            raise ConfigNotFound(f"cannot read configuration file {file_path}: not a regular file")
        # Non-blocking, should the path have become a FIFO since the stat.
        fd = os.open(file_path, os.O_RDONLY | os.O_NONBLOCK)
        try:
            data = os.read(fd, _FIRST_READ)
            if len(data) == _FIRST_READ:
                data += os.read(fd, MAX_CONFIG_BYTES + 1 - _FIRST_READ)
        finally:
            os.close(fd)
        if len(data) > MAX_CONFIG_BYTES:
            raise ConfigError(f"{file_path}: larger than {MAX_CONFIG_BYTES} bytes")
        # Newlines as text mode reads them, so a JSON error position counts a lone CR as a line break.
        return _parse_text(data.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n"))
    except FileNotFoundError:
        raise ConfigNotFound(f"configuration file not found: {file_path}") from None
    except OSError as exc:  # no permission, a symlink loop, a name too long, ...
        raise ConfigNotFound(f"cannot read configuration file {file_path}: {exc.strerror or exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigParseError(str(file_path), exc.lineno, exc.colno, exc.msg) from None
    except (ValueError, RecursionError) as exc:  # not UTF-8, or past an integer-digit or nesting limit
        raise ConfigError(f"{file_path}: {exc}") from None


@functools.lru_cache(maxsize=1)  # keyed on the text itself, so an edited file is parsed again
def _parse_text(text: str) -> ScenarioConfig:
    """The validated config of a scenario text, shared by every call: it is frozen.  No
    exception is cached, so a bad text raises again, with its path, on every call."""
    return parse_config(json.loads(text))


def parse_config(raw) -> ScenarioConfig:
    """Validate an already-parsed configuration mapping."""
    problems: list[str] = []
    if not isinstance(raw, dict):
        raise ConfigValidationError(["top level: expected a JSON object"])

    _reject_unknown(raw, {"schema", "comment", *_field_names(ScenarioConfig)}, "", problems)
    schema = raw.get("schema")
    if schema != SCHEMA_VERSION:
        problems.append(f"schema: expected {SCHEMA_VERSION}, got {schema!r}")
    comment = raw.get("comment")
    if comment is not None and not isinstance(comment, str):
        problems.append("comment: expected a string")

    demand = _parse_demand(raw.get("demand"), problems)
    market = _read(MarketParams, raw.get("market"), "market", problems, required=True)
    contract = _read(OptionContract, raw["contract"], "contract", problems) if "contract" in raw else None
    overconfidence = _number(raw.get("overconfidence", 1.0), "overconfidence", problems)
    if overconfidence is not None:
        _checked(problems, "", lambda: _check_positive("overconfidence", overconfidence))
    oracle = (_read(OracleSettings, raw["oracle"], "oracle", problems) if "oracle" in raw
              else OracleSettings())
    sweep = _parse_sweep(raw.get("sweep"), contract, problems) if "sweep" in raw else None

    if problems:
        raise ConfigValidationError(problems)
    return ScenarioConfig(
        demand=demand,
        market=market,
        contract=contract,
        overconfidence=float(overconfidence),
        oracle=oracle,
        sweep=sweep,
    )


def _reject_unknown(mapping: dict, allowed: set[str], prefix: str, problems: list[str]) -> None:
    for key in mapping:
        if key not in allowed:
            problems.append(f"{prefix}{key}: unknown key")


def _checked(problems: list[str], prefix: str, build):
    """build(), or None after recording each InvalidValue problem under prefix + field."""
    try:
        return build()
    except InvalidValue as exc:
        problems.extend(f"{prefix}{field}: {rule}" for field, rule in exc.problems)
        return None


def _number(value, path: str, problems: list[str]) -> float | None:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        problems.append(f"{path}: expected a number, got {value!r}")
        return None
    try:
        return float(value)
    except OverflowError:  # JSON integers are unbounded
        problems.append(f"{path}: must be finite, got an integer beyond the float range")
        return None


def _section(raw, path: str, problems: list[str], required: bool = False) -> dict | None:
    """raw, the section at path, if it is a JSON object; else None after recording why not."""
    if isinstance(raw, dict):
        return raw
    problems.append(f"{path}: required section missing" if required and raw is None
                    else f"{path}: expected an object")
    return None


def _read(cls, raw, path: str, problems: list[str], required: bool = False):
    """A cls from the section raw at path; None after recording why not: raw is not an object,
    a key is unknown, missing or not a number, or cls rejects a value.  A field with a default
    may be left out, and an int field goes to cls as given, for cls to judge."""
    raw = _section(raw, path, problems, required)
    if raw is None:
        return None
    fields = [f for f in dataclasses.fields(cls) if f.name in raw or f.default is dataclasses.MISSING]
    values = _numbers(raw, {f.name for f in fields}, f"{path}.", problems,
                      {f.name for f in fields if f.type == "int"})
    return None if values is None else _checked(problems, f"{path}.", lambda: cls(**values))


def _numbers(raw: dict, names: set[str], prefix: str, problems: list[str],
             as_given: set[str] = frozenset()) -> dict | None:
    """Each of names, as a number or, for those in as_given, as it is; None after recording
    what is unknown, missing or not a number."""
    _reject_unknown(raw, names, prefix, problems)
    before = len(problems)
    values = {}
    for name in sorted(names):
        if name not in raw:
            problems.append(f"{prefix}{name}: required")
        elif name in as_given:
            values[name] = raw[name]
        else:
            values[name] = _number(raw[name], f"{prefix}{name}", problems)
    return values if len(problems) == before else None


def _parse_demand(raw, problems: list[str]) -> DemandDistribution | None:
    raw = _section(raw, "demand", problems, required=True)
    if raw is None:
        return None
    _reject_unknown(raw, _DEMAND_KEYS, "demand.", problems)
    family = raw.get("family")
    if not (isinstance(family, str) and family in _FAMILIES):
        problems.append(
            f"demand.family: expected one of {sorted(_FAMILIES)}, got {family!r}")
        return None
    return _read(_FAMILIES[family], raw.get("params"), "demand.params", problems)


def _parse_sweep(raw, contract: OptionContract | None, problems: list[str]) -> SweepSettings | None:
    raw = _section(raw, "sweep", problems)
    if raw is None:
        return None
    _reject_unknown(raw, _field_names(SweepSettings), "sweep.", problems)
    mode = _checked(problems, "sweep.", lambda: _check_mode(raw.get("mode")))
    if mode is None:
        return None
    fixed = FIXED_PRICE[mode]
    for name in sorted((_field_names(OptionContract) - {fixed}) & raw.keys()):
        problems.append(f"sweep.{name}: not read in {mode} mode")
    prices: dict[str, float | None] = {}
    if fixed is not None:
        if fixed not in raw:
            problems.append(f"sweep.{fixed}: required for {mode} mode")
            return None
        price = prices[fixed] = _number(raw[fixed], f"sweep.{fixed}", problems)
        if price is not None:
            _checked(problems, "sweep.", lambda: _check_positive(fixed, price))
    elif contract is None:
        problems.append(f"sweep.mode: {mode} mode requires the contract section")
        return None
    k_grid = _parse_k_grid(raw.get("k_grid"), problems) if "k_grid" in raw else None
    return SweepSettings(mode=mode, k_grid=k_grid, **prices)


def _parse_k_grid(raw, problems: list[str]) -> tuple[float, ...] | None:
    if isinstance(raw, list):
        grid = tuple(_number(item, f"sweep.k_grid[{i}]", problems) for i, item in enumerate(raw))
    elif isinstance(raw, dict):
        bounds = _numbers(raw, _KGRID_KEYS, "sweep.k_grid.", problems)
        grid = None if bounds is None else _checked(problems, "sweep.k_grid.", lambda: _k_range(**bounds))
    else:
        problems.append("sweep.k_grid: expected a list of numbers or {start, stop, step}")
        return None
    if grid is None or None in grid:  # a bound, a range or an item was rejected
        return None
    _checked(problems, "sweep.", lambda: _check_k_grid(grid))
    return grid
