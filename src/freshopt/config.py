"""Scenario configuration files: a strict, versioned JSON schema.

Unknown keys are rejected (typo safety).  Problems are collected with their
field paths before anything is constructed, and all sections' problems are
reported together; a section's range checks run once all its values are
numbers (a market with "p": "x" and "beta": 2.0 reports market.p alone).
The keys of the market, contract, oracle, sweep and demand-parameter
sections are the fields of the type each builds; each type's field layout
is read once per process, and every file without an oracle section shares
one frozen default.  The CLI reuses the loaded contract unless a price flag
overrides one of its prices.
"""
from __future__ import annotations

import functools
import json
import os
import stat
from collections.abc import Container
from dataclasses import dataclass
from pathlib import Path

from .demand import (
    _FAMILIES,
    DemandDistribution,
    InvalidValue,
    _check_each,
    _check_positive,
    _field_layout,
    _Layout,
)
from .oracle import DEFAULT_GRID_STEP, _check_draws
from .profit import MarketParams, OptionContract
from .sweep import MODE_FIXED_CONTRACT, SweepScenario, _check_mode, _default_k_grid, _k_range

SCHEMA_VERSION = 1

DEFAULT_SAMPLES = 1_000_000
DEFAULT_SEED = 42
# Largest scenario file read; the packaged one is under 1 kB.
MAX_CONFIG_BYTES = 1 << 20
# Read first, so that a scenario-sized file does not allocate a buffer the size of the bound.
_FIRST_READ = 1 << 16

_DEMAND_KEYS = {"family", "params"}
_KGRID = _Layout(("start", "step", "stop"))


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


_DEFAULT_ORACLE = OracleSettings()  # the settings of every file without an oracle section


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


_TOP_KEYS = frozenset({"schema", "comment", *_field_layout(ScenarioConfig).names})


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

    _reject_unknown(raw, _TOP_KEYS, "", problems)
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
    oracle = _read(OracleSettings, raw["oracle"], "oracle", problems) if "oracle" in raw else _DEFAULT_ORACLE
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


def _reject_unknown(mapping: dict, allowed: Container[str], prefix: str, problems: list[str]) -> None:
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


def _number(value, path: str, problems: list[str], name: str = "") -> float | None:
    """value as a float; None after recording at path + name why it is not a number."""
    if type(value) is float:  # most JSON numbers
        return value
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        problems.append(f"{path}{name}: expected a number, got {value!r}")
        return None
    try:
        return float(value)
    except OverflowError:  # JSON integers are unbounded
        problems.append(f"{path}{name}: must be finite, got an integer beyond the float range")
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
    values = _numbers(raw, _field_layout(cls), f"{path}.", problems)
    return None if values is None else _checked(problems, f"{path}.", lambda: cls(**values))


def _numbers(raw: dict, layout: _Layout, prefix: str, problems: list[str]) -> dict | None:
    """Each field of layout that raw holds, as a number or, for an int field, as it is; None
    after recording what is unknown, missing without a default, or not a number."""
    _reject_unknown(raw, layout.names, prefix, problems)
    before = len(problems)
    values = {}
    for name in layout.names:
        if name in raw:
            values[name] = raw[name] if name in layout.ints else _number(raw[name], prefix, problems, name)
        elif name not in layout.defaulted:
            problems.append(f"{prefix}{name}: required")
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
    """The sweep section, checked as the SweepScenario it describes once its values are numbers."""
    raw = _section(raw, "sweep", problems)
    if raw is None:
        return None
    _reject_unknown(raw, _field_layout(SweepSettings).names, "sweep.", problems)
    mode = _checked(problems, "sweep.", lambda: _check_mode(raw.get("mode")))
    prices = {name: _number(raw[name], "sweep.", problems, name) for name in ("c0", "ce") if name in raw}
    k_grid = _parse_k_grid(raw["k_grid"], problems) if "k_grid" in raw else None
    if mode is None or None in prices.values() or (k_grid is None and "k_grid" in raw):
        return None
    try:  # the sweep's own fields: demand and market are checked as their sections
        SweepScenario(mode, None, None, _default_k_grid(mode) if k_grid is None else k_grid,
                      contract=contract if mode == MODE_FIXED_CONTRACT else None,
                      **{f"fixed_{name}": value for name, value in prices.items()})
    except InvalidValue as exc:
        problems += [f"sweep.mode: {mode} mode requires the contract section" if field == "contract"
                     else f"sweep.{field.removeprefix('fixed_')}: {rule}" for field, rule in exc.problems]
        return None
    return SweepSettings(mode=mode, k_grid=k_grid, **prices)


def _parse_k_grid(raw, problems: list[str]) -> tuple[float, ...] | None:
    if isinstance(raw, list):
        grid = tuple(_number(item, f"sweep.k_grid[{i}]", problems) for i, item in enumerate(raw))
    elif isinstance(raw, dict):
        bounds = _numbers(raw, _KGRID, "sweep.k_grid.", problems)
        grid = None if bounds is None else _checked(problems, "sweep.k_grid.", lambda: _k_range(**bounds))
    else:
        problems.append("sweep.k_grid: expected a list of numbers or {start, stop, step}")
        return None
    return None if grid is None or None in grid else grid  # a bound, a range or an item was rejected
