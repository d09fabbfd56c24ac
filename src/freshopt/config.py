"""Scenario configuration files: a strict, versioned JSON schema.

Unknown keys are rejected (typo safety) and every validation failure is
collected with its field path before anything is constructed, so a bad
file reports all its problems at once.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from .demand import DemandDistribution, make_distribution
from .profit import MarketParams, OptionContract
from .sweep import MODE_FIXED_CONTRACT, MODE_FIXED_EXERCISE, MODE_FIXED_PREMIUM, MODES, _k_range

SCHEMA_VERSION = 1

DEFAULT_SAMPLES = 1_000_000
DEFAULT_SEED = 42
DEFAULT_GRID_STEP = 0.05

_TOP_KEYS = {"schema", "comment", "demand", "market", "contract", "overconfidence",
             "oracle", "sweep"}
_MARKET_KEYS = {"p", "g", "w0", "c", "beta", "theta"}
_CONTRACT_KEYS = {"c0", "ce"}
_ORACLE_KEYS = {"samples", "seed", "grid_step"}
_SWEEP_KEYS = {"mode", "c0", "ce", "k_grid"}
_DEMAND_KEYS = {"family", "params"}
_DEMAND_PARAMS = {
    "uniform": {"lo", "hi"},
    "exponential": {"rate"},
    "truncated-normal": {"mu", "sigma"},
}
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
    samples: int = DEFAULT_SAMPLES
    seed: int = DEFAULT_SEED
    grid_step: float = DEFAULT_GRID_STEP


@dataclass(frozen=True)
class SweepSettings:
    mode: str
    c0: float | None = None
    ce: float | None = None
    k_grid: tuple[float, ...] | None = None  # None selects the mode's default grid


@dataclass(frozen=True)
class ScenarioConfig:
    demand: DemandDistribution
    market: MarketParams
    contract: OptionContract | None
    overconfidence: float
    oracle: OracleSettings
    sweep: SweepSettings | None


def load_config(path) -> ScenarioConfig:
    """Read, parse, and validate a scenario file."""
    file_path = Path(path)
    try:
        text = file_path.read_text(encoding="utf-8")
    except FileNotFoundError:
        raise ConfigNotFound(f"configuration file not found: {file_path}") from None
    except IsADirectoryError:
        raise ConfigNotFound(f"configuration path is a directory: {file_path}") from None
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigParseError(str(file_path), exc.lineno, exc.colno, exc.msg) from None
    return parse_config(raw)


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
    market = _parse_market(raw.get("market"), problems)
    contract = _parse_contract(raw.get("contract"), problems) if "contract" in raw else None
    overconfidence = _number(raw.get("overconfidence", 1.0), "overconfidence", problems)
    if overconfidence is not None and overconfidence <= 0.0:
        problems.append(f"overconfidence: must be > 0, got {overconfidence}")
    oracle = _parse_oracle(raw.get("oracle"), problems) if "oracle" in raw else OracleSettings()
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


def _number(value, path: str, problems: list[str]) -> float | None:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        problems.append(f"{path}: expected a number, got {value!r}")
        return None
    return float(value)


def _integer(value, path: str, problems: list[str]) -> int | None:
    if isinstance(value, bool) or not isinstance(value, int):
        problems.append(f"{path}: expected an integer, got {value!r}")
        return None
    return value


def _parse_demand(raw, problems: list[str]) -> DemandDistribution | None:
    if raw is None:
        problems.append("demand: required section missing")
        return None
    if not isinstance(raw, dict):
        problems.append("demand: expected an object")
        return None
    _reject_unknown(raw, _DEMAND_KEYS, "demand.", problems)
    family = raw.get("family")
    if family not in _DEMAND_PARAMS:
        problems.append(
            f"demand.family: expected one of {sorted(_DEMAND_PARAMS)}, got {family!r}")
        return None
    params_raw = raw.get("params")
    if not isinstance(params_raw, dict):
        problems.append("demand.params: expected an object")
        return None
    expected = _DEMAND_PARAMS[family]
    _reject_unknown(params_raw, expected, "demand.params.", problems)
    params: dict[str, float] = {}
    ok = True
    for name in sorted(expected):
        if name not in params_raw:
            problems.append(f"demand.params.{name}: required for family {family!r}")
            ok = False
            continue
        value = _number(params_raw[name], f"demand.params.{name}", problems)
        if value is None:
            ok = False
        else:
            params[name] = value
    if not ok:
        return None
    try:
        return make_distribution(family, **params)
    except ValueError as exc:
        problems.append(f"demand: {exc}")
        return None


def _parse_market(raw, problems: list[str]) -> MarketParams | None:
    if raw is None:
        problems.append("market: required section missing")
        return None
    if not isinstance(raw, dict):
        problems.append("market: expected an object")
        return None
    _reject_unknown(raw, _MARKET_KEYS, "market.", problems)
    values: dict[str, float] = {}
    ok = True
    for name in sorted(_MARKET_KEYS):
        if name not in raw:
            problems.append(f"market.{name}: required")
            ok = False
            continue
        value = _number(raw[name], f"market.{name}", problems)
        if value is None:
            ok = False
        else:
            values[name] = value
    if not ok:
        return None
    before = len(problems)
    if not values["p"] > values["w0"]:
        problems.append(f"market.p: must exceed w0, got p={values['p']}, w0={values['w0']}")
    if not values["w0"] > values["c"]:
        problems.append(f"market.w0: must exceed c, got w0={values['w0']}, c={values['c']}")
    if values["c"] < 0.0:
        problems.append(f"market.c: must be >= 0, got {values['c']}")
    if values["g"] < 0.0:
        problems.append(f"market.g: must be >= 0, got {values['g']}")
    if not 0.0 < values["beta"] < 1.0:
        problems.append(f"market.beta: must satisfy 0 < beta < 1, got {values['beta']}")
    if not 0.0 < values["theta"] <= 1.0:
        problems.append(f"market.theta: must satisfy 0 < theta <= 1, got {values['theta']}")
    if len(problems) > before:
        return None
    return MarketParams(**values)


def _parse_contract(raw, problems: list[str]) -> OptionContract | None:
    if not isinstance(raw, dict):
        problems.append("contract: expected an object")
        return None
    _reject_unknown(raw, _CONTRACT_KEYS, "contract.", problems)
    ok = True
    values: dict[str, float] = {}
    for name in sorted(_CONTRACT_KEYS):
        if name not in raw:
            problems.append(f"contract.{name}: required")
            ok = False
            continue
        value = _number(raw[name], f"contract.{name}", problems)
        if value is None:
            ok = False
        elif value <= 0.0:
            problems.append(f"contract.{name}: must be > 0, got {value}")
            ok = False
        else:
            values[name] = value
    return OptionContract(**values) if ok else None


def _parse_oracle(raw, problems: list[str]) -> OracleSettings:
    if not isinstance(raw, dict):
        problems.append("oracle: expected an object")
        return OracleSettings()
    _reject_unknown(raw, _ORACLE_KEYS, "oracle.", problems)
    samples = _integer(raw.get("samples", DEFAULT_SAMPLES), "oracle.samples", problems)
    if samples is not None and samples < 1:
        problems.append(f"oracle.samples: must be >= 1, got {samples}")
    seed = _integer(raw.get("seed", DEFAULT_SEED), "oracle.seed", problems)
    if seed is not None and seed < 0:
        problems.append(f"oracle.seed: must be >= 0, got {seed}")
    step = _number(raw.get("grid_step", DEFAULT_GRID_STEP), "oracle.grid_step", problems)
    if step is not None and step <= 0.0:
        problems.append(f"oracle.grid_step: must be > 0, got {step}")
    return OracleSettings(
        samples=samples if samples is not None else DEFAULT_SAMPLES,
        seed=seed if seed is not None else DEFAULT_SEED,
        grid_step=step if step is not None else DEFAULT_GRID_STEP,
    )


def _parse_sweep(raw, contract: OptionContract | None, problems: list[str]) -> SweepSettings | None:
    if not isinstance(raw, dict):
        problems.append("sweep: expected an object")
        return None
    _reject_unknown(raw, _SWEEP_KEYS, "sweep.", problems)
    mode = raw.get("mode")
    if mode not in MODES:
        problems.append(f"sweep.mode: expected one of {MODES}, got {mode!r}")
        return None
    c0 = ce = None
    if mode == MODE_FIXED_EXERCISE:
        if "ce" not in raw:
            problems.append("sweep.ce: required for fixed-exercise-price mode")
            return None
        ce = _number(raw["ce"], "sweep.ce", problems)
        if ce is not None and ce <= 0.0:
            problems.append(f"sweep.ce: must be > 0, got {ce}")
    elif mode == MODE_FIXED_PREMIUM:
        if "c0" not in raw:
            problems.append("sweep.c0: required for fixed-premium mode")
            return None
        c0 = _number(raw["c0"], "sweep.c0", problems)
        if c0 is not None and c0 <= 0.0:
            problems.append(f"sweep.c0: must be > 0, got {c0}")
    elif mode == MODE_FIXED_CONTRACT and contract is None:
        problems.append("sweep.mode: fixed-contract mode requires the contract section")
        return None
    k_grid = _parse_k_grid(raw.get("k_grid"), problems) if "k_grid" in raw else None
    return SweepSettings(mode=mode, c0=c0, ce=ce, k_grid=k_grid)


def _parse_k_grid(raw, problems: list[str]) -> tuple[float, ...] | None:
    if isinstance(raw, list):
        values: list[float] = []
        for i, item in enumerate(raw):
            value = _number(item, f"sweep.k_grid[{i}]", problems)
            if value is None:
                return None
            values.append(value)
        if len(values) == 0:
            problems.append("sweep.k_grid: must not be empty")
            return None
        if any(v <= 0.0 for v in values):
            problems.append("sweep.k_grid: all values must be > 0")
            return None
        if any(b <= a for a, b in zip(values, values[1:])):
            problems.append("sweep.k_grid: values must be strictly increasing")
            return None
        return tuple(values)
    if isinstance(raw, dict):
        _reject_unknown(raw, _KGRID_KEYS, "sweep.k_grid.", problems)
        missing = [k for k in sorted(_KGRID_KEYS) if k not in raw]
        if missing:
            problems.append(f"sweep.k_grid: missing {', '.join(missing)}")
            return None
        start = _number(raw["start"], "sweep.k_grid.start", problems)
        stop = _number(raw["stop"], "sweep.k_grid.stop", problems)
        step = _number(raw["step"], "sweep.k_grid.step", problems)
        if None in (start, stop, step):
            return None
        if start <= 0.0 or stop < start or step <= 0.0:
            problems.append(
                f"sweep.k_grid: need 0 < start <= stop and step > 0, got "
                f"start={start}, stop={stop}, step={step}")
            return None
        return _k_range(start, stop, step)
    problems.append("sweep.k_grid: expected a list of numbers or {start, stop, step}")
    return None
