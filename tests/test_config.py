"""Config loader tests: strict schema, aggregated errors, defaults."""
from __future__ import annotations

import dataclasses
import json
import math

import pytest

from freshopt import (
    MODES,
    ConfigNotFound,
    ConfigParseError,
    ConfigValidationError,
    InvalidValue,
    MarketParams,
    OptionContract,
    OracleSettings,
    SweepScenario,
    Uniform,
    load_config,
    parse_config,
)
from freshopt.cli import default_config_path
from freshopt.demand import _FAMILIES


def _baseline_raw():
    return json.loads(default_config_path().read_text(encoding="utf-8"))


class TestLoadConfig:
    def test_shipped_scenario(self):
        config = load_config(default_config_path())
        assert config.demand == Uniform(0.0, 100.0)
        assert config.market.p == 50.0
        assert config.market.g == 10.0
        assert config.market.w0 == 25.0
        assert config.market.c == 15.0
        assert config.market.beta == 0.1
        assert config.market.theta == 0.8
        assert config.contract.c0 == 5.0
        assert config.contract.ce == 35.0
        assert config.overconfidence == 1.0
        assert config.oracle.samples == 1_000_000
        assert config.oracle.seed == 42
        assert config.oracle.grid_step == 0.05
        assert config.sweep.mode == "fixed-exercise-price"
        assert config.sweep.ce == 35.0
        assert config.sweep.k_grid[0] == 0.8
        assert config.sweep.k_grid[-1] == 1.5
        assert len(config.sweep.k_grid) == 15
        raw = _baseline_raw()
        raw["sweep"]["k_grid"]["step"] = 0.4  # a third point, 1.6, would pass stop
        assert parse_config(raw).sweep.k_grid == (0.8, 1.2)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigNotFound):
            load_config(tmp_path / "nope.json")

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
    def test_parse_error_carries_position(self, tmp_path, newline):
        bad = tmp_path / "bad.json"
        bad.write_bytes('{\n  "schema": 1,\n  oops\n}\n'.replace("\n", newline).encode())
        with pytest.raises(ConfigParseError) as err:
            load_config(bad)
        assert err.value.line == 3
        assert err.value.column == 3

    def test_round_trip_through_file(self, tmp_path):
        raw = _baseline_raw()
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(raw), encoding="utf-8")
        assert load_config(path) == load_config(default_config_path())


class TestParseMemo:
    """load_config reads the file on every call and parses a text it last parsed once."""

    def test_rewritten_file_gives_new_values(self, tmp_path):
        path = tmp_path / "scenario.json"
        raw = _baseline_raw()
        path.write_text(json.dumps(raw), encoding="utf-8")
        assert load_config(path).market.p == 50.0
        raw["market"]["p"] = 55.0
        path.write_text(json.dumps(raw), encoding="utf-8")
        assert load_config(path).market.p == 55.0

    def test_broken_edit_after_good_load_names_path_and_position(self, tmp_path):
        path = tmp_path / "scenario.json"
        text = json.dumps(_baseline_raw(), indent=1)
        path.write_text(text, encoding="utf-8")
        load_config(path)
        path.write_text(text.replace('"schema": 1,', '"schema": 1', 1), encoding="utf-8")
        with pytest.raises(ConfigParseError) as err:
            load_config(path)
        assert str(err.value).startswith(f"{path}:{err.value.line}:{err.value.column}: ")
        assert (err.value.line, err.value.column) == (3, 2)

    def test_same_text_at_two_paths_gives_equal_configs(self, tmp_path):
        text = json.dumps(_baseline_raw())
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        first.write_text(text, encoding="utf-8")
        second.write_text(text, encoding="utf-8")
        assert load_config(first) == load_config(second) == load_config(default_config_path())

    def test_invalid_text_raises_on_every_call(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(_baseline_with(("market", "beta"), 1.0)), encoding="utf-8")
        for _ in range(3):
            with pytest.raises(ConfigValidationError, match="market.beta"):
                load_config(path)


class TestValidation:
    def test_beta_of_one_rejected(self):
        raw = _baseline_raw()
        raw["market"]["beta"] = 1.0
        with pytest.raises(ConfigValidationError) as err:
            parse_config(raw)
        assert any("market.beta" in p for p in err.value.problems)

    def test_unknown_key_named(self):
        raw = _baseline_raw()
        raw["contract"]["cee"] = 12.0
        with pytest.raises(ConfigValidationError) as err:
            parse_config(raw)
        assert any("contract.cee: unknown key" in p for p in err.value.problems)

    def test_unknown_top_level_key(self):
        raw = _baseline_raw()
        raw["markett"] = {}
        with pytest.raises(ConfigValidationError) as err:
            parse_config(raw)
        assert any(p.startswith("markett") for p in err.value.problems)

    def test_all_failures_reported_together(self):
        raw = _baseline_raw()
        raw["market"]["beta"] = 2.0
        raw["market"]["theta"] = 0.0
        raw["contract"]["c0"] = -5.0
        raw["demand"]["params"]["hi"] = -1.0
        with pytest.raises(ConfigValidationError) as err:
            parse_config(raw)
        joined = "\n".join(err.value.problems)
        assert "market.beta" in joined
        assert "market.theta" in joined
        assert "contract.c0" in joined
        assert "demand" in joined
        assert len(err.value.problems) >= 4

    def test_contract_reports_both_prices(self):
        raw = _baseline_raw()
        raw["contract"] = {"c0": -5.0, "ce": -1.0}
        with pytest.raises(ConfigValidationError) as err:
            parse_config(raw)
        assert err.value.problems == ["contract.c0: must be finite and > 0, got -5.0",
                                      "contract.ce: must be finite and > 0, got -1.0"]

    def test_schema_version_required(self):
        raw = _baseline_raw()
        raw["schema"] = 2
        with pytest.raises(ConfigValidationError) as err:
            parse_config(raw)
        assert any(p.startswith("schema") for p in err.value.problems)

    def test_missing_sections(self):
        with pytest.raises(ConfigValidationError) as err:
            parse_config({"schema": 1})
        joined = "\n".join(err.value.problems)
        assert "demand" in joined and "market" in joined

    def test_demand_family_checked(self):
        raw = _baseline_raw()
        raw["demand"] = {"family": "weibull", "params": {"shape": 2.0}}
        with pytest.raises(ConfigValidationError) as err:
            parse_config(raw)
        assert any("demand.family" in p for p in err.value.problems)

    def test_demand_param_names_checked(self):
        raw = _baseline_raw()
        raw["demand"] = {"family": "exponential", "params": {"lambda": 0.01}}
        with pytest.raises(ConfigValidationError) as err:
            parse_config(raw)
        joined = "\n".join(err.value.problems)
        assert "demand.params.lambda: unknown key" in joined
        assert "demand.params.rate: required" in joined

    def test_overconfidence_positive(self):
        raw = _baseline_raw()
        raw["overconfidence"] = -0.5
        with pytest.raises(ConfigValidationError) as err:
            parse_config(raw)
        assert any("overconfidence" in p for p in err.value.problems)

    @pytest.mark.parametrize("key,value", [("seed", -1), ("samples", 0), ("samples", -3)])
    def test_oracle_seed_and_samples_in_range(self, key, value):
        raw = _baseline_raw()
        raw["oracle"][key] = value
        with pytest.raises(ConfigValidationError) as err:
            parse_config(raw)
        assert any(p.startswith(f"oracle.{key}: must be >=") for p in err.value.problems)

    def test_numbers_not_strings(self):
        raw = _baseline_raw()
        raw["market"]["p"] = "50"
        with pytest.raises(ConfigValidationError) as err:
            parse_config(raw)
        assert any("market.p: expected a number" in p for p in err.value.problems)


class TestDefaultsAndOptional:
    def test_minimal_config(self):
        config = parse_config({
            "schema": 1,
            "demand": {"family": "exponential", "params": {"rate": 0.02}},
            "market": {"p": 50.0, "g": 10.0, "w0": 25.0, "c": 15.0,
                       "beta": 0.1, "theta": 0.8},
        })
        assert config.contract is None
        assert config.sweep is None
        assert config.overconfidence == 1.0
        assert config.oracle.samples == 1_000_000

    def test_k_grid_as_list(self):
        raw = _baseline_raw()
        raw["sweep"]["k_grid"] = [0.9, 1.0, 1.25]
        config = parse_config(raw)
        assert config.sweep.k_grid == (0.9, 1.0, 1.25)

    def test_k_grid_list_must_increase(self):
        raw = _baseline_raw()
        raw["sweep"]["k_grid"] = [1.0, 0.9]
        with pytest.raises(ConfigValidationError):
            parse_config(raw)

    def test_sweep_mode_requires_value(self):
        raw = _baseline_raw()
        raw["sweep"] = {"mode": "fixed-premium"}
        with pytest.raises(ConfigValidationError) as err:
            parse_config(raw)
        assert any("sweep.c0" in p for p in err.value.problems)


def _baseline_with(path: tuple, value) -> dict:
    raw = _baseline_raw()
    *parents, key = path
    section = raw
    for name in parents:
        section = section[name]
    section[key] = value
    return raw


# Values that once passed validation or escaped it as another exception.
OUT_OF_DOMAIN = [
    (("market", "p"), math.inf, "market.p"),
    (("market", "g"), math.inf, "market.g"),
    (("contract", "c0"), math.inf, "contract.c0"),
    (("contract", "ce"), math.nan, "contract.ce"),
    (("overconfidence",), math.inf, "overconfidence"),
    (("overconfidence",), math.nan, "overconfidence"),
    (("oracle", "grid_step"), math.nan, "oracle.grid_step"),
    (("sweep",), {"mode": "fixed-premium", "c0": math.nan}, "sweep.c0"),
    (("sweep",), {"mode": "fixed-exercise-price", "ce": 35.0, "c0": "abc"}, "sweep.c0"),
    (("sweep",), {"mode": "fixed-premium", "c0": 5.0, "ce": 35.0}, "sweep.ce"),
    (("sweep",), {"mode": "fixed-contract", "ce": 35.0}, "sweep.ce"),
    (("sweep", "k_grid"), [math.nan], "sweep.k_grid[0]"),
    (("sweep", "k_grid"), {"start": 1.0, "stop": math.inf, "step": 0.1}, "sweep.k_grid.stop"),
    (("sweep", "k_grid"), {"start": 1.0, "stop": 2.0, "step": 1e-6}, "sweep.k_grid.step"),
    (("market", "p"), 10**400, "market.p"),
    (("demand", "family"), ["uniform"], "demand.family"),
]


class TestNonFiniteAndUnbounded:
    @pytest.mark.parametrize("path,value,field", OUT_OF_DOMAIN,
                             ids=[f"{c[2]}={c[1]!r:.50}" for c in OUT_OF_DOMAIN])
    def test_rejected_with_field_path(self, path, value, field):
        with pytest.raises(ConfigValidationError) as err:
            parse_config(_baseline_with(path, value))
        assert any(p.startswith(f"{field}: ") for p in err.value.problems), err.value.problems

    def test_json_literals_reach_validation(self, tmp_path):
        # Python's json module accepts NaN and Infinity, so a file can carry them.
        text = json.dumps(_baseline_with(("market", "p"), math.inf))
        assert "Infinity" in text
        path = tmp_path / "inf.json"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ConfigValidationError, match="market.p: must be finite"):
            load_config(path)


def _baseline_without(*names) -> dict:
    raw = _baseline_raw()
    for name in names:
        del raw[name]
    return raw


# Each config, and the whole problem list it gives, word for word.
REJECTED_SHAPES = [
    ("demand-list", _baseline_with(("demand",), [1]), ["demand: expected an object"]),
    ("market-list", _baseline_with(("market",), [1]), ["market: expected an object"]),
    ("contract-list", _baseline_with(("contract",), [1]), ["contract: expected an object"]),
    ("contract-null", _baseline_with(("contract",), None), ["contract: expected an object"]),
    ("oracle-number", _baseline_with(("oracle",), 3), ["oracle: expected an object"]),
    ("sweep-string", _baseline_with(("sweep",), "fixed-premium"), ["sweep: expected an object"]),
    ("demand-missing", _baseline_without("demand"), ["demand: required section missing"]),
    ("demand-null", _baseline_with(("demand",), None), ["demand: required section missing"]),
    ("market-missing", _baseline_without("market"), ["market: required section missing"]),
    ("market-null", _baseline_with(("market",), None), ["market: required section missing"]),
    ("params-list", _baseline_with(("demand", "params"), [0.0, 100.0]),
     ["demand.params: expected an object"]),
    ("params-missing", _baseline_with(("demand",), {"family": "uniform"}),
     ["demand.params: expected an object"]),
    ("comment-number", _baseline_with(("comment",), 7), ["comment: expected a string"]),
    ("k-grid-string", _baseline_with(("sweep", "k_grid"), "0.8:1.5"),
     ["sweep.k_grid: expected a list of numbers or {start, stop, step}"]),
    ("sweep-mode-unknown", _baseline_with(("sweep",), {"mode": "x"}),
     [f"sweep.mode: must be one of {MODES}, got 'x'"]),
    ("fixed-contract-without-contract",
     {**_baseline_without("contract"), "sweep": {"mode": "fixed-contract"}},
     ["sweep.mode: fixed-contract mode requires the contract section"]),
]


class TestRejectedShapes:
    @pytest.mark.parametrize("raw,problems", [case[1:] for case in REJECTED_SHAPES],
                             ids=[case[0] for case in REJECTED_SHAPES])
    def test_exact_problems(self, raw, problems):
        with pytest.raises(ConfigValidationError) as err:
            parse_config(raw)
        assert err.value.problems == problems

    @pytest.mark.parametrize("mode", ["x", None, 3, ["fixed-premium"]])
    def test_unknown_sweep_mode_as_the_sweep_words_it(self, mode, baseline_demand,
                                                      baseline_market):
        with pytest.raises(InvalidValue) as scenario:
            SweepScenario(mode=mode, demand=baseline_demand, market=baseline_market,
                          k_grid=(1.0,), fixed_c0=5.0)
        with pytest.raises(ConfigValidationError) as err:
            parse_config(_baseline_with(("sweep",), {"mode": mode}))
        assert err.value.problems == [f"sweep.{field}: {rule}"
                                      for field, rule in scenario.value.problems]

    @pytest.mark.parametrize("raw", [[], "scenario", 1, None])
    def test_top_level_not_an_object(self, raw):
        with pytest.raises(ConfigValidationError) as err:
            parse_config(raw)
        assert err.value.problems == ["top level: expected a JSON object"]


def _sections_and_types():
    """(path of the section in the config, the model type it builds) for each numeric section."""
    yield ("market",), MarketParams
    yield ("contract",), OptionContract
    for family, cls in sorted(_FAMILIES.items()):
        yield ("demand", family), cls


class TestSchemaFollowsModelTypes:
    """A section's keys are exactly the fields of the type it builds."""

    @pytest.mark.parametrize("section,cls", list(_sections_and_types()),
                             ids=["/".join(case[0]) for case in _sections_and_types()])
    def test_each_field_is_required(self, section, cls):
        for field in dataclasses.fields(cls):
            raw = _baseline_raw()
            if section[0] == "demand":
                raw["demand"] = {"family": section[1],
                                 "params": {f.name: 1.0 for f in dataclasses.fields(cls)}}
                values, path = raw["demand"]["params"], "demand.params"
            else:
                values, path = raw[section[0]], section[0]
            del values[field.name]
            with pytest.raises(ConfigValidationError) as err:
                parse_config(raw)
            assert f"{path}.{field.name}: required" in err.value.problems

    def test_oracle_reads_every_settings_field(self):
        raw = _baseline_with(("oracle",), {"samples": 7, "seed": 3, "grid_step": 0.5})
        assert parse_config(raw).oracle == OracleSettings(samples=7, seed=3, grid_step=0.5)
        assert {f.name for f in dataclasses.fields(OracleSettings)} == raw["oracle"].keys()

    def test_oracle_int_fields_take_only_integers(self):
        raw = _baseline_with(("oracle",), {"samples": 7.0, "seed": True, "grid_step": 1})
        with pytest.raises(ConfigValidationError) as err:
            parse_config(raw)
        assert err.value.problems == ["oracle.samples: must be >= 1 and an integer, got 7.0",
                                      "oracle.seed: must be >= 0 and an integer, got True"]
        del raw["oracle"]["samples"], raw["oracle"]["seed"]
        assert parse_config(raw).oracle == OracleSettings(grid_step=1.0)

    def test_oracle_reports_draw_and_grid_step_problems_together(self):
        with pytest.raises(InvalidValue) as err:
            OracleSettings(samples=0, seed=-1, grid_step=math.nan)
        assert [field for field, _ in err.value.problems] == ["samples", "seed", "grid_step"]
        raw = _baseline_with(("oracle",), {"samples": 0, "seed": -1, "grid_step": math.nan})
        with pytest.raises(ConfigValidationError) as err:
            parse_config(raw)
        assert [p.split(":")[0] for p in err.value.problems] == [
            "oracle.samples", "oracle.seed", "oracle.grid_step"]

    def test_oracle_unknown_key_rejected(self):
        with pytest.raises(ConfigValidationError) as err:
            parse_config(_baseline_with(("oracle", "draws"), 10))
        assert err.value.problems == ["oracle.draws: unknown key"]
