"""Sweep tests: coordinated contract series over the overconfidence grid."""
from __future__ import annotations

import csv
import dataclasses
import io
import math
import random

import numpy as np
import pytest

from freshopt import (
    MODES,
    DemandDistribution,
    Exponential,
    Infeasible,
    InvalidValue,
    NonCoordinable,
    NoRoot,
    OptionContract,
    SweepRow,
    SweepScenario,
    TooFewRows,
    TruncatedNormal,
    Uniform,
    chain_expected_profit,
    coordinating_exercise_price,
    coordinating_premium,
    default_k_grid,
    monotonicity_report,
    optimal_plan,
    retailer_expected_profit,
    rows_to_csv,
    run_sweep,
    supplier_expected_profit,
)
from freshopt.sweep import CSV_COLUMNS, ColumnTrend, _format_cell

Q_CENTRAL = 5200.0 / 81.0


def _scenario_a(d, m, grid=None):
    return SweepScenario(mode="fixed-exercise-price", demand=d, market=m,
                         k_grid=grid or default_k_grid("fixed-exercise-price"),
                         fixed_ce=35.0)


def _scenario_b(d, m, grid=None):
    return SweepScenario(mode="fixed-premium", demand=d, market=m,
                         k_grid=grid or default_k_grid("fixed-premium"),
                         fixed_c0=5.0)


class TestScenarioFixedExercise:
    def test_premium_column_matches_formula_everywhere(self, baseline_demand,
                                                       baseline_market):
        rows = run_sweep(_scenario_a(baseline_demand, baseline_market))
        assert len(rows) == 15
        for row in rows:
            assert row.c0 is not None
            assert row.c0 == pytest.approx(25.0 - 325.0 / (18.0 * row.k), abs=1e-6)
            assert row.ce == 35.0

    def test_feasible_rows_coordinate(self, baseline_demand, baseline_market):
        rows = run_sweep(_scenario_a(baseline_demand, baseline_market))
        feasible = [r for r in rows if r.feasible]
        assert len(feasible) >= 5
        for row in feasible:
            assert abs(row.q_total - Q_CENTRAL) <= 1e-9 * Q_CENTRAL

    def test_high_k_rows_flag_negative_option_quantity(self, baseline_demand,
                                                       baseline_market):
        rows = run_sweep(_scenario_a(baseline_demand, baseline_market))
        tail = [r for r in rows if r.k >= 1.25]
        assert tail and all(not r.feasible for r in tail)
        assert all("negative-option-quantity" in r.note for r in tail)
        assert all(r.q_total is None and r.retailer_profit_believed is None for r in tail)

    def test_premium_breaking_assumption_four_flags_its_rows(self, baseline_demand,
                                                             baseline_market):
        scenario = SweepScenario(mode="fixed-exercise-price", demand=baseline_demand,
                                 market=baseline_market, k_grid=(0.75, 0.8, 0.9), fixed_ce=20.0)
        low, mid, high = run_sweep(scenario)
        for row in (low, mid):
            with pytest.raises(NonCoordinable) as err:
                coordinating_premium(baseline_demand, baseline_market, 20.0, row.k)
            assert not row.feasible and row.c0 is None and row.q_total is None
            assert row.note == f"NonCoordinable: {err.value}"
        assert mid.note == ("NonCoordinable: assumption-4: coordinating premium c0=3.88889 "
                            "gives w0=25.0 >= c0+ce=23.8889")
        assert high.feasible and high.note == ""
        assert high.c0 == coordinating_premium(baseline_demand, baseline_market, 20.0, 0.9)

    def test_k_one_row_equals_centralized(self, baseline_demand, baseline_market):
        rows = run_sweep(_scenario_a(baseline_demand, baseline_market))
        row = next(r for r in rows if abs(r.k - 1.0) < 1e-12)
        assert row.feasible
        assert row.q_total == pytest.approx(Q_CENTRAL, rel=1e-12)


class TestScenarioFixedPremium:
    def test_exercise_column_matches_formula_where_solved(self, baseline_demand,
                                                          baseline_market):
        rows = run_sweep(_scenario_b(baseline_demand, baseline_market))
        solved = [r for r in rows if r.ce is not None]
        assert solved
        for row in solved:
            assert row.k > 13.0 / 18.0
            formula = 60.0 - 90.0 * row.k / (18.0 * row.k - 13.0)
            assert row.ce == pytest.approx(formula, abs=1e-6)

    def test_singular_region_is_flagged_not_dropped(self, baseline_demand,
                                                    baseline_market):
        rows = run_sweep(_scenario_b(baseline_demand, baseline_market))
        low = [r for r in rows if r.k <= 13.0 / 18.0 + 0.06]
        assert low and all(not r.feasible for r in low)
        assert all(r.ce is None and "NoRoot" in r.note for r in low)
        assert all(r.c0 == 5.0 for r in low)  # the fixed input stays visible

    def test_feasible_rows_coordinate(self, baseline_demand, baseline_market):
        rows = run_sweep(_scenario_b(baseline_demand, baseline_market))
        feasible = [r for r in rows if r.feasible]
        assert len(feasible) >= 10
        for row in feasible:
            assert abs(row.q_total - Q_CENTRAL) <= 1e-9 * Q_CENTRAL

    def test_k_one_row_equals_centralized(self, baseline_demand, baseline_market):
        rows = run_sweep(_scenario_b(baseline_demand, baseline_market))
        row = next(r for r in rows if abs(r.k - 1.0) < 1e-12)
        assert row.feasible
        assert row.q_total == pytest.approx(Q_CENTRAL, rel=1e-9)


class TestScenarioFixedContract:
    def test_quantities_linear_in_k(self, baseline_demand, baseline_market,
                                    baseline_contract):
        scenario = SweepScenario(
            mode="fixed-contract", demand=baseline_demand, market=baseline_market,
            k_grid=(0.8, 0.9, 1.0, 1.1, 1.2), contract=baseline_contract)
        rows = run_sweep(scenario)
        assert all(r.feasible for r in rows)
        # Any three rows are collinear in (k, q); residual of the middle
        # point against the line through its neighbors stays at rounding.
        for triple in zip(rows, rows[1:], rows[2:]):
            for field in ("q_total", "q_spot"):
                a, b, c = (getattr(r, field) for r in triple)
                ka, kb, kc = (r.k for r in triple)
                interpolated = a + (c - a) * (kb - ka) / (kc - ka)
                assert abs(b - interpolated) <= 1e-9

    def test_contract_columns_constant(self, baseline_demand, baseline_market,
                                       baseline_contract):
        scenario = SweepScenario(
            mode="fixed-contract", demand=baseline_demand, market=baseline_market,
            k_grid=(0.9, 1.0, 1.1), contract=baseline_contract)
        rows = run_sweep(scenario)
        assert {r.c0 for r in rows} == {5.0}
        assert {r.ce for r in rows} == {35.0}


# Signed zeros, cells on either side of a sixth-decimal tie, huge and non-finite floats.
_EDGE_NUMBERS = (-0.0, 0.0, -4e-7, 4e-7, -5e-7, 5e-7, -5.000001e-7, 4.999999e-7, 1.0000005,
                 -2.5e-6, 1e300, -1e300, math.inf, -math.inf, math.nan)
_NOTES = ("", "a,b", 'say "hi"', "line\nbreak", "100%", "-0.000000", "q_option;supplier")


_FLAGGED_NOTES = ("", "negative-option-quantity", "NoRoot: no price in (0, 55) at k=1.25",
                  'say "hi"', 'say "hi", twice', "carriage\rreturn", "line\nfeed", "-0.000000 %s")


def _csv_writer_text(table) -> str:
    """What csv.writer prints for the header and the _format_cell cells of every row."""
    reference = io.StringIO()
    writer = csv.writer(reference, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    writer.writerows([_format_cell(cell) for cell in row] for row in table)
    return reference.getvalue()


def _mixed_rows(seed: int, n: int) -> list[SweepRow]:
    """A seeded table: about half solved rows (ten floats, flag True, no note), the rest
    with None, int, np.float64 or bool cells, a flag of True, False or 1, and any note."""
    rng = random.Random(seed)

    def number():
        if rng.random() < 0.5:
            return rng.uniform(-1.0, 1.0) * 10.0 ** rng.randint(-8, 6)
        return rng.choice(_EDGE_NUMBERS)

    rows = []
    for _ in range(n):
        cells = [number() for _ in range(10)]
        if rng.random() < 0.5:
            rows.append(SweepRow(*cells, True, ""))
            continue
        for i in rng.sample(range(10), rng.randint(0, 4)):
            cells[i] = rng.choice([None, 7, -3, np.float64(cells[i]), True, False])
        rows.append(SweepRow(*cells, rng.choice([True, False, 1]), rng.choice(_NOTES)))
    return rows


class TestDeterminismAndCsv:
    def test_rows_are_pure_functions_of_scenario(self, baseline_demand, baseline_market):
        scenario = _scenario_b(baseline_demand, baseline_market)
        assert run_sweep(scenario) == run_sweep(scenario)

    def test_csv_shape(self, baseline_demand, baseline_market):
        text = rows_to_csv(run_sweep(_scenario_a(baseline_demand, baseline_market)))
        lines = text.splitlines()
        assert lines[0] == ("k,c0,ce,q_total,q_spot,q_option,retailer_profit_believed,"
                            "retailer_profit_true,supplier_profit,chain_profit,feasible,note")
        assert len(lines) == 16
        first = lines[1].split(",")
        assert first[0] == "0.800000"
        assert first[1] == "2.430556"
        assert first[10] == "true"
        last = lines[-1].split(",")
        assert last[3] == ""  # infeasible rows leave plan columns empty
        assert last[10] == "false"

    def test_library_built_rows_print_literally(self):
        # Int prices print through str(), None as empty, -0.0 and a tiny negative as
        # 0.000000, a numpy float like a float; a note with commas and quotes is quoted,
        # and a note's own text (a '%', a -0.000000, a line break) is left as it is.
        rows = [
            SweepRow(k=0.5, c0=5, ce=35, q_total=-0.0, q_spot=-1e-9, q_option=2.5,
                     retailer_profit_believed=1234.5678915, retailer_profit_true=-3.25,
                     supplier_profit=None, chain_profit=np.float64(1e6), feasible=True),
            SweepRow(k=1.25, c0=5.0, note='NoRoot: no price in (0, 55) at k=1.25, "quoted"'),
            SweepRow(k=2, c0=5, ce=35, q_total=7, note="q_option;supplier"),
            SweepRow(k=3.0, q_total=-1e-9, note="100% of -0.000000\nnext"),
            SweepRow(k=4.0, feasible=True, note="kept"),
            SweepRow(k=5.0, feasible=1),
        ]
        text = rows_to_csv(rows)
        assert text == (
            "k,c0,ce,q_total,q_spot,q_option,retailer_profit_believed,"
            "retailer_profit_true,supplier_profit,chain_profit,feasible,note\n"
            "0.500000,5,35,0.000000,0.000000,2.500000,1234.567892,-3.250000,,"
            "1000000.000000,true,\n"
            '1.250000,5.000000,,,,,,,,,false,"NoRoot: no price in (0, 55) at k=1.25, ""quoted"""\n'
            "2,5,35,7,,,,,,,false,q_option;supplier\n"
            '3.000000,,,0.000000,,,,,,,false,"100% of -0.000000\nnext"\n'
            "4.000000,,,,,,,,,,true,kept\n"
            "5.000000,,,,,,,,,,1,\n")
        # What csv.writer gives for every printed cell of every row, here and on a seeded
        # table that mixes solved rows with every other kind of row.
        for table in (rows, _mixed_rows(seed=15, n=400)):
            assert rows_to_csv(table) == _csv_writer_text(table)

    @pytest.mark.parametrize("seed", range(12))
    def test_row_templates_print_what_csv_writer_prints(self, seed):
        # Runs of 0, 1 or many solved rows, flagged rows with every kind of note and
        # either price missing, and rows whose cells no template takes, interleaved.
        rng = random.Random(seed)

        def number():
            return rng.choice([-0.0, -1e-7, 0.0, 5e-7, 0.0078125, rng.uniform(-1e6, 1e6)])

        def solved_run():
            return [SweepRow(*[number() for _ in range(10)], True, "")
                    for _ in range(rng.choice([0, 1, 2, 40]))]

        def flagged():
            return [SweepRow(number(), rng.choice([None, number()]), rng.choice([None, number()]),
                             note=rng.choice(_FLAGGED_NOTES))]

        def other():
            cells = [number() for _ in range(10)]
            cells[rng.randrange(10)] = rng.choice([7, True, np.float64(0.25), None, "x,y"])
            return [rng.choice([SweepRow(*cells, rng.choice([True, False]), rng.choice(_NOTES)),
                                SweepRow(3, 5.0, note="int k"),
                                SweepRow(1.0, np.float64(5.0), note="numpy price"),
                                SweepRow(1.0, 5.0, feasible=True, note="flag true"),
                                SweepRow(1.0, 5.0, q_total=2.0, note="a plan cell")])]

        table = [row for make in rng.choices([solved_run, flagged, other], k=30) for row in make()]
        assert rows_to_csv(table) == _csv_writer_text(table)

    def test_infeasible_numeric_fields_empty(self, baseline_demand, baseline_market):
        rows = run_sweep(_scenario_b(baseline_demand, baseline_market))
        bad = next(r for r in rows if not r.feasible and r.ce is not None)
        assert bad.q_total is None and bad.supplier_profit is None
        assert bad.note != ""


class TestSweepRow:
    def test_fields_are_read_only(self):
        row = SweepRow(k=1.0, c0=5.0)
        with pytest.raises(AttributeError):
            row.c0 = 6.0

    def test_keyword_construction_keeps_defaults(self):
        row = SweepRow(k=1.25, note="NoRoot")
        assert (row.c0, row.q_total, row.chain_profit, row.feasible) == (None, None, None, False)
        assert row == (1.25, *[None] * 9, False, "NoRoot")
        assert tuple(row) == row and row._fields == CSV_COLUMNS


class TestMonotonicityReport:
    def test_scenario_a_premium_strictly_increasing(self, baseline_demand,
                                                    baseline_market):
        rows = run_sweep(_scenario_a(baseline_demand, baseline_market))
        report = monotonicity_report(rows)
        assert report.trends["c0"].direction == "strictly-increasing"

    def test_scenario_b_exercise_price_classified(self, baseline_demand, baseline_market):
        rows = run_sweep(_scenario_b(baseline_demand, baseline_market))
        report = monotonicity_report(rows)
        # On the feasible domain the solved price rises with k (the closed
        # form's derivative 1170/(18k-13)^2 is positive).
        assert report.trends["ce"].direction == "strictly-increasing"
        assert report.trends["q_spot"].direction == "strictly-increasing"

    def test_constant_column_is_non_monotone(self, baseline_demand, baseline_market,
                                             baseline_contract):
        scenario = SweepScenario(
            mode="fixed-contract", demand=baseline_demand, market=baseline_market,
            k_grid=(0.9, 1.0, 1.1, 1.2), contract=baseline_contract)
        report = monotonicity_report(run_sweep(scenario))
        trend = report.trends["c0"]
        assert trend.direction == "non-monotone"
        assert trend.first_violation == (0.9, 1.0)

    @pytest.mark.parametrize("build,demand,expected", [
        (_scenario_a, TruncatedNormal(50.0, 20.0), (0.8, 0.85)),
        (_scenario_b, Exponential(0.02), (0.75, 0.76)),
    ], ids=["fixed-exercise-price", "fixed-premium"])
    def test_coordinated_total_constant_at_printed_precision(self, baseline_market,
                                                            build, demand, expected):
        # Coordination pins q_total; rounding noise below 6 decimals must not
        # move the reported violation off the first feasible pair.
        trend = monotonicity_report(run_sweep(build(demand, baseline_market))).trends["q_total"]
        assert trend.direction == "non-monotone"
        assert trend.first_violation == expected

    def test_classifies_as_printed_cells_compare(self):
        # Reference: parse every printed cell and compare neighbours, as the CSV reads.
        # Steps of 0 to a few 1e-6 around rounding ties and -0.000000, at several sizes.
        columns = ("c0", "ce", "q_total", "q_spot", "q_option", "retailer_profit_believed",
                   "retailer_profit_true", "supplier_profit", "chain_profit")
        rng = np.random.default_rng(11)
        moves = np.array([0.0, 1e-9, 1e-7, 4.9e-7, 5e-7, 5.1e-7, 1e-6, 1.5e-6, 2e-6, 3e-6, 1e-3])
        for _ in range(400):
            n = int(rng.integers(3, 9))
            start = rng.choice([0.0, -2e-7, 1.0000005, 123.4567885, 1e6 + 0.5e-6, 8.6e9])
            values = start + np.cumsum(rng.choice(moves, (n, 9)) * rng.choice([-1.0, 1.0], (n, 9)),
                                       axis=0)
            rows = [SweepRow(0.5 + 0.25 * i, *v.tolist(), feasible=True) for i, v in enumerate(values)]
            printed = np.array([[float(_format_cell(getattr(r, c))) for c in columns] for r in rows])
            steps = np.diff(printed, axis=0)
            for j, column in enumerate(columns):
                trend = monotonicity_report(rows).trends[column]
                if (steps[:, j] > 0).all():
                    assert trend == ColumnTrend("strictly-increasing")
                elif (steps[:, j] < 0).all():
                    assert trend == ColumnTrend("strictly-decreasing")
                else:
                    against = ~(steps[:, j] > 0) if steps[0, j] > 0 else ~(steps[:, j] < 0)
                    i = int(np.argmax(against))
                    assert trend == ColumnTrend("non-monotone", (rows[i].k, rows[i + 1].k))

    def test_too_few_rows(self, baseline_demand, baseline_market, baseline_contract):
        scenario = SweepScenario(
            mode="fixed-contract", demand=baseline_demand, market=baseline_market,
            k_grid=(0.9, 1.0), contract=baseline_contract)
        with pytest.raises(TooFewRows):
            monotonicity_report(run_sweep(scenario))


class TestScenarioValidation:
    @pytest.mark.parametrize("mode,name,value", [
        ("fixed-exercise-price", "fixed_c0", -7.0),
        ("fixed-exercise-price", "contract", OptionContract(1.0, 2.0)),
        ("fixed-premium", "fixed_ce", 35.0),
        ("fixed-premium", "contract", OptionContract(1.0, 2.0)),
        ("fixed-contract", "fixed_ce", math.nan),
        ("fixed-contract", "fixed_c0", 5.0),
    ])
    def test_rejects_a_price_its_mode_does_not_read(self, baseline_demand, baseline_market,
                                                    mode, name, value):
        with pytest.raises(InvalidValue) as err:
            _mode_scenario(mode, baseline_demand, baseline_market, (1.0, 1.1), **{name: value})
        assert err.value.problems == [(name, f"is not read in {mode} mode")]

    def test_modes_exposed(self):
        assert MODES == ("fixed-exercise-price", "fixed-premium", "fixed-contract")

    def test_grid_must_increase(self, baseline_demand, baseline_market):
        with pytest.raises(ValueError, match="strictly increasing"):
            SweepScenario(mode="fixed-premium", demand=baseline_demand,
                          market=baseline_market, k_grid=(1.0, 1.0), fixed_c0=5.0)

    def test_grid_must_not_be_empty(self, baseline_demand, baseline_market):
        with pytest.raises(InvalidValue) as err:
            SweepScenario(mode="fixed-premium", demand=baseline_demand,
                          market=baseline_market, k_grid=(), fixed_c0=5.0)
        assert err.value.problems == [("k_grid", "must not be empty")]

    def test_unknown_mode(self, baseline_demand, baseline_market):
        with pytest.raises(InvalidValue) as err:
            SweepScenario(mode="fixed-both", demand=baseline_demand,
                          market=baseline_market, k_grid=(1.0,), fixed_c0=5.0)
        assert err.value.problems == [("mode", f"must be one of {MODES}, got 'fixed-both'")]

    def test_default_grid_rejects_unknown_mode_as_the_scenario_does(self, baseline_demand,
                                                                    baseline_market):
        with pytest.raises(InvalidValue) as scenario:
            SweepScenario(mode="nope", demand=baseline_demand,
                          market=baseline_market, k_grid=(1.0,), fixed_c0=5.0)
        for _ in range(2):  # a failure is not cached
            with pytest.raises(InvalidValue) as err:
                default_k_grid("nope")
            assert err.value.problems == scenario.value.problems == [
                ("mode", f"must be one of {MODES}, got 'nope'")]

    def test_default_grid_rejects_an_unhashable_mode(self):
        with pytest.raises(InvalidValue) as err:
            default_k_grid(["fixed-premium"])
        assert err.value.problems == [("mode", f"must be one of {MODES}, got ['fixed-premium']")]

    def test_mode_needs_its_fixed_value(self, baseline_demand, baseline_market):
        with pytest.raises(ValueError, match="fixed_ce"):
            SweepScenario(mode="fixed-exercise-price", demand=baseline_demand,
                          market=baseline_market, k_grid=(1.0,))
        with pytest.raises(ValueError, match="fixed_c0"):
            SweepScenario(mode="fixed-premium", demand=baseline_demand,
                          market=baseline_market, k_grid=(1.0,))
        with pytest.raises(ValueError, match="contract"):
            SweepScenario(mode="fixed-contract", demand=baseline_demand,
                          market=baseline_market, k_grid=(1.0,))

    @pytest.mark.parametrize("mode,fixed,problem", [
        ("fixed-exercise-price", {"fixed_ce": -1.0}, ("ce", "must be finite and > 0, got -1.0")),
        ("fixed-premium", {"fixed_c0": math.nan}, ("c0", "must be finite and > 0, got nan")),
    ])
    def test_fixed_price_must_be_positive(self, baseline_demand, baseline_market, mode, fixed,
                                          problem):
        # Rejected when built, so run_sweep never raises for it.
        with pytest.raises(InvalidValue) as err:
            SweepScenario(mode=mode, demand=baseline_demand, market=baseline_market,
                          k_grid=(1.0,), **fixed)
        assert err.value.problems == [problem]


DEMANDS = {
    "uniform": Uniform(0.0, 100.0),
    "exponential": Exponential(0.02),
    "truncated-normal": TruncatedNormal(50.0, 20.0),
}

# From deep in the low-k region to far past the high-k one: in both coordinating
# modes every family has flagged rows on each side of its solved ones.  A fixed
# contract screens the same at every k, so that mode solves every row.
WIDE_GRID = (0.05, 0.3, 0.5, 0.7, 0.8, 0.9, 1.0, 1.1, 1.2, 1.3, 1.5, 2.0, 3.0, 5.0, 10.0, 100.0)

PLAN_AND_PROFIT = ("q_total", "q_spot", "q_option", "retailer_profit_believed",
                   "retailer_profit_true", "supplier_profit", "chain_profit")


def _mode_scenario(mode, d, m, grid, **unread):
    fixed = {"fixed-exercise-price": {"fixed_ce": 35.0}, "fixed-premium": {"fixed_c0": 5.0},
             "fixed-contract": {"contract": OptionContract(c0=5.0, ce=35.0)}}[mode]
    return SweepScenario(mode=mode, demand=d, market=m, k_grid=grid, **fixed, **unread)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("family", sorted(DEMANDS))
class TestColumnPricing:
    """Rows are solved and priced together; each must read as if solved and priced alone."""

    def test_profit_cells_equal_public_functions(self, baseline_market, family, mode):
        d, m = DEMANDS[family], baseline_market
        rows = run_sweep(_mode_scenario(mode, d, m, WIDE_GRID))
        solved = [r for r in rows if r.feasible]
        assert len(solved) >= 3
        for row in solved:
            contract = OptionContract(c0=row.c0, ce=row.ce)
            plan = optimal_plan(d, m, contract, row.k)
            assert (row.q_spot, row.q_option) == (plan.q_spot, plan.q_option)
            assert row.retailer_profit_believed == retailer_expected_profit(
                d, m, contract, row.k, plan).total
            assert row.retailer_profit_true == retailer_expected_profit(
                d, m, contract, 1.0, plan).total
            assert row.supplier_profit == supplier_expected_profit(d, m, contract, plan)
            assert row.chain_profit == chain_expected_profit(d, m, plan.q_total)

    def test_flagged_rows_keep_place_note_and_empty_cells(self, baseline_market, family, mode):
        d, m = DEMANDS[family], baseline_market
        rows = run_sweep(_mode_scenario(mode, d, m, WIDE_GRID))
        assert [r.k for r in rows] == list(WIDE_GRID)
        feasible = [r.feasible for r in rows]
        if mode != "fixed-contract":
            assert not feasible[0] and True in feasible and not feasible[-1]
        for row in rows:
            assert row == run_sweep(_mode_scenario(mode, d, m, (row.k,)))[0]
            if not row.feasible:
                assert row.note != ""
                assert all(getattr(row, c) is None for c in PLAN_AND_PROFIT)

    def test_cdf_integral_calls_do_not_grow_with_rows(self, baseline_market, monkeypatch,
                                                      family, mode):
        d = DEMANDS[family]
        calls = {"cdf": 0, "quantile": 0, "cdf_integral": 0}
        for owner, name in ((type(d), "cdf"), (DemandDistribution, "quantile"),
                            (DemandDistribution, "cdf_integral")):
            def counting(self, x, original=getattr(owner, name), name=name):
                calls[name] += 1
                return original(self, x)
            monkeypatch.setattr(owner, name, counting)
        rows = run_sweep(_mode_scenario(mode, d, baseline_market, default_k_grid(mode)))
        assert sum(r.feasible for r in rows) >= 5
        # Two partials for both views at once (theta*k and theta), one for the chain.
        assert calls["cdf_integral"] <= 3
        # One for the coordinating prices; a truncated-normal partial reads the cdf once more.
        assert calls["cdf"] <= 1 + (3 if family == "truncated-normal" else 0)
        # The centralized quantile, the fixed premium's k floor, then the two plan fractiles.
        assert calls["quantile"] <= 4


def _scalar_note(d, m, mode, k):
    """What the public functions say about the row at k: the text of the first error, or ""."""
    try:
        if mode == "fixed-exercise-price":
            c0, ce = coordinating_premium(d, m, 35.0, k), 35.0
        elif mode == "fixed-premium":
            c0, ce = 5.0, coordinating_exercise_price(d, m, 5.0, k)
        else:
            c0, ce = 5.0, 35.0
    except Infeasible as exc:
        return f"{type(exc).__name__}: {exc}"
    contract = OptionContract(c0=c0, ce=ce)
    try:
        plan = optimal_plan(d, m, contract, k)
    except Infeasible as exc:
        return ";".join(exc.report.names())
    try:  # the four profits, in the order the CLI's evaluate prices them
        retailer_expected_profit(d, m, contract, k, plan)
        retailer_expected_profit(d, m, contract, 1.0, plan)
        supplier_expected_profit(d, m, contract, plan)
        chain_expected_profit(d, m, plan.q_total)
    except Infeasible as exc:
        return f"{type(exc).__name__}: {exc}"
    return ""


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("family", sorted(DEMANDS))
def test_flagged_notes_are_the_scalar_functions_text(baseline_market, family, mode):
    d, m = DEMANDS[family], baseline_market
    cases = [(m, WIDE_GRID, 2)]
    if mode == "fixed-contract":
        # One contract passes every screen at every k: only a believed scale theta*k that
        # underflows to 0 (at k = 1e-300), or a finite plan whose profits overflow, leaves a
        # row unpriced: at k = 1e306 the retailer's; with beta = 0.9 at k = 5e304, only the
        # supplier's.
        cases = [(dataclasses.replace(m, theta=1e-300), (1e-300, 1e-10, 1.0), 1), (m, (1.0, 1e306), 1),
                 (dataclasses.replace(m, beta=0.9), (1.0, 5e304), 1)]
    for market, grid, flagged in cases:
        rows = run_sweep(_mode_scenario(mode, d, market, grid))
        assert sum(not r.feasible for r in rows) >= flagged
        for row in rows:
            assert row.note == _scalar_note(d, market, mode, row.k), row.k


def test_unsolvable_coordination_note_names_the_fractile(baseline_demand, baseline_market):
    row, = run_sweep(_mode_scenario("fixed-exercise-price", baseline_demand, baseline_market,
                                    (1e17,)))
    assert row.note == _scalar_note(baseline_demand, baseline_market, "fixed-exercise-price", 1e17)
    assert row.note == ("Infeasible: coordination identity failed: total fractile 0.0 "
                        "of the solved contract is outside (0, 1)")


@pytest.mark.parametrize("d,c0,k", [(Exponential(0.02), 5e-324, 1e-3),
                                    (TruncatedNormal(-10.0, 20.0), 59.999999999999986, 1.0)],
                         ids=["floor-zero", "floor-inf"])
def test_premium_with_no_k_floor_flags_its_rows(baseline_market, d, c0, k):
    row, = run_sweep(SweepScenario("fixed-premium", d, baseline_market, (k,), fixed_c0=c0))
    with pytest.raises(NoRoot) as err:
        coordinating_exercise_price(d, baseline_market, c0, k)
    assert not row.feasible and row.note == f"NoRoot: {err.value}"


@pytest.mark.parametrize("family", sorted(DEMANDS))
def test_overflowing_rows_are_flagged(baseline_market, family):
    # At k = 1e306 the plan is finite but its profits overflow; at 1e308 the plan does.
    grid = (1.0, 1.1, 1e306, 1e308)
    rows = run_sweep(_mode_scenario("fixed-contract", DEMANDS[family], baseline_market, grid))
    assert [r.feasible for r in rows] == [True, True, False, False]
    assert rows[2].note == "Infeasible: retailer expected profit overflows double precision"
    assert rows[3].note == "Infeasible: optimal plan overflows double precision"
    for row in rows[2:]:
        assert all(getattr(row, c) is None for c in PLAN_AND_PROFIT)
    assert rows[:2] == run_sweep(_mode_scenario("fixed-contract", DEMANDS[family],
                                                baseline_market, grid[:2]))
