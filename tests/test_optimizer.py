"""Optimizer tests: fractile plans, the centralized benchmark, coordination."""
from __future__ import annotations

import numpy as np
import pytest

from conftest import FAMILIES, random_feasible_setup
from freshopt import (
    Exponential,
    Infeasible,
    InfeasibleContract,
    InvalidValue,
    NoRoot,
    NonCoordinable,
    OptionContract,
    OutOfRange,
    TruncatedNormal,
    Uniform,
    chain_expected_profit,
    check_feasibility,
    coordinating_exercise_price,
    coordinating_premium,
    optimal_centralized,
    optimal_plan,
    retailer_profit_gradient,
)
from freshopt.optimizer import _centralized_quantile
from freshopt.profit import require_feasible_contract

Q_CENTRAL = 5200.0 / 81.0  # 64.197530864...


def test_every_error_is_a_rejected_input_or_a_missing_answer():
    for missing_answer in (InfeasibleContract, NonCoordinable, NoRoot):
        assert issubclass(missing_answer, Infeasible) and not issubclass(missing_answer, InvalidValue)
    assert issubclass(OutOfRange, InvalidValue) and not issubclass(OutOfRange, Infeasible)
    # Both stay ValueErrors, so a caller catching ValueError still catches either.
    assert issubclass(Infeasible, ValueError) and issubclass(InvalidValue, ValueError)


class TestCheckFeasibility:
    def test_reference_contract_ok(self, baseline_market, baseline_contract):
        report = check_feasibility(baseline_market, baseline_contract, 1.0)
        assert report.ok
        assert report.names() == ()
        assert report.describe() == "ok"

    def test_assumption_four(self, baseline_demand, baseline_contract):
        from freshopt import MarketParams
        market = MarketParams(p=50.0, g=10.0, w0=45.0, c=15.0, beta=0.1, theta=0.8)
        report = check_feasibility(market, baseline_contract, 1.0)
        assert not report.ok
        assert "assumption-4" in report.names()

    def test_total_fractile_range(self, baseline_market):
        report = check_feasibility(baseline_market, OptionContract(c0=30.0, ce=35.0), 1.0)
        assert "fractile-range-total" in report.names()

    def test_total_fractile_undefined_at_exercise_price_p_plus_g(self, baseline_market):
        # ce = p+g makes the denominator p+g-ce of the total fractile zero.
        contract = OptionContract(c0=5.0, ce=60.0)
        report = check_feasibility(baseline_market, contract, 1.0)
        assert report.describe() == (
            "fractile-range-total ((p+g-ce-c0)/(p+g-ce) = undefined outside (0, 1))")
        with pytest.raises(InfeasibleContract) as err:
            require_feasible_contract(baseline_market, contract)
        assert str(err.value) == (
            "fractile-range-total violated: (p+g-ce-c0)/(p+g-ce) = undefined outside (0, 1)")

    @pytest.mark.parametrize("c0,ce,describe,contract_text", [
        (5.0, 15.0,
         "assumption-4 (w0=25.0 >= c0+ce=20.0: all orders would move to options); "
         "fractile-range-spot ((c0+ce-w0)/ce = -0.333333 outside (0, 1))",
         "assumption-4 violated: w0=25.0 >= c0+ce=20.0: all orders would move to options"),
        (20.0, 45.0,
         "fractile-range-total ((p+g-ce-c0)/(p+g-ce) = -0.333333 outside (0, 1))",
         "fractile-range-total violated: (p+g-ce-c0)/(p+g-ce) = -0.333333 outside (0, 1)"),
        (5.0, 70.0,
         "fractile-range-total ((p+g-ce-c0)/(p+g-ce) = undefined outside (0, 1))",
         "fractile-range-total violated: (p+g-ce-c0)/(p+g-ce) = undefined outside (0, 1)"),
        (26.0, 30.0, "fractile-range-spot ((c0+ce-w0)/ce = 1.03333 outside (0, 1))", None),
        (12.0, 35.0, "negative-option-quantity (total fractile 0.52 below spot fractile 0.628571: "
                     "optimal option quantity < 0)", None),
    ], ids=["assumption-4", "total-defined", "total-undefined", "spot", "negative-option"])
    def test_screen_texts_in_every_report_form(self, baseline_demand, baseline_market, c0, ce,
                                               describe, contract_text):
        # Each screen's words, as the report, the contract error and the plan error give them.
        contract = OptionContract(c0=c0, ce=ce)
        assert check_feasibility(baseline_market, contract, 1.0).describe() == describe
        with pytest.raises(Infeasible) as err:
            optimal_plan(baseline_demand, baseline_market, contract, 1.0)
        assert str(err.value) == f"no optimal plan: {describe}"
        if contract_text is None:
            require_feasible_contract(baseline_market, contract)
        else:
            with pytest.raises(InfeasibleContract) as err:
                require_feasible_contract(baseline_market, contract)
            assert str(err.value) == contract_text

    def test_negative_option_quantity(self, baseline_market):
        # c0=12, ce=35: total fractile 0.52 falls below spot fractile 0.6286.
        report = check_feasibility(baseline_market, OptionContract(c0=12.0, ce=35.0), 1.0)
        assert report.names() == ("negative-option-quantity",)

    def test_k_domain(self, baseline_market, baseline_contract):
        report = check_feasibility(baseline_market, baseline_contract, 0.0)
        assert "k-domain" in report.names()

    def test_ok_iff_no_violations(self, baseline_market, baseline_contract):
        good = check_feasibility(baseline_market, baseline_contract, 1.0)
        bad = check_feasibility(baseline_market, OptionContract(c0=30.0, ce=35.0), 1.0)
        assert good.ok == (len(good.violations) == 0)
        assert bad.ok == (len(bad.violations) == 0)


class TestOptimalPlan:
    def test_reference_plan(self, baseline_demand, baseline_market, baseline_contract):
        plan = optimal_plan(baseline_demand, baseline_market, baseline_contract, 1.0)
        assert plan.q_total == pytest.approx(640.0 / 9.0, rel=1e-12)     # 71.111111
        assert plan.q_spot == pytest.approx(240.0 / 6.3, rel=1e-12)      # 38.095238
        assert plan.q_option == pytest.approx(2080.0 / 63.0, rel=1e-12)  # 33.015873

    def test_linear_in_k(self, baseline_demand, baseline_market, baseline_contract):
        base = optimal_plan(baseline_demand, baseline_market, baseline_contract, 1.0)
        scaled = optimal_plan(baseline_demand, baseline_market, baseline_contract, 1.2)
        assert scaled.q_total == pytest.approx(1.2 * base.q_total, rel=1e-12)
        assert scaled.q_spot == pytest.approx(1.2 * base.q_spot, rel=1e-12)

    def test_scaling_ratios_tight(self, baseline_demand, baseline_market,
                                  baseline_contract):
        base = optimal_plan(baseline_demand, baseline_market, baseline_contract, 1.0)
        for k in (0.5, 0.8, 1.2, 2.0):
            plan = optimal_plan(baseline_demand, baseline_market, baseline_contract, k)
            assert abs(plan.q_total / base.q_total - k) <= 1e-12 * k
            assert abs(plan.q_spot / base.q_spot - k) <= 1e-12 * k

    def test_gradient_vanishes_at_optimum(self):
        rng = np.random.default_rng(61)
        for i in range(12):
            d, m, o, k = random_feasible_setup(rng, FAMILIES[i % 3])
            plan = optimal_plan(d, m, o, k)
            grad = retailer_profit_gradient(d, m, o, k, plan)
            assert abs(grad[0]) <= 1e-8
            assert abs(grad[1]) <= 1e-8

    @pytest.mark.parametrize("family", FAMILIES)
    def test_numpy_scalar_or_int_k_gives_the_float_plan(self, family):
        d, m, o, k = random_feasible_setup(np.random.default_rng(62), family)
        for given, as_float in ((np.float64(k), k), (1, 1.0), (2, 2.0)):
            plan, expected = optimal_plan(d, m, o, given), optimal_plan(d, m, o, as_float)
            assert type(plan.q_spot) is float and type(plan.q_option) is float
            assert (plan.q_spot.hex(), plan.q_option.hex()) == (
                expected.q_spot.hex(), expected.q_option.hex())

    def test_raises_on_infeasible(self, baseline_demand, baseline_market):
        with pytest.raises(Infeasible) as err:
            optimal_plan(baseline_demand, baseline_market,
                         OptionContract(c0=12.0, ce=35.0), 1.0)
        assert "negative-option-quantity" in err.value.report.names()


class TestOptimalCentralized:
    def test_reference_value(self, baseline_demand, baseline_market):
        got = optimal_centralized(baseline_demand, baseline_market)
        assert got == pytest.approx(Q_CENTRAL, rel=1e-12)
        assert abs(got - 64.2) <= 0.05

    def test_free_production_hits_scaled_support_top(self, baseline_demand):
        from freshopt import MarketParams
        market = MarketParams(p=50.0, g=10.0, w0=25.0, c=0.0, beta=0.1, theta=0.8)
        with pytest.warns(RuntimeWarning, match="clamped"):
            got = optimal_centralized(baseline_demand, market)
        assert got == pytest.approx(800.0 / 9.0, rel=1e-9)  # 88.888889

    def test_infeasible_when_cost_exceeds_value(self, baseline_demand):
        # Transport losses make a unit worth (p+g)(1-beta)=5 < c=10.
        from freshopt import MarketParams
        market = MarketParams(p=50.0, g=0.0, w0=20.0, c=10.0, beta=0.9, theta=0.8)
        with pytest.raises(Infeasible):
            optimal_centralized(baseline_demand, market)

    @pytest.mark.parametrize("solve", [
        lambda d, m: optimal_centralized(d, m),
        lambda d, m: coordinating_premium(d, m, 35.0, 1.0),
        lambda d, m: coordinating_exercise_price(d, m, 5.0, 1.0),
    ], ids=["centralized", "premium", "exercise-price"])
    def test_overflowing_total_is_one_infeasible(self, baseline_market, solve):
        # A rate of 5e-324 puts the centralized quantile, and so Q**, past the largest double:
        # every solver that reads Q** gives its overflow, not inf or a k-range it cannot meet.
        with pytest.raises(Infeasible) as err:
            solve(Exponential(5e-324), baseline_market)
        assert type(err.value) is Infeasible
        assert str(err.value) == "centralized total overflows double precision"

    def test_independent_of_bias_and_contract(self, baseline_demand, baseline_market):
        # The routine takes neither k nor a contract; repeated evaluation is
        # byte-identical.
        values = {optimal_centralized(baseline_demand, baseline_market) for _ in range(10)}
        assert len(values) == 1

    def test_grid_search_on_chain_profit_agrees(self, baseline_demand, baseline_market):
        q_grid = np.arange(0.0, 100.0 + 0.05, 0.05)
        profits = [chain_expected_profit(baseline_demand, baseline_market, q) for q in q_grid]
        best = q_grid[int(np.argmax(profits))]
        assert abs(best - optimal_centralized(baseline_demand, baseline_market)) <= 0.05


class TestCoordinatingPremium:
    def test_reference_value(self, baseline_demand, baseline_market):
        got = coordinating_premium(baseline_demand, baseline_market, 35.0, 1.0)
        assert got == pytest.approx(125.0 / 18.0, rel=1e-12)  # 6.944444

    def test_printed_formula_at_k_125(self, baseline_demand, baseline_market):
        got = coordinating_premium(baseline_demand, baseline_market, 35.0, 1.25)
        assert got == pytest.approx(25.0 - 325.0 / (18.0 * 1.25), rel=1e-12)  # 10.555556

    def test_increasing_in_k(self, baseline_demand, baseline_market):
        ks = np.arange(0.75, 1.51, 0.05)
        values = [coordinating_premium(baseline_demand, baseline_market, 35.0, float(k))
                  for k in ks]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_coordination_identity(self, baseline_demand, baseline_market):
        d, m = baseline_demand, baseline_market
        for k in (0.8, 0.95, 1.0, 1.1, 1.2):
            c0 = coordinating_premium(d, m, 35.0, k)
            plan = optimal_plan(d, m, OptionContract(c0=c0, ce=35.0), k)
            assert abs(plan.q_total - Q_CENTRAL) <= 1e-9 * Q_CENTRAL

    def test_identity_for_unbounded_families(self):
        from freshopt import Exponential, MarketParams, TruncatedNormal
        m = MarketParams(p=50.0, g=10.0, w0=25.0, c=15.0, beta=0.1, theta=0.8)
        for d in (Exponential(rate=0.02), TruncatedNormal(mu=50.0, sigma=20.0)):
            target = optimal_centralized(d, m)
            for k in (0.7, 1.0, 1.4):
                c0 = coordinating_premium(d, m, 35.0, k)
                contract = OptionContract(c0=c0, ce=35.0)
                if check_feasibility(m, contract, k).ok:
                    plan = optimal_plan(d, m, contract, k)
                    assert abs(plan.q_total - target) <= 1e-9 * target

    def test_non_coordinable_below_k_floor(self, baseline_demand, baseline_market):
        # For k <= 13/18 the shrunk quantile leaves the uniform support and
        # the premium collapses to zero.
        with pytest.raises(NonCoordinable, match="k-domain"):
            coordinating_premium(baseline_demand, baseline_market, 35.0, 0.7)

    def test_non_coordinable_when_premium_breaks_assumption_four(self, baseline_demand,
                                                                 baseline_market):
        with pytest.raises(NonCoordinable) as err:
            coordinating_premium(baseline_demand, baseline_market, 20.0, 0.8)
        assert str(err.value) == (
            "assumption-4: coordinating premium c0=3.88889 gives w0=25.0 >= c0+ce=23.8889")

    def test_non_coordinable_above_k_ceiling_with_demand_floor(self, baseline_market):
        # With a positive support floor, a large k pushes the shrunk
        # quantile below every possible demand value.
        d = Uniform(20.0, 100.0)
        with pytest.raises(NonCoordinable, match="k-domain"):
            coordinating_premium(d, baseline_market, 35.0, 5.0)

    def test_unresolvable_identity_is_infeasible(self, baseline_demand, baseline_market):
        # At k = 1e10 the total fractile is about 7e-11, too coarse after rounding
        # to give back Q** within the tolerance.
        with pytest.raises(Infeasible, match="coordination identity failed"):
            coordinating_premium(baseline_demand, baseline_market, 35.0, 1e10)

    def test_solved_fractile_outside_range_is_named(self, baseline_demand, baseline_market):
        # At k = 1e17 the solved premium takes the whole option margin: the fractile is 0.
        with pytest.raises(Infeasible) as err:
            coordinating_premium(baseline_demand, baseline_market, 35.0, 1e17)
        assert str(err.value) == ("coordination identity failed: total fractile 0.0 "
                                  "of the solved contract is outside (0, 1)")

    def test_chain_prefers_centralized_total(self, baseline_demand, baseline_market,
                                             baseline_contract):
        d, m, o = baseline_demand, baseline_market, baseline_contract
        best = chain_expected_profit(d, m, optimal_centralized(d, m))
        for k in (0.8, 1.0, 1.2, 1.4):
            decentralized = optimal_plan(d, m, o, k)
            assert chain_expected_profit(d, m, decentralized.q_total) <= best + 1e-9


@pytest.mark.parametrize("solve,price", [(coordinating_premium, "ce"),
                                         (coordinating_exercise_price, "c0")])
def test_coordination_names_a_bad_price_and_k_together(baseline_demand, baseline_market,
                                                       solve, price):
    with pytest.raises(InvalidValue) as err:
        solve(baseline_demand, baseline_market, -1.0, 0.0)
    assert err.value.problems == [(price, "must be finite and > 0, got -1.0"),
                                  ("k", "must be finite and > 0, got 0.0")]


class TestCoordinatingExercisePrice:
    def test_reference_value(self, baseline_demand, baseline_market):
        got = coordinating_exercise_price(baseline_demand, baseline_market, 5.0, 1.0)
        assert got == pytest.approx(42.0, abs=1e-6)

    def test_printed_formula_at_k_12(self, baseline_demand, baseline_market):
        got = coordinating_exercise_price(baseline_demand, baseline_market, 5.0, 1.2)
        assert got == pytest.approx(408.0 / 8.6, abs=1e-6)  # 47.441860

    def test_no_root_in_singular_region(self, baseline_demand, baseline_market):
        # k = 0.72 lies below the 13/18 pole: the solve must report, not
        # return a negative price.
        with pytest.raises(NoRoot, match="requires k >"):
            coordinating_exercise_price(baseline_demand, baseline_market, 5.0, 0.72)

    def test_no_root_hint_from_upper_quantile_past_one_half(self, baseline_market):
        # c0/(p+g) = 2/3 > 1/2 with mu > 0: the upper quantile goes through the lower one.
        d, c0, pg = TruncatedNormal(50.0, 20.0), 40.0, 60.0
        x_central, _ = _centralized_quantile(d, baseline_market)
        with pytest.raises(NoRoot) as err:
            coordinating_exercise_price(d, baseline_market, c0, 0.5)
        assert str(err.value).endswith(
            f"requires k > {x_central / d.quantile(1.0 - c0 / pg):.6g}")

    def test_no_root_when_formula_negative(self, baseline_demand, baseline_market):
        # k = 0.75 is above the pole but the solution would be -75.
        with pytest.raises(NoRoot):
            coordinating_exercise_price(baseline_demand, baseline_market, 5.0, 0.75)

    def test_no_root_below_demand_floor(self, baseline_market):
        # With a positive support floor, a large k leaves F(x_c/k) = 0: even
        # the largest admissible price cannot pull the total down far enough.
        with pytest.raises(NoRoot, match="demand floor"):
            coordinating_exercise_price(Uniform(20.0, 100.0), baseline_market, 5.0, 5.0)

    @pytest.mark.parametrize("c0", [60.0, 75.0])
    def test_no_root_for_a_premium_at_or_past_p_plus_g(self, baseline_demand, baseline_market, c0):
        with pytest.raises(NoRoot) as err:
            coordinating_exercise_price(baseline_demand, baseline_market, c0, 1.0)
        assert str(err.value) == f"premium c0={c0} >= p+g=60.0: no exercise price can be admissible"

    def test_no_root_when_price_rounds_to_the_margin(self, baseline_demand, baseline_market):
        # c0/(1 - F) vanishes next to p+g = 60, so the closed form rounds to 60 itself.
        with pytest.raises(NoRoot, match="rounds to 60.0"):
            coordinating_exercise_price(baseline_demand, baseline_market, 1e-300, 1.0)

    @pytest.mark.parametrize("d,c0,k,message", [
        # c0/(p+g) underflows to 0, so the upper quantile is inf and the floor 0.
        (Exponential(0.02), 5e-324, 1e-3, "no coordinating exercise price in (0, 60) at k=0.001"),
        # 1 - c0/(p+g) is below F(0), so the upper quantile is 0 and the floor inf.
        (TruncatedNormal(-10.0, 20.0), 59.999999999999986, 1.0,
         "no coordinating exercise price in (0, 1.42109e-14) at k=1.0"),
    ], ids=["floor-zero", "floor-inf"])
    def test_no_root_names_no_k_floor_that_is_not_finite_and_positive(self, baseline_market, d,
                                                                      c0, k, message):
        with pytest.raises(NoRoot) as err:
            coordinating_exercise_price(d, baseline_market, c0, k)
        assert str(err.value) == message

    def test_residual_below_tolerance(self, baseline_demand, baseline_market):
        d, m = baseline_demand, baseline_market
        for k in (0.85, 1.0, 1.3, 1.5):
            ce = coordinating_exercise_price(d, m, 5.0, k)
            contract = OptionContract(c0=5.0, ce=ce)
            scale = k * m.theta / (1.0 - m.beta)
            from freshopt import total_fractile
            q_total = scale * d.quantile(total_fractile(m, contract))
            assert abs(q_total - Q_CENTRAL) <= 1e-9 * Q_CENTRAL

    def test_root_finder_matches_closed_form_for_exponential(self):
        # The uniform closed form does not apply here; verify against the
        # premium equation instead.
        from freshopt import Exponential, MarketParams
        d = Exponential(rate=0.02)
        m = MarketParams(p=50.0, g=10.0, w0=25.0, c=15.0, beta=0.1, theta=0.8)
        for k in (0.9, 1.0, 1.2):
            ce = coordinating_exercise_price(d, m, 5.0, k)
            back = coordinating_premium(d, m, ce, k)
            assert back == pytest.approx(5.0, rel=1e-8)


class TestOracleAgreement:
    def test_closed_form_matches_grid_search(self):
        from freshopt import default_grid_spec, grid_search_plan, retailer_expected_profit
        rng = np.random.default_rng(71)
        for i in range(6):
            d, m, o, k = random_feasible_setup(rng, FAMILIES[i % 3])
            closed = optimal_plan(d, m, o, k)
            grid = grid_search_plan(d, m, o, k, default_grid_spec(d, m, k, 0.05))
            assert abs(grid.q_spot - closed.q_spot) <= 0.05 + 1e-9
            assert abs(grid.q_option - closed.q_option) <= 0.05 + 1e-9
            closed_profit = retailer_expected_profit(d, m, o, k, closed).total
            grid_profit = retailer_expected_profit(d, m, o, k, grid).total
            assert abs(grid_profit - closed_profit) <= 1e-3 * abs(closed_profit)
