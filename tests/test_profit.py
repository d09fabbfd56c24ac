"""Profit-layer tests against hand-computed values and finite differences.

The reference scenario is uniform(0,100) demand with p=50, g=10, w0=25,
c=15, beta=0.1, theta=0.8 and contract (c0=5, ce=35); its rational optimal
plan is (Q1, Qq) = (240/6.3, 2080/63) with total 640/9.
"""
from __future__ import annotations

import math

import numpy as np
import pytest

from conftest import FAMILIES, random_feasible_setup
from freshopt import (
    Infeasible,
    InfeasibleContract,
    InvalidValue,
    MarketParams,
    OptionContract,
    OrderPlan,
    chain_expected_profit,
    optimal_plan,
    realized_chain_profit,
    realized_retailer_profit,
    realized_supplier_profit,
    retailer_expected_profit,
    retailer_profit_gradient,
    supplier_expected_profit,
    supplier_profit_gap,
    total_fractile,
)
from freshopt.profit import _Prices

OPTIMAL_PLAN = OrderPlan(q_spot=240.0 / 6.3, q_option=2080.0 / 63.0)  # total 640/9


class TestRetailerExpectedProfit:
    def test_reference_value(self, baseline_demand, baseline_market, baseline_contract):
        got = retailer_expected_profit(
            baseline_demand, baseline_market, baseline_contract, 1.0, OPTIMAL_PLAN)
        assert got.total == pytest.approx(3480.0 / 7.0, rel=1e-12)  # 497.142857...

    def test_reference_terms(self, baseline_demand, baseline_market, baseline_contract):
        got = retailer_expected_profit(
            baseline_demand, baseline_market, baseline_contract, 1.0, OPTIMAL_PLAN)
        assert got.terms["revenue"] == pytest.approx(1920.0, rel=1e-12)
        assert got.terms["premium_cost"] == pytest.approx(-1040.0 / 7.0, rel=1e-12)
        assert got.terms["exercise_cost"] == pytest.approx(-2808.0 / 7.0, rel=1e-9)
        assert got.terms["wholesale_cost"] == pytest.approx(-6000.0 / 7.0, rel=1e-12)
        assert got.terms["shortage_cost"] == pytest.approx(-16.0, rel=1e-9)

    def test_terms_sum_to_total(self, baseline_demand, baseline_market, baseline_contract):
        got = retailer_expected_profit(
            baseline_demand, baseline_market, baseline_contract, 1.3,
            OrderPlan(20.0, 15.0))
        assert got.total == pytest.approx(sum(got.terms.values()), rel=1e-12)

    def test_empty_plan_is_pure_shortage(self, baseline_demand, baseline_market,
                                          baseline_contract):
        got = retailer_expected_profit(
            baseline_demand, baseline_market, baseline_contract, 1.0, OrderPlan(0.0, 0.0))
        assert got.total == pytest.approx(-400.0, rel=1e-12)

    def test_degree_one_homogeneity_in_plan_and_k(self, baseline_demand, baseline_market,
                                                  baseline_contract):
        # Scaling the plan and the belief together scales the profit.
        base = retailer_expected_profit(
            baseline_demand, baseline_market, baseline_contract, 1.0, OPTIMAL_PLAN).total
        for k in (0.5, 0.8, 1.2, 2.0):
            scaled = OrderPlan(OPTIMAL_PLAN.q_spot * k, OPTIMAL_PLAN.q_option * k)
            got = retailer_expected_profit(
                baseline_demand, baseline_market, baseline_contract, k, scaled).total
            assert got == pytest.approx(k * base, rel=1e-9)

    def test_reference_scaled_example(self, baseline_demand, baseline_market,
                                      baseline_contract):
        scaled = OrderPlan(OPTIMAL_PLAN.q_spot * 1.2, OPTIMAL_PLAN.q_option * 1.2)
        got = retailer_expected_profit(
            baseline_demand, baseline_market, baseline_contract, 1.2, scaled).total
        assert got == pytest.approx(596.5714285714286, rel=1e-9)

    @pytest.mark.parametrize("c0,ce", [(40.0, 35.0), (5.0, 56.0), (30.0, 35.0)])
    def test_infeasible_contract_raises(self, baseline_demand, baseline_market, c0, ce):
        contract = OptionContract(c0=c0, ce=ce)
        with pytest.raises(InfeasibleContract):
            retailer_expected_profit(
                baseline_demand, baseline_market, contract, 1.0, OPTIMAL_PLAN)

    def test_rejects_nonpositive_k(self, baseline_demand, baseline_market, baseline_contract):
        with pytest.raises(ValueError):
            retailer_expected_profit(
                baseline_demand, baseline_market, baseline_contract, 0.0, OPTIMAL_PLAN)


    def test_believed_scale_underflowing_to_zero_is_infeasible(self, baseline_demand,
                                                                 baseline_contract):
        # theta and k are each valid, but theta*k rounds to 0: no believed demand is left.
        m = MarketParams(p=50.0, g=10.0, w0=25.0, c=15.0, beta=0.1, theta=1e-300)
        message = "believed demand scale theta*k underflows to 0 at theta=1e-300, k=1e-300"
        for call in (retailer_expected_profit, retailer_profit_gradient):
            with pytest.raises(Infeasible) as err:
                call(baseline_demand, m, baseline_contract, 1e-300, OPTIMAL_PLAN)
            assert str(err.value) == message


class TestRetailerGradient:
    def test_zero_at_optimum(self, baseline_demand, baseline_market, baseline_contract):
        grad = retailer_profit_gradient(
            baseline_demand, baseline_market, baseline_contract, 1.0, OPTIMAL_PLAN)
        assert abs(grad[0]) <= 1e-8 and abs(grad[1]) <= 1e-8

    def test_positive_at_empty_plan(self, baseline_demand, baseline_market,
                                    baseline_contract):
        grad = retailer_profit_gradient(
            baseline_demand, baseline_market, baseline_contract, 1.0, OrderPlan(0.0, 0.0))
        assert grad == pytest.approx((31.5, 18.0), rel=1e-12)

    @staticmethod
    def _interior_plan(rng, d, m, k):
        # Stay inside the demand support so differences never cross a kink.
        total_pos = float(rng.uniform(0.05, 0.92))
        spot_pos = float(rng.uniform(0.02, total_pos - 0.01))
        scale = k * m.theta / (1.0 - m.beta)
        q_total = scale * d.quantile(total_pos)
        q_spot = scale * d.quantile(spot_pos)
        return OrderPlan(q_spot=q_spot, q_option=q_total - q_spot)

    def test_matches_finite_differences(self, baseline_demand, baseline_market,
                                        baseline_contract):
        rng = np.random.default_rng(31)
        for _ in range(50):
            k = float(rng.uniform(0.7, 1.3))
            plan = self._interior_plan(rng, baseline_demand, baseline_market, k)
            analytic = retailer_profit_gradient(
                baseline_demand, baseline_market, baseline_contract, k, plan)
            h = 1e-4 * max(plan.q_total, 1.0)

            def profit(q1, qq):
                return retailer_expected_profit(
                    baseline_demand, baseline_market, baseline_contract, k,
                    OrderPlan(q1, qq)).total

            fd_spot = (profit(plan.q_spot + h, plan.q_option)
                       - profit(plan.q_spot - h, plan.q_option)) / (2.0 * h)
            fd_option = (profit(plan.q_spot, plan.q_option + h)
                         - profit(plan.q_spot, plan.q_option - h)) / (2.0 * h)
            assert analytic[0] == pytest.approx(fd_spot, rel=1e-5, abs=1e-7)
            assert analytic[1] == pytest.approx(fd_option, rel=1e-5, abs=1e-7)

    def test_coordinate_concavity(self, baseline_demand, baseline_market,
                                  baseline_contract):
        # Second differences along each coordinate stay nonpositive.
        rng = np.random.default_rng(32)
        for _ in range(50):
            k = float(rng.uniform(0.7, 1.3))
            plan = self._interior_plan(rng, baseline_demand, baseline_market, k)
            h = 1e-2 * max(plan.q_total, 1.0)

            def profit(q1, qq):
                return retailer_expected_profit(
                    baseline_demand, baseline_market, baseline_contract, k,
                    OrderPlan(q1, qq)).total

            middle = profit(plan.q_spot, plan.q_option)
            second_spot = (profit(plan.q_spot + h, plan.q_option) - 2.0 * middle
                           + profit(plan.q_spot - h, plan.q_option))
            second_option = (profit(plan.q_spot, plan.q_option + h) - 2.0 * middle
                             + profit(plan.q_spot, plan.q_option - h))
            assert second_spot <= 1e-9
            assert second_option <= 1e-9


class TestSupplierExpectedProfit:
    def test_reference_value(self, baseline_demand, baseline_market, baseline_contract):
        got = supplier_expected_profit(
            baseline_demand, baseline_market, baseline_contract, OPTIMAL_PLAN)
        assert got == pytest.approx(7144.0 / 21.0, rel=1e-12)  # 340.190476...

    def test_empty_plan_earns_nothing(self, baseline_demand, baseline_market,
                                      baseline_contract):
        assert supplier_expected_profit(
            baseline_demand, baseline_market, baseline_contract, OrderPlan(0.0, 0.0)) == 0.0

    def test_wholesale_only_degenerates(self, baseline_demand, baseline_market,
                                        baseline_contract):
        # With no options, the two exercise integrals cancel exactly.
        m, o = baseline_market, baseline_contract
        for q1 in (10.0, 38.0952, 64.0):
            got = supplier_expected_profit(
                baseline_demand, m, o, OrderPlan(q1, 0.0))
            assert got == pytest.approx(m.w0 * q1 * (1.0 - m.beta) - m.c * q1, rel=1e-12)


class TestSupplierProfitGap:
    def test_zero_at_rational(self, baseline_demand, baseline_market, baseline_contract):
        assert supplier_profit_gap(
            baseline_demand, baseline_market, baseline_contract, 1.0) == 0.0

    def test_reference_values(self, baseline_demand, baseline_market, baseline_contract):
        """At c=15 the rational plan earns the supplier less than the small
        (k=0.8) biased plan and more than the large (k=1.2) one: the extra
        biased-up units cost 15 each but return mostly rarely-exercised
        option revenue.  The signs flip only for c below roughly 9.
        """
        low = supplier_profit_gap(baseline_demand, baseline_market, baseline_contract, 0.8)
        high = supplier_profit_gap(baseline_demand, baseline_market, baseline_contract, 1.2)
        assert low == pytest.approx(-34.17904761904762, rel=1e-9)
        assert high == pytest.approx(85.28761904761905, rel=1e-9)

    def test_matches_simulation(self, baseline_demand, baseline_market, baseline_contract):
        # Independent check of the gap by averaging realized supplier profit.
        from freshopt import optimal_plan
        d, m, o = baseline_demand, baseline_market, baseline_contract
        rng = np.random.default_rng(77)
        x = d.sample(rng, size=2_000_000)
        for k in (0.8, 1.2):
            rational = realized_supplier_profit(x, m, o, optimal_plan(d, m, o, 1.0))
            biased = realized_supplier_profit(x, m, o, optimal_plan(d, m, o, k))
            diffs = rational - biased
            se = diffs.std(ddof=1) / math.sqrt(diffs.size)
            assert supplier_profit_gap(d, m, o, k) == pytest.approx(
                diffs.mean(), abs=3.0 * se)


class TestChainExpectedProfit:
    def test_reference_value_at_centralized_total(self, baseline_demand, baseline_market):
        q = 5200.0 / 81.0  # centralized optimum 64.197530...
        got = chain_expected_profit(baseline_demand, baseline_market, q)
        assert got == pytest.approx(23000.0 / 27.0, rel=1e-12)  # 851.851851...
        for shift in (-5.0, 5.0):
            assert chain_expected_profit(baseline_demand, baseline_market, q + shift) < got

    def test_zero_quantity(self, baseline_demand, baseline_market):
        assert chain_expected_profit(baseline_demand, baseline_market, 0.0) == \
            pytest.approx(-400.0, rel=1e-12)

    def test_matches_simulation(self, baseline_demand, baseline_market):
        q = 5200.0 / 81.0
        rng = np.random.default_rng(88)
        x = baseline_demand.sample(rng, size=1_000_000)
        profits = realized_chain_profit(x, baseline_market, q)
        se = profits.std(ddof=1) / math.sqrt(profits.size)
        assert chain_expected_profit(baseline_demand, baseline_market, q) == pytest.approx(
            profits.mean(), abs=3.0 * se)

    def test_rejects_negative_quantity(self, baseline_demand, baseline_market):
        with pytest.raises(ValueError):
            chain_expected_profit(baseline_demand, baseline_market, -1.0)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_array_of_totals_matches_scalar_calls(self, family):
        d, m, _, _ = random_feasible_setup(np.random.default_rng(73), family)
        totals = np.array([0.0, 1e-3, 0.5, 1.0, 2.0, 50.0]) * d.quantile(0.5)
        got = chain_expected_profit(d, m, totals)
        assert isinstance(got, np.ndarray)
        assert got.tolist() == [chain_expected_profit(d, m, float(q)) for q in totals]

    @pytest.mark.parametrize("family", FAMILIES)
    def test_any_number_or_array_like_equals_the_float_or_array_call(self, family):
        d, m, _, _ = random_feasible_setup(np.random.default_rng(74), family)
        q = d.quantile(0.5)
        alone = chain_expected_profit(d, m, q)
        for value in (np.float64(q), np.array(q)):
            got = chain_expected_profit(d, m, value)
            assert type(got) is float and got.hex() == alone.hex()
        got = chain_expected_profit(d, m, 3)
        assert type(got) is float and got.hex() == chain_expected_profit(d, m, 3.0).hex()
        got = chain_expected_profit(d, m, [1.0, q])
        assert got.tolist() == chain_expected_profit(d, m, np.array([1.0, q])).tolist()

    @pytest.mark.parametrize("bad", [-1.0, math.inf, math.nan])
    def test_array_rejects_any_bad_total(self, baseline_demand, baseline_market, bad):
        with pytest.raises(InvalidValue, match="q_total"):
            chain_expected_profit(baseline_demand, baseline_market, np.array([10.0, bad, 20.0]))

    @pytest.mark.parametrize("bad", [-1.0, -5e-324, -math.inf, math.inf, math.nan])
    def test_array_error_names_first_bad_entry_as_float_call(self, baseline_demand,
                                                            baseline_market, bad):
        with pytest.raises(InvalidValue) as alone:
            chain_expected_profit(baseline_demand, baseline_market, bad)
        totals = np.array([[10.0, 0.0], [bad, -2.0]])  # -2.0 comes later in C order
        with pytest.raises(InvalidValue) as in_array:
            chain_expected_profit(baseline_demand, baseline_market, totals)
        assert str(in_array.value) == str(alone.value)
        assert in_array.value.problems == alone.value.problems

    @pytest.mark.parametrize("family", FAMILIES)
    def test_retailer_plus_supplier_at_true_scale(self, family):
        # At k = 1 both parties price the true demand, so every transfer cancels.
        rng = np.random.default_rng(72)
        for _ in range(5):
            d, m, o, k = random_feasible_setup(rng, family)
            optimum = optimal_plan(d, m, o, k)
            for plan in (optimum, OrderPlan(optimum.q_spot * float(rng.uniform(0.5, 1.5)),
                                            optimum.q_option * float(rng.uniform(0.5, 1.5)))):
                parts = (retailer_expected_profit(d, m, o, 1.0, plan).total
                         + supplier_expected_profit(d, m, o, plan))
                assert chain_expected_profit(d, m, plan.q_total) == pytest.approx(parts, rel=1e-12)


class TestTotalFractile:
    def test_pole_is_minus_infinity_for_floats_and_columns(self, baseline_market):
        # ce == p+g: the ratio -c0/0, as float prices and as a column's entry, is -inf.
        assert total_fractile(baseline_market, OptionContract(5.0, 60.0)) == -math.inf
        with np.errstate(divide="ignore"):
            column = total_fractile(baseline_market, _Prices(5.0, np.array([35.0, 60.0])))
        assert column.tolist() == [total_fractile(baseline_market, OptionContract(5.0, 35.0)),
                                   -math.inf]


class TestRealizedProfits:
    def test_retailer_zero_demand_pays_fixed_costs(self, baseline_market, baseline_contract):
        got = realized_retailer_profit(0.0, 0.8, baseline_market, baseline_contract,
                                       OPTIMAL_PLAN)
        assert got == pytest.approx(-(1040.0 + 6000.0) / 7.0, rel=1e-12)  # -1005.714285...

    def test_retailer_high_demand_caps_exercise(self, baseline_market, baseline_contract):
        # x=100 at believed scale 0.8: demand 80 beats stock 64, options cap out.
        got = realized_retailer_profit(100.0, 0.8, baseline_market, baseline_contract,
                                       OPTIMAL_PLAN)
        assert got == pytest.approx(6960.0 / 7.0, rel=1e-12)  # 994.285714...

    def test_retailer_no_exercise_below_spot_stock(self, baseline_market, baseline_contract):
        # Demand just under the effective spot stock leaves options untouched.
        m, o = baseline_market, baseline_contract
        spot_stock = OPTIMAL_PLAN.q_spot * (1.0 - m.beta)
        x = (spot_stock - 1e-9) / 0.8
        got = realized_retailer_profit(x, 0.8, m, o, OPTIMAL_PLAN)
        no_exercise = (m.p * 0.8 * x - o.c0 * OPTIMAL_PLAN.q_option * (1.0 - m.beta)
                       - m.w0 * spot_stock)
        assert got == pytest.approx(no_exercise, rel=1e-12)

    def test_supplier_zero_demand(self, baseline_market, baseline_contract):
        m, o = baseline_market, baseline_contract
        got = realized_supplier_profit(0.0, m, o, OPTIMAL_PLAN)
        expected = (m.w0 * OPTIMAL_PLAN.q_spot * 0.9 + o.c0 * OPTIMAL_PLAN.q_option * 0.9
                    - m.c * OPTIMAL_PLAN.q_total)
        assert got == pytest.approx(expected, rel=1e-12)

    def test_supplier_large_demand_adds_full_exercise(self, baseline_market,
                                                      baseline_contract):
        m, o = baseline_market, baseline_contract
        base = realized_supplier_profit(0.0, m, o, OPTIMAL_PLAN)
        got = realized_supplier_profit(1000.0, m, o, OPTIMAL_PLAN)
        assert got == pytest.approx(
            base + o.ce * OPTIMAL_PLAN.q_option * (1.0 - m.beta), rel=1e-12)

    def test_chain_zero_demand(self, baseline_market):
        assert realized_chain_profit(0.0, baseline_market, 40.0) == pytest.approx(
            -15.0 * 40.0, rel=1e-12)

    def test_chain_kink_point(self, baseline_market):
        m = baseline_market
        q = 40.0
        x = q * (1.0 - m.beta) / m.theta  # true demand exactly equals stock
        got = realized_chain_profit(x, m, q)
        assert got == pytest.approx(m.p * q * (1.0 - m.beta) - m.c * q, rel=1e-12)

    def test_transfer_payments_cancel_at_k_one(self, baseline_demand, baseline_market,
                                               baseline_contract):
        # With believed = true demand, retailer + supplier = chain per outcome.
        m, o = baseline_market, baseline_contract
        rng = np.random.default_rng(11)
        xs = rng.uniform(0.0, 120.0, size=100)
        for x in xs:
            retailer = realized_retailer_profit(x, m.theta * 1.0, m, o, OPTIMAL_PLAN)
            supplier = realized_supplier_profit(x, m, o, OPTIMAL_PLAN)
            chain = realized_chain_profit(x, m, OPTIMAL_PLAN.q_total)
            assert retailer + supplier == pytest.approx(chain, rel=1e-12, abs=1e-9)

    @staticmethod
    def _reference(x, scale, m, o, plan):
        """Realized (retailer, supplier, chain) profits from the exercised volume, sales and
        shortage as clip, min and max, each with the largest of its terms and of the
        price-times-demand terms that its affine pieces add."""
        eff = 1.0 - m.beta
        stock, spot, option = plan.q_total * eff, plan.q_spot * eff, plan.q_option * eff

        def volumes(demand):
            return (np.clip(demand - spot, 0.0, option), np.minimum(demand, stock),
                    np.maximum(demand - stock, 0.0))

        believed, true = scale * x, m.theta * x
        exercised, sales, shortage = volumes(believed)
        retailer = ((m.p * sales, -o.c0 * option, -o.ce * exercised, -m.w0 * spot,
                     -m.g * shortage), (m.p * believed, o.ce * believed, m.g * believed))
        exercised, sales, shortage = volumes(true)
        supplier = ((m.w0 * spot, o.c0 * option, o.ce * exercised, -m.c * plan.q_total),
                    (o.ce * true,))
        chain = ((m.p * sales, -m.c * plan.q_total, -m.g * shortage), (m.p * true, m.g * true))
        return [(sum(terms), np.max(np.abs(np.broadcast_arrays(*terms, *pieces)), axis=0))
                for terms, pieces in (retailer, supplier, chain)]

    @pytest.mark.parametrize("case", ["baseline", "exercise-above-p-plus-g", *FAMILIES])
    def test_affine_pieces_match_clip_min_max(self, baseline_market, baseline_contract, case):
        rng = np.random.default_rng(71)
        if case in FAMILIES:
            _, m, o, k = random_feasible_setup(rng, case)
        else:
            m, k = baseline_market, 1.15
            # ce = 70 > p + g = 60: past the stock the profit rises again; it is not concave.
            o = baseline_contract if case == "baseline" else OptionContract(c0=5.0, ce=70.0)
        plan = OrderPlan(q_spot=37.5, q_option=21.25)
        scale = m.theta * k
        eff = 1.0 - m.beta
        kinks = [q * eff / s for q in (plan.q_spot, plan.q_total) for s in (scale, m.theta)]
        x = np.concatenate([rng.uniform(0.0, 2.0 * max(kinks), 2000), kinks,
                            [0.0, 10.0 * max(kinks), 1e6]])
        got = (realized_retailer_profit(x, scale, m, o, plan),
               realized_supplier_profit(x, m, o, plan), realized_chain_profit(x, m, plan.q_total))
        for value, (expected, largest) in zip(got, self._reference(x, scale, m, o, plan)):
            assert np.all(np.abs(value - expected) <= 8.0 * np.spacing(largest))
        for i in range(x.size):  # a float gives the array's entry, as a float
            scalars = (realized_retailer_profit(float(x[i]), scale, m, o, plan),
                       realized_supplier_profit(float(x[i]), m, o, plan),
                       realized_chain_profit(float(x[i]), m, plan.q_total))
            assert all(type(v) is float for v in scalars)
            assert scalars == tuple(float(v[i]) for v in got)

    def test_vectorized_matches_scalar(self, baseline_market, baseline_contract):
        xs = np.array([0.0, 10.0, 55.5, 100.0, 400.0])
        vector = realized_retailer_profit(xs, 0.96, baseline_market, baseline_contract,
                                          OPTIMAL_PLAN)
        scalars = [realized_retailer_profit(float(x), 0.96, baseline_market,
                                            baseline_contract, OPTIMAL_PLAN) for x in xs]
        assert np.array_equal(vector, np.array(scalars))


def _whole_array_lines(x, scale, m, o, plan):
    """Realized (retailer, supplier, chain) profits, each line a whole-array expression
    of its own: the operations that the in-place evaluation repeats, in the same order."""
    eff = 1.0 - m.beta
    stock, spot_stock, option_stock = plan.q_total * eff, plan.q_spot * eff, plan.q_option * eff
    demand = scale * x
    fixed = -o.c0 * option_stock - m.w0 * spot_stock
    spot = m.p * demand + fixed
    exercising = (m.p - o.ce) * demand + (fixed + o.ce * spot_stock)
    short = -m.g * demand + (fixed + m.p * stock - o.ce * option_stock + m.g * stock)
    join = np.minimum if o.ce <= m.p + m.g else np.maximum
    retailer = np.minimum(spot, join(exercising, short))
    fixed = m.w0 * spot_stock + o.c0 * option_stock - m.c * plan.q_total
    line = (o.ce * m.theta) * x + (fixed - o.ce * spot_stock)
    supplier = np.clip(line, fixed, fixed + o.ce * option_stock)
    demand, cost = m.theta * x, m.c * plan.q_total
    chain = np.minimum(m.p * demand - cost, -m.g * demand + ((m.p + m.g) * stock - cost))
    return retailer, supplier, chain


class TestRealizedOut:
    @staticmethod
    def _calls(scale, m, o, plan):
        return (lambda x, **out: realized_retailer_profit(x, scale, m, o, plan, **out),
                lambda x, **out: realized_supplier_profit(x, m, o, plan, **out),
                lambda x, **out: realized_chain_profit(x, m, plan.q_total, **out))

    @pytest.mark.parametrize("join", ["min", "max"])
    @pytest.mark.parametrize("family", FAMILIES)
    def test_out_keeps_the_bits_of_whole_array_lines(self, family, join):
        rng = np.random.default_rng(97)
        _, m, o, k = random_feasible_setup(rng, family)
        if join == "max":  # ce > p + g: past the stock the retailer's profit rises again
            o = OptionContract(c0=o.c0, ce=1.25 * (m.p + m.g))
        plan = OrderPlan(q_spot=float(rng.uniform(10.0, 40.0)), q_option=float(rng.uniform(5.0, 30.0)))
        scale = m.theta * k
        eff = 1.0 - m.beta
        kinks = [q * eff / s for q in (plan.q_spot, plan.q_total) for s in (scale, m.theta)]
        x = np.concatenate([[0.0], kinks, rng.uniform(0.0, 2.0 * max(kinks), 500),
                            rng.uniform(0.5, 2.0, 20) * 1e300])
        rng.shuffle(x)
        for call, expected in zip(self._calls(scale, m, o, plan), _whole_array_lines(x, scale, m, o, plan)):
            fresh = call(x.copy())
            separate = np.full_like(x, np.nan)
            aliased = x.copy()
            assert call(x, out=separate) is separate
            assert call(aliased, out=aliased) is aliased
            for got in (fresh, separate, aliased):
                assert got.tobytes() == expected.tobytes()
            for i in range(x.size):
                value = call(float(x[i]))
                assert type(value) is float and value.hex() == float(expected[i]).hex()


class TestTypes:
    def test_order_plan_total_is_exact_sum(self):
        plan = OrderPlan(q_spot=0.1, q_option=0.2)
        assert plan.q_total == 0.1 + 0.2

    def test_order_plan_rejects_negative(self):
        with pytest.raises(ValueError):
            OrderPlan(q_spot=-1.0, q_option=2.0)

    def test_market_params_validation(self):
        with pytest.raises(ValueError, match="beta"):
            MarketParams(p=50.0, g=10.0, w0=25.0, c=15.0, beta=1.0, theta=0.8)
        with pytest.raises(ValueError, match="p > w0"):
            MarketParams(p=20.0, g=10.0, w0=25.0, c=15.0, beta=0.1, theta=0.8)
        with pytest.raises(ValueError, match="w0 > c"):
            MarketParams(p=50.0, g=10.0, w0=25.0, c=30.0, beta=0.1, theta=0.8)

    def test_market_params_report_every_broken_field(self):
        with pytest.raises(InvalidValue) as err:
            MarketParams(p=math.inf, g=math.nan, w0=25.0, c=15.0, beta=1.0, theta=0.8)
        assert [field for field, _ in err.value.problems] == ["p", "g", "beta"]

    def test_zero_production_cost_allowed(self):
        # c = 0 is the free-production boundary used by the centralized limit.
        MarketParams(p=50.0, g=10.0, w0=25.0, c=0.0, beta=0.1, theta=0.8)

    def test_contract_requires_positive_prices(self):
        with pytest.raises(ValueError):
            OptionContract(c0=0.0, ce=35.0)
        with pytest.raises(ValueError):
            OptionContract(c0=5.0, ce=-1.0)

    @pytest.mark.parametrize("build,fields", [
        (lambda: OptionContract(c0=-5.0, ce=-1.0), ["c0", "ce"]),
        (lambda: OptionContract(c0=math.nan, ce=35.0), ["c0"]),
        (lambda: OrderPlan(q_spot=-1.0, q_option=math.nan), ["q_spot", "q_option"]),
        (lambda: OrderPlan(q_spot=1.0, q_option=-math.inf), ["q_option"]),
    ], ids=["contract-both", "contract-one", "plan-both", "plan-one"])
    def test_report_every_broken_field_in_order(self, build, fields):
        with pytest.raises(InvalidValue) as err:
            build()
        assert [field for field, _ in err.value.problems] == fields
        assert str(err.value) == "; ".join(f"{field} {rule}" for field, rule in err.value.problems)
