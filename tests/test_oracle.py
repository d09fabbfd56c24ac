"""Oracle tests: seeded Monte-Carlo estimates and brute-force grid search."""
from __future__ import annotations

import dataclasses
import functools
import inspect
import math
import os
import sys
import threading
import warnings

import numpy as np
import pytest
from scipy.special import ndtri

from conftest import FAMILIES, random_feasible_setup
from test_sweep import DEMANDS
from freshopt import (
    Exponential,
    GridSpec,
    Infeasible,
    InvalidValue,
    MarketParams,
    OptionContract,
    OrderPlan,
    TruncatedNormal,
    Uniform,
    chain_expected_profit,
    default_grid_spec,
    grid_search_plan,
    mc_expected,
    optimal_plan,
    realized_chain_profit,
    realized_retailer_profit,
    realized_supplier_profit,
    retailer_expected_profit,
    supplier_expected_profit,
    total_fractile,
)
from freshopt.demand import _FAMILIES, _SPLIT_MIN, DemandDistribution
from freshopt.oracle import MC_KINDS, _CHUNK, _MAX_SAMPLES, _lattice, _window_max, chunk_stream

REFERENCE_PLAN = OrderPlan(q_spot=240.0 / 6.3, q_option=2080.0 / 63.0)


class TestMcExpected:
    def test_retailer_within_three_sigma(self, baseline_demand, baseline_market,
                                         baseline_contract):
        est = mc_expected("retailer", baseline_demand, baseline_market, baseline_contract,
                          1.0, REFERENCE_PLAN, 1_000_000, 42)
        analytic = 3480.0 / 7.0
        assert est.stderr < 1.5
        assert abs(est.mean - analytic) <= 3.0 * est.stderr

    def test_supplier_within_three_sigma(self, baseline_demand, baseline_market,
                                         baseline_contract):
        est = mc_expected("supplier", baseline_demand, baseline_market, baseline_contract,
                          1.0, REFERENCE_PLAN, 1_000_000, 43)
        assert abs(est.mean - 7144.0 / 21.0) <= 3.0 * est.stderr

    def test_chain_within_three_sigma(self, baseline_demand, baseline_market,
                                      baseline_contract):
        est = mc_expected("chain", baseline_demand, baseline_market, baseline_contract,
                          1.0, REFERENCE_PLAN, 1_000_000, 44)
        analytic = chain_expected_profit(baseline_demand, baseline_market,
                                         REFERENCE_PLAN.q_total)
        assert abs(est.mean - analytic) <= 3.0 * est.stderr

    def test_single_sample_is_one_realized_profit(self, baseline_demand, baseline_market,
                                                  baseline_contract):
        est = mc_expected("retailer", baseline_demand, baseline_market, baseline_contract,
                          1.0, REFERENCE_PLAN, 1, 99)
        rng = np.random.Generator(np.random.PCG64(chunk_stream(99, 0)))
        x = baseline_demand.sample(rng, size=1)
        expected = realized_retailer_profit(
            x, baseline_market.theta, baseline_market, baseline_contract, REFERENCE_PLAN)
        assert est.mean == float(expected[0])
        assert est.stderr == 0.0

    def test_deterministic_for_seed_and_n(self, baseline_demand, baseline_market,
                                          baseline_contract):
        a = mc_expected("retailer", baseline_demand, baseline_market, baseline_contract,
                        1.1, REFERENCE_PLAN, 300_000, 5)
        b = mc_expected("retailer", baseline_demand, baseline_market, baseline_contract,
                        1.1, REFERENCE_PLAN, 300_000, 5)
        assert a == b

    def test_believed_measure_for_retailer(self, baseline_demand, baseline_market,
                                           baseline_contract):
        # At k=1.2 the retailer's estimate must track Eq-style profit under
        # its believed scale, not the true one.
        k = 1.2
        plan = optimal_plan(baseline_demand, baseline_market, baseline_contract, k)
        est = mc_expected("retailer", baseline_demand, baseline_market, baseline_contract,
                          k, plan, 1_000_000, 46)
        believed = retailer_expected_profit(
            baseline_demand, baseline_market, baseline_contract, k, plan).total
        assert abs(est.mean - believed) <= 3.0 * est.stderr

    def test_supplier_ignores_belief(self, baseline_demand, baseline_market,
                                     baseline_contract):
        a = mc_expected("supplier", baseline_demand, baseline_market, baseline_contract,
                        0.7, REFERENCE_PLAN, 100_000, 47)
        b = mc_expected("supplier", baseline_demand, baseline_market, baseline_contract,
                        1.4, REFERENCE_PLAN, 100_000, 47)
        assert a.mean == b.mean

    def test_rejects_bad_kind_and_n(self, baseline_demand, baseline_market,
                                    baseline_contract):
        with pytest.raises(ValueError):
            mc_expected("distributor", baseline_demand, baseline_market, baseline_contract,
                        1.0, REFERENCE_PLAN, 10, 1)
        with pytest.raises(ValueError):
            mc_expected("retailer", baseline_demand, baseline_market, baseline_contract,
                        1.0, REFERENCE_PLAN, 0, 1)

    def test_names_kind_sample_count_and_k_together(self, baseline_demand, baseline_market,
                                                    baseline_contract):
        with pytest.raises(InvalidValue) as err:
            mc_expected("x", baseline_demand, baseline_market, baseline_contract,
                        0.0, REFERENCE_PLAN, 0, 1)
        assert err.value.problems == [
            ("kind", f"must be one of {MC_KINDS}, got 'x'"),
            ("samples", "must be >= 1 and an integer, got 0"),
            ("k", "must be finite and > 0, got 0.0")]
        assert str(err.value) == (f"kind must be one of {MC_KINDS}, got 'x'; "
                                  "sample count must be >= 1 and an integer, got 0; "
                                  "k must be finite and > 0, got 0.0")

    @pytest.mark.parametrize("kind", MC_KINDS)
    @pytest.mark.parametrize("k", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_bad_k_for_every_kind(self, baseline_demand, baseline_market,
                                          baseline_contract, kind, k):
        with pytest.raises(InvalidValue) as err:
            mc_expected(kind, baseline_demand, baseline_market, baseline_contract,
                        k, REFERENCE_PLAN, 10, 1)
        assert err.value.problems == [("k", f"must be finite and > 0, got {k}")]

    def test_rejects_sample_count_over_cap(self, baseline_demand, baseline_market,
                                           baseline_contract):
        with pytest.raises(InvalidValue) as err:
            mc_expected("chain", baseline_demand, baseline_market, baseline_contract,
                        1.0, REFERENCE_PLAN, _MAX_SAMPLES + 1, 1)
        assert err.value.problems == [("samples", "must be <= 1000000000, got 1000000001")]

    def test_constant_profit_mean_is_exact(self):
        # Demand's true support lies below the spot stock, so the supplier never sells an
        # exercised unit: every draw has one profit, and so must the mean, with stderr 0.
        d = Uniform(18.857833532365774, 83.03744599033851)
        m = MarketParams(p=67.91564877862923, g=1.651333780420735, w0=17.75718785659334,
                         c=6.2384444198025655, beta=0.14197308716069165,
                         theta=0.858506578675585)
        o = OptionContract(c0=9.672773041749839, ce=26.676417896066216)
        plan = optimal_plan(d, m, o, 1.3339772400897998)
        assert m.theta * d.hi < plan.q_spot * (1.0 - m.beta)
        profit = realized_supplier_profit(d.hi, m, o, plan)
        assert realized_supplier_profit(d.lo, m, o, plan) == profit
        est = mc_expected("supplier", d, m, o, 1.3339772400897998, plan, 1_000_000, 802254715)
        assert est.mean == profit
        assert est.stderr == 0.0

    def test_rejects_negative_seed(self, baseline_demand, baseline_market,
                                   baseline_contract):
        with pytest.raises(ValueError, match="seed must be >= 0"):
            mc_expected("chain", baseline_demand, baseline_market, baseline_contract,
                        1.0, REFERENCE_PLAN, 10, -1)

    @pytest.mark.parametrize("samples,seed,problem", [
        (10, 1.5, ("seed", "must be >= 0 and an integer, got 1.5")),
        (10, "3", ("seed", "must be >= 0 and an integer, got '3'")),
        (10, True, ("seed", "must be >= 0 and an integer, got True")),
        (True, 1, ("samples", "must be >= 1 and an integer, got True")),
        (10.0, 1, ("samples", "must be >= 1 and an integer, got 10.0")),
    ])
    def test_rejects_non_integer_draws(self, baseline_demand, baseline_market,
                                       baseline_contract, samples, seed, problem):
        with pytest.raises(InvalidValue) as err:
            mc_expected("chain", baseline_demand, baseline_market, baseline_contract,
                        1.0, REFERENCE_PLAN, samples, seed)
        assert err.value.problems == [problem]
        assert str(err.value).startswith(("seed must be >= 0", "sample count must be >= 1"))

    def test_chunk_stream_is_spawned_child(self):
        for seed in (0, 7, 2**40):
            for i in (0, 1, 5):
                expected = np.random.SeedSequence(seed).spawn(i + 1)[i]
                assert (chunk_stream(seed, i).generate_state(4)
                        == expected.generate_state(4)).all()
        assert [chunk_stream(3, i).spawn_key for i in range(4)] == [(0,), (1,), (2,), (3,)]

    @pytest.mark.parametrize("family", FAMILIES)
    def test_bit_identical_to_one_draw_per_chunk(self, family):
        # Reference fold: one draw of the whole chunk, then its mean as the first profit
        # plus the mean of the differences from it, and squared deviations.
        d, m, o, k = random_feasible_setup(np.random.default_rng(31), family)
        plan = optimal_plan(d, m, o, k)
        evaluators = {
            "retailer": lambda x: realized_retailer_profit(x, m.theta * k, m, o, plan),
            "supplier": lambda x: realized_supplier_profit(x, m, o, plan),
            "chain": lambda x: realized_chain_profit(x, m, plan.q_total),
        }
        chunk = 1 << 17
        for kind in MC_KINDS:
            for n in (1, 8193, 16385, 32767, 32769, chunk, chunk + 1, chunk + 32769, 3 * chunk + 17):
                count, mean, m2 = 0, 0.0, 0.0
                for i, child in enumerate(np.random.SeedSequence(11).spawn(-(-n // chunk))):
                    take = min(chunk, n - i * chunk)
                    rng = np.random.Generator(np.random.PCG64(child))
                    p = evaluators[kind](d.sample(rng, size=take))
                    shifted = p - p[0]
                    offset = float(shifted.mean())
                    chunk_mean = float(p[0]) + offset
                    chunk_m2 = float(np.sum((shifted - offset) ** 2))
                    delta, total = chunk_mean - mean, count + take
                    mean += delta * take / total
                    m2 += chunk_m2 + delta * delta * count * take / total
                    count = total
                est = mc_expected(kind, d, m, o, k, plan, n, 11)
                assert est.mean == mean, (kind, n)
                assert est.stderr == (math.sqrt(m2 / (n - 1) / n) if n > 1 else 0.0), (kind, n)

    def test_random_configurations_within_three_sigma(self):
        rng = np.random.default_rng(404)
        for i in range(3):
            d, m, o, k = random_feasible_setup(rng, FAMILIES[i % 3])
            plan = optimal_plan(d, m, o, k)
            checks = {
                "retailer": retailer_expected_profit(d, m, o, k, plan).total,
                "supplier": supplier_expected_profit(d, m, o, plan),
                "chain": chain_expected_profit(d, m, plan.q_total),
            }
            for kind, analytic in checks.items():
                est = mc_expected(kind, d, m, o, k, plan, 200_000, 500 + i)
                assert abs(est.mean - analytic) <= 4.0 * est.stderr, (kind, i)


def _report_cpus(monkeypatch, cpus: int) -> None:
    """Make the CPU probes report that this process may run on cpus CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)


def _record_threads(monkeypatch) -> tuple[set[int], list[tuple[threading.Thread, object]]]:
    """Wrap every public freshopt function and public DemandDistribution method, wherever
    a module binds it, to record the thread it runs on; and record every thread started,
    with its target.  Returns (thread idents, [(thread, target)] started)."""
    idents: set[int] = set()
    started: list[tuple[threading.Thread, object]] = []

    def recorded(fn):
        @functools.wraps(fn)
        def call(*args, **kwargs):
            idents.add(threading.get_ident())
            return fn(*args, **kwargs)
        return call

    wrappers = {}
    for name, module in list(sys.modules.items()):
        if name == "freshopt" or name.startswith("freshopt."):
            for attr, obj in list(vars(module).items()):
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__.startswith("freshopt")):
                    wrapper = wrappers.setdefault(id(obj), recorded(obj))
                    monkeypatch.setattr(module, attr, wrapper)
    for cls in (DemandDistribution, *_FAMILIES.values()):
        for attr, obj in list(vars(cls).items()):
            if not attr.startswith("_") and inspect.isfunction(obj):
                monkeypatch.setattr(cls, attr, recorded(obj))

    start = threading.Thread.start

    def counted(thread):
        started.append((thread, thread._target))  # run() drops _target once it ends
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", counted)
    return idents, started


class TestThreads:
    """A truncated-normal chunk maps half its levels through ndtri on one helper thread;
    every public function, and every other family, stays on the calling thread."""

    @pytest.mark.parametrize("family", FAMILIES)
    def test_public_calls_run_on_calling_thread(self, family, monkeypatch):
        d, m, o, k = random_feasible_setup(np.random.default_rng(31), family)
        plan = optimal_plan(d, m, o, k)
        threads = threading.active_count()
        _report_cpus(monkeypatch, 2)
        idents, started = _record_threads(monkeypatch)
        for kind in MC_KINDS:
            mc_expected(kind, d, m, o, k, plan, 2 * _CHUNK + 3, 11)  # chunks 2**17, 2**17, 3
        assert idents == {threading.get_ident()}
        # One helper per chunk of at least _SPLIT_MIN truncated-normal draws, running ndtri.
        assert len(started) == (6 if family == "truncated-normal" else 0)
        assert all(target is ndtri for _, target in started)
        assert not any(thread.is_alive() for thread, _ in started)
        assert threading.active_count() == threads

    def test_no_helper_below_threshold_or_on_one_cpu(self, baseline_market, baseline_contract,
                                                     monkeypatch):
        d = TruncatedNormal(50.0, 20.0)
        _report_cpus(monkeypatch, 2)
        _, started = _record_threads(monkeypatch)
        d.sample(np.random.default_rng(3), size=_SPLIT_MIN - 1)
        assert started == []
        d.sample(np.random.default_rng(3), size=_SPLIT_MIN)
        assert len(started) == 1
        _report_cpus(monkeypatch, 1)
        mc_expected("chain", d, baseline_market, baseline_contract, 1.0, REFERENCE_PLAN,
                    2 * _CHUNK, 5)
        assert len(started) == 1


class TestGridSearch:
    def test_reference_grid_point(self, baseline_demand, baseline_market,
                                  baseline_contract):
        plan = grid_search_plan(baseline_demand, baseline_market, baseline_contract, 1.0,
                                GridSpec((0.0, 100.0), (0.0, 100.0), 0.05))
        assert plan.q_spot == pytest.approx(38.10, abs=1e-9)
        assert plan.q_option == pytest.approx(33.00, abs=1e-9)
        closed = optimal_plan(baseline_demand, baseline_market, baseline_contract, 1.0)
        assert abs(plan.q_spot - closed.q_spot) <= 0.05 + 1e-9
        assert abs(plan.q_option - closed.q_option) <= 0.05 + 1e-9

    def test_never_beats_closed_form(self, baseline_demand, baseline_market,
                                     baseline_contract):
        d, m, o = baseline_demand, baseline_market, baseline_contract
        grid = grid_search_plan(d, m, o, 1.0, default_grid_spec(d, m, 1.0, 0.05))
        closed = optimal_plan(d, m, o, 1.0)
        grid_profit = retailer_expected_profit(d, m, o, 1.0, grid).total
        closed_profit = retailer_expected_profit(d, m, o, 1.0, closed).total
        assert grid_profit <= closed_profit + 1e-9

    def test_default_box_contains_optimum_past_fractile_0_9999(self, baseline_market):
        # Total fractile 1 - 0.001/25 > 0.9999: the optimal q_option, 174.0466, lies past the
        # 0.9999 box's edge, 163.7394, where the search would stop.
        d, m, o = Exponential(0.05), baseline_market, OptionContract(c0=0.001, ce=35.0)
        spec = default_grid_spec(d, m, 1.0, 0.05, o)
        closed = optimal_plan(d, m, o, 1.0)
        assert closed.q_option == pytest.approx(174.0466, abs=1e-4)
        assert spec.qq_range[1] >= closed.q_total
        grid = grid_search_plan(d, m, o, 1.0, spec)
        assert abs(grid.q_spot - closed.q_spot) <= 0.05
        assert abs(grid.q_option - closed.q_option) <= 0.05
        # The box does not move while the fractile is at most 0.9999.
        base = OptionContract(c0=5.0, ce=35.0)
        assert default_grid_spec(d, m, 1.3, 0.05, base) == default_grid_spec(d, m, 1.3, 0.05)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_box_edge_is_the_optimizers_believed_stock(self, family):
        # The edge is k*theta/(1-beta) * F^-1(level), multiplied in the optimizer's order.
        rng = np.random.default_rng(20)
        for _ in range(20):
            d, m, o, k = random_feasible_setup(rng, family)
            level = max(0.9999, total_fractile(m, o))
            reach = k * m.theta / (1.0 - m.beta) * d.quantile(level)
            assert default_grid_spec(d, m, k, 0.05, o) == GridSpec((0.0, reach), (0.0, reach), 0.05)

    def test_halving_step_never_hurts(self, baseline_demand, baseline_market,
                                      baseline_contract):
        d, m, o = baseline_demand, baseline_market, baseline_contract
        profits = []
        for step in (0.4, 0.2, 0.1):
            plan = grid_search_plan(d, m, o, 1.0, GridSpec((0.0, 80.0), (0.0, 80.0), step))
            profits.append(retailer_expected_profit(d, m, o, 1.0, plan).total)
        assert profits[1] >= profits[0] - 1e-12
        assert profits[2] >= profits[1] - 1e-12

    def test_degenerate_single_point(self, baseline_demand, baseline_market,
                                     baseline_contract):
        plan = grid_search_plan(baseline_demand, baseline_market, baseline_contract, 1.0,
                                GridSpec((12.0, 12.0), (7.5, 7.5), 0.05))
        assert plan.q_spot == 12.0
        assert plan.q_option == 7.5

    @pytest.mark.parametrize("args,fields", [
        (((5.0, 1.0), (0.0, math.inf), 0.0), ["q1_range", "qq_range", "step"]),
        (((-1.0, 1.0), (0.0, 1.0), math.nan), ["q1_range", "step"]),
        (((0.0, 1.0), (2.0, 1.0), 0.5), ["qq_range"]),
    ], ids=["all-three", "first-and-step", "second"])
    def test_grid_spec_reports_every_broken_field_in_order(self, args, fields):
        with pytest.raises(InvalidValue) as err:
            GridSpec(*args)
        assert [field for field, _ in err.value.problems] == fields

    def test_worthless_options_drive_quantity_to_floor(self, baseline_demand,
                                                       baseline_market):
        # Premium at/above the option margin: profit strictly decreases in
        # the option quantity, so the maximizer sits at the grid minimum.
        contract = OptionContract(c0=25.0, ce=35.0)
        plan = grid_search_plan(baseline_demand, baseline_market, contract, 1.0,
                                GridSpec((0.0, 90.0), (2.0, 60.0), 0.5))
        assert plan.q_option == 2.0

    def test_matches_public_profit_at_cells(self, baseline_demand, baseline_market,
                                            baseline_contract):
        # The search's separable surface equals the public evaluator.
        d, m, o = baseline_demand, baseline_market, baseline_contract
        rng = np.random.default_rng(8)
        for _ in range(20):
            q1 = round(float(rng.uniform(0.0, 70.0)), 2)
            qq = round(float(rng.uniform(0.0, 70.0)), 2)
            single = grid_search_plan(d, m, o, 1.0, GridSpec((q1, q1), (qq, qq), 1.0))
            assert single.q_spot == q1 and single.q_option == qq
        # All-cell consistency on a small lattice: search picks the argmax
        # of the public profit over the same lattice.
        spec = GridSpec((30.0, 45.0), (25.0, 40.0), 0.5)
        best = grid_search_plan(d, m, o, 1.0, spec)
        brute_best, brute_plan = -np.inf, None
        for q1 in np.arange(30.0, 45.0 + 0.25, 0.5):
            for qq in np.arange(25.0, 40.0 + 0.25, 0.5):
                value = retailer_expected_profit(d, m, o, 1.0, OrderPlan(q1, qq)).total
                if value > brute_best:
                    brute_best, brute_plan = value, (q1, qq)
        assert (best.q_spot, best.q_option) == pytest.approx(brute_plan, abs=1e-9)

    @staticmethod
    def _per_row_loop(d, m, o, k, spec):
        # Reference: the search with its own separable algebra and one argmax per spot row.
        q1s = _lattice(spec.q1_range, spec.step)
        qqs = _lattice(spec.qq_range, spec.step)
        n1, nq = len(q1s), len(qqs)
        eff = 1.0 - m.beta
        scale = m.theta * k
        pg = m.p + m.g
        totals = (q1s[0] + qqs[0]) + spec.step * np.arange(n1 + nq - 1)
        partial_total = np.asarray(d.cdf_integral(totals * eff / scale), dtype=float)
        partial_spot = np.asarray(d.cdf_integral(q1s * eff / scale), dtype=float)
        total_part = (pg * eff * totals - (pg - o.ce) * scale * partial_total
                      - (o.c0 + o.ce) * eff * totals)
        spot_part = (o.c0 + o.ce - m.w0) * eff * q1s - o.ce * scale * partial_spot
        best_value = -math.inf
        best_i = best_j = 0
        for i in range(n1):
            candidates = total_part[i:i + nq] + spot_part[i]
            j = int(np.argmax(candidates))
            value = float(candidates[j])
            if value > best_value:
                best_value, best_i, best_j = value, i, j
        return OrderPlan(q_spot=float(q1s[best_i]), q_option=float(qqs[best_j]))

    def test_matches_per_row_loop(self):
        rng = np.random.default_rng(606)
        cases = []
        for family in FAMILIES:
            for _ in range(4):
                d, m, o, k = random_feasible_setup(rng, family)
                cases.append((d, m, o, k, default_grid_spec(d, m, k, 0.05)))
        d, m, o, k, _ = cases[0]
        cases.append((d, m, o, k, GridSpec((0.0, 60.0), (7.5, 7.5), 0.05)))   # nq = 1
        cases.append((d, m, o, k, GridSpec((12.0, 12.0), (0.0, 60.0), 0.05)))  # n1 = 1
        for d, m, o, k, spec in cases:
            assert grid_search_plan(d, m, o, k, spec) == self._per_row_loop(d, m, o, k, spec)

    def test_window_max_equals_sliding_window_max(self):
        from numpy.lib.stride_tricks import sliding_window_view
        rng = np.random.default_rng(616)
        arrays = [rng.normal(size=n) for n in (1, 2, 7, 64, 1001)]
        ties = rng.integers(0, 3, size=500).astype(float)  # runs of equal maxima
        ties[[0, 1, 2]] = [-0.0, 0.0, -0.0]
        special = rng.normal(size=300)
        special[rng.choice(300, 40, replace=False)] = -np.inf
        special[[5, 150, 299]] = np.nan
        arrays += [ties, special, np.full(9, -np.inf), np.full(9, np.nan)]
        for x in arrays:
            for w in sorted({1, 2, 3, len(x) // 2, len(x) - 1, len(x)} & set(range(1, len(x) + 1))):
                np.testing.assert_array_equal(_window_max(x, w),
                                              sliding_window_view(x, w).max(axis=1), f"w={w}")

    def test_rejects_bad_k(self, baseline_demand, baseline_market, baseline_contract):
        with pytest.raises(InvalidValue) as err:
            grid_search_plan(baseline_demand, baseline_market, baseline_contract, 0.0,
                             GridSpec((0.0, 100.0), (0.0, 100.0), 0.05))
        assert err.value.problems == [("k", "must be finite and > 0, got 0.0")]

    def test_default_box_rejects_bad_k(self, baseline_demand, baseline_market):
        with pytest.raises(InvalidValue) as err:
            default_grid_spec(baseline_demand, baseline_market, -1.0)
        assert err.value.problems == [("k", "must be finite and > 0, got -1.0")]

    def test_default_box_names_bad_k_and_bad_step_together(self, baseline_demand, baseline_market):
        with pytest.raises(InvalidValue) as err:
            default_grid_spec(baseline_demand, baseline_market, -1.0, step=0.0)
        assert err.value.problems == [("k", "must be finite and > 0, got -1.0"),
                                      ("step", "must be finite and > 0, got 0.0")]

    def test_default_box_that_overflows_is_infeasible(self, baseline_market):
        # At k = 1e308 the box edge overflows, as the optimal plan does: no answer, not a
        # rejected q1_range the caller never gave.
        d = Uniform(0.0, 100.0)
        with pytest.raises(Infeasible) as err:
            default_grid_spec(d, baseline_market, 1e308)
        assert str(err.value) == "grid search box overflows double precision"
        with pytest.raises(Infeasible, match="optimal plan overflows double precision"):
            optimal_plan(d, baseline_market, OptionContract(5.0, 35.0), 1e308)

    def test_default_box_at_the_total_fractile_pole(self, baseline_demand, baseline_market):
        # ce == p+g: the total fractile is -inf, so the box is the one without a contract.
        pole = OptionContract(5.0, 60.0)
        assert (default_grid_spec(baseline_demand, baseline_market, 1.0, o=pole)
                == default_grid_spec(baseline_demand, baseline_market, 1.0))

    @pytest.mark.parametrize("family, plan", [("uniform", (51.85, 0.0)),
                                              ("exponential", (38.9, 0.0)),
                                              ("truncated-normal", (48.3, 0.0))])
    def test_default_box_past_the_total_fractile_pole(self, baseline_market, family, plan):
        # ce > p+g: the total fractile is (60-61-5)/(60-61) = 6, no quantile level, so the box is
        # the one without a contract; on it the options are worthless and the grid buys none.
        d, m, past = DEMANDS[family], baseline_market, OptionContract(5.0, 61.0)
        assert total_fractile(m, past) == 6.0
        spec = default_grid_spec(d, m, 1.0, o=past)
        assert spec == default_grid_spec(d, m, 1.0)
        found = grid_search_plan(d, m, past, 1.0, spec)
        assert (found.q_spot, found.q_option) == pytest.approx(plan, abs=1e-9)

    def test_rejects_bad_spec(self):
        with pytest.raises(ValueError):
            GridSpec((10.0, 5.0), (0.0, 5.0), 0.1)
        with pytest.raises(ValueError):
            GridSpec((0.0, 5.0), (0.0, 5.0), 0.0)


@pytest.mark.parametrize("family", FAMILIES)
def test_oracles_raise_where_the_believed_scale_underflows(baseline_market, baseline_contract,
                                                          family):
    # theta*k = 1e-600 rounds to 0: the closed forms have no retailer profit, nor do the oracles.
    d, m = DEMANDS[family], dataclasses.replace(baseline_market, theta=1e-300)
    expected = "believed demand scale theta*k underflows to 0 at theta=1e-300, k=1e-300"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(Infeasible) as err:
            mc_expected("retailer", d, m, baseline_contract, 1e-300, OrderPlan(40.0, 20.0), 64, 7)
        assert str(err.value) == expected
        with pytest.raises(Infeasible) as err:
            grid_search_plan(d, m, baseline_contract, 1e-300, GridSpec((0.0, 2.0), (0.0, 2.0), 1.0))
        assert str(err.value) == expected
