"""Tests of the benchmark itself: tracer arithmetic, the correctness check, determinism.

    python3 -m pytest bench/tests -q
"""
from __future__ import annotations

import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH_DIR))

import calibrate  # noqa: E402
import check  # noqa: E402
import scenarios  # noqa: E402
import tracer as tr  # noqa: E402
import worker  # noqa: E402
import workloads as wl  # noqa: E402

import freshopt  # noqa: E402
from freshopt import cli, optimizer, oracle, sweep  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_subtracts_nested_spans():
    clock = FakeClock()
    t = tr.Tracer(clock=clock)

    def leaf():
        clock.now += 1.0

    traced_leaf = t.wrap("demand.cdf", leaf, aggregate=True)

    def middle():
        clock.now += 2.0
        traced_leaf()
        traced_leaf()
        clock.now += 3.0

    traced_middle = t.wrap("optimizer.optimal_plan", middle, aggregate=False)

    def outer():
        clock.now += 5.0
        traced_middle()
        traced_leaf()

    t.begin_request(("setup", 0))
    t.wrap("cli.main", outer, aggregate=False)()
    t.end_request()

    assert t.totals["cli.main"] == [1, 5.0]               # 5 + (7 middle) + (1 leaf) = 13 total
    assert t.totals["optimizer.optimal_plan"] == [1, 5.0]  # 7 total minus two 1.0 leaves
    assert t.totals["demand.cdf"] == [3, 3.0]
    assert t.nested_counts() == {"optimizer.optimal_plan>demand.cdf": 2, "cli.main>demand.cdf": 1}
    spans = {s[3]: s for s in t.export()["spans"]}
    assert spans["optimizer.optimal_plan"][2] == spans["cli.main"][1]  # parent id
    assert spans["cli.main"][4:] == (0.0, 13.0)
    assert t.export()["requests"] == [[["setup", 0], {"demand.cdf": [3, 3.0]}]]


def test_latencies_scale_with_the_slices_around_them():
    ref = calibrate.REFERENCE_SLICE_S
    # Slices every second: reference speed for 10 s, then half speed.
    slices = [[t + 0.5, ref if t < 10 else 2 * ref] for t in range(20)]
    starts = [2.0, 15.0, 9.8]
    latencies = [0.1, 0.1, 0.1]
    scaled = calibrate.scale_requests(starts, latencies, slices)
    assert scaled[0] == pytest.approx(0.1)
    assert scaled[1] == pytest.approx(0.05)
    # Near the change the window holds one fast slice and one slow one.
    assert scaled[2] == pytest.approx(0.1 / 1.5)
    # A request far from every slice takes the nearest one.
    assert calibrate.scale_requests([40.0], [0.1], slices) == [pytest.approx(0.05)]


def test_installed_tracer_covers_reimported_names_and_restores_them():
    original = optimizer.optimal_plan
    with tr.Tracer().installed():
        assert sweep.optimal_plan is optimizer.optimal_plan is freshopt.optimal_plan
        assert sweep.optimal_plan is not original
        assert cli.run_sweep is sweep.run_sweep
    assert optimizer.optimal_plan is original
    assert sweep.optimal_plan is original and freshopt.optimal_plan is original


def _responses(workload: str, pool: list[dict], tmp_path: Path) -> list:
    senders = worker.build_requests(workload, pool, tmp_path)
    return [[[list(worker.send_one(send)), 1]] for send in senders]


def test_wrong_answer_counts_as_failed(tmp_path, monkeypatch):
    pool = scenarios.make_pool("cli-closed-form", 3, 2)
    keys = wl.request_keys("cli-closed-form", len(pool))
    attempted, failed, reasons = check.check_all("cli-closed-form", pool, keys,
                                                 _responses("cli-closed-form", pool, tmp_path))
    assert (attempted, failed) == (len(keys), 0), reasons

    real_chain = sweep.chain_expected_profit
    monkeypatch.setattr(sweep, "chain_expected_profit", lambda *a: real_chain(*a) + 1e-3)
    monkeypatch.setattr(cli, "chain_expected_profit", lambda *a: real_chain(*a) + 1e-3)
    attempted, failed, reasons = check.check_all("cli-closed-form", pool, keys,
                                                 _responses("cli-closed-form", pool, tmp_path))
    # evaluate and the three sweeps of both setups print a chain profit.
    assert failed == 8 and attempted == len(keys)
    assert all("chain_profit" in r for r in reasons)


def test_wrong_monte_carlo_and_grid_answers_count_as_failed():
    setup = check.Setup(scenarios.make_pool("verify", 5, 1)[0])
    q1, qq = setup.plan
    analytic = sum(check.ref.retailer_terms(setup.d, setup.m, setup.c0, setup.ce, setup.k,
                                            q1, qq).values())
    check.check_verify(setup, "mc-retailer", [q1, qq, analytic, analytic + 0.1, 0.05])
    with pytest.raises(check.Mismatch):
        check.check_verify(setup, "mc-retailer", [q1, qq, analytic, analytic + 0.3, 0.05])
    check.check_verify(setup, "grid", [q1 + 0.04, qq - 0.04, q1, qq])
    with pytest.raises(check.Mismatch):
        check.check_verify(setup, "grid", [q1, qq + 0.06, q1, qq])


def test_raised_request_and_changed_repeat_count_as_failed():
    pool = scenarios.make_pool("verify", 5, 1)
    keys = wl.request_keys("verify", 1)
    responses = [[[["raised", "ArithmeticError: boom"], 2]]] + [[] for _ in keys[1:]]
    attempted, failed, _ = check.check_all("verify", pool, keys, responses)
    assert (attempted, failed) == (2, 2)

    setup = check.Setup(pool[0])
    q1, qq = setup.plan
    responses = [[] for _ in keys[:3]] + [[[[q1, qq, q1, qq], 4], [[q1 + 0.01, qq, q1, qq], 1]]]
    attempted, failed, reasons = check.check_all("verify", pool, keys, responses)
    assert (attempted, failed) == (5, 1) and "differs" in reasons[0]


def test_same_seed_same_pool():
    for workload in wl.WORKLOADS:
        assert scenarios.make_pool(workload, 11, 3) == scenarios.make_pool(workload, 11, 3)
        assert scenarios.make_pool(workload, 11, 3) != scenarios.make_pool(workload, 12, 3)


def _exact_counts(result: dict) -> dict:
    counts = {name: calls for name, (calls, _) in result["layers"].items()}
    counts.update(result["counters"])
    counts.update(result["nested"])
    return counts


@pytest.mark.parametrize("workload,setups", [("cli-truncnorm", 1), ("verify", 3)])
def test_traced_counts_repeat_exactly(workload, setups, tmp_path):
    pool = scenarios.make_pool(workload, 2, setups)
    keys = wl.request_keys(workload, len(pool))
    runs = []
    for _ in range(2):
        senders = worker.build_requests(workload, pool, tmp_path)
        runs.append(worker.traced_pass(senders, len(keys), keys))
    assert _exact_counts(runs[0]) == _exact_counts(runs[1])
    assert runs[0]["layers"]["demand.cdf"][0] > 0
    if workload == "verify":
        assert runs[0]["layers"]["oracle.grid_search_plan"][0] == setups
        assert runs[0]["counters"]["demand.sample.draws"] == 3 * setups * wl.MC_DRAWS
    else:
        assert runs[0]["layers"]["sweep.run_sweep"][0] == 3 * setups
        assert runs[0]["layers"]["cli.main"][0] == len(keys)
    assert optimizer.optimal_plan is freshopt.optimal_plan is sweep.optimal_plan
    assert oracle.grid_search_plan is freshopt.grid_search_plan
