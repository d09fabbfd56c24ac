"""Property tests: any number in a config or on a flag ends in a finite result or a typed
error, and the monotonicity report classifies columns as their printed cells compare."""
from __future__ import annotations

import ast
import contextlib
import inspect
import io
import json
import math
import textwrap
import warnings

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from test_sweep import DEMANDS, WIDE_GRID, _mode_scenario  # noqa: E402

import freshopt  # noqa: E402
from freshopt import (  # noqa: E402
    MODES,
    ConfigValidationError,
    GridSpec,
    Infeasible,
    InvalidValue,
    MarketParams,
    OptionContract,
    OrderPlan,
    SweepRow,
    SweepScenario,
    TooFewRows,
    chain_expected_profit,
    check_feasibility,
    coordinating_exercise_price,
    coordinating_premium,
    default_grid_spec,
    default_k_grid,
    grid_search_plan,
    make_distribution,
    mc_expected,
    monotonicity_report,
    optimal_centralized,
    optimal_plan,
    parse_config,
    realized_chain_profit,
    realized_retailer_profit,
    realized_supplier_profit,
    retailer_expected_profit,
    retailer_profit_gradient,
    run_sweep,
    spot_fractile,
    supplier_expected_profit,
    supplier_profit_gap,
    total_fractile,
)
from freshopt.cli import default_config_path, main  # noqa: E402
from freshopt.oracle import MC_KINDS  # noqa: E402
from freshopt.sweep import (  # noqa: E402
    _NUMERIC_COLUMNS,
    ColumnTrend,
    MonotonicityReport,
    _format_cell,
)

# Fixed examples keep the suite deterministic and its wall time small.
CHECKS = settings(max_examples=100, deadline=None, derandomize=True, database=None)

NUMBERS = st.one_of(
    st.sampled_from([0.0, -0.0, -1.0, 1e-300, 5e-324, 1e308, -1e308,
                     math.nan, math.inf, -math.inf]),
    st.floats(),
)

# Every numeric field of the shipped scenario.
FIELDS = [
    ("demand", "params", "lo"), ("demand", "params", "hi"),
    *[("market", name) for name in ("p", "g", "w0", "c", "beta", "theta")],
    ("contract", "c0"), ("contract", "ce"), ("overconfidence",),
    ("oracle", "samples"), ("oracle", "seed"), ("oracle", "grid_step"),
    ("sweep", "ce"), *[("sweep", "k_grid", name) for name in ("start", "stop", "step")],
]


@CHECKS
@given(st.dictionaries(st.sampled_from(FIELDS), NUMBERS, min_size=1, max_size=3))
def test_config_parses_or_reports(changes):
    raw = json.loads(default_config_path().read_text(encoding="utf-8"))
    for (*parents, key), value in changes.items():
        section = raw
        for name in parents:
            section = section[name]
        section[key] = value
    try:
        parse_config(raw)
    except ConfigValidationError:
        pass


COMMANDS = [
    ["optimize"],
    ["evaluate"],
    ["coordinate"],
    ["coordinate", "--solve-exercise"],
    *[["simulate", "--kind", kind, "--n", "1000"] for kind in ("retailer", "supplier", "chain")],
]


@CHECKS
@given(st.sampled_from(COMMANDS),
       st.dictionaries(st.sampled_from(["--k", "--c0", "--ce", "--q1", "--qq"]), NUMBERS))
def test_cli_exits_zero_one_or_two(command, flags):
    if command == ["evaluate"]:
        flags = {"--q1": 10.0, "--qq": 10.0, **flags}
    elif command[0] != "simulate":
        flags = {f: v for f, v in flags.items() if f not in ("--q1", "--qq")}
    # "--k=-inf" keeps argparse from reading a negative value as an option.
    argv = command + [f"{flag}={value!r}" for flag, value in flags.items()]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2), argv
    # A result is finite: an overflow ends in a typed error instead.
    if code == 0:
        assert "nan" not in stdout.getvalue() and "inf" not in stdout.getvalue(), argv


# The shipped scenario's values, a plan near its optimum, and the three families' parameters.
FAMILY_PARAMS = {name: value for d in DEMANDS.values() for name, value in d.params().items()}
BASE = {"p": 50.0, "g": 10.0, "w0": 25.0, "c": 15.0, "beta": 0.1, "theta": 0.8,
        "c0": 5.0, "ce": 35.0, "k": 1.0, "q_spot": 40.0, "q_option": 20.0, **FAMILY_PARAMS}
EXTREMES = st.sampled_from([5e-324, 1e-310, 2.2250738585072014e-308, 1e-300, 1e-9, 0.5,
                            1.0 - 2.0**-53, 59.999999999999986, 1e9, 1e300, 1e308,
                            1.7976931348623157e308])


# A 3 x 3 lattice: enough to run every step of grid_search_plan.
SMALL_GRID = GridSpec((0.0, 2.0), (0.0, 2.0), 1.0)
PLAN = OrderPlan(40.0, 20.0)
# Every public function that takes k, called with the shipped setting and that k.
TAKES_K = {
    "optimal_plan": lambda d, m, o, k: optimal_plan(d, m, o, k),
    "supplier_profit_gap": lambda d, m, o, k: supplier_profit_gap(d, m, o, k),
    "retailer_expected_profit": lambda d, m, o, k: retailer_expected_profit(d, m, o, k, PLAN),
    "retailer_profit_gradient": lambda d, m, o, k: retailer_profit_gradient(d, m, o, k, PLAN),
    "coordinating_premium": lambda d, m, o, k: coordinating_premium(d, m, o.ce, k),
    "coordinating_exercise_price": lambda d, m, o, k: coordinating_exercise_price(d, m, o.c0, k),
    "mc_expected": lambda d, m, o, k: mc_expected("retailer", d, m, o, k, PLAN, 64, 7),
    "grid_search_plan": lambda d, m, o, k: grid_search_plan(d, m, o, k, SMALL_GRID),
    "default_grid_spec": lambda d, m, o, k: default_grid_spec(d, m, k, o=o),
}


@pytest.mark.parametrize("k", [0.0, -1.0, math.nan, math.inf])
@pytest.mark.parametrize("name", TAKES_K)
def test_every_function_taking_k_rejects_a_bad_k(baseline_demand, baseline_market,
                                                 baseline_contract, name, k):
    """A k that is not finite and > 0 is a rejected input wherever it is given."""
    with pytest.raises(InvalidValue) as err:
        TAKES_K[name](baseline_demand, baseline_market, baseline_contract, k)
    assert err.value.problems == [("k", f"must be finite and > 0, got {k}")]


@settings(CHECKS, max_examples=200)
@given(st.sampled_from(sorted(DEMANDS)), st.sampled_from(MODES), st.sampled_from(MC_KINDS),
       st.dictionaries(st.sampled_from(sorted(BASE)), EXTREMES, min_size=1, max_size=3))
# A premium that rounds to 0 against p+g, or whose upper quantile is 0; theta*k rounding to 0.
@example("exponential", "fixed-premium", "retailer", {"c0": 5e-324, "k": 1e-3})
@example("truncated-normal", "fixed-premium", "retailer",
         {"mu": -10.0, "sigma": 20.0, "c0": 59.999999999999986})
@example("uniform", "fixed-contract", "retailer", {"theta": 1e-300, "k": 1e-300})
# The total fractile's pole: ce == p+g.
@example("uniform", "fixed-contract", "retailer", {"ce": 60.0})
def test_library_returns_or_raises_a_typed_error(family, mode, kind, changes):
    """Every public solver, on extreme finite inputs, returns or raises InvalidValue (a
    rejected input) or Infeasible (no answer): never another exception."""
    v = {**BASE, **changes}
    try:
        d = make_distribution(family, **{name: v[name] for name in DEMANDS[family].params()})
        m = MarketParams(**{name: v[name] for name in ("p", "g", "w0", "c", "beta", "theta")})
        o, k, plan = OptionContract(v["c0"], v["ce"]), v["k"], OrderPlan(v["q_spot"], v["q_option"])
    except InvalidValue:
        return
    fixed = {"fixed-exercise-price": {"fixed_ce": o.ce}, "fixed-premium": {"fixed_c0": o.c0},
             "fixed-contract": {"contract": o}}[mode]
    calls = [
        lambda: run_sweep(SweepScenario(mode, d, m, (k,), **fixed)),
        lambda: default_k_grid(mode),
        lambda: check_feasibility(m, o, k),
        lambda: total_fractile(m, o),
        lambda: spot_fractile(m, o),
        lambda: optimal_centralized(d, m),
        lambda: coordinating_premium(d, m, o.ce, k),
        lambda: coordinating_exercise_price(d, m, o.c0, k),
        lambda: chain_expected_profit(d, m, plan.q_total),
        lambda: supplier_expected_profit(d, m, o, plan),
        lambda: retailer_expected_profit(d, m, o, k, plan),
        lambda: mc_expected(kind, d, m, o, k, plan, 64, 7),
        lambda: retailer_expected_profit(d, m, o, k, optimal_plan(d, m, o, k)),
        lambda: retailer_profit_gradient(d, m, o, k, plan),
        lambda: supplier_profit_gap(d, m, o, k),
        lambda: grid_search_plan(d, m, o, k, SMALL_GRID),
        lambda: default_grid_spec(d, m, k, o=o),
        lambda: realized_retailer_profit(plan.q_spot, m.theta * k, m, o, plan),
        lambda: realized_supplier_profit(plan.q_spot, m, o, plan),
        lambda: realized_chain_profit(plan.q_spot, m, plan.q_total),
    ]
    with warnings.catch_warnings(), np.errstate(all="ignore"):
        warnings.simplefilter("ignore")  # clamps and overflow are announced, not failures
        for call in calls:
            try:
                call()
            except (InvalidValue, Infeasible):
                pass


# Public functions the typed-outcome test does not call: the CSV and report helpers read
# sweep rows, not model inputs, and the scenario readers report a ConfigError, on inputs
# that test_config_parses_or_reports draws.
NOT_CALLED = {"rows_to_csv", "write_csv", "monotonicity_report", "load_config", "parse_config"}


def test_typed_outcome_test_calls_every_public_function():
    """Each public function in freshopt.__all__ is called by name in the typed-outcome test,
    or named in NOT_CALLED; types and constants are not functions."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(test_library_returns_or_raises_a_typed_error)))
    called = {node.func.id for node in ast.walk(tree)
              if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}
    functions = {name for name in freshopt.__all__
                 if callable(getattr(freshopt, name)) and not isinstance(getattr(freshopt, name), type)}
    assert sorted(functions - NOT_CALLED - called) == []
    assert NOT_CALLED <= functions


def _reference_report(rows):
    """monotonicity_report as it was before it read printed signs from rint(x * 1e6):
    the two ends of every near step printed with _format_cell and parsed back."""
    feasible = [r for r in rows if r.feasible]
    if len(feasible) < 3:
        raise TooFewRows(
            f"monotonicity needs at least 3 feasible rows, got {len(feasible)}")
    table = np.array([r[:10] for r in feasible], dtype=float).T
    ks, values = table[0].tolist(), table[1:]
    steps = np.diff(values, axis=1)
    near = (steps != 0.0) & (abs(steps) < 2e-6)
    left, right = (np.array(list(map(_format_cell, end[near].tolist())), dtype=float)
                   for end in (values[:, :-1], values[:, 1:]))
    steps[near] = right - left
    rising, falling = steps > 0.0, steps < 0.0
    against = np.argmax(np.where(rising[:, :1], ~rising, ~falling), axis=1).tolist()
    trends = {}
    for column, up, down, idx in zip(_NUMERIC_COLUMNS, rising.all(axis=1).tolist(),
                                     falling.all(axis=1).tolist(), against):
        direction = "strictly-increasing" if up else "strictly-decreasing" if down else "non-monotone"
        trends[column] = ColumnTrend(direction, None if up or down else (ks[idx], ks[idx + 1]))
    return MonotonicityReport(trends)


def _walk(x: float, ulps: int) -> float:
    """x moved by ulps steps of math.nextafter."""
    for _ in range(abs(ulps)):
        x = math.nextafter(x, math.copysign(math.inf, ulps))
    return x


# A column's centre: a sixth-decimal tie (0.0078125 prints from exactly 7812.5
# millionths; k + 5e-7 is one up to rounding), a signed zero, or any size up to 1e12.
CENTRES = st.one_of(
    st.sampled_from([0.0078125, -0.0078125, 0.0, -0.0]),
    st.integers(-10**12, 10**12).map(lambda k: k + 5e-7),
    st.floats(-1e12, 1e12),
)


@st.composite
def _tie_columns(draw):
    """Rows of nine columns, each a few ulps and millionths around its own centre, so
    most steps are below 2e-6 and many ends sit on or beside a rounding tie."""
    n = draw(st.integers(3, 8))
    columns = []
    for _ in range(9):
        centre = draw(CENTRES)
        columns.append([_walk(centre + draw(st.sampled_from([0.0, 1e-6, -1e-6, 5e-7, 1.5e-6])),
                              draw(st.integers(-4, 4)))
                        if draw(st.booleans()) else centre for _ in range(n)])
    return [SweepRow(0.5 + 0.25 * i, *cells, True, "") for i, cells in enumerate(zip(*columns))]


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_tie_columns())
def test_monotonicity_report_equals_printing_both_ends(rows):
    assert monotonicity_report(rows) == _reference_report(rows)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("family", sorted(DEMANDS))
def test_monotonicity_report_equals_reference_on_sweeps(baseline_market, family, mode):
    for grid in (WIDE_GRID, default_k_grid(mode)):
        rows = run_sweep(_mode_scenario(mode, DEMANDS[family], baseline_market, grid))
        try:
            expected = _reference_report(rows)
        except TooFewRows:
            with pytest.raises(TooFewRows):
                monotonicity_report(rows)
        else:
            assert monotonicity_report(rows) == expected
