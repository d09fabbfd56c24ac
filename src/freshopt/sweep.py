"""Sensitivity sweeps over the retailer's overconfidence multiplier.

Three modes: hold the exercise price fixed and re-coordinate via the
premium at every k; hold the premium fixed and re-coordinate via the
exercise price; or hold the whole contract fixed.  Rows that cannot be
solved or fail feasibility are flagged with a reason instead of aborting
the sweep, so singular k regions show up in the output rather than
silently vanishing.

The whole grid is solved as columns, by the code behind the public
solvers: the coordinating prices from one array cdf call, every screen
as a mask over the grid (a flagged row's note is the error text, or the
violation names, that the public functions give at its k), the plans
from at most two array quantile calls, and the profits from one array
ledger call over both views (scale theta*k, then theta) and one array call
of chain_expected_profit.  A row whose profits are not finite is flagged
by the one screen over those cells: with profit._zero_scale's text where
its believed scale theta*k underflows to 0 (the retailer's scalar error
at that k), and elsewhere as the overflow of its first profit that is not
finite, in the order the CLI's evaluate prices them (believed retailer,
true retailer, supplier, chain), worded as the public function pricing it
words it: "retailer expected profit", "supplier expected profit" or
"chain expected profit overflows double precision".  Rows are tuples made
from the columns.  Each row prints as csv.writer prints its cells; a run of
solved rows, or a flagged row, prints the same text from one % template.
monotonicity_report compares the nine numeric columns as they print,
reading a printed sign from rint(x * 1e6), and prints only ends within a
few ulps of a rounding tie.
"""
from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import chain, groupby, repeat
from operator import or_
from typing import NamedTuple

from .demand import DemandDistribution, _check_each, _check_positive, _require, np
from .optimizer import (
    Infeasible,
    _coordinating_exercise_prices,
    _coordinating_premiums,
    _plans,
    _Rows,
    optimal_plan,  # noqa: F401 -- stays reachable as sweep.optimal_plan, as bench/tests expects
)
from .profit import (
    MarketParams,
    OptionContract,
    _ledger,
    _overflow,
    _Prices,
    _screens,
    _zero_scale,
    chain_expected_profit,
)

MODE_FIXED_EXERCISE = "fixed-exercise-price"
MODE_FIXED_PREMIUM = "fixed-premium"
MODE_FIXED_CONTRACT = "fixed-contract"
# The price each mode holds fixed, an OptionContract field; None holds the whole contract.
FIXED_PRICE = {MODE_FIXED_EXERCISE: "ce", MODE_FIXED_PREMIUM: "c0", MODE_FIXED_CONTRACT: None}
MODES = tuple(FIXED_PRICE)

# Largest {start, stop, step} range built; the default grids have 15 and 76 points.
_MAX_K_POINTS = 100_000


class TooFewRows(ValueError):
    """Not enough feasible rows to classify monotonicity."""


def _check_mode(mode: str) -> str:
    """mode, if it is one of MODES; InvalidValue otherwise."""
    _require("mode", mode in MODES, "must be one of {}, got {!r}", MODES, mode)
    return mode


def default_k_grid(mode: str) -> tuple[float, ...]:
    """Default k grids: a coarse one for premium re-coordination, a fine
    one elsewhere (fine enough to expose the low-k singular region)."""
    return _default_k_grid(_check_mode(mode))


@lru_cache(maxsize=len(MODES))
def _default_k_grid(mode: str) -> tuple[float, ...]:
    """default_k_grid of a checked mode, built on its first use."""
    return _k_range(0.8, 1.5, 0.05) if mode == MODE_FIXED_EXERCISE else _k_range(0.75, 1.5, 0.01)


def _k_range(start: float, stop: float, step: float) -> tuple[float, ...]:
    """start, start+step, ... up to stop (never past it), rounded to 12 decimals.

    Raises InvalidValue, before building anything, for bounds that are not
    finite and ordered or a range of more than _MAX_K_POINTS points.
    """
    _check_positive("start", start)
    _check_positive("step", step)
    _require("stop", stop >= start and math.isfinite(stop),
             "must be finite and >= start, got start={}, stop={}", start, stop)
    intervals = (stop - start) / step + 1e-9
    _require("step", intervals < _MAX_K_POINTS, "gives more than {} points from {} to {}, got {}",
             _MAX_K_POINTS, start, stop, step)
    return tuple(round(start + i * step, 12) for i in range(int(math.floor(intervals)) + 1))


def _check_k_grid(k_grid: tuple[float, ...]) -> None:
    """Raise InvalidValue unless k_grid is non-empty, strictly increasing, finite and > 0."""
    _require("k_grid", len(k_grid) > 0, "must not be empty")
    _require("k_grid", all(b > a for a, b in zip(k_grid, k_grid[1:])), "must be strictly increasing")
    # Increasing, so its two ends bound every value.
    _check_positive("k_grid[0]", k_grid[0])
    _check_positive(f"k_grid[{len(k_grid) - 1}]", k_grid[-1])


@dataclass(frozen=True)
class SweepScenario:
    """One sweep: a mode, its fixed value, a k grid, and the base setting.

    Raises one InvalidValue naming, in this order: an unknown mode; for a known
    mode, its fixed price or contract if missing, each fixed price or contract it
    does not read, and its fixed price if not finite and > 0; then a bad k grid.
    """

    mode: str
    demand: DemandDistribution
    market: MarketParams
    k_grid: tuple[float, ...]
    fixed_ce: float | None = None
    fixed_c0: float | None = None
    contract: OptionContract | None = None

    def __post_init__(self):
        checks = [(_check_mode, self.mode)]
        if self.mode in MODES:
            price = FIXED_PRICE[self.mode]
            required = "contract" if price is None else f"fixed_{price}"
            value = getattr(self, required)
            checks.append((_require, required, value is not None, "is required in {} mode", self.mode))
            checks += [(_require, name, getattr(self, name) is None, "is not read in {} mode", self.mode)
                       for name in ("fixed_ce", "fixed_c0", "contract") if name != required]
            if price is not None and value is not None:
                checks.append((_check_positive, price, value))
        _check_each(*checks, (_check_k_grid, self.k_grid))


class SweepRow(NamedTuple):
    """One k of a sweep, its fields the CSV columns in order; infeasible rows keep
    solved prices but no plan.  A tuple: it iterates and equals a plain tuple."""

    k: float
    c0: float | None = None
    ce: float | None = None
    q_total: float | None = None
    q_spot: float | None = None
    q_option: float | None = None
    retailer_profit_believed: float | None = None
    retailer_profit_true: float | None = None
    supplier_profit: float | None = None
    chain_profit: float | None = None
    feasible: bool = False
    note: str = ""


CSV_COLUMNS = SweepRow._fields
_NUMERIC_COLUMNS = CSV_COLUMNS[1:10]
# What overflows in each profit column, as the public function pricing it says.
_PROFITS = ("retailer expected profit",) * 2 + ("supplier expected profit", "chain expected profit")


def run_sweep(scenario: SweepScenario) -> list[SweepRow]:
    """Solve every k on the grid; failures yield flagged rows, never raise."""
    s, d, m = scenario, scenario.demand, scenario.market
    rows = _Rows(np.array(s.k_grid, dtype=float))
    c0, ce, q_total = s.fixed_c0, s.fixed_ce, None
    cells = np.full((7, rows.k.size), np.nan)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):  # in the rows it flags
        try:
            if s.mode == MODE_FIXED_EXERCISE:
                c0, q_total = _coordinating_premiums(d, m, ce, rows)
            elif s.mode == MODE_FIXED_PREMIUM:
                ce, q_total = _coordinating_exercise_prices(d, m, c0, rows)
            else:
                c0, ce = s.contract.c0, s.contract.ce
        except Infeasible as exc:  # the same at every k
            rows.screen(True, lambda at: exc)
        solved = rows.ok.copy()
        if solved.any():
            _solve_plans(d, m, _Prices(c0, ce), rows, q_total, cells)

    n = rows.k.size
    c0s, ces = ([x] * n if x is None or np.ndim(x) == 0 else x.tolist() for x in (c0, ce))
    blank = c0s if s.mode == MODE_FIXED_EXERCISE else ces  # the solved price column
    for i in np.flatnonzero(~solved).tolist():
        blank[i] = None
    ks, make = rows.k.tolist(), SweepRow._make
    table = list(map(make, zip(ks, c0s, ces, *cells.tolist(), repeat(True), repeat(""))))
    for i, exc in rows.errors.items():
        note = str(exc) if type(exc) is _NoPlan else f"{type(exc).__name__}: {exc}"
        table[i] = make((ks[i], c0s[i], ces[i], *[None] * 7, False, note))
    return table


class _NoPlan(Exception):
    """A row whose contract admits no plan; its note is the screens it fails, as
    optimal_plan's report names them (a grid's k always passes the k-domain)."""


def _solve_plans(d: DemandDistribution, m: MarketParams, prices: _Prices, rows: _Rows,
                 q_total, cells: np.ndarray) -> None:
    """optimal_plan and the four expected profits at every solved row, as columns.

    Flags each row whose contract admits no plan with a _NoPlan, and fills the
    solved rows of cells with q_total, q_spot, q_option, believed and true retailer
    profit, supplier and chain profit.  The argument q_total is the coordinated
    total, or None for a fixed contract.  A row whose plan or profits overflow is
    flagged, as the public functions raise Infeasible for it.
    """
    failures, tf, sf = _screens(m, prices)
    rows.screen(reduce(or_, failures.values()), lambda at: _NoPlan(
        ";".join(name for name, failed in failures.items() if at(failed))))
    if not rows.ok.any():
        return

    q_spot, q_option = _plans(d, m, tf, sf, rows, q_total)
    k, c0, ce, spot, option = map(rows.gather, (rows.k, prices.c0, prices.ce, q_spot, q_option))
    scale = np.stack([m.theta * k, np.full_like(k, m.theta)])  # both views: believed, true
    retailer, supplier, whole_chain = _ledger(d, m, c0, ce, scale, spot, option)
    believed, true_view = sum(retailer.values())
    cells[:, rows.ok] = [spot + option, spot, option, believed, true_view, supplier[1], whole_chain[1]]
    # A zero believed scale prices to nan: the row's error is the retailer's at that k.  Else
    # the first profit, in the order evaluate prices them, that overflows names the error.
    rows.screen(~np.isfinite(cells[3:]).all(axis=0), lambda at: _zero_scale(m, at(rows.k))
                if m.theta * at(rows.k) == 0.0 else _overflow(next(
                    name for name, x in zip(_PROFITS, map(at, cells[3:])) if not math.isfinite(x))))
    # Through the public function by name, so a patched chain_expected_profit reaches every cell.
    cells[6, rows.ok] = chain_expected_profit(d, m, cells[0, rows.ok])


@dataclass(frozen=True)
class ColumnTrend:
    """How one sweep column moves with k, and the first adjacent k pair that breaks it, if any."""

    direction: str  # strictly-increasing | strictly-decreasing | non-monotone
    first_violation: tuple[float, float] | None = None


@dataclass(frozen=True)
class MonotonicityReport:
    """Each numeric sweep column's trend over the feasible k range, in column order."""

    trends: dict[str, ColumnTrend]

    def describe(self) -> str:
        lines = []
        for column, trend in self.trends.items():
            text = f"{column}={trend.direction}"
            if trend.first_violation is not None:
                a, b = trend.first_violation
                text += f" (first violation between k={a:g} and k={b:g})"
            lines.append(text)
        return "\n".join(lines)


def monotonicity_report(rows: list[SweepRow]) -> MonotonicityReport:
    """Classify each numeric column over the feasible k range.

    Values are compared as ``write_csv`` prints them, so rounding noise
    below six decimals neither breaks a trend nor moves a violation.  A
    column is strict in one direction only if every adjacent pair is;
    anything else (including a constant column) is non-monotone, reported
    with the first adjacent pair that breaks the direction suggested by
    the first step.
    """
    feasible = [r for r in rows if r.feasible]
    if len(feasible) < 3:
        raise TooFewRows(
            f"monotonicity needs at least 3 feasible rows, got {len(feasible)}")
    table = np.array([r[:10] for r in feasible], dtype=float).T
    ks, values = table[0].tolist(), table[1:]
    steps = np.diff(values, axis=1)
    # Print moves a value by at most 5e-7 and keeps the order of any two, so only a nonzero
    # step below 2e-6 can change sign in print.  %.6f prints x as rint(x * 1e6) millionths
    # unless rounding the product, by at most |x * 1e6| * 2**-53, crosses a .5 tie: a pair
    # with an end within 8 times that of one (every product past 2**51) is printed.
    near = (steps != 0.0) & (abs(steps) < 2e-6)
    if near.any():
        ends = np.stack([values[:, :-1][near], values[:, 1:][near]])
        scaled = ends * 1e6
        printed = np.rint(scaled)
        unsure = (abs(scaled - np.floor(scaled) - 0.5) <= abs(scaled) * 2**-50).any(axis=0)
        for i in np.flatnonzero(unsure).tolist():
            printed[:, i] = [float(_format_cell(x)) for x in ends[:, i].tolist()]
        steps[near] = printed[1] - printed[0]
    rising, falling = steps > 0.0, steps < 0.0
    # The first step against the first step's direction; a flat first step is one.
    against = np.argmax(np.where(rising[:, :1], ~rising, ~falling), axis=1).tolist()
    trends: dict[str, ColumnTrend] = {}
    for column, up, down, idx in zip(_NUMERIC_COLUMNS, rising.all(axis=1).tolist(),
                                     falling.all(axis=1).tolist(), against):
        direction = "strictly-increasing" if up else "strictly-decreasing" if down else "non-monotone"
        trends[column] = ColumnTrend(direction, None if up or down else (ks[idx], ks[idx + 1]))
    return MonotonicityReport(trends)


def _format_cell(value) -> str:
    """A value as it prints: a float (or float subclass) as %.6f, with -0.000000 as
    0.000000; None as empty; a bool as true or false; anything else as str()."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        text = "%.6f" % value
        return "0.000000" if text == "-0.000000" else text
    return "" if value is None else str(value)


# Row templates by cell types (%.0s takes a cell and prints nothing): a run of solved rows
# prints from one % over _SOLVED repeated, a flagged row its k and prices from _FLAGGED.
_SOLVED_TYPES = (float,) * 10 + (bool, str)
_SOLVED = ",".join(["%.6f"] * 10) + ",true,%.0s%.0s\n"
_PRICE = {float: "%.6f", type(None): "%.0s"}
_FLAGGED = {(float, a, b, *[type(None)] * 7, bool, str): f"%.6f,{_PRICE[a]},{_PRICE[b]},,,,,,,,false,"
            for a in _PRICE for b in _PRICE}


def _template(row) -> str | None:
    """The template that prints ``row`` as csv.writer prints its cells, or None: a flagged
    row's note holds no '"', CR or LF, so it needs quotes only if it holds a comma."""
    types = tuple(map(type, row))
    if types == _SOLVED_TYPES:
        return _SOLVED if row[10] and not row[11] else None
    flagged = types in _FLAGGED and not (row[10] or '"' in row[11] or "\r" in row[11] or "\n" in row[11])
    return _FLAGGED[types] if flagged else None


def write_csv(rows: list[SweepRow], stream) -> None:
    """Fixed-column CSV: '.' decimals, ',' delimiter, header mandatory.  Each row prints
    as csv.writer prints its _format_cell cells; a row with a template prints the same
    text from it, in which a '-' only ever leads a number cell."""
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for template, group in groupby(rows, _template):
        if template is _SOLVED:
            group = list(group)
            text = _SOLVED * len(group) % tuple(chain.from_iterable(group))
            stream.write(text.replace("-0.000000", "0.000000"))
        elif template is not None:
            for row in group:
                stream.write((template % row[:3]).replace("-0.000000", "0.000000")
                             + (f'"{row[11]}"\n' if "," in row[11] else row[11] + "\n"))
        else:
            writer.writerows([_format_cell(cell) for cell in row] for row in group)


def rows_to_csv(rows: list[SweepRow]) -> str:
    buffer = io.StringIO()
    write_csv(rows, buffer)
    return buffer.getvalue()
