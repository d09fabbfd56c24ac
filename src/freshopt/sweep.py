"""Sensitivity sweeps over the retailer's overconfidence multiplier.

Three modes: hold the exercise price fixed and re-coordinate via the
premium at every k; hold the premium fixed and re-coordinate via the
exercise price; or hold the whole contract fixed.  Rows that cannot be
solved or fail feasibility are flagged with a reason instead of aborting
the sweep, so singular k regions show up in the output rather than
silently vanishing.  Rows are solved and screened one by one, then all
solved rows are priced together: two array ledger calls (theta*k, theta)
and one array call of chain_expected_profit.
"""
from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, replace

import numpy as np

from .demand import DemandDistribution, InvalidValue, _check_positive
from .optimizer import (
    Infeasible,
    NonCoordinable,
    NoRoot,
    coordinating_exercise_price,
    coordinating_premium,
    optimal_plan,
)
from .profit import MarketParams, OptionContract, _ledger, chain_expected_profit

MODE_FIXED_EXERCISE = "fixed-exercise-price"
MODE_FIXED_PREMIUM = "fixed-premium"
MODE_FIXED_CONTRACT = "fixed-contract"
MODES = (MODE_FIXED_EXERCISE, MODE_FIXED_PREMIUM, MODE_FIXED_CONTRACT)

CSV_COLUMNS = (
    "k", "c0", "ce", "q_total", "q_spot", "q_option",
    "retailer_profit_believed", "retailer_profit_true",
    "supplier_profit", "chain_profit", "feasible", "note",
)

_NUMERIC_COLUMNS = CSV_COLUMNS[1:10]

# Largest {start, stop, step} range built; the default grids have 15 and 76 points.
_MAX_K_POINTS = 100_000


class TooFewRows(ValueError):
    """Not enough feasible rows to classify monotonicity."""


def default_k_grid(mode: str) -> tuple[float, ...]:
    """Default k grids: a coarse one for premium re-coordination, a fine
    one elsewhere (fine enough to expose the low-k singular region)."""
    if mode == MODE_FIXED_EXERCISE:
        return _k_range(0.8, 1.5, 0.05)
    return _k_range(0.75, 1.5, 0.01)


def _k_range(start: float, stop: float, step: float) -> tuple[float, ...]:
    """start, start+step, ... up to stop (never past it), rounded to 12 decimals.

    Raises InvalidValue, before building anything, for bounds that are not
    finite and ordered or a range of more than _MAX_K_POINTS points.
    """
    _check_positive("start", start)
    _check_positive("step", step)
    if not (stop >= start and math.isfinite(stop)):
        raise InvalidValue([("stop", f"must be finite and >= start, got start={start}, stop={stop}")])
    intervals = (stop - start) / step + 1e-9
    if not intervals < _MAX_K_POINTS:
        raise InvalidValue([("step", f"gives more than {_MAX_K_POINTS} points from {start} to {stop}, "
                                     f"got {step}")])
    return tuple(round(start + i * step, 12) for i in range(int(math.floor(intervals)) + 1))


def _check_k_grid(k_grid: tuple[float, ...]) -> None:
    """Raise InvalidValue unless k_grid is non-empty, strictly increasing, finite and > 0."""
    if len(k_grid) == 0:
        raise InvalidValue([("k_grid", "must not be empty")])
    if not all(b > a for a, b in zip(k_grid, k_grid[1:])):
        raise InvalidValue([("k_grid", "must be strictly increasing")])
    # Increasing, so its two ends bound every value.
    _check_positive("k_grid[0]", k_grid[0])
    _check_positive(f"k_grid[{len(k_grid) - 1}]", k_grid[-1])


@dataclass(frozen=True)
class SweepScenario:
    """One sweep: a mode, its fixed value, a k grid, and the base setting."""

    mode: str
    demand: DemandDistribution
    market: MarketParams
    k_grid: tuple[float, ...]
    fixed_ce: float | None = None
    fixed_c0: float | None = None
    contract: OptionContract | None = None

    def __post_init__(self):
        if self.mode not in MODES:
            raise InvalidValue([("mode", f"must be one of {MODES}, got {self.mode!r}")])
        _check_k_grid(self.k_grid)
        required = {MODE_FIXED_EXERCISE: "fixed_ce", MODE_FIXED_PREMIUM: "fixed_c0",
                    MODE_FIXED_CONTRACT: "contract"}[self.mode]
        if getattr(self, required) is None:
            raise InvalidValue([(required, f"is required in {self.mode} mode")])


@dataclass(frozen=True)
class SweepRow:
    """One k of a sweep; infeasible rows keep solved prices but no plan."""

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


def run_sweep(scenario: SweepScenario) -> list[SweepRow]:
    """Solve every k on the grid; failures yield flagged rows, never raise."""
    rows = [_solve_row(scenario, k) for k in scenario.k_grid]
    priced = iter(_price_rows(scenario, [r for r in rows if r.feasible]))
    return [next(priced) if r.feasible else r for r in rows]


def _solve_row(s: SweepScenario, k: float) -> SweepRow:
    d, m = s.demand, s.market
    c0: float | None
    ce: float | None
    if s.mode == MODE_FIXED_EXERCISE:
        ce = s.fixed_ce
        try:
            c0 = coordinating_premium(d, m, ce, k)
        except (Infeasible, NonCoordinable) as exc:
            return SweepRow(k=k, ce=ce, note=f"{type(exc).__name__}: {exc}")
    elif s.mode == MODE_FIXED_PREMIUM:
        c0 = s.fixed_c0
        try:
            ce = coordinating_exercise_price(d, m, c0, k)
        except (Infeasible, NoRoot) as exc:
            return SweepRow(k=k, c0=c0, note=f"{type(exc).__name__}: {exc}")
    else:
        c0, ce = s.contract.c0, s.contract.ce

    contract = OptionContract(c0=c0, ce=ce)
    try:
        plan = optimal_plan(d, m, contract, k)
    except Infeasible as exc:
        note = ";".join(exc.report.names()) if exc.report else f"Infeasible: {exc}"
        return SweepRow(k=k, c0=c0, ce=ce, note=note)
    return SweepRow(k=k, c0=c0, ce=ce, q_total=plan.q_total, q_spot=plan.q_spot,
                    q_option=plan.q_option, feasible=True)


@np.errstate(over="ignore", invalid="ignore")  # overflow flags its row instead
def _price_rows(s: SweepScenario, rows: list[SweepRow]) -> list[SweepRow]:
    """The solved rows with their four profit cells; optimal_plan has screened each.

    A row whose profits overflow is flagged, as the public profit functions
    would raise Infeasible for it.
    """
    m = s.market
    k, c0, ce, q_spot, q_option = (np.array([getattr(r, name) for r in rows], dtype=float)
                                   for name in ("k", "c0", "ce", "q_spot", "q_option"))
    believed, _, _ = _ledger(s.demand, m, c0, ce, m.theta * k, q_spot, q_option)
    true_view, supplier, chain = _ledger(s.demand, m, c0, ce, m.theta, q_spot, q_option)
    cells = np.array([sum(believed.values()), sum(true_view.values()), supplier, chain])
    finite = np.isfinite(cells).all(axis=0)
    # Through the public function by name, so a patched chain_expected_profit reaches every cell.
    cells[3, finite] = chain_expected_profit(s.demand, m, (q_spot + q_option)[finite])
    return [replace(row, retailer_profit_believed=rb, retailer_profit_true=rt,
                    supplier_profit=sp, chain_profit=ch) if ok
            else SweepRow(k=row.k, c0=row.c0, ce=row.ce,
                          note="Infeasible: expected profit overflows double precision")
            for row, ok, (rb, rt, sp, ch) in zip(rows, finite.tolist(), cells.T.tolist())]


@dataclass(frozen=True)
class ColumnTrend:
    direction: str  # strictly-increasing | strictly-decreasing | non-monotone
    first_violation: tuple[float, float] | None = None


@dataclass(frozen=True)
class MonotonicityReport:
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
    trends: dict[str, ColumnTrend] = {}
    ks = [r.k for r in feasible]
    for column in _NUMERIC_COLUMNS:
        values = [float(_format_cell(getattr(r, column))) for r in feasible]
        diffs = [b - a for a, b in zip(values, values[1:])]
        if all(dv > 0.0 for dv in diffs):
            trends[column] = ColumnTrend("strictly-increasing")
        elif all(dv < 0.0 for dv in diffs):
            trends[column] = ColumnTrend("strictly-decreasing")
        else:
            if diffs[0] > 0.0:
                idx = next(i for i, dv in enumerate(diffs) if dv <= 0.0)
            elif diffs[0] < 0.0:
                idx = next(i for i, dv in enumerate(diffs) if dv >= 0.0)
            else:
                idx = 0
            trends[column] = ColumnTrend("non-monotone", (ks[idx], ks[idx + 1]))
    return MonotonicityReport(trends)


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        text = f"{value:.6f}"
        return "0.000000" if text == "-0.000000" else text
    return str(value)


def write_csv(rows: list[SweepRow], stream) -> None:
    """Fixed-column CSV: '.' decimals, ',' delimiter, header mandatory."""
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for row in rows:
        writer.writerow([_format_cell(getattr(row, c)) for c in CSV_COLUMNS])


def rows_to_csv(rows: list[SweepRow]) -> str:
    buffer = io.StringIO()
    write_csv(rows, buffer)
    return buffer.getvalue()
