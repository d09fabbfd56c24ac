"""Closed-form optimal order plans and the coordinating option prices.

The retailer's problem is a two-fractile newsvendor: the believed total
stock sits at the quantile of ``(p+g-ce-c0)/(p+g-ce)`` and the spot part
at the quantile of ``(c0+ce-w0)/ce``, both scaled by ``k*theta/(1-beta)``.
The integrated chain stocks at the quantile of
``((p+g)(1-beta)-c)/((p+g)(1-beta))`` scaled by ``theta/(1-beta)``.
Channel coordination picks one contract price so the decentralized total
equals the centralized one.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

from .demand import DemandDistribution, InvalidValue, _any, _check_each, _check_positive, _floor_at_zero, np
from .profit import (
    Infeasible,
    MarketParams,
    OptionContract,
    OrderPlan,
    _not,
    _overflow,
    _Prices,
    _require_finite,
    _screen_message,
    _screens,
    spot_fractile,
    supplier_expected_profit,
    total_fractile,
)

# Critical fractiles exactly 0 or 1 (e.g. zero production cost) are nudged
# inside (0,1) before quantile evaluation; unbounded families have no
# finite quantile at 1.
_FRACTILE_CLAMP = 1e-12

# Acceptable relative error on the coordination identity Q* == Q**.
_COORDINATION_TOL = 1e-9


class NonCoordinable(Infeasible):
    """No valid option premium can coordinate the channel here: an Infeasible, so the
    CLI exits 1 and a sweep flags the row."""


class NoRoot(Infeasible):
    """No admissible exercise price, in (0, p+g-c0), coordinates the channel: an
    Infeasible, so the CLI exits 1 and a sweep flags the row."""


@dataclass(frozen=True)
class Violation:
    """One screen a contract or plan fails: its name and why."""

    name: str
    message: str


@dataclass(frozen=True)
class FeasibilityReport:
    """Outcome of screening a (market, contract, k) combination."""

    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def names(self) -> tuple[str, ...]:
        return tuple(v.name for v in self.violations)

    def describe(self) -> str:
        if self.ok:
            return "ok"
        return "; ".join(f"{v.name} ({v.message})" for v in self.violations)


def check_feasibility(m: MarketParams, o: OptionContract, k: float) -> FeasibilityReport:
    """Screen the model's preconditions; reports, never raises."""
    violations: list[Violation] = []
    try:
        _check_positive("k", k)
    except InvalidValue as exc:
        violations.append(Violation("k-domain", str(exc)))
    failures, tf, sf = _screens(m, o)
    violations += (Violation(name, _screen_message(name, m, o, tf, sf))
                   for name, failed in failures.items() if failed)
    return FeasibilityReport(tuple(violations))


def _believed_stock(d: DemandDistribution, m: MarketParams, rows, level):
    """k*theta/(1-beta) * F^-1(level) at the k of ``rows`` (a _Row or _Rows): the stock a
    retailer with belief k holds at a fractile; level is a float or a column of the rows.
    """
    k = rows.gather(rows.k)
    return rows.scatter(k * m.theta / (1.0 - m.beta) * d.quantile(rows.gather(level)))


def optimal_plan(d: DemandDistribution, m: MarketParams, o: OptionContract,
                 k: float) -> OrderPlan:
    """The retailer's profit-maximizing plan under belief scale theta*k.

    At the result the profit gradient vanishes; concavity of the objective
    makes it the unique maximum.  k = 1 gives the rational benchmark.
    A k that is not finite and > 0 raises InvalidValue, whatever the terms;
    terms that fail a screen raise Infeasible with check_feasibility's report.
    A theta*k that underflows to 0 is no error here: the plan is (0, 0).
    """
    report = check_feasibility(m, o, k)  # checks k once where the report is clean
    if not report.ok:
        _check_positive("k", k)  # a k-domain report is the InvalidValue for k alone
        raise Infeasible(f"no optimal plan: {report.describe()}", report)
    q_spot, q_option = _plans(d, m, total_fractile(m, o), spot_fractile(m, o), _Row(k))
    return OrderPlan(q_spot=float(q_spot), q_option=float(q_option))


def _plans(d: DemandDistribution, m: MarketParams, tf, sf, rows, q_total=None):
    """(q_spot, q_option): the optimal plan at the k of ``rows`` (a _Row or _Rows)
    whose fractiles tf and sf passed every screen, and that overflows nowhere.

    q_total, if given, is the total already solved at tf (a coordinated one).
    """
    if q_total is None:
        q_total = _believed_stock(d, m, rows, tf)
    q_spot = _believed_stock(d, m, rows, sf)
    finite = math.isfinite(q_total) if isinstance(q_total, float) else np.isfinite(q_total)
    rows.screen(_not(finite), lambda at: _overflow("optimal plan"))
    # q_spot <= q_total, since tf >= sf is already guaranteed; the floor only absorbs rounding dust.
    return q_spot, _floor_at_zero(q_total - q_spot)


def _centralized_quantile(d: DemandDistribution, m: MarketParams, stacklevel: int = 3):
    """(x_c, Q**): the demand quantile behind the centralized optimum, and that
    optimum, the total theta/(1-beta) * x_c: the one Q** every solver reads.

    A clamped fractile warns at the ``stacklevel``-th caller: the public
    function's caller.  A Q** that overflows raises Infeasible.
    """
    capacity_value = (m.p + m.g) * (1.0 - m.beta)
    if not (capacity_value > m.c):
        raise Infeasible(
            f"centralized problem infeasible: production cost c={m.c} >= "
            f"(p+g)(1-beta)={capacity_value}")
    fractile = (capacity_value - m.c) / capacity_value
    clamped = min(max(fractile, _FRACTILE_CLAMP), 1.0 - _FRACTILE_CLAMP)
    if clamped != fractile:
        warnings.warn(
            f"centralized fractile {fractile} clamped to {clamped} before quantile evaluation",
            RuntimeWarning, stacklevel=stacklevel)
    x_central = d.quantile(clamped)
    return x_central, _require_finite("centralized total", (m.theta / (1.0 - m.beta)) * x_central)


def optimal_centralized(d: DemandDistribution, m: MarketParams) -> float:
    """Total quantity maximizing the integrated chain's expected profit.

    Independent of the retailer's belief bias and of the option contract.
    A total that overflows a double raises Infeasible.
    """
    return _centralized_quantile(d, m)[1]


class _Row:
    """One k, solved alone: ``screen`` raises the error of the first check it fails."""

    def __init__(self, k: float):
        self.k = k

    def screen(self, failed, error) -> None:
        """Raise ``error(at)`` if ``failed``; ``at(x)`` is x at this row: x itself."""
        if failed:
            raise error(lambda x: x)

    def gather(self, x):
        return x

    def scatter(self, values):
        return values


class _Rows:
    """A column of k, solved together: a screen flags the rows that fail it with the
    error a solve at that k alone (``_Row``) raises, and later steps skip them."""

    def __init__(self, k: np.ndarray):
        self.k = k
        self.ok = np.ones(k.shape, dtype=bool)
        self.errors: dict[int, Exception] = {}

    def screen(self, failed, error) -> None:
        """Flag each unflagged row where ``failed`` holds with ``error(at)``; ``at(x)`` is
        the row's entry of a column x, as a Python float, or x if it is a float."""
        hit = self.ok & failed
        for i in np.flatnonzero(hit).tolist():
            self.errors[i] = error(lambda x, i=i: x.item(i) if isinstance(x, np.ndarray) else x)
        self.ok &= ~hit

    def gather(self, x):
        """The unflagged rows' entries of a column x; a float stays as it is."""
        return x[self.ok] if isinstance(x, np.ndarray) else x

    def scatter(self, values) -> np.ndarray:
        """A column holding ``values`` at the unflagged rows and nan elsewhere."""
        column = np.full(self.k.shape, np.nan)
        column[self.ok] = values
        return column


def coordinating_premium(d: DemandDistribution, m: MarketParams, ce: float,
                         k: float) -> float:
    """Option premium making the biased retailer order the centralized total.

    Solves, in closed form, for the c0 at which the retailer's total
    fractile quantile equals the centralized quantile shrunk by 1/k.
    The resulting (c0, ce) pair must still be a workable contract;
    otherwise NonCoordinable reports which condition broke.
    """
    _check_each((_check_positive, "ce", ce), (_check_positive, "k", k))
    c0, _ = _coordinating_premiums(d, m, ce, _Row(k))
    return float(c0)


def _coordinating_premiums(d: DemandDistribution, m: MarketParams, ce: float, rows):
    """(c0, q_total): the coordinating premium at the k of ``rows`` (a _Row or _Rows),
    which screens the k where none exists, and the believed total it induces.

    What does not depend on k raises, for every row at once.
    """
    margin = m.p + m.g - ce
    if not (margin > 0.0):
        raise NonCoordinable(
            f"fractile-range-total: ce={ce} >= p+g={m.p + m.g} leaves no option margin")

    x_central, q_central = _centralized_quantile(d, m, stacklevel=4)
    mass_below = d.cdf(x_central / rows.k)
    # Bounded-support families: the shrunk quantile fell past the top of
    # the demand support, so no positive premium can coordinate.
    hi = getattr(d, "hi", None)
    hint = f" (requires k > {x_central / hi:.6g})" if hi is not None else ""
    rows.screen(mass_below >= 1.0, lambda at: NonCoordinable(
        f"k-domain: coordinating premium would be <= 0 at k={at(rows.k)}{hint}"))
    # Demand floor above the shrunk quantile: the premium would have to
    # eat the whole option margin.
    lo = getattr(d, "lo", 0.0)
    floor_hint = f" (requires k < {x_central / lo:.6g})" if lo > 0.0 else ""
    rows.screen(mass_below <= 0.0, lambda at: NonCoordinable(
        f"k-domain: coordinating premium would leave no total fractile at k={at(rows.k)}"
        f"{floor_hint}"))
    c0 = margin * (1.0 - mass_below)
    failures, tf, _ = _screens(m, _Prices(c0, ce))
    rows.screen(failures["assumption-4"], lambda at: NonCoordinable(
        f"assumption-4: coordinating premium c0={at(c0):.6g} gives w0={m.w0} >= "
        f"c0+ce={at(c0) + ce:.6g}"))
    return c0, _coordinated_total(d, m, failures, tf, rows, q_central)


def _coordinated_total(d: DemandDistribution, m: MarketParams, failures, tf, rows,
                       q_central: float):
    """Q*(k) at the solved contract, whose ``_screens`` gave failures and tf,
    screened against Q** (q_central) to _COORDINATION_TOL.

    At extreme k the solved price can be right yet leave a total fractile
    that rounds to 0 or too coarsely to reproduce Q**; that is Infeasible.
    """
    failed = "coordination identity failed: "
    rows.screen(failures["fractile-range-total"], lambda at: Infeasible(
        f"{failed}total fractile {at(tf)!r} of the solved contract is outside (0, 1)"))
    q_total = _believed_stock(d, m, rows, tf)
    rows.screen(abs(q_total - q_central) > _COORDINATION_TOL * q_central, lambda at: Infeasible(
        f"{failed}decentralized total {at(q_total)!r} vs centralized {q_central!r}"))
    return q_total


def coordinating_exercise_price(d: DemandDistribution, m: MarketParams, c0: float,
                                k: float) -> float:
    """Exercise price coordinating the channel at a fixed premium.

    Equating the decentralized total with the centralized one gives
    ``(p+g-ce-c0)/(p+g-ce) = F(x_c/k)``, so ``ce = (p+g) - c0/(1 - F(x_c/k))``.
    That price is admissible, inside (0, p+g-c0), exactly when
    ``0 < F(x_c/k) < 1 - c0/(p+g)``; otherwise NoRoot explains the k-range
    that would admit one.
    """
    _check_each((_check_positive, "c0", c0), (_check_positive, "k", k))
    ce, _ = _coordinating_exercise_prices(d, m, c0, _Row(k))
    return float(ce)


def _coordinating_exercise_prices(d: DemandDistribution, m: MarketParams, c0: float, rows):
    """(ce, q_total): the coordinating exercise price at the k of ``rows`` (a _Row or
    _Rows), which screens the k where none exists, and the believed total it induces.

    What does not depend on k raises, for every row at once.
    """
    pg = m.p + m.g
    if not (c0 < pg):
        raise NoRoot(f"premium c0={c0} >= p+g={pg}: no exercise price can be admissible")

    x_central, q_central = _centralized_quantile(d, m, stacklevel=4)
    mass_below = d.cdf(x_central / rows.k)
    no_price = f"no coordinating exercise price in (0, {pg - c0:.6g}) at k="
    too_low = mass_below >= 1.0 - c0 / pg
    if _any(too_low):
        # k > x_c / F^-1(1 - c0/(p+g)) admits a price; that floor is named only if finite and
        # > 0, not where the quantile is 0 or, for a c0/(p+g) rounding to 0, inf.
        upper = d._upper_quantile(c0 / pg)
        k_floor = x_central / upper if upper > 0.0 else math.inf
        hint = (f": coordination at this premium requires k > {k_floor:.6g}"
                if 0.0 < k_floor < math.inf else "")
        rows.screen(too_low, lambda at: NoRoot(f"{no_price}{at(rows.k)}{hint}"))
    # Possible only when demand has a positive lower support bound.
    rows.screen(mass_below <= 0.0, lambda at: NoRoot(
        f"{no_price}{at(rows.k)}: even the maximal admissible price leaves the decentralized "
        f"total above the centralized one (k too large for this demand floor)"))
    ce = pg - c0 / (1.0 - mass_below)
    rows.screen(_not((0.0 < ce) & (ce < pg - c0)), lambda at: NoRoot(
        f"{no_price}{at(rows.k)}: the closed form rounds to {at(ce)!r}"))
    failures, tf, _ = _screens(m, _Prices(c0, ce))
    return ce, _coordinated_total(d, m, failures, tf, rows, q_central)


def supplier_profit_gap(d: DemandDistribution, m: MarketParams, o: OptionContract,
                        k: float) -> float:
    """Supplier profit at the rational optimum minus at the biased optimum.

    Both profits come from ``supplier_expected_profit`` evaluated at the
    closed-form optimal plans for k=1 and for the given k.  The sign tells
    whether the retailer's belief bias costs the supplier money; with the
    shipped example parameters the sign is governed by the production cost
    (a high c makes extra biased-up orders a net loss for the supplier).
    Its inputs are validated by optimal_plan at k: a bad k is an InvalidValue,
    terms that fail a screen an Infeasible naming every screen they fail.
    """
    biased = optimal_plan(d, m, o, k)
    rational = optimal_plan(d, m, o, 1.0)
    return supplier_expected_profit(d, m, o, rational) - supplier_expected_profit(d, m, o, biased)
