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

import warnings
from dataclasses import dataclass

from .demand import DemandDistribution, InvalidValue, _check_positive
from .profit import (
    Infeasible,
    MarketParams,
    OptionContract,
    OrderPlan,
    _contract_violations,
    _require_finite,
    require_feasible_contract,
    supplier_expected_profit,
    total_fractile,
)

# Critical fractiles exactly 0 or 1 (e.g. zero production cost) are nudged
# inside (0,1) before quantile evaluation; unbounded families have no
# finite quantile at 1.
_FRACTILE_CLAMP = 1e-12

# Acceptable relative error on the coordination identity Q* == Q**.
_COORDINATION_TOL = 1e-9


class NonCoordinable(ValueError):
    """No valid option premium can coordinate the channel here."""


class NoRoot(ValueError):
    """No admissible exercise price, in (0, p+g-c0), coordinates the channel."""


@dataclass(frozen=True)
class Violation:
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


def spot_fractile(m: MarketParams, o: OptionContract) -> float:
    """Critical fractile for the believed spot stock."""
    return (o.c0 + o.ce - m.w0) / o.ce


def check_feasibility(m: MarketParams, o: OptionContract, k: float) -> FeasibilityReport:
    """Screen the model's preconditions; reports, never raises."""
    violations: list[Violation] = []
    try:
        _check_positive("k", k)
    except InvalidValue as exc:
        violations.append(Violation("k-domain", str(exc)))

    contract = _contract_violations(m, o)
    violations += map(Violation, contract, contract.values())

    sf = spot_fractile(m, o)
    if not (0.0 < sf < 1.0):
        violations.append(Violation(
            "fractile-range-spot", f"(c0+ce-w0)/ce = {sf:.6g} outside (0, 1)"))
    elif "fractile-range-total" not in contract:
        tf = total_fractile(m, o)
        if tf < sf:
            violations.append(Violation(
                "negative-option-quantity",
                f"total fractile {tf:.6g} below spot fractile {sf:.6g}: optimal option quantity < 0"))

    return FeasibilityReport(tuple(violations))


def optimal_plan(d: DemandDistribution, m: MarketParams, o: OptionContract,
                 k: float) -> OrderPlan:
    """The retailer's profit-maximizing plan under belief scale theta*k.

    At the result the profit gradient vanishes; concavity of the objective
    makes it the unique maximum.  k = 1 gives the rational benchmark.
    """
    report = check_feasibility(m, o, k)
    if not report.ok:
        raise Infeasible(f"no optimal plan: {report.describe()}", report)
    scale = k * m.theta / (1.0 - m.beta)
    q_total = scale * d.quantile(total_fractile(m, o))
    q_spot = scale * d.quantile(spot_fractile(m, o))
    # q_spot <= q_total, since tf >= sf is already guaranteed; max() only absorbs rounding dust.
    _require_finite("optimal plan", q_total)
    return OrderPlan(q_spot=q_spot, q_option=max(0.0, q_total - q_spot))


def _centralized_quantile(d: DemandDistribution, m: MarketParams) -> float:
    """Demand quantile behind the centralized optimum (before scaling)."""
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
            RuntimeWarning, stacklevel=3)
    return d.quantile(clamped)


def optimal_centralized(d: DemandDistribution, m: MarketParams) -> float:
    """Total quantity maximizing the integrated chain's expected profit.

    Independent of the retailer's belief bias and of the option contract.
    """
    return (m.theta / (1.0 - m.beta)) * _centralized_quantile(d, m)


def coordinating_premium(d: DemandDistribution, m: MarketParams, ce: float,
                         k: float) -> float:
    """Option premium making the biased retailer order the centralized total.

    Solves, in closed form, for the c0 at which the retailer's total
    fractile quantile equals the centralized quantile shrunk by 1/k.
    The resulting (c0, ce) pair must still be a workable contract;
    otherwise NonCoordinable reports which condition broke.
    """
    _check_positive("ce", ce)
    _check_positive("k", k)
    margin = m.p + m.g - ce
    if not (margin > 0.0):
        raise NonCoordinable(
            f"fractile-range-total: ce={ce} >= p+g={m.p + m.g} leaves no option margin")

    x_central = _centralized_quantile(d, m)
    mass_below = d.cdf(x_central / k)
    if mass_below >= 1.0:
        # Bounded-support families: the shrunk quantile fell past the top of
        # the demand support, so no positive premium can coordinate.
        k_floor = _k_floor_for_premium(d, x_central)
        hint = f" (requires k > {k_floor:.6g})" if k_floor is not None else ""
        raise NonCoordinable(
            f"k-domain: coordinating premium would be <= 0 at k={k}{hint}")
    if mass_below <= 0.0:
        # Demand floor above the shrunk quantile: the premium would have to
        # eat the whole option margin.
        lo = getattr(d, "lo", 0.0)
        hint = f" (requires k < {x_central / lo:.6g})" if lo > 0.0 else ""
        raise NonCoordinable(
            f"k-domain: coordinating premium would leave no total fractile at k={k}{hint}")
    c0 = margin * (1.0 - mass_below)
    if not (m.w0 < c0 + ce):
        raise NonCoordinable(
            f"assumption-4: coordinating premium c0={c0:.6g} gives w0={m.w0} >= c0+ce={c0 + ce:.6g}")

    _check_coordination(d, m, OptionContract(c0=c0, ce=ce), k, x_central)
    return float(c0)


def _check_coordination(d: DemandDistribution, m: MarketParams, contract: OptionContract,
                        k: float, x_central: float) -> None:
    """Re-derive Q*(k) at the solved contract; it must equal Q** to _COORDINATION_TOL.

    At extreme k the solved price can be right yet leave a total fractile
    that rounds to 0 or too coarsely to reproduce Q**; that is Infeasible.
    """
    tf = total_fractile(m, contract)
    q_total = (k * m.theta / (1.0 - m.beta)) * d.quantile(tf) if 0.0 < tf < 1.0 else None
    q_central = (m.theta / (1.0 - m.beta)) * x_central
    if q_total is None or abs(q_total - q_central) > _COORDINATION_TOL * q_central:
        raise Infeasible(
            f"coordination identity failed: decentralized total {q_total!r} vs "
            f"centralized {q_central!r}")


def _k_floor_for_premium(d: DemandDistribution, x_central: float) -> float | None:
    # Only bounded-support families can push the shrunk quantile off the top.
    hi = getattr(d, "hi", None)
    if hi is None or not (hi > 0.0):
        return None
    return x_central / hi


def coordinating_exercise_price(d: DemandDistribution, m: MarketParams, c0: float,
                                k: float) -> float:
    """Exercise price coordinating the channel at a fixed premium.

    Equating the decentralized total with the centralized one gives
    ``(p+g-ce-c0)/(p+g-ce) = F(x_c/k)``, so ``ce = (p+g) - c0/(1 - F(x_c/k))``.
    That price is admissible, inside (0, p+g-c0), exactly when
    ``0 < F(x_c/k) < 1 - c0/(p+g)``; otherwise NoRoot explains the k-range
    that would admit one.
    """
    _check_positive("c0", c0)
    _check_positive("k", k)
    pg = m.p + m.g
    if not (c0 < pg):
        raise NoRoot(f"premium c0={c0} >= p+g={pg}: no exercise price can be admissible")

    x_central = _centralized_quantile(d, m)
    mass_below = d.cdf(x_central / k)
    if mass_below >= 1.0 - c0 / pg:
        k_floor = x_central / d.quantile(1.0 - c0 / pg)
        raise NoRoot(
            f"no coordinating exercise price in (0, {pg - c0:.6g}) at k={k}: "
            f"coordination at this premium requires k > {k_floor:.6g}")
    if mass_below <= 0.0:
        # Possible only when demand has a positive lower support bound.
        raise NoRoot(
            f"no coordinating exercise price in (0, {pg - c0:.6g}) at k={k}: "
            f"even the maximal admissible price leaves the decentralized total "
            f"above the centralized one (k too large for this demand floor)")
    ce = pg - c0 / (1.0 - mass_below)
    if not 0.0 < ce < pg - c0:
        raise NoRoot(
            f"no coordinating exercise price in (0, {pg - c0:.6g}) at k={k}: "
            f"the closed form rounds to {ce!r}")
    _check_coordination(d, m, OptionContract(c0=c0, ce=ce), k, x_central)
    return float(ce)


def supplier_profit_gap(d: DemandDistribution, m: MarketParams, o: OptionContract,
                        k: float) -> float:
    """Supplier profit at the rational optimum minus at the biased optimum.

    Both profits come from ``supplier_expected_profit`` evaluated at the
    closed-form optimal plans for k=1 and for the given k.  The sign tells
    whether the retailer's belief bias costs the supplier money; with the
    shipped example parameters the sign is governed by the production cost
    (a high c makes extra biased-up orders a net loss for the supplier).
    """
    require_feasible_contract(m, o)
    _check_positive("k", k)
    biased = optimal_plan(d, m, o, k)
    rational = optimal_plan(d, m, o, 1.0)
    return supplier_expected_profit(d, m, o, rational) - supplier_expected_profit(d, m, o, biased)
