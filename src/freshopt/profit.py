"""Expected- and realized-profit functions for retailer, supplier, and chain.

Two demand measures coexist on purpose.  The retailer orders against the
demand it believes in, ``k * theta * x``, so retailer expectations use the
scale ``theta * k``.  The supplier and the integrated chain face the true
demand ``theta * x`` and their expectations use the scale ``theta`` alone.
Realized-profit functions take the scale explicitly so a simulation can
verify either measure independently of the closed forms.

Ordered units shrink by the transport-loss fraction ``beta`` before they
can serve demand: a plan (Q1, Qq) puts ``Q1*(1-beta)`` firm units and
``Qq*(1-beta)`` option units on the shelf.

Each of these two rules has one owner.  ``_believed_scale`` gives theta*k
to every scalar believed-view price (the retailer's expected profit and
gradient, the Monte-Carlo and grid oracles): it rejects a k that is not
finite and > 0 and raises Infeasible where theta*k underflows to 0, with the
wording of ``_zero_scale``, which a sweep's flagged row also carries.
``_shelf`` gives the three stocks to the ledger and to the realized retailer
and supplier profits; the gradient, the grid's spot part and the chain keep
their own factor ``1-beta``.

Every expected profit (retailer, supplier, chain; scalars or arrays) is
priced by one private ledger, ``_ledger``, from a single evaluation of
E[sales], E[shortage] and E[exercised], and every precondition of a
contract or a plan is screened by one function, ``_screens``, and worded
by one, ``_screen_message``.  A realized profit is piecewise
affine in demand, and the ``realized_*`` functions evaluate it from its
pieces: a minimum of lines, or one clipped line.

The stockout penalty ``g`` sits on the retailer's ledger: the retailer's
profit carries the shortage term while the supplier's carries none.
Who ultimately bears that cost is a matter of negotiation the model does
not arbitrate; these formulas fix one convention and keep it everywhere.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .demand import (
    DemandDistribution,
    _any,
    _check_each,
    _check_nonnegative,
    _check_positive,
    _on_array,
    _require,
    np,
)


class Infeasible(ValueError):
    """Valid input with no answer: the requested optimum, coordinating price, or finite
    plan or profit does not exist for these parameters.  One of the package's two
    outcomes besides an answer; the other is ``demand.InvalidValue``, rejected input.
    The CLI exits 1 on it, and a sweep flags the row.  Its subclasses say which answer
    is missing: ``InfeasibleContract`` here, ``NonCoordinable`` and ``NoRoot`` in
    ``optimizer``.
    """

    def __init__(self, message: str, report=None):
        super().__init__(message)
        self.report = report  # the optimizer's FeasibilityReport, when its screen failed


class InfeasibleContract(Infeasible):
    """Option contract terms that break the model's price ordering: valid prices that
    leave no plan to price."""


def _overflow(what: str) -> Infeasible:
    """The error for a result that does not fit in a double: the inputs overflowed."""
    return Infeasible(f"{what} overflows double precision")


def _require_finite(what: str, value):
    """value (a float or an array) if it is finite; Infeasible, an overflow of ``what``, if not."""
    if not (math.isfinite(value) if isinstance(value, float) else np.isfinite(value).all()):
        raise _overflow(what)
    return value


@dataclass(frozen=True)
class MarketParams:
    """Economic constants of the market.

    p: unit sale price; g: unit stockout penalty; w0: unit wholesale price;
    c: supplier unit production cost; beta: transport/unloading loss
    fraction; theta: freshness factor scaling effective demand.
    """

    p: float
    g: float
    w0: float
    c: float
    beta: float
    theta: float

    def __post_init__(self):
        p, g, w0, c, beta, theta = self.p, self.g, self.w0, self.c, self.beta, self.theta
        _check_each((_require, "p", p > w0 and math.isfinite(p),
                     "must be finite with p > w0, got p={}, w0={}", p, w0),
                    (_require, "w0", w0 > c, "must satisfy w0 > c, got w0={}, c={}", w0, c),
                    (_require, "c", c >= 0.0, "must be >= 0, got {}", c),
                    (_check_nonnegative, "g", g),
                    (_require, "beta", 0.0 < beta < 1.0, "must satisfy 0 < beta < 1, got {}", beta),
                    (_require, "theta", 0.0 < theta <= 1.0, "must satisfy 0 < theta <= 1, got {}", theta))


@dataclass(frozen=True)
class OptionContract:
    """Per-unit option premium c0 (paid up front) and exercise price ce."""

    c0: float
    ce: float

    def __post_init__(self):
        _check_each((_check_positive, "c0", self.c0), (_check_positive, "ce", self.ce))


@dataclass(frozen=True)
class OrderPlan:
    """Spot quantity plus option quantity; the total is their exact sum."""

    q_spot: float
    q_option: float

    def __post_init__(self):
        _check_each((_check_nonnegative, "q_spot", self.q_spot),
                    (_check_nonnegative, "q_option", self.q_option))

    @property
    def q_total(self) -> float:
        return self.q_spot + self.q_option


@dataclass(frozen=True)
class ProfitBreakdown:
    """Total expected profit with its additive components."""

    total: float
    terms: dict[str, float]


def _not(holds):
    """``not holds`` for a bool or, entry by entry, a bool column; a float's screens
    stay in Python bools, as numpy's bool scalars are slow."""
    return holds ^ True


class _Prices(NamedTuple):
    """The prices of a column of contracts, one per entry of numpy arrays (or a float
    for a price they share), unchecked: what the fractile formulas and screens read."""

    c0: object
    ce: object


def total_fractile(m: MarketParams, o: OptionContract) -> float:
    """Critical fractile for the believed total stock, (p+g-ce-c0)/(p+g-ce).

    Its pole ce == p+g gives -inf, for scalar prices as for a column's entries
    (where numpy divides -c0 by 0): a fractile outside (0, 1), never an error.
    """
    try:
        return (m.p + m.g - o.ce - o.c0) / (m.p + m.g - o.ce)
    except ZeroDivisionError:  # scalar prices at the pole
        return -math.inf


def spot_fractile(m: MarketParams, o: OptionContract) -> float:
    """Critical fractile for the believed spot stock."""
    return (o.c0 + o.ce - m.w0) / o.ce


def _screens(m: MarketParams, o: OptionContract | _Prices):
    """(failures, tf, sf): whether the terms break each precondition of an order plan
    but the k-domain, by violation name in report order, and the total and spot
    fractiles; for _Prices columns each failure is a column.

    The first two are the contract's own: w0 < c0 + ce (otherwise every unit would
    be ordered through options) and a total critical fractile inside (0, 1), that
    is c0 + ce < p + g (otherwise options are worthless).  Where p+g-ce <= 0 the
    fractile is undefined; since c0 > 0 the ratio then comes out at 1 or more, or,
    at the pole ce == p+g, at total_fractile's -inf, so the range test flags it.  A
    plan also needs the spot fractile inside (0, 1) and no total fractile below it,
    or its option quantity would be negative.
    """
    tf, sf = total_fractile(m, o), spot_fractile(m, o)
    total_ok = (0.0 < tf) & (tf < 1.0)
    spot_ok = (0.0 < sf) & (sf < 1.0)
    return {"assumption-4": _not(m.w0 < o.c0 + o.ce),
            "fractile-range-total": _not(total_ok),
            "fractile-range-spot": _not(spot_ok),
            "negative-option-quantity": spot_ok & total_ok & (tf < sf)}, tf, sf


def _screen_message(name: str, m: MarketParams, o: OptionContract, tf: float, sf: float) -> str:
    """Why the float terms o, with fractiles tf and sf, break the screen ``name``."""
    if name == "assumption-4":
        return f"w0={m.w0} >= c0+ce={o.c0 + o.ce}: all orders would move to options"
    if name == "fractile-range-spot":
        return f"(c0+ce-w0)/ce = {sf:.6g} outside (0, 1)"
    if name == "negative-option-quantity":
        return f"total fractile {tf:.6g} below spot fractile {sf:.6g}: optimal option quantity < 0"
    shown = f"{tf:.6g}" if m.p + m.g - o.ce > 0.0 else "undefined"
    return f"(p+g-ce-c0)/(p+g-ce) = {shown} outside (0, 1)"


def require_feasible_contract(m: MarketParams, o: OptionContract) -> None:
    """Raise InfeasibleContract unless the contract respects the market: the first two screens."""
    failures, tf, sf = _screens(m, o)
    violations = [f"{name} violated: {_screen_message(name, m, o, tf, sf)}"
                  for name, failed in list(failures.items())[:2] if failed]
    if violations:
        raise InfeasibleContract("; ".join(violations))


def _shelf(m: MarketParams, q_spot, q_option):
    """(stock, spot stock, option stock): what a plan puts on the shelf once a fraction beta
    of each ordered unit is lost, ``(q_spot + q_option) * (1-beta)``, ``q_spot * (1-beta)``
    and ``q_option * (1-beta)``; the quantities may be floats or arrays."""
    eff = 1.0 - m.beta
    return (q_spot + q_option) * eff, q_spot * eff, q_option * eff


def _ledger(d: DemandDistribution, m: MarketParams, c0, ce, scale, q_spot, q_option):
    """(retailer's five terms, supplier profit, chain profit) expected under demand ``scale * x``.

    Priced from the exact expectations of sales ``min(D, stock)``, shortage
    ``max(D - stock, 0)`` and exercised ``clip(D - spot stock, 0, option stock)``
    in demand D; any argument but d and m may be an array.
    """
    q_total = q_spot + q_option
    stock, spot_stock, option_stock = _shelf(m, q_spot, q_option)
    partial = d.cdf_integral(stock / scale)
    # With no options the spot stock is the whole stock; with no spot stock its partial is 0.
    spot_partial = (partial if not _any(q_option)
                    else d.cdf_integral(spot_stock / scale) if _any(q_spot) else 0.0)
    sales = stock - scale * partial
    shortage = scale * d.mean() - stock + scale * partial
    exercised = option_stock - scale * (partial - spot_partial)
    retailer = {
        "revenue": m.p * sales,
        "premium_cost": -c0 * option_stock,
        "exercise_cost": -ce * exercised,
        "wholesale_cost": -m.w0 * spot_stock,
        "shortage_cost": -m.g * shortage,
    }
    supplier = m.w0 * spot_stock + c0 * option_stock + ce * exercised - m.c * q_total
    chain = m.p * sales - m.g * shortage - m.c * q_total
    return retailer, supplier, chain


def _believed_scale(m: MarketParams, k: float) -> float:
    """theta*k, the retailer's demand scale: the one rule every scalar believed-view price
    reads.  InvalidValue unless k is finite and > 0; Infeasible where theta and k are valid
    but their product underflows to 0.  The contract is its callers' to screen."""
    _check_positive("k", k)
    if not m.theta * k > 0.0:
        raise _zero_scale(m, k)
    return m.theta * k


def _zero_scale(m: MarketParams, k: float) -> Infeasible:
    """The error of a valid k at which the believed scale theta*k underflows to 0."""
    return Infeasible(f"believed demand scale theta*k underflows to 0 at theta={m.theta}, k={k}")


def retailer_expected_profit(d: DemandDistribution, m: MarketParams, o: OptionContract,
                             k: float, plan: OrderPlan) -> ProfitBreakdown:
    """Retailer expected profit under its believed demand scale theta*k.

    Itemized as sale revenue minus option premium, expected exercise
    payments, wholesale cost, and expected stockout penalty (the penalty
    covers the believed demand the stock cannot serve).
    """
    require_feasible_contract(m, o)
    terms, _, _ = _ledger(d, m, o.c0, o.ce, _believed_scale(m, k), plan.q_spot, plan.q_option)
    terms = {name: float(v) for name, v in terms.items()}
    total = _require_finite("retailer expected profit", float(sum(terms.values())))
    return ProfitBreakdown(total=total, terms=terms)


def retailer_profit_gradient(d: DemandDistribution, m: MarketParams, o: OptionContract,
                             k: float, plan: OrderPlan) -> tuple[float, float]:
    """Partials of the retailer's expected profit w.r.t. (q_spot, q_option)."""
    require_feasible_contract(m, o)
    scale = _believed_scale(m, k)
    eff = 1.0 - m.beta  # the derivative's own factor: d(stock)/dQ
    cdf_total = d.cdf(plan.q_total * eff / scale)
    cdf_spot = d.cdf(plan.q_spot * eff / scale)
    pg = m.p + m.g
    d_option = eff * (pg - (pg - o.ce) * cdf_total - (o.c0 + o.ce))
    d_spot = eff * (pg - (pg - o.ce) * cdf_total - o.ce * cdf_spot - m.w0)
    return (float(d_spot), float(d_option))


def supplier_expected_profit(d: DemandDistribution, m: MarketParams, o: OptionContract,
                             plan: OrderPlan) -> float:
    """Supplier expected profit; the expectation is under the true demand.

    Wholesale and premium income are deterministic once the plan is fixed;
    only the exercised option volume is random, and it is driven by the
    actual demand theta*x, regardless of what the retailer believes.
    """
    require_feasible_contract(m, o)
    _, supplier, _ = _ledger(d, m, o.c0, o.ce, m.theta, plan.q_spot, plan.q_option)
    return float(_require_finite("supplier expected profit", supplier))


def chain_expected_profit(d: DemandDistribution, m: MarketParams, q_total):
    """Expected profit of the integrated chain stocking q_total in total.  Vectorized."""
    if type(q_total) is float:
        _check_nonnegative("q_total", q_total)
        profit = float(_ledger(d, m, 0.0, 0.0, m.theta, q_total, 0.0)[2])
    else:
        totals = np.asarray(q_total, dtype=float)
        bad = totals[~np.isfinite(totals) | (totals < 0.0)]
        if bad.size:  # the first bad entry names the error
            _check_nonnegative("q_total", bad[0].item())
        profit = _on_array(lambda q: _ledger(d, m, 0.0, 0.0, m.theta, q, 0.0)[2], totals)
    return _require_finite("chain expected profit", profit)


def _scaled(scale: float, x, out):
    """scale * x in ``out`` for an array x, else in a new float array of x's shape, or of
    one entry for a float x, so that every later pass can be written in place."""
    x = np.asarray(x, dtype=float)
    if out is None or x.ndim == 0:
        out = np.empty(x.shape or 1)
    return np.multiply(scale, x, out=out)


def _returned(profits, x):
    """The profits of an array x, or the float of a float x."""
    return profits if np.ndim(x) else float(profits[0])


def realized_retailer_profit(x, demand_scale: float, m: MarketParams, o: OptionContract,
                             plan: OrderPlan, out=None):
    """Retailer profit for one demand outcome x, at the given belief scale.

    Options are exercised only for demand the spot stock cannot cover, and
    the exercised volume is capped by the effective option stock.
    Vectorized over x.

    In demand D the profit is three lines: slope p up to the spot stock,
    p - ce up to the whole stock and -g past it.  It is the smaller of the
    first line and the other two joined at the stock, which is their minimum
    where the slope falls there (ce <= p + g) and their maximum where it rises.

    For an array x, ``out`` (a float64 array of x's shape, or x itself) receives
    the profits and is returned; the lines are evaluated in it and in two
    temporaries, with the bits of a call without ``out``.  A float x gives a float.
    """
    return _returned(_retailer_profits(x, demand_scale, m, o, plan, out), x)


def _retailer_profits(x, demand_scale: float, m: MarketParams, o: OptionContract,
                      plan: OrderPlan, out):
    """realized_retailer_profit's array of profits; the kernel the Monte-Carlo helper runs."""
    stock, spot_stock, option_stock = _shelf(m, plan.q_spot, plan.q_option)
    fixed = -o.c0 * option_stock - m.w0 * spot_stock
    demand = _scaled(demand_scale, x, out)
    exercising = (m.p - o.ce) * demand
    exercising += fixed + o.ce * spot_stock
    short = -m.g * demand
    short += fixed + m.p * stock - o.ce * option_stock + m.g * stock
    join = np.minimum if o.ce <= m.p + m.g else np.maximum
    join(exercising, short, out=exercising)
    demand *= m.p  # the spot line, over the demand
    demand += fixed
    return np.minimum(demand, exercising, out=demand)


def realized_supplier_profit(x, m: MarketParams, o: OptionContract, plan: OrderPlan, out=None):
    """Supplier profit for one demand outcome x, exercised on true demand.  Vectorized over x.

    Its fixed part (wholesale and premium income less production cost) plus ce
    per unit of true demand D past the spot stock, up to the option stock: one
    line in D, clipped to [fixed, fixed + ce * option stock].

    For an array x, ``out`` (a float64 array of x's shape, or x itself) receives
    the profits and is returned; the line is evaluated in it, with no temporary,
    with the bits of a call without ``out``.  A float x gives a float.
    """
    return _returned(_supplier_profits(x, m, o, plan, out), x)


def _supplier_profits(x, m: MarketParams, o: OptionContract, plan: OrderPlan, out):
    """realized_supplier_profit's array of profits; the kernel the Monte-Carlo helper runs."""
    _, spot_stock, option_stock = _shelf(m, plan.q_spot, plan.q_option)
    fixed = m.w0 * spot_stock + o.c0 * option_stock - m.c * plan.q_total
    line = _scaled(o.ce * m.theta, x, out)
    line += fixed - o.ce * spot_stock
    return np.clip(line, fixed, fixed + o.ce * option_stock, out=line)


def realized_chain_profit(x, m: MarketParams, q_total: float, out=None):
    """Integrated-chain profit for one demand outcome x.  Vectorized over x.

    In demand D: p D up to the stock, then -g per unit short; concave, as p > -g.

    For an array x, ``out`` (a float64 array of x's shape, or x itself) receives
    the profits and is returned; the lines are evaluated in it and in one
    temporary, with the bits of a call without ``out``.  A float x gives a float.
    """
    return _returned(_chain_profits(x, m, q_total, out), x)


def _chain_profits(x, m: MarketParams, q_total: float, out):
    """realized_chain_profit's array of profits; the kernel the Monte-Carlo helper runs."""
    stock = q_total * (1.0 - m.beta)
    cost = m.c * q_total
    demand = _scaled(m.theta, x, out)
    short = -m.g * demand
    short += (m.p + m.g) * stock - cost
    demand *= m.p  # the sales line, over the demand
    demand -= cost
    return np.minimum(demand, short, out=demand)
