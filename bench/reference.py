"""Independent reference answers for the benchmark's correctness check.

Nothing here imports freshopt.  Quantiles and CDFs come from
``scipy.stats``; expected profits are quadratures of the demand density
(``scipy.integrate.quad``); order plans and coordinating prices are
re-derived from the model's definitions (two-fractile newsvendor, with
the coordinating prices solved in closed form from the fractile
identity), not from freshopt's code.  This module runs only in the
harness process, never in the worker, so the worker's set-up time counts
exactly the scipy submodules freshopt itself loads.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import stats
from scipy.integrate import quad

# Sweep k grids as the README documents them: 0.8..1.5 step 0.05 when the
# exercise price is fixed, 0.75..1.5 step 0.01 otherwise.
SWEEP_GRIDS = {
    "fixed-exercise-price": tuple(round(0.8 + 0.05 * i, 12) for i in range(15)),
    "fixed-premium": tuple(round(0.75 + 0.01 * i, 12) for i in range(76)),
    "fixed-contract": tuple(round(0.75 + 0.01 * i, 12) for i in range(76)),
}


class Demand:
    """One demand law: scipy.stats for F and its inverse, a plain density for quad."""

    def __init__(self, family: str, params: dict[str, float]):
        self.family = family
        if family == "uniform":
            lo, hi = params["lo"], params["hi"]
            self.dist = stats.uniform(loc=lo, scale=hi - lo)
            density = 1.0 / (hi - lo)
            self.pdf = lambda x: density
            self.support = (lo, hi)
        elif family == "exponential":
            rate = params["rate"]
            self.dist = stats.expon(scale=1.0 / rate)
            self.pdf = lambda x: rate * math.exp(-rate * x)
            self.support = (0.0, math.inf)
        elif family == "truncated-normal":
            mu, sigma = params["mu"], params["sigma"]
            self.dist = stats.truncnorm(-mu / sigma, math.inf, loc=mu, scale=sigma)
            norm = sigma * math.sqrt(2.0 * math.pi) * float(stats.norm.cdf(mu / sigma))
            self.pdf = lambda x: math.exp(-0.5 * ((x - mu) / sigma) ** 2) / norm
            self.support = (0.0, math.inf)
        else:
            raise ValueError(f"unknown demand family {family!r}")
        self.mean = float(self.dist.mean())
        self._bodies: dict[float, float] = {}

    def quantile(self, q):
        return self.dist.ppf(q)

    def cdf(self, x):
        return self.dist.cdf(x)

    def limited_mean(self, a):
        """E[min(X, a)]: quadrature of x f(x) below a, plus a P(X > a); elementwise."""
        a = np.asarray(a, dtype=float)
        lo, hi = self.support
        out = np.where(a <= lo, a, self.mean)
        inside = (a > lo) & (a < hi)
        points = a[inside]
        body = [self._body(x) for x in points.tolist()]
        out[inside] = np.asarray(body) + points * self.dist.sf(points)
        return float(out) if out.ndim == 0 else out

    def _body(self, a: float) -> float:
        if a not in self._bodies:
            self._bodies[a] = quad(lambda x: x * self.pdf(x), self.support[0], a,
                                   epsabs=1e-11, epsrel=1e-12, limit=200)[0]
        return self._bodies[a]


@dataclass(frozen=True)
class Market:
    p: float
    g: float
    w0: float
    c: float
    beta: float
    theta: float


def violations(m: Market, c0: float, ce: float, k: float) -> list[str]:
    """Screening of a (market, contract, k), in the order freshopt documents."""
    found = []
    if not (k > 0.0 and math.isfinite(k)):
        found.append("k-domain")
    if not m.w0 < c0 + ce:
        found.append("assumption-4")
    pg_net = m.p + m.g - ce
    tf = (pg_net - c0) / pg_net if pg_net > 0.0 else None
    if tf is None or not 0.0 < tf < 1.0:
        found.append("fractile-range-total")
    sf = (c0 + ce - m.w0) / ce
    if not 0.0 < sf < 1.0:
        found.append("fractile-range-spot")
    if tf is not None and 0.0 < tf < 1.0 and 0.0 < sf < 1.0 and tf < sf:
        found.append("negative-option-quantity")
    return found


def optimal_plan(d: Demand, m: Market, c0, ce, k):
    """(q_spot, q_option) at the two critical fractiles, scaled by k*theta/(1-beta); elementwise."""
    pg = m.p + m.g
    scale = k * m.theta / (1.0 - m.beta)
    q_total = scale * d.quantile((pg - ce - c0) / (pg - ce))
    q_spot = scale * d.quantile((c0 + ce - m.w0) / ce)
    q_option = np.maximum(0.0, q_total - q_spot)
    if np.ndim(q_spot) == 0:
        return float(q_spot), float(q_option)
    return q_spot, q_option


def retailer_terms(d: Demand, m: Market, c0, ce, k, q_spot, q_option) -> dict:
    """Expected retailer ledger when demand is theta*k*X; elementwise."""
    scale = m.theta * k
    eff = 1.0 - m.beta
    stock, spot_stock = (q_spot + q_option) * eff, q_spot * eff
    sales = scale * d.limited_mean(stock / scale)
    exercised = sales - scale * d.limited_mean(spot_stock / scale)
    shortage = scale * d.mean - sales
    return {
        "revenue": m.p * sales,
        "premium_cost": -c0 * q_option * eff,
        "exercise_cost": -ce * exercised,
        "wholesale_cost": -m.w0 * spot_stock,
        "shortage_cost": -m.g * shortage,
    }


def supplier_profit(d: Demand, m: Market, c0, ce, q_spot, q_option):
    eff = 1.0 - m.beta
    stock, spot_stock = (q_spot + q_option) * eff, q_spot * eff
    exercised = m.theta * (d.limited_mean(stock / m.theta) - d.limited_mean(spot_stock / m.theta))
    return (m.w0 * spot_stock + c0 * q_option * eff + ce * exercised
            - m.c * (q_spot + q_option))


def chain_profit(d: Demand, m: Market, q_total):
    stock = q_total * (1.0 - m.beta)
    sales = m.theta * d.limited_mean(stock / m.theta)
    return m.p * sales - m.c * q_total - m.g * (m.theta * d.mean - sales)


def centralized_quantile(d: Demand, m: Market) -> float | None:
    capacity_value = (m.p + m.g) * (1.0 - m.beta)
    if not capacity_value > m.c:
        return None
    return d.quantile((capacity_value - m.c) / capacity_value)


def coordinating_premium(d: Demand, m: Market, ce: float, k):
    """c0 with (p+g-ce-c0)/(p+g-ce) = F(x_c/k), elementwise in k; NaN where no workable c0 exists."""
    k = np.asarray(k, dtype=float)
    margin = m.p + m.g - ce
    x_central = centralized_quantile(d, m)
    if not margin > 0.0 or x_central is None:
        return np.full(k.shape, np.nan)
    mass_below = d.cdf(x_central / k)
    c0 = margin * (1.0 - mass_below)
    return np.where((mass_below > 0.0) & (mass_below < 1.0) & (m.w0 < c0 + ce), c0, np.nan)


def coordinating_exercise_price(d: Demand, m: Market, c0: float, k):
    """ce with (p+g-ce-c0)/(p+g-ce) = F(x_c/k), solved in closed form; elementwise, NaN if none."""
    k = np.asarray(k, dtype=float)
    pg = m.p + m.g
    x_central = centralized_quantile(d, m)
    if not c0 < pg or x_central is None:
        return np.full(k.shape, np.nan)
    mass_below = d.cdf(x_central / k)
    with np.errstate(divide="ignore"):
        ce = pg - c0 / (1.0 - mass_below)
    ok = (mass_below > 0.0) & (mass_below < 1.0) & (ce > 0.0) & (ce < pg - c0)
    return np.where(ok, ce, np.nan)


def sweep_rows(d: Demand, m: Market, mode: str, c0: float, ce: float) -> list[dict]:
    """The reference values of every row of one sweep (None marks an empty cell)."""
    ks = np.array(SWEEP_GRIDS[mode])
    c0s, ces = np.full(len(ks), c0), np.full(len(ks), ce)
    if mode == "fixed-exercise-price":
        c0s = coordinating_premium(d, m, ce, ks)
    elif mode == "fixed-premium":
        ces = coordinating_exercise_price(d, m, c0, ks)
    feasible = np.array([not (math.isnan(a) or math.isnan(b) or violations(m, a, b, k))
                         for a, b, k in zip(c0s, ces, ks)])
    rows = [{"k": k, "c0": None if math.isnan(a) else a, "ce": None if math.isnan(b) else b,
             "feasible": bool(f)} for a, b, k, f in zip(c0s, ces, ks, feasible)]
    if not feasible.any():
        return rows
    c0s, ces, ks = c0s[feasible], ces[feasible], ks[feasible]
    q_spot, q_option = optimal_plan(d, m, c0s, ces, ks)
    columns = {
        "q_total": q_spot + q_option, "q_spot": q_spot, "q_option": q_option,
        "retailer_profit_believed": sum(retailer_terms(d, m, c0s, ces, ks, q_spot, q_option).values()),
        "retailer_profit_true": sum(retailer_terms(d, m, c0s, ces, 1.0, q_spot, q_option).values()),
        "supplier_profit": supplier_profit(d, m, c0s, ces, q_spot, q_option),
        "chain_profit": chain_profit(d, m, q_spot + q_option),
    }
    for j, i in enumerate(np.flatnonzero(feasible)):
        rows[i].update({name: float(values[j]) for name, values in columns.items()})
    return rows
