"""Exact identities the answers rest on, each checked on all three demand families at the
optimal plan of the shipped market and contract.

Each tolerance is the worst relative deviation measured over the cases below, rounded up
by a few ulps: a deviation past it is a change in the formulas, not in rounding.
"""
from __future__ import annotations

import dataclasses

import pytest

from test_sweep import DEMANDS
from freshopt import (
    MarketParams,
    OptionContract,
    chain_expected_profit,
    optimal_plan,
    retailer_expected_profit,
    supplier_expected_profit,
    supplier_profit_gap,
)

MARKET = MarketParams(p=50.0, g=10.0, w0=25.0, c=15.0, beta=0.1, theta=0.8)
CONTRACT = OptionContract(c0=5.0, ce=35.0)
KS = (0.8, 1.0, 1.2, 1.5)


def _profits(d, m, k):
    """(believed retailer, true retailer, supplier, chain) expected profits at the optimal plan."""
    plan = optimal_plan(d, m, CONTRACT, k)
    return (retailer_expected_profit(d, m, CONTRACT, k, plan).total,
            retailer_expected_profit(d, m, CONTRACT, 1.0, plan).total,
            supplier_expected_profit(d, m, CONTRACT, plan),
            chain_expected_profit(d, m, plan.q_total))


def _relative(got, expected):
    return abs(got - expected) / abs(expected)


@pytest.mark.parametrize("family", DEMANDS)
def test_retailer_profits_do_not_depend_on_beta(family):
    # The plan is the believed stock over 1-beta, so the shelf, and every retailer term read
    # off it, is the same at any beta.  Worst measured: 3.9e-15.
    d = DEMANDS[family]
    for k in KS:
        base = _profits(d, MARKET, k)[:2]
        for beta in (0.01, 0.05, 0.2, 0.3):
            got = _profits(d, dataclasses.replace(MARKET, beta=beta), k)[:2]
            assert max(map(_relative, got, base)) <= 4.5e-15, (k, beta)


@pytest.mark.parametrize("family", DEMANDS)
def test_profits_are_homogeneous_of_degree_one_in_theta(family):
    # Plan and demand scale both carry theta, so each profit is theta times its value at
    # theta = 1.  Worst measured, per profit: 3.1e-15, 3.6e-15, 2.43e-14 (the supplier's,
    # a difference of larger terms) and 1.5e-15.
    d = DEMANDS[family]
    tolerances = (3.5e-15, 4e-15, 2.5e-14, 2e-15)
    for k in KS:
        at_one = _profits(d, dataclasses.replace(MARKET, theta=1.0), k)
        for theta in (0.1, 0.3, 0.5, 0.8):
            got = _profits(d, dataclasses.replace(MARKET, theta=theta), k)
            for name, g, one, tol in zip(("believed", "true", "supplier", "chain"), got, at_one,
                                         tolerances):
                assert _relative(g, theta * one) <= tol, (name, k, theta)


@pytest.mark.parametrize("k, at_15, root", [(0.8, -34.179048, 12.596786),
                                            (1.2, 85.287619, 9.003214)])
def test_supplier_gap_is_linear_in_production_cost(k, at_15, root):
    # Neither plan reads c, so the gap is a - c * (rational total - biased total).  On the
    # shipped uniform demand its root is c*(k); criterion 7's signs, gap(0.8) > 0 and
    # gap(1.2) < 0, hold together only for c < c*(1.2) = 9.003214, and c is 15.
    # Worst measured deviation from the line: 1.8e-15 of the larger end.
    d = DEMANDS["uniform"]
    gap = lambda c: supplier_profit_gap(d, dataclasses.replace(MARKET, c=c), CONTRACT, k)
    at_0 = gap(0.0)
    assert gap(15.0) == pytest.approx(at_15, abs=5e-7)
    for c in (5.0, 10.0, 15.0, 20.0, 24.0):
        line = at_0 + (gap(15.0) - at_0) * c / 15.0
        assert abs(gap(c) - line) <= 2e-15 * max(abs(at_0), abs(gap(c))), c
    assert at_0 * 15.0 / (at_0 - gap(15.0)) == pytest.approx(root, abs=5e-7)
    # Below c*(1.2) criterion 7's sign holds at either k; at c = 15 it is reversed.
    assert (gap(9.0) > 0.0) == (k < 1.0)
    assert (gap(15.0) > 0.0) == (k > 1.0)
