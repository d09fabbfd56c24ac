"""Checks every worker response against the independent reference.

A request fails when it raised, when its exit code disagrees with the
reference's verdict (an infeasible or non-coordinable outcome, exit 1,
is a success when the reference agrees), or when a number disagrees.
CLI numbers are printed with 6 decimals, so they are compared within
``CLI_ATOL`` plus a relative slack for the solvers' own tolerances;
library numbers are compared at full precision.  The grid search must
land within one grid step of the reference plan in each coordinate, and
a Monte-Carlo mean within ``MC_SIGMAS`` standard errors of the
quadrature value.
"""
from __future__ import annotations

import csv
import io
import math

import reference as ref
from workloads import GRID_STEP

CLI_ATOL = 1e-6
CLI_RTOL = 1e-9
LIB_ATOL = 1e-9
LIB_RTOL = 1e-9
MC_SIGMAS = 5.0

CSV_COLUMNS = ("k", "c0", "ce", "q_total", "q_spot", "q_option",
               "retailer_profit_believed", "retailer_profit_true",
               "supplier_profit", "chain_profit", "feasible", "note")


class Mismatch(Exception):
    """One response disagrees with the reference."""


def _close(got: float, want: float, atol: float, rtol: float, what: str) -> None:
    if not abs(got - want) <= atol + rtol * abs(want):
        raise Mismatch(f"{what}: got {got!r}, reference {want!r}")


class Setup:
    """The reference model of one pool setup."""

    def __init__(self, setup: dict):
        self.d = ref.Demand(setup["family"], setup["params"])
        self.m = ref.Market(**setup["market"])
        self.c0 = setup["contract"]["c0"]
        self.ce = setup["contract"]["ce"]
        self.k = setup["k"]
        self.evaluate_plan = tuple(setup["evaluate_plan"])
        self._plan = None

    @property
    def plan(self) -> tuple[float, float]:
        if self._plan is None:
            self._plan = ref.optimal_plan(self.d, self.m, self.c0, self.ce, self.k)
        return self._plan

    def cli_expected(self, name: str):
        """(exit code, ordered key -> value) the CLI should print, or sweep rows."""
        d, m, c0, ce, k = self.d, self.m, self.c0, self.ce, self.k
        if name in ("optimize", "evaluate"):
            q1, qq = self.plan if name == "optimize" else self.evaluate_plan
            believed = ref.retailer_terms(d, m, c0, ce, k, q1, qq)
            values = {"Q": q1 + qq, "Q1": q1, "Qq": qq}
            if name == "optimize":
                values["retailer_profit"] = sum(believed.values())
            else:
                values["retailer_profit_believed"] = sum(believed.values())
                values["retailer_profit_true"] = sum(
                    ref.retailer_terms(d, m, c0, ce, 1.0, q1, qq).values())
                values["supplier_profit"] = ref.supplier_profit(d, m, c0, ce, q1, qq)
                values["chain_profit"] = ref.chain_profit(d, m, q1 + qq)
            values.update(believed)
            return 0, values
        if name.startswith("coordinate"):
            key, price = (("c0", ref.coordinating_premium(d, m, ce, k)) if name == "coordinate"
                          else ("ce", ref.coordinating_exercise_price(d, m, c0, k)))
            return (1, {}) if math.isnan(price) else (0, {key: float(price)})
        return 0, ref.sweep_rows(d, m, name[len("sweep-"):], c0, ce)


def check_cli(setup: Setup, name: str, response: list) -> None:
    if response[0] == "raised":
        raise Mismatch(f"raised {response[1]}")
    code, stdout = response
    want_code, want = setup.cli_expected(name)
    if code != want_code:
        raise Mismatch(f"exit code {code}, reference expects {want_code}")
    if name.startswith("sweep-"):
        _check_csv(stdout, want)
        return
    lines = stdout.splitlines()
    keys = [line.split("=", 1)[0] for line in lines]
    if keys != list(want):
        raise Mismatch(f"printed keys {keys}, reference expects {list(want)}")
    for line in lines:
        key, text = line.split("=", 1)
        _close(float(text), want[key], CLI_ATOL, CLI_RTOL, key)


def _check_csv(text: str, want_rows: list[dict]) -> None:
    rows = list(csv.reader(io.StringIO(text)))
    if tuple(rows[0]) != CSV_COLUMNS:
        raise Mismatch(f"CSV header {rows[0]}")
    if len(rows) - 1 != len(want_rows):
        raise Mismatch(f"{len(rows) - 1} sweep rows, reference expects {len(want_rows)}")
    for cells, want in zip(rows[1:], want_rows):
        got = dict(zip(CSV_COLUMNS, cells))
        where = f"row k={got['k']}"
        if got["feasible"] != ("true" if want["feasible"] else "false"):
            raise Mismatch(f"{where}: feasible={got['feasible']}, reference {want['feasible']}")
        for column in CSV_COLUMNS[:10]:
            expected = want.get(column)
            if expected is None:
                if got[column] != "":
                    raise Mismatch(f"{where}: {column}={got[column]}, reference leaves it empty")
            elif got[column] == "":
                raise Mismatch(f"{where}: {column} empty, reference {expected!r}")
            else:
                _close(float(got[column]), expected, CLI_ATOL, CLI_RTOL, f"{where} {column}")


def check_verify(setup: Setup, name: str, response: list) -> None:
    if response[0] == "raised":
        raise Mismatch(f"raised {response[1]}")
    r1, rq = setup.plan
    if name == "grid":
        g1, gq, c1, cq = response
        _close(c1, r1, LIB_ATOL, LIB_RTOL, "optimal_plan q_spot")
        _close(cq, rq, LIB_ATOL, LIB_RTOL, "optimal_plan q_option")
        # One grid step, as the acceptance suite allows; a box that misses the optimum fails here.
        _close(g1, r1, GRID_STEP + 1e-9, 0.0, "grid q_spot")
        _close(gq, rq, GRID_STEP + 1e-9, 0.0, "grid q_option")
        return
    q1, qq, analytic, mean, stderr = response
    _close(q1, r1, LIB_ATOL, LIB_RTOL, "optimal_plan q_spot")
    _close(qq, rq, LIB_ATOL, LIB_RTOL, "optimal_plan q_option")
    d, m, c0, ce, k = setup.d, setup.m, setup.c0, setup.ce, setup.k
    kind = name[len("mc-"):]
    if kind == "retailer":
        want = sum(ref.retailer_terms(d, m, c0, ce, k, q1, qq).values())
    elif kind == "supplier":
        want = ref.supplier_profit(d, m, c0, ce, q1, qq)
    else:
        want = ref.chain_profit(d, m, q1 + qq)
    _close(analytic, want, LIB_ATOL, LIB_RTOL, f"{kind} expected profit")
    _close(mean, want, MC_SIGMAS * stderr, 0.0, f"{kind} Monte-Carlo mean")


def check_all(workload: str, pool: list[dict], keys: list, responses: list) -> tuple[int, int, list[str]]:
    """(attempted, failed, reasons) over the worker's responses.

    ``responses[i]`` lists the distinct responses to request ``keys[i]``
    in the order first returned, with how often each was returned.  Every
    copy of a failing response counts as a failed request, and so does
    every response that differs from the first: identical inputs must
    give byte-identical output.
    """
    setups: dict[int, Setup] = {}
    attempted = failed = 0
    reasons = []
    check = check_verify if workload == "verify" else check_cli
    for (index, name), variants in zip(keys, responses):
        for n, (response, count) in enumerate(variants):
            attempted += count
            setup = setups.get(index) or setups.setdefault(index, Setup(pool[index]))
            try:
                if n:
                    raise Mismatch("differs from the first response to the same request")
                check(setup, name, response)
            except (Mismatch, ValueError, IndexError) as exc:
                failed += count
                reasons.append(f"setup {index} {name} (x{count}): {exc}")
    return attempted, failed, reasons

