"""Command-line interface.

Five commands over a scenario config: ``optimize`` (closed-form plan and
profit breakdown), ``evaluate`` (profits at a user-given plan),
``coordinate`` (solve the coordinating premium or exercise price),
``simulate`` (Monte-Carlo check of an expected profit), and ``sweep``
(CSV series over the overconfidence grid).

Flag values override config values, which override defaults: each value
flag's argparse ``dest`` is the config field it overrides.  Numeric
output is fixed at 6 decimal places and identical inputs produce
byte-identical output.  Exit codes: 0 success; 1 an ``Infeasible``, valid
input with no answer (or a simulation check outside 3 standard errors);
2 a configuration or usage error, an ``InvalidValue`` (a value outside its
domain), or an ``--out`` path that cannot be written.
"""
from __future__ import annotations

import argparse
import functools
import sys
import warnings
from pathlib import Path

from .config import ConfigError, ScenarioConfig, load_config
from .demand import InvalidValue, _check_each, _check_positive
from .optimizer import (
    Infeasible,
    check_feasibility,
    coordinating_exercise_price,
    coordinating_premium,
    optimal_plan,
)
from .oracle import MC_KINDS, _check_draws, mc_expected
from .profit import (
    OptionContract,
    OrderPlan,
    chain_expected_profit,
    retailer_expected_profit,
    supplier_expected_profit,
)
from .sweep import (
    FIXED_PRICE,
    MODE_FIXED_EXERCISE,
    MODE_FIXED_PREMIUM,
    MODES,
    SweepScenario,
    TooFewRows,
    _default_k_grid,
    _format_cell,
    monotonicity_report,
    run_sweep,
    write_csv,
)


class _UsageError(Exception):
    """Command-line usage problem; maps to exit code 2 like config errors."""


def default_config_path() -> Path:
    """The packaged example scenario."""
    return Path(__file__).with_name("data") / "default_scenario.json"


def _emit(out, **values) -> None:
    """One key=value line per value, each value printed as a sweep cell is."""
    out.write("".join(f"{key}={_format_cell(value)}\n" for key, value in values.items()))


def _resolve(name: str, args, *sections, missing: str | None = None):
    """Config field ``name`` from the flag whose dest it is, else from the first config
    section that sets it; a usage error saying ``missing`` if none does."""
    for value in (getattr(args, name), *(getattr(s, name, None) for s in sections)):
        if value is not None:
            return value
    raise _UsageError(missing)


def _resolve_contract(config: ScenarioConfig, args) -> OptionContract:
    """The config's contract, checked when it loaded, unless a price flag overrides a price."""
    if config.contract is not None and args.c0 is None and args.ce is None:
        return config.contract
    missing = "no option contract available: provide --c0/--ce or a contract section in the config"
    return OptionContract(c0=_resolve("c0", args, config.contract, missing=missing),
                          ce=_resolve("ce", args, config.contract, missing=missing))


def _fixed_price(mode: str, args, where: str) -> str | None:
    """The price that ``mode`` holds fixed (``sweep.FIXED_PRICE``; None holds the whole
    contract), after a usage error if the flag of a price the mode does not read is given."""
    fixed = FIXED_PRICE[mode]
    for price in ("c0", "ce"):
        if fixed not in (None, price) and getattr(args, price) is not None:
            raise _UsageError(f"--{price} is not read {where}")
    return fixed


def cmd_optimize(config: ScenarioConfig, args, out) -> int:
    k = _resolve("overconfidence", args, config)
    contract, _ = _check_each((_resolve_contract, config, args), (_check_positive, "k", k))
    plan = optimal_plan(config.demand, config.market, contract, k)
    breakdown = retailer_expected_profit(config.demand, config.market, contract, k, plan)
    _emit(out, Q=plan.q_total, Q1=plan.q_spot, Qq=plan.q_option,
          retailer_profit=breakdown.total, **breakdown.terms)
    return 0


def cmd_evaluate(config: ScenarioConfig, args, out) -> int:
    k = _resolve("overconfidence", args, config)
    contract, _, plan = _check_each((_resolve_contract, config, args), (_check_positive, "k", k),
                                    (OrderPlan, args.q1, args.qq))
    believed = retailer_expected_profit(config.demand, config.market, contract, k, plan)
    true_view = retailer_expected_profit(config.demand, config.market, contract, 1.0, plan)
    supplier = supplier_expected_profit(config.demand, config.market, contract, plan)
    chain = chain_expected_profit(config.demand, config.market, plan.q_total)
    _emit(out, Q=plan.q_total, Q1=plan.q_spot, Qq=plan.q_option,
          retailer_profit_believed=believed.total, retailer_profit_true=true_view.total,
          supplier_profit=supplier, chain_profit=chain, **believed.terms)
    return 0


def cmd_coordinate(config: ScenarioConfig, args, out) -> int:
    k = _resolve("overconfidence", args, config)
    d, m = config.demand, config.market
    # Solving ce holds c0 fixed, as a fixed-premium sweep does; solving c0 holds ce fixed.
    if args.solve_exercise:
        _fixed_price(MODE_FIXED_PREMIUM, args, "by coordinate --solve-exercise, which solves it")
        c0 = _resolve("c0", args, config.contract,
                      missing="--solve-exercise needs --c0 or a contract section in the config")
        ce = coordinating_exercise_price(d, m, c0, k)
        _emit(out, ce=ce)
    else:
        _fixed_price(MODE_FIXED_EXERCISE, args, "by coordinate, which solves it")
        ce = _resolve("ce", args, config.contract,
                      missing="coordinate needs --ce or a contract section in the config")
        c0 = coordinating_premium(d, m, ce, k)
        _emit(out, c0=c0)
    report = check_feasibility(m, OptionContract(c0=c0, ce=ce), k)
    if not report.ok:
        print(f"note: coordinated contract leaves no valid plan at k={k:g}: "
              f"{';'.join(report.names())}", file=sys.stderr)
    return 0


def cmd_simulate(config: ScenarioConfig, args, out) -> int:
    d, m, k = config.demand, config.market, _resolve("overconfidence", args, config)
    n, seed = _resolve("samples", args, config.oracle), _resolve("seed", args, config.oracle)
    given = [(OrderPlan, args.q1, args.qq)] if None not in (args.q1, args.qq) else []
    contract, _, _, *plan = _check_each((_resolve_contract, config, args), (_check_positive, "k", k),
                                        (_check_draws, n, seed), *given)
    if (args.q1 is None) != (args.qq is None):
        raise _UsageError("provide both --q1 and --qq, or neither")
    plan = plan[0] if plan else optimal_plan(d, m, contract, k)

    if args.kind == "retailer":
        analytic = retailer_expected_profit(d, m, contract, k, plan).total
    elif args.kind == "supplier":
        analytic = supplier_expected_profit(d, m, contract, plan)
    else:
        analytic = chain_expected_profit(d, m, plan.q_total)
    estimate = mc_expected(args.kind, d, m, contract, k, plan, n, seed)
    distance = abs(estimate.mean - analytic) / estimate.stderr if estimate.stderr > 0 else 0.0

    _emit(out, kind=args.kind, n=estimate.n, seed=estimate.seed, analytic=float(analytic),
          mc_mean=estimate.mean, mc_stderr=estimate.stderr, sigma_distance=float(distance))
    if distance > 3.0:
        print(f"simulation check failed: |mc-analytic| = {distance:.2f} standard errors",
              file=sys.stderr)
        return 1
    return 0


def cmd_sweep(config: ScenarioConfig, args, out) -> int:
    mode = _resolve("mode", args, config.sweep,
                    missing="no sweep mode: provide --mode or a sweep section in the config")
    p = _fixed_price(mode, args, f"in {mode} mode")
    if p is None:
        fixed = {"contract": _resolve_contract(config, args)}
    else:
        missing = f"{mode} sweep needs --{p}, sweep.{p}, or a contract"
        fixed = {f"fixed_{p}": _resolve(p, args, config.sweep, config.contract, missing=missing)}
    # A config-supplied grid belongs to the mode the config declared; else the mode's default.
    k_grid = ((config.sweep.k_grid if config.sweep and config.sweep.mode == mode else None)
              or _default_k_grid(mode))
    rows = run_sweep(SweepScenario(mode, config.demand, config.market, k_grid, **fixed))
    if args.out is not None:
        try:
            with open(args.out, "w", encoding="utf-8", newline="") as fh:
                write_csv(rows, fh)
        except OSError as exc:  # a directory, a missing directory, no permission, a full disk
            raise _UsageError(f"cannot write --out {args.out}: {exc.strerror or exc}") from None
    else:
        write_csv(rows, out)
    try:
        report = monotonicity_report(rows)
        for line in report.describe().splitlines():
            print(f"monotonicity: {line}", file=sys.stderr)
    except TooFewRows as exc:
        print(f"monotonicity: skipped ({exc})", file=sys.stderr)
    return 0


@functools.cache  # built on first use, then reused: parse_args leaves the parser unchanged
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="freshopt",
        description="Spot/option order optimization for a fresh-product retailer.")
    parser.add_argument("--config", default=None,
                        help="scenario file (default: the packaged example scenario)")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_prices(p):
        p.add_argument("--c0", type=float, default=None, help="option premium override")
        p.add_argument("--ce", type=float, default=None, help="exercise price override")

    def add_common(p, plan_flags=False):
        p.add_argument("--k", dest="overconfidence", metavar="K", type=float, default=None,
                       help="overconfidence multiplier")
        add_prices(p)
        if plan_flags:
            p.add_argument("--q1", type=float, default=None, help="spot order quantity")
            p.add_argument("--qq", type=float, default=None, help="option order quantity")

    p = sub.add_parser("optimize", help="closed-form optimal plan and profit breakdown")
    add_common(p)

    p = sub.add_parser("evaluate", help="expected profits at a given plan")
    add_common(p)
    p.add_argument("--q1", type=float, required=True, help="spot order quantity")
    p.add_argument("--qq", type=float, required=True, help="option order quantity")

    p = sub.add_parser("coordinate", help="solve the channel-coordinating price")
    add_common(p)
    p.add_argument("--solve-exercise", action="store_true",
                   help="solve the exercise price at a fixed premium instead of the premium")

    p = sub.add_parser("simulate", help="Monte-Carlo check of an expected profit")
    add_common(p, plan_flags=True)
    p.add_argument("--kind", choices=MC_KINDS, required=True)
    p.add_argument("--n", dest="samples", metavar="N", type=int, default=None, help="sample count")
    p.add_argument("--seed", type=int, default=None, help="stream seed")

    p = sub.add_parser("sweep", help="overconfidence sweep as CSV")
    add_prices(p)
    p.add_argument("--mode", choices=MODES, default=None)
    p.add_argument("--out", default=None, help="CSV output path (default: stdout)")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    out = sys.stdout
    with warnings.catch_warnings():  # the process's filters come back on return
        # Every warning, on every call, as one line in the order raised, naming no source file.
        warnings.simplefilter("always")
        warnings.showwarning = lambda message, *_: print(f"warning: {message}", file=sys.stderr)
        try:
            config = load_config(args.config if args.config is not None else default_config_path())
            # Looked up at call time, so a rebound module-level cmd_* is the one that runs.
            return globals()[f"cmd_{args.command}"](config, args, out)
        except (ConfigError, _UsageError, InvalidValue) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        except Infeasible as exc:
            print(f"infeasible: {exc}", file=sys.stderr)
            return 1
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1


if __name__ == "__main__":
    sys.exit(main())
