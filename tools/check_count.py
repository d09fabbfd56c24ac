"""Count the input checks each CLI command makes on the shipped scenario, and the repeats.

Runs every command in process, each with the package's caches cleared and its
validators (``_check_positive``, ``_check_nonnegative``, ``_require``,
``_require_finite`` and ``_screens``) wrapped in every module that imports them and
restored afterwards.  Each call is keyed by its validator, its field and the values it
reads: a ``_require`` by its rule too, and ``_screens`` (field ``contract``) by the
market and the prices.  Two inputs with one field name and value share a key (a config's
``contract.ce`` and ``sweep.ce``), as do two values under a ``_require`` rule that
formats none (``k_grid must not be empty``).  For each command it prints the total,
then every key seen more than once, with its count.

Usage: python3 tools/check_count.py [SRC_DIR]   (default: src, beside this directory)
"""
from __future__ import annotations

import contextlib
import dataclasses
import io
import sys
from collections import Counter
from pathlib import Path

VALIDATORS = ("_check_positive", "_check_nonnegative", "_require", "_require_finite", "_screens")

COMMANDS = {
    "optimize": ["optimize"],
    "evaluate": ["evaluate", "--q1", "38", "--qq", "33"],
    "coordinate": ["coordinate"],
    "coordinate --solve-exercise": ["coordinate", "--solve-exercise"],
    **{f"simulate {kind}": ["simulate", "--kind", kind, "--n", "1000"]
       for kind in ("retailer", "supplier", "chain")},
    **{f"sweep {mode}": ["sweep", "--mode", mode]
       for mode in ("fixed-exercise-price", "fixed-premium", "fixed-contract")},
}


def _plain(value):
    """value as nested tuples of Python scalars: arrays, tuples and dataclasses by entry."""
    if dataclasses.is_dataclass(value):
        value = dataclasses.astuple(value)
    if hasattr(value, "tolist"):  # an array or a numpy scalar
        value = value.tolist()
    return tuple(map(_plain, value)) if isinstance(value, (tuple, list)) else value


def check_key(validator: str, args: tuple) -> tuple[str, str, str]:
    """(validator, field, the values it reads as text) of one call ``validator(*args)``."""
    if validator == "_screens":
        return validator, "contract", repr(_plain(args))
    field, *values = args
    if validator == "_require":
        values = values[1:]  # the rule and its values; whether it holds follows from them
    return validator, field, repr(_plain(values[0] if len(values) == 1 else values))


def _package_modules() -> list:
    """freshopt and every module of it that is loaded."""
    return [module for name, module in sorted(sys.modules.items())
            if name == "freshopt" or name.startswith("freshopt.")]


@contextlib.contextmanager
def counting(seen: Counter):
    """Count every validator call into ``seen`` by its check_key while the block runs."""
    from freshopt import profit  # defines or imports all five
    originals = {name: getattr(profit, name) for name in VALIDATORS}

    def counted(name, check):
        def call(*args):
            seen[check_key(name, args)] += 1
            return check(*args)
        return call

    wrappers = {name: counted(name, check) for name, check in originals.items()}
    patched = [(module, name) for module in _package_modules() for name, check in originals.items()
               if getattr(module, name, None) is check]
    for module, name in patched:
        setattr(module, name, wrappers[name])
    try:
        yield seen
    finally:
        for module, name in patched:
            setattr(module, name, originals[name])


def count_checks(argv: list[str]) -> Counter:
    """The checks of one in-process ``freshopt.cli.main(argv)`` with every package cache
    cleared first (the parsed scenario, the default k grids), by check_key; its output
    is discarded.  A command that does not exit 0 raises RuntimeError: it stopped early,
    so its count is not the count of an answer."""
    from freshopt import cli
    for module in _package_modules():
        for value in list(vars(module).values()):
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()
    with counting(Counter()) as seen, contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        status = cli.main(argv)
    if status != 0:
        raise RuntimeError(f"freshopt {' '.join(argv)} exited {status}")
    return seen


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(Path(argv[0] if argv else Path(__file__).resolve().parents[1] / "src")))
    for label, command in COMMANDS.items():
        seen = count_checks(command)
        print(f"{label}: {sum(seen.values())} checks")
        for (validator, field, values), count in seen.items():
            if count > 1:
                print(f"  {count}x {validator} {field} {values}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
