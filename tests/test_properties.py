"""Property tests: any number in a config or on a flag ends in a finite result or a typed error."""
from __future__ import annotations

import contextlib
import io
import json
import math

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from freshopt import ConfigValidationError, parse_config  # noqa: E402
from freshopt.cli import default_config_path, main  # noqa: E402

# Fixed examples keep the suite deterministic and its wall time small.
CHECKS = settings(max_examples=100, deadline=None, derandomize=True, database=None)

NUMBERS = st.one_of(
    st.sampled_from([0.0, -0.0, -1.0, 1e-300, 5e-324, 1e308, -1e308,
                     math.nan, math.inf, -math.inf]),
    st.floats(),
)

# Every numeric field of the shipped scenario.
FIELDS = [
    ("demand", "params", "lo"), ("demand", "params", "hi"),
    *[("market", name) for name in ("p", "g", "w0", "c", "beta", "theta")],
    ("contract", "c0"), ("contract", "ce"), ("overconfidence",),
    ("oracle", "samples"), ("oracle", "seed"), ("oracle", "grid_step"),
    ("sweep", "ce"), *[("sweep", "k_grid", name) for name in ("start", "stop", "step")],
]


@CHECKS
@given(st.dictionaries(st.sampled_from(FIELDS), NUMBERS, min_size=1, max_size=3))
def test_config_parses_or_reports(changes):
    raw = json.loads(default_config_path().read_text(encoding="utf-8"))
    for (*parents, key), value in changes.items():
        section = raw
        for name in parents:
            section = section[name]
        section[key] = value
    try:
        parse_config(raw)
    except ConfigValidationError:
        pass


COMMANDS = [
    ["optimize"],
    ["evaluate"],
    ["coordinate"],
    ["coordinate", "--solve-exercise"],
    *[["simulate", "--kind", kind, "--n", "1000"] for kind in ("retailer", "supplier", "chain")],
]


@CHECKS
@given(st.sampled_from(COMMANDS),
       st.dictionaries(st.sampled_from(["--k", "--c0", "--ce", "--q1", "--qq"]), NUMBERS))
def test_cli_exits_zero_one_or_two(command, flags):
    if command == ["evaluate"]:
        flags = {"--q1": 10.0, "--qq": 10.0, **flags}
    elif command[0] != "simulate":
        flags = {f: v for f, v in flags.items() if f not in ("--q1", "--qq")}
    # "--k=-inf" keeps argparse from reading a negative value as an option.
    argv = command + [f"{flag}={value!r}" for flag, value in flags.items()]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2), argv
    # A result is finite: an overflow ends in a typed error instead.
    if code == 0:
        assert "nan" not in stdout.getvalue() and "inf" not in stdout.getvalue(), argv
