"""Import footprint: closed forms replace every numerical solver, only
truncated-normal sampling loads scipy at all, and the scalar commands
compute on floats without loading numpy."""
from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import freshopt

GOLDEN = Path(__file__).parent / "golden"


def _run(probe: str) -> str:
    src = str(Path(freshopt.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                            text=True, check=True)
    return result.stdout


_PRINT_SCIPY = "print(' '.join(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
# Submodules, not the name numpy: a deferred numpy sits in sys.modules before its code runs.
_PRINT_FOOTPRINT = ("print(any(m.startswith('numpy.') for m in sys.modules), "
                    "*(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))")


def _scipy_modules_after(statement: str) -> set[str]:
    """Names of the scipy modules loaded in a fresh interpreter after running statement."""
    return set(_run(f"import contextlib, io, sys\n{statement}\n{_PRINT_SCIPY}").split())


def _argv(config: Path | None, *args: str) -> tuple[str, ...]:
    return (() if config is None else ("--config", str(config))) + args


def _cli(config: Path | None, *args: str) -> str:
    return ("from freshopt import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()), "
            "contextlib.redirect_stderr(io.StringIO()):\n"
            f"    assert cli.main({list(_argv(config, *args))!r}) == 0")


FAMILIES = {"packaged-uniform": None, "exponential": GOLDEN / "exponential.json"}
ALL_FAMILIES = {**FAMILIES, "truncated-normal": GOLDEN / "truncated-normal.json"}
SCALAR_COMMANDS = [
    ("optimize",),
    ("evaluate", "--q1", "30", "--qq", "20"),
    ("coordinate",),
    ("coordinate", "--solve-exercise"),
]
SWEEP_COMMANDS = [
    ("sweep", "--mode", "fixed-exercise-price", "--ce", "30"),
    ("sweep", "--mode", "fixed-premium", "--c0", "5"),
    ("sweep", "--mode", "fixed-contract"),
]
TRUNCATED_NORMAL_COMMANDS = SCALAR_COMMANDS + SWEEP_COMMANDS
SCALAR_RUNS = [_argv(config, *args) for config in ALL_FAMILIES.values() for args in SCALAR_COMMANDS]
# Every scalar run before any sweep, as loading only adds modules.
CLOSED_FORM_RUNS = SCALAR_RUNS + [_argv(ALL_FAMILIES["truncated-normal"], *args)
                                  for args in SWEEP_COMMANDS]
_IMPORTS = ("import freshopt, freshopt.cli\n"
            "from freshopt import demand, optimizer, oracle, profit, sweep, config")


def _ids(args):
    return "-".join(a.lstrip("-") for a in args if not a[0].isdigit())


@pytest.fixture(scope="module")
def footprint() -> dict[tuple[str, ...], tuple[bool, set[str]]]:
    """Whether any numpy submodule is loaded, and the scipy modules loaded, in one fresh
    interpreter after importing freshopt and its modules (key ()), then after each of
    CLOSED_FORM_RUNS in turn (key: its argv).  Loading only adds modules, so nothing
    loaded after a run shows that no run up to it loaded it."""
    probe = ("import contextlib, io, sys\n"
             f"{_IMPORTS}\n"
             f"{_PRINT_FOOTPRINT}\n"
             f"for argv in {CLOSED_FORM_RUNS!r}:\n"
             "    with contextlib.redirect_stdout(io.StringIO()), "
             "contextlib.redirect_stderr(io.StringIO()):\n"
             "        assert freshopt.cli.main(list(argv)) == 0\n"
             f"    {_PRINT_FOOTPRINT}")
    lines = _run(probe).splitlines()
    assert len(lines) == 1 + len(CLOSED_FORM_RUNS)
    return {run: (numpy == "True", set(scipy))
            for run, (numpy, *scipy) in zip([(), *CLOSED_FORM_RUNS], map(str.split, lines))}


@pytest.fixture(scope="module")
def scipy_after(footprint) -> dict[tuple[str, ...], set[str]]:
    return {run: scipy for run, (_, scipy) in footprint.items()}


def test_no_solver_submodules_loaded(scipy_after):
    assert not {"scipy.integrate", "scipy.optimize"} & scipy_after[()]


def test_import_loads_no_scipy(scipy_after):
    assert scipy_after[()] == set()


@pytest.mark.parametrize("config", FAMILIES.values(), ids=FAMILIES)
def test_closed_form_families_load_no_scipy(scipy_after, config):
    assert scipy_after[_argv(config, "optimize")] == set()


@pytest.mark.parametrize("args", TRUNCATED_NORMAL_COMMANDS, ids=_ids)
def test_truncated_normal_closed_forms_load_no_scipy(scipy_after, args):
    assert scipy_after[_argv(GOLDEN / "truncated-normal.json", *args)] == set()


def test_import_loads_no_numpy(footprint):
    numpy_loaded, _ = footprint[()]
    assert not numpy_loaded


@pytest.mark.parametrize("config", ALL_FAMILIES.values(), ids=ALL_FAMILIES)
@pytest.mark.parametrize("args", SCALAR_COMMANDS, ids=_ids)
def test_scalar_commands_load_no_numpy(footprint, config, args):
    numpy_loaded, _ = footprint[_argv(config, *args)]
    assert not numpy_loaded


def test_sweep_loads_numpy(footprint):
    # The probe sees numpy once an array exists: the first sweep builds its k column.
    numpy_loaded, _ = footprint[_argv(ALL_FAMILIES["truncated-normal"], *SWEEP_COMMANDS[0])]
    assert numpy_loaded


def test_truncated_normal_loads_only_special():
    # Sampling maps blocks of draws through scipy.special.ndtri; nothing else loads scipy.
    loaded = _scipy_modules_after(_cli(GOLDEN / "truncated-normal.json",
                                       "simulate", "--kind", "retailer", "--n", "1000"))
    assert "scipy.special" in loaded
    assert not {"scipy.integrate", "scipy.optimize"} & loaded
