"""Import footprint: closed forms replace every numerical solver, and only
truncated-normal sampling loads scipy at all."""
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
TRUNCATED_NORMAL_COMMANDS = [
    ("optimize",),
    ("evaluate", "--q1", "30", "--qq", "20"),
    ("coordinate",),
    ("coordinate", "--solve-exercise"),
    ("sweep", "--mode", "fixed-exercise-price", "--ce", "30"),
    ("sweep", "--mode", "fixed-premium", "--c0", "5"),
    ("sweep", "--mode", "fixed-contract"),
]
CLOSED_FORM_RUNS = ([_argv(config, "optimize") for config in FAMILIES.values()]
                    + [_argv(GOLDEN / "truncated-normal.json", *args)
                       for args in TRUNCATED_NORMAL_COMMANDS])


@pytest.fixture(scope="module")
def scipy_after() -> dict[tuple[str, ...], set[str]]:
    """The scipy modules loaded in one fresh interpreter after importing freshopt and
    freshopt.cli (key ()), then after each of CLOSED_FORM_RUNS in turn (key: its argv).
    Loading only adds modules, so an empty set after a run shows that no run up to it
    loaded scipy."""
    probe = ("import contextlib, io, sys\n"
             "import freshopt, freshopt.cli\n"
             f"{_PRINT_SCIPY}\n"
             f"for argv in {CLOSED_FORM_RUNS!r}:\n"
             "    with contextlib.redirect_stdout(io.StringIO()), "
             "contextlib.redirect_stderr(io.StringIO()):\n"
             "        assert freshopt.cli.main(list(argv)) == 0\n"
             f"    {_PRINT_SCIPY}")
    lines = _run(probe).splitlines()
    assert len(lines) == 1 + len(CLOSED_FORM_RUNS)
    return {run: set(line.split()) for run, line in zip([(), *CLOSED_FORM_RUNS], lines)}


def test_no_solver_submodules_loaded(scipy_after):
    assert not {"scipy.integrate", "scipy.optimize"} & scipy_after[()]


def test_import_loads_no_scipy(scipy_after):
    assert scipy_after[()] == set()


@pytest.mark.parametrize("config", FAMILIES.values(), ids=FAMILIES)
def test_closed_form_families_load_no_scipy(scipy_after, config):
    assert scipy_after[_argv(config, "optimize")] == set()


@pytest.mark.parametrize("args", TRUNCATED_NORMAL_COMMANDS,
                         ids=lambda args: "-".join(a.lstrip("-") for a in args if not a[0].isdigit()))
def test_truncated_normal_closed_forms_load_no_scipy(scipy_after, args):
    assert scipy_after[_argv(GOLDEN / "truncated-normal.json", *args)] == set()


def test_truncated_normal_loads_only_special():
    # Sampling maps blocks of draws through scipy.special.ndtri; nothing else loads scipy.
    loaded = _scipy_modules_after(_cli(GOLDEN / "truncated-normal.json",
                                       "simulate", "--kind", "retailer", "--n", "1000"))
    assert "scipy.special" in loaded
    assert not {"scipy.integrate", "scipy.optimize"} & loaded
