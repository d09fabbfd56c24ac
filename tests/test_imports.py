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
    return result.stdout.strip()


def _scipy_modules_after(statement: str) -> set[str]:
    """Names of the scipy modules loaded in a fresh interpreter after running statement."""
    probe = ("import contextlib, io, sys\n"
             f"{statement}\n"
             "print(' '.join(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))")
    return set(_run(probe).split())


def _cli(config: Path | None, *args: str) -> str:
    argv = ([] if config is None else ["--config", str(config)]) + list(args)
    return ("from freshopt import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()), "
            "contextlib.redirect_stderr(io.StringIO()):\n"
            f"    assert cli.main({argv!r}) == 0")


def test_no_solver_submodules_loaded():
    probe = ("import sys, freshopt, freshopt.cli; "
             "print(sorted({'scipy.integrate', 'scipy.optimize'} & set(sys.modules)))")
    assert _run(probe) == "[]"


def test_import_loads_no_scipy():
    assert _scipy_modules_after("import freshopt, freshopt.cli") == set()


@pytest.mark.parametrize("config", [None, GOLDEN / "exponential.json"],
                         ids=["packaged-uniform", "exponential"])
def test_closed_form_families_load_no_scipy(config):
    assert _scipy_modules_after(_cli(config, "optimize")) == set()


@pytest.mark.parametrize("args", [
    ("optimize",),
    ("evaluate", "--q1", "30", "--qq", "20"),
    ("coordinate",),
    ("coordinate", "--solve-exercise"),
    ("sweep", "--mode", "fixed-exercise-price", "--ce", "30"),
    ("sweep", "--mode", "fixed-premium", "--c0", "5"),
    ("sweep", "--mode", "fixed-contract"),
], ids=lambda args: "-".join(a.lstrip("-") for a in args if not a[0].isdigit()))
def test_truncated_normal_closed_forms_load_no_scipy(args):
    assert _scipy_modules_after(_cli(GOLDEN / "truncated-normal.json", *args)) == set()


def test_truncated_normal_loads_only_special():
    # Sampling maps blocks of draws through scipy.special.ndtri; nothing else loads scipy.
    loaded = _scipy_modules_after(_cli(GOLDEN / "truncated-normal.json",
                                       "simulate", "--kind", "retailer", "--n", "1000"))
    assert "scipy.special" in loaded
    assert not {"scipy.integrate", "scipy.optimize"} & loaded
