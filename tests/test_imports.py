"""Import footprint: closed forms replace every numerical solver, only
truncated-normal sampling loads scipy at all, and the scalar commands
compute on floats without loading numpy."""
from __future__ import annotations

import os
import subprocess
import sys
import sysconfig
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


# Submodules, not the name numpy: a deferred numpy sits in sys.modules before its code runs.
# Then whether as many threads run as before freshopt was imported, and the scipy and
# concurrent modules loaded.
_PRINT_FOOTPRINT = ("print(any(m.startswith('numpy.') for m in sys.modules), "
                    "threading.active_count() == threads, "
                    "*(m for m in sys.modules if m.split('.')[0] in ('scipy', 'concurrent')))")


def _argv(config: Path | None, *args: str) -> tuple[str, ...]:
    return (() if config is None else ("--config", str(config))) + args


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
# Three chunks, two of them large enough to split ndtri over a helper thread; the same
# draws of uniform demand, whose Monte-Carlo helper must load no more than the closed forms.
SIMULATE_RUN = _argv(ALL_FAMILIES["truncated-normal"], "simulate", "--kind", "retailer",
                     "--n", str(2 * 131_072 + 3))
UNIFORM_SIMULATE_RUN = _argv(None, *SIMULATE_RUN[2:])
RUNS = CLOSED_FORM_RUNS + [UNIFORM_SIMULATE_RUN, SIMULATE_RUN]
_IMPORTS = ("import freshopt, freshopt.cli\n"
            "from freshopt import demand, optimizer, oracle, profit, sweep, config")


def _ids(args):
    return "-".join(a.lstrip("-") for a in args if not a[0].isdigit())


@pytest.fixture(scope="module")
def footprint() -> dict[tuple[str, ...], tuple[bool, bool, set[str]]]:
    """Whether any numpy submodule is loaded, whether the thread count is back where it
    was before the import, and the scipy and concurrent modules loaded, in one fresh
    interpreter after importing freshopt and its modules (key ()), then after each of
    RUNS in turn (key: its argv).  Loading only adds modules, so nothing loaded after a
    run shows that no run up to it loaded it."""
    probe = ("import contextlib, io, sys, threading\n"
             "threads = threading.active_count()\n"
             f"{_IMPORTS}\n"
             f"{_PRINT_FOOTPRINT}\n"
             f"for argv in {RUNS!r}:\n"
             "    with contextlib.redirect_stdout(io.StringIO()), "
             "contextlib.redirect_stderr(io.StringIO()):\n"
             "        assert freshopt.cli.main(list(argv)) == 0\n"
             f"    {_PRINT_FOOTPRINT}")
    lines = _run(probe).splitlines()
    assert len(lines) == 1 + len(RUNS)
    return {run: (numpy == "True", threads == "True", set(modules))
            for run, (numpy, threads, *modules) in zip([(), *RUNS], map(str.split, lines))}


@pytest.fixture(scope="module")
def scipy_after(footprint) -> dict[tuple[str, ...], set[str]]:
    return {run: {m for m in modules if m.split(".")[0] == "scipy"}
            for run, (_, _, modules) in footprint.items()}


@pytest.fixture(scope="module")
def concurrent_after(footprint) -> dict[tuple[str, ...], set[str]]:
    return {run: {m for m in modules if m.split(".")[0] == "concurrent"}
            for run, (_, _, modules) in footprint.items()}


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
    numpy_loaded, _, _ = footprint[()]
    assert not numpy_loaded


@pytest.mark.parametrize("config", ALL_FAMILIES.values(), ids=ALL_FAMILIES)
@pytest.mark.parametrize("args", SCALAR_COMMANDS, ids=_ids)
def test_scalar_commands_load_no_numpy(footprint, config, args):
    numpy_loaded, _, _ = footprint[_argv(config, *args)]
    assert not numpy_loaded


def test_sweep_loads_numpy(footprint):
    # The probe sees numpy once an array exists: the first sweep builds its k column.
    numpy_loaded, _, _ = footprint[_argv(ALL_FAMILIES["truncated-normal"], *SWEEP_COMMANDS[0])]
    assert numpy_loaded


def test_truncated_normal_loads_only_special(scipy_after):
    # Sampling maps chunks of draws through scipy.special.ndtri; nothing else loads scipy.
    loaded = scipy_after[SIMULATE_RUN]
    assert "scipy.special" in loaded
    assert not {"scipy.integrate", "scipy.optimize"} & loaded


def test_no_thread_outlives_a_run(footprint):
    # Truncated-normal sampling joins its ndtri helper thread before it returns.
    assert all(threads_back for _, threads_back, _ in footprint.values())


def test_no_executor_loaded(concurrent_after):
    # concurrent.futures costs about 8.5 ms and pulls in logging; freshopt's helper threads
    # are its own (demand._Helper), so uniform Monte-Carlo loads none of it.  numpy.testing,
    # which scipy loads, imports concurrent.futures, but no executor module (thread,
    # process) loads with it.
    assert all(not loaded for run, loaded in concurrent_after.items() if run != SIMULATE_RUN)
    executors = {"concurrent.futures.thread", "concurrent.futures.process"}
    assert not executors & concurrent_after[SIMULATE_RUN]


def test_cli_import_loads_no_importlib_resources():
    # -S: no site module, so no .pth file can load it first; site-packages stays importable.
    src = str(Path(freshopt.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, sysconfig.get_paths()["purelib"]]))
    probe = "import sys, freshopt.cli; print('importlib.resources' in sys.modules)"
    result = subprocess.run([sys.executable, "-S", "-c", probe], env=env, capture_output=True,
                            text=True, check=True)
    assert result.stdout == "False\n"
