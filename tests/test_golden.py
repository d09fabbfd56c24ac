"""Golden CLI outputs: exit code, stdout and stderr of fixed requests, byte for byte.

``golden/cli.json`` holds what ``cli.main`` printed for every case in
``CASES``: the README examples on the packaged scenario, every command on
one scenario file per demand family, and a few requests that must exit 1
or 2.  These outputs hold behaviour fixed while code is rewritten.  After
a deliberate output change, rewrite the file with ``record()``::

    PYTHONPATH=src python -c "import sys; sys.path.insert(0, 'tests'); import test_golden; test_golden.record()"
"""
from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

import pytest

from freshopt.cli import main

GOLDEN_DIR = Path(__file__).parent / "golden"
GOLDEN_FILE = GOLDEN_DIR / "cli.json"

_README = {
    "readme-optimize": ["optimize", "--c0", "5", "--ce", "35", "--k", "1"],
    "readme-evaluate": ["evaluate", "--q1", "38.095238", "--qq", "33.015873"],
    "readme-coordinate": ["coordinate", "--ce", "35", "--k", "1"],
    "readme-coordinate-exercise": ["coordinate", "--solve-exercise", "--c0", "5", "--k", "1"],
    "readme-simulate": ["simulate", "--kind", "retailer", "--n", "1000000", "--seed", "42"],
    "readme-sweep": ["sweep", "--mode", "fixed-premium"],
}

_PER_FAMILY = {
    "optimize": ["optimize"],
    "evaluate": ["evaluate", "--q1", "40", "--qq", "30"],
    "coordinate": ["coordinate"],
    "coordinate-exercise": ["coordinate", "--solve-exercise"],
    **{f"sweep-{mode}": ["sweep", "--mode", mode]
       for mode in ("fixed-exercise-price", "fixed-premium", "fixed-contract")},
    **{f"simulate-{kind}": ["simulate", "--kind", kind, "--n", "20000", "--seed", "5"]
       for kind in ("retailer", "supplier", "chain")},
}

_FAILURES = {
    "exit1-optimize-premium-too-high": ["optimize", "--c0", "40"],
    "exit1-coordinate-exercise-no-root": ["coordinate", "--solve-exercise", "--c0", "5",
                                          "--k", "0.5"],
    "exit1-coordinate-no-margin": ["coordinate", "--ce", "70"],
    "exit2-k-nan": ["optimize", "--k", "nan"],
    "exit2-negative-quantity": ["evaluate", "--q1", "-1", "--qq", "1"],
    "exit2-zero-samples": ["simulate", "--kind", "chain", "--n", "0"],
    "exit2-half-a-plan": ["simulate", "--kind", "retailer", "--q1", "10"],
}

# Sweeps flagged at every k, or below k = 13/12 for a premium of 20: each note is a screen's text.
_ALL_FLAGGED = {
    "sweep-flagged-fixed-contract": ["sweep", "--mode", "fixed-contract", "--c0", "40"],
    "sweep-flagged-fixed-premium": ["sweep", "--mode", "fixed-premium", "--c0", "20"],
    "sweep-flagged-fixed-exercise-price": ["sweep", "--mode", "fixed-exercise-price", "--ce", "70"],
}

# name -> (scenario file under golden/, or None for the packaged one; argv)
CASES: dict[str, tuple[str | None, list[str]]] = {
    **{name: (None, argv) for name, argv in _README.items()},
    **{f"{family}-{name}": (f"{family}.json", argv)
       for family in ("uniform", "exponential", "truncated-normal")
       for name, argv in _PER_FAMILY.items()},
    **{name: (None, argv) for name, argv in _FAILURES.items()},
    **{name: (None, argv) for name, argv in _ALL_FLAGGED.items()},
    "exit2-invalid-config": ("invalid.json", ["optimize"]),
    "warning-coordinate-zero-cost": ("zero-cost.json", ["coordinate"]),
}


def run_case(config: str | None, argv: list[str]) -> dict:
    """Exit code, stdout and stderr of one ``cli.main`` call."""
    full = (["--config", str(GOLDEN_DIR / config)] if config else []) + argv
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(full)
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def record() -> None:
    """Rewrite the golden file from the current code."""
    golden = {name: run_case(config, argv) for name, (config, argv) in CASES.items()}
    GOLDEN_FILE.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8")


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN_FILE.read_text(encoding="utf-8"))


def test_every_case_is_recorded(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden(golden, name):
    config, argv = CASES[name]
    assert run_case(config, argv) == golden[name]
