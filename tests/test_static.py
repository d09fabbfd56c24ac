"""Static checks on the package source with the stdlib ``ast``: no module imports a name
it never uses, no private module-level function or class goes unreferenced, and no
module catches an error by a subclass of its family; the package's star-import surface;
and the rules of ``tools/line_count.py``."""
from __future__ import annotations

import ast
import importlib.util
import types
from pathlib import Path

import pytest

import freshopt

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "freshopt"
MODULES = sorted(PACKAGE.glob("*.py"))
TREES = {path.name: ast.parse(path.read_text(encoding="utf-8"), str(path)) for path in MODULES}


def _used_names(tree: ast.AST) -> set[str]:
    """Every name the module reads: bare names and attribute names."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
    return used


@pytest.mark.parametrize("name", [name for name in TREES if name != "__init__.py"])
def test_no_unused_import(name):
    # __init__ imports to re-export; a line marked "noqa: F401" re-exports on purpose.
    lines = (PACKAGE / name).read_text(encoding="utf-8").splitlines()
    used = _used_names(TREES[name])
    unused = []
    for node in ast.walk(TREES[name]):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        for alias in node.names:
            bound = alias.asname or alias.name.split(".")[0]
            if (bound != "annotations" and bound not in used
                    and "noqa: F401" not in lines[alias.lineno - 1]):
                unused.append(f"{bound} (line {alias.lineno})")
    assert unused == []


def test_no_unreferenced_private_definition():
    used = set().union(*map(_used_names, TREES.values()))
    dead = [f"{name}: {node.name}" for name, tree in TREES.items() for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and node.name.startswith("_") and not node.name.startswith("__")
            and node.name not in used]
    assert dead == []


def test_every_public_dataclass_has_a_docstring():
    # Without one, dataclass writes the generated signature into __doc__ and help() shows only that.
    bare = [f"{name}: {node.name}" for name, tree in TREES.items() for node in tree.body
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_")
            and any("dataclass" in ast.unparse(d) for d in node.decorator_list)
            and ast.get_docstring(node) is None]
    assert bare == []


def _caught_names(node: ast.AST) -> set[str]:
    """The names an except clause catches, or that an assigned tuple lists."""
    if isinstance(node, ast.ExceptHandler) and node.type is not None:
        target = node.type
    elif isinstance(node, ast.Assign) and isinstance(node.value, ast.Tuple):
        target = node.value
    else:
        return set()
    return {n.id for n in ast.walk(target) if isinstance(n, ast.Name)}


def test_errors_are_caught_by_family():
    # InvalidValue or Infeasible says the outcome, so no module lists a subclass to catch it.
    members = {"InfeasibleContract", "NonCoordinable", "NoRoot", "OutOfRange"}
    caught = [f"{name}: line {node.lineno}" for name, tree in TREES.items()
              for node in ast.walk(tree) if members & _caught_names(node)]
    assert caught == []


PUBLIC_NAMES = {
    "ConfigError", "ConfigNotFound", "ConfigParseError", "ConfigValidationError",
    "DemandDistribution", "Exponential", "FeasibilityReport", "GridSpec", "Infeasible",
    "InfeasibleContract", "InvalidValue", "MODES", "MarketParams", "McEstimate",
    "MonotonicityReport", "NoRoot", "NonCoordinable", "OptionContract", "OracleSettings",
    "OrderPlan", "OutOfRange", "ProfitBreakdown", "ScenarioConfig", "SweepRow", "SweepScenario",
    "SweepSettings", "TooFewRows", "TruncatedNormal", "Uniform", "Violation", "__version__",
    "chain_expected_profit", "check_feasibility", "coordinating_exercise_price",
    "coordinating_premium", "default_grid_spec", "default_k_grid", "grid_search_plan",
    "load_config", "make_distribution", "mc_expected", "monotonicity_report",
    "optimal_centralized", "optimal_plan", "parse_config", "realized_chain_profit",
    "realized_retailer_profit", "realized_supplier_profit", "retailer_expected_profit",
    "retailer_profit_gradient", "rows_to_csv", "run_sweep", "spot_fractile",
    "supplier_expected_profit", "supplier_profit_gap", "total_fractile", "write_csv",
}


def test_star_import_binds_the_public_names():
    namespace = {}
    exec("from freshopt import *", namespace)
    del namespace["__builtins__"]
    assert len(freshopt.__all__) == len(PUBLIC_NAMES) == 57
    assert set(freshopt.__all__) == set(namespace) == PUBLIC_NAMES


def test_all_holds_no_module_and_no_private_name():
    assert [name for name in freshopt.__all__
            if isinstance(getattr(freshopt, name), types.ModuleType)
            or (name.startswith("_") and name != "__version__")] == []


def _line_count():
    spec = importlib.util.spec_from_file_location("line_count", PACKAGE.parents[1] / "tools" / "line_count.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_line_count_skips_blank_comment_and_docstring_lines():
    source = '''"""Module docstring,
over two lines."""
import math  # a comment after code is code

# a comment-only line


class Box:
    """Class docstring."""

    size = """a string that is no docstring
    counts as code"""

    def area(self):
        """Function docstring."""
        return (self.size
                * 2)
'''
    # Code: the import, `class Box:`, both lines of `size`, `def area`, both lines of the return.
    assert _line_count().count_lines(source) == (17, 7)
