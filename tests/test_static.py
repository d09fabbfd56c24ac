"""Static checks on the package source with the stdlib ``ast``: no module imports a name
it never uses, and no private module-level function or class goes unreferenced; and the
package's star-import surface."""
from __future__ import annotations

import ast
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
