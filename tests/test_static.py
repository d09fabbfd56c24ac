"""Static checks on the package source with the stdlib ``ast``: no module imports a name
it never uses, no private module-level function or class goes unreferenced, and no
module catches an error by a subclass of its family; one site makes every thread; the
package's star-import surface; the rules of ``tools/line_count.py`` and
``tools/check_count.py``; and a ceiling on the input checks each CLI command makes."""
from __future__ import annotations

import ast
import importlib.util
import types
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import freshopt
from freshopt import demand, profit, sweep
from freshopt.profit import MarketParams, OptionContract, _Prices

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


def test_one_site_makes_threads():
    # Every thread the package starts is a demand._Helper's, so no call starts one of its own.
    sites = [(name, node.lineno) for name, tree in TREES.items() for node in ast.walk(tree)
             if isinstance(node, ast.Call) and _called_name(node) in ("Thread", "start_new_thread")]
    helper, = [node for node in TREES["demand.py"].body
               if isinstance(node, ast.ClassDef) and node.name == "_Helper"]
    assert len(sites) == 1 and sites[0][0] == "demand.py"
    assert helper.lineno < sites[0][1] <= helper.end_lineno


def _called_name(call: ast.Call) -> str | None:
    """The name a call's function is read by: ``f`` of ``f(...)`` and of ``mod.f(...)``."""
    func = call.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def _tool(name: str):
    spec = importlib.util.spec_from_file_location(name, PACKAGE.parents[1] / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _line_count():
    return _tool("line_count")


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


def test_check_count_keys_each_call_by_validator_field_and_values():
    tool = _tool("check_count")
    m = MarketParams(p=50.0, g=10.0, w0=25.0, c=15.0, beta=0.1, theta=0.8)
    originals = [getattr(module, name) for module in (demand, profit, sweep)
                 for name in tool.VALIDATORS if hasattr(module, name)]
    with tool.counting(Counter()) as seen:
        OptionContract(5.0, 35.0)
        OptionContract(5.0, 36.0)  # c0 again, a new ce
        sweep._check_k_grid((1.0, 2.0))  # two rules of one field: two keys
        profit._screens(m, _Prices(np.array([5.0, 6.0]), 35.0))
        profit.require_feasible_contract(m, OptionContract(5.0, 35.0))  # screens through profit
    market = "(50.0, 10.0, 25.0, 15.0, 0.1, 0.8)"
    assert seen == Counter({
        ("_check_positive", "c0", "5.0"): 3,
        ("_check_positive", "ce", "35.0"): 2,
        ("_check_positive", "ce", "36.0"): 1,
        ("_require", "k_grid", "'must not be empty'"): 1,
        ("_require", "k_grid", "'must be strictly increasing'"): 1,
        ("_check_positive", "k_grid[0]", "1.0"): 1,
        ("_check_positive", "k_grid[1]", "2.0"): 1,
        ("_screens", "contract", f"({market}, ((5.0, 6.0), 35.0))"): 1,
        ("_screens", "contract", f"({market}, (5.0, 35.0))"): 1,
    })
    # Every wrapped name is bound to its original again.
    assert [getattr(module, name) for module in (demand, profit, sweep)
            for name in tool.VALIDATORS if hasattr(module, name)] == originals
    assert tool.check_key("_require", ("mode", False, "must be one of {}, got {!r}", ("a",), "b")) \
        == ("_require", "mode", "('must be one of {}, got {!r}', ('a',), 'b')")
    assert tool.check_key("_require_finite", ("chain expected profit", np.array([1.5, np.inf]))) \
        == ("_require_finite", "chain expected profit", "(1.5, inf)")


# Checks per command on the shipped scenario, as tools/check_count.py counts them.  A new
# repeated check raises a total: lower a total when a check goes, raise one only on purpose.
CHECK_CEILINGS = {
    "optimize": 39, "evaluate": 49, "coordinate": 37, "coordinate --solve-exercise": 37,
    "simulate retailer": 51, "simulate supplier": 49, "simulate chain": 47,
    "sweep fixed-exercise-price": 45, "sweep fixed-premium": 49, "sweep fixed-contract": 46,
}


def test_no_command_makes_more_checks_than_recorded():
    tool = _tool("check_count")
    assert tool.COMMANDS.keys() == CHECK_CEILINGS.keys()
    totals = {label: sum(tool.count_checks(argv).values()) for label, argv in tool.COMMANDS.items()}
    assert {label: total for label, total in totals.items() if total > CHECK_CEILINGS[label]} == {}
