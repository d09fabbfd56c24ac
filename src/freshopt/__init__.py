"""Order-quantity decision support for fresh-product retailers.

Computes optimal spot/option order splits for a retailer whose demand
belief may be biased by an overconfidence multiplier, evaluates expected
profits for retailer, supplier, and the integrated chain, solves the
channel-coordinating option prices, and ships simulation and brute-force
oracles that verify every closed form independently.
"""
from .demand import (
    DemandDistribution,
    Exponential,
    InvalidValue,
    OutOfRange,
    TruncatedNormal,
    Uniform,
    make_distribution,
)
from .profit import (
    InfeasibleContract,
    MarketParams,
    OptionContract,
    OrderPlan,
    ProfitBreakdown,
    chain_expected_profit,
    realized_chain_profit,
    realized_retailer_profit,
    realized_supplier_profit,
    retailer_expected_profit,
    retailer_profit_gradient,
    spot_fractile,
    supplier_expected_profit,
    total_fractile,
)
from .optimizer import (
    FeasibilityReport,
    Infeasible,
    NoRoot,
    NonCoordinable,
    Violation,
    check_feasibility,
    coordinating_exercise_price,
    coordinating_premium,
    optimal_centralized,
    optimal_plan,
    supplier_profit_gap,
)
from .oracle import (
    GridSpec,
    McEstimate,
    default_grid_spec,
    grid_search_plan,
    mc_expected,
)
from .sweep import (
    MODES,
    MonotonicityReport,
    SweepRow,
    SweepScenario,
    TooFewRows,
    default_k_grid,
    monotonicity_report,
    rows_to_csv,
    run_sweep,
    write_csv,
)
from .config import (
    ConfigError,
    ConfigNotFound,
    ConfigParseError,
    ConfigValidationError,
    OracleSettings,
    ScenarioConfig,
    SweepSettings,
    load_config,
    parse_config,
)

__version__ = "0.1.0"

# Every public name bound above but the submodules, plus __version__: each export is written once.
__all__ = [name for name, value in globals().items()
           if not name.startswith("_") and not isinstance(value, type(demand))] + ["__version__"]
