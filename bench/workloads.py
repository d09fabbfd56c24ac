"""What each workload asks: shared by the harness and the worker.

Pure Python on purpose: the worker imports it, and the worker must load
nothing beyond what freshopt itself loads.
"""
from __future__ import annotations

WORKLOADS = ("cli-closed-form", "cli-truncnorm", "verify")

WORKLOAD_FAMILIES = {
    "cli-closed-form": ("uniform", "exponential"),
    "cli-truncnorm": ("truncated-normal",),
    "verify": ("uniform", "exponential", "truncated-normal"),
}

SWEEP_MODES = ("fixed-exercise-price", "fixed-premium", "fixed-contract")

# The seven CLI requests sent for every scenario, in order.
CLI_REQUESTS = ("optimize", "evaluate", "coordinate", "coordinate-exercise") + tuple(
    f"sweep-{mode}" for mode in SWEEP_MODES)

# The four oracle requests for every verify setup.  The Monte-Carlo ones
# come first so a setup's first request is cheap whatever its family.
VERIFY_REQUESTS = ("mc-retailer", "mc-supplier", "mc-chain", "grid")

# Oracle settings at freshopt's config defaults.
MC_DRAWS = 1_000_000
GRID_STEP = 0.05


def request_names(workload: str) -> tuple[str, ...]:
    return VERIFY_REQUESTS if workload == "verify" else CLI_REQUESTS


def request_keys(workload: str, pool_size: int) -> list[tuple[int, str]]:
    """(setup index, request name) for every request of one pass over the pool."""
    return [(i, name) for i in range(pool_size) for name in request_names(workload)]


def round_size(workload: str) -> int:
    """Requests in one round: every request on one setup of each family.

    A timed loop ends only at a round boundary, so every run sends the
    request kinds and families in the same proportions.
    """
    return len(WORKLOAD_FAMILIES[workload]) * len(request_names(workload))


def cli_argv(config_path: str, name: str, setup: dict) -> list[str]:
    """freshopt command line for one CLI request."""
    if name == "evaluate":
        q1, qq = setup["evaluate_plan"]
        args = ["evaluate", "--q1", repr(q1), "--qq", repr(qq)]
    elif name == "coordinate-exercise":
        args = ["coordinate", "--solve-exercise"]
    elif name.startswith("sweep-"):
        args = ["sweep", "--mode", name[len("sweep-"):]]
    else:
        args = [name]
    return ["--config", config_path] + args


def scenario_config(setup: dict) -> dict:
    """The scenario file the CLI reads for one setup."""
    return {
        "schema": 1,
        "demand": {"family": setup["family"], "params": setup["params"]},
        "market": setup["market"],
        "contract": setup["contract"],
        "overconfidence": setup["k"],
    }
