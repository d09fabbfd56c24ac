"""Seeded scenario pools for the benchmark workloads.

Setups use the ranges and the rejection rules of ``random_feasible_setup``
in ``tests/conftest.py`` (re-implemented on top of the independent
reference, so the generator shares no code with freshopt).  Instead of
independent draws, each family's setups come in Latin-hypercube blocks
of ``BLOCK``: within a block every parameter has exactly one draw in each
of ``BLOCK`` equal slices of its range.  Every seed's pool then covers
the ranges evenly, so the work in a run, and with it the run-to-run
spread of the timings, depends less on the seed.  About 1% of draws are
rejected (optimal profit below 50), which leaves the blocks nearly whole.

Each setup also gets an off-optimum plan for ``evaluate`` and a
Monte-Carlo stream seed for ``verify``.
"""
from __future__ import annotations

import numpy as np

import reference as ref
from workloads import WORKLOAD_FAMILIES

BLOCK = 8
_DRAWS = 11  # uniforms behind one candidate setup


def _lerp(u: float, lo: float, hi: float) -> float:
    return float(lo + (hi - lo) * u)


def setup_from_uniforms(u: np.ndarray, family: str) -> dict | None:
    """The setup that ``random_feasible_setup`` would build from these draws, or None if rejected."""
    p, g = _lerp(u[0], 40.0, 80.0), _lerp(u[1], 0.0, 15.0)
    theta, beta = _lerp(u[2], 0.6, 1.0), _lerp(u[3], 0.05, 0.25)
    ce = _lerp(u[4], 0.35, 0.6) * (p + g)
    c0 = _lerp(u[5], 0.08, 0.3) * (p + g - ce)
    w0 = c0 + _lerp(u[6], 0.3, 0.85) * ce
    c = _lerp(u[7], 0.25, 0.7) * w0 * (1.0 - beta)
    k = _lerp(u[8], 0.7, 1.35)
    if family == "uniform":
        lo = _lerp(u[9], 0.0, 20.0)
        params = {"lo": lo, "hi": lo + _lerp(u[10], 60.0, 140.0)}
    elif family == "exponential":
        params = {"rate": _lerp(u[9], 0.025, 0.06)}
    else:
        params = {"mu": _lerp(u[9], 30.0, 80.0), "sigma": _lerp(u[10], 10.0, 30.0)}
    # The market and contract constructors' own preconditions.
    if not (p > w0 > c >= 0.0 and c0 > 0.0 and ce > 0.0):
        return None
    m = ref.Market(p=p, g=g, w0=w0, c=c, beta=beta, theta=theta)
    if ref.violations(m, c0, ce, k):
        return None
    d = ref.Demand(family, params)
    plan = ref.optimal_plan(d, m, c0, ce, k)
    if sum(ref.retailer_terms(d, m, c0, ce, k, *plan).values()) < 50.0:
        return None
    return {"family": family, "params": params,
            "market": {"p": p, "g": g, "w0": w0, "c": c, "beta": beta, "theta": theta},
            "contract": {"c0": c0, "ce": ce}, "k": k, "plan": plan}


def latin_hypercube(rng: np.random.Generator, size: int, dims: int) -> np.ndarray:
    """``size`` points in [0, 1)^dims, one per slice of width 1/size in every dimension."""
    slices = rng.permuted(np.tile(np.arange(size), (dims, 1)), axis=1).T
    return (slices + rng.random((size, dims))) / size


def make_pool(workload: str, seed: int, size: int) -> list[dict]:
    """``size`` setups for ``workload``; the same seed gives the same pool."""
    families = WORKLOAD_FAMILIES[workload]
    rng = np.random.default_rng([seed] + [ord(ch) for ch in workload])
    accepted: dict[str, list[dict]] = {f: [] for f in families}
    pool = []
    for i in range(size):
        family = families[i % len(families)]
        while not accepted[family]:
            for u in latin_hypercube(rng, BLOCK, _DRAWS):
                setup = setup_from_uniforms(u, family)
                if setup is not None:
                    accepted[family].append(setup)
        pool.append(accepted[family].pop(0))
    for setup in pool:
        q_spot, q_option = setup.pop("plan")
        # evaluate asks about a plan off the optimum; 6 decimals keep the flag text exact.
        setup["evaluate_plan"] = [round(q_spot * float(rng.uniform(0.5, 1.5)), 6),
                                  round(q_option * float(rng.uniform(0.5, 1.5)), 6)]
        setup["mc_seed"] = int(rng.integers(0, 2**31))
    return pool
