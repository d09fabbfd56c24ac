"""Runtime tracer for freshopt's public functions, installed from outside.

``Tracer.installed()`` wraps every public function of freshopt's modules
and the ``DemandDistribution`` methods, and rebinds every name that
refers to one of them in any freshopt module (``sweep.optimal_plan``,
``cli.run_sweep``, ``freshopt.optimal_plan`` ...), so no call bypasses
it.  Leaving the ``with`` block restores the originals.  Untraced runs
never import this module.

Each wrapped call is a span; its self time is its duration minus the
durations of the wrapped calls nested directly inside it.  Calls into
the ``demand`` layer are too frequent to keep one by one (a single grid
search makes about 170 k ``cdf`` calls), so they are kept only as
per-request aggregates: calls, points or draws, and self time.  Every
other call is also kept as a span (request, id, parent id, name, start,
end) for ``export``.
"""
from __future__ import annotations

import contextlib
import functools
import inspect
import math
import sys
import time

import numpy as np

from freshopt import cli, config, demand, optimizer, oracle, profit, sweep

MODULES = (demand, profit, optimizer, oracle, sweep, config, cli)
DEMAND_METHODS = ("cdf", "quantile", "cdf_integral", "sample", "mean")
DEMAND_CLASSES = (demand.DemandDistribution, demand.Uniform, demand.Exponential,
                  demand.TruncatedNormal)


def _lattice_size(bounds: tuple[float, float], step: float) -> int:
    # Points on [lo, hi] at the given step, as the GridSpec docstring defines the box.
    lo, hi = bounds
    return int(math.floor((hi - lo) / step + 1e-9)) + 1


def _units(name: str, args: tuple, kwargs: dict, result) -> dict[str, float]:
    """Work counts a call carries besides itself, keyed by counter name."""
    if name == "demand.cdf_integral":
        return {"demand.cdf_integral.points": np.size(args[1])}
    if name == "demand.sample":
        size = args[2] if len(args) > 2 else kwargs.get("size")
        return {"demand.sample.draws": 1 if size is None else int(np.prod(size))}
    if name.startswith("profit.realized_"):
        return {"profit.realized.draws": np.size(args[0])}
    if name == "oracle.grid_search_plan":
        spec = args[4] if len(args) > 4 else kwargs["spec"]
        return {"oracle.grid_search_plan.cells":
                _lattice_size(spec.q1_range, spec.step) * _lattice_size(spec.qq_range, spec.step)}
    if name == "sweep.run_sweep" and isinstance(result, list):
        return {"sweep.rows": len(result), "sweep.feasible_rows": sum(r.feasible for r in result)}
    return {}


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.totals: dict[str, list[float]] = {}   # name -> [calls, self seconds]
        self.counters: dict[str, float] = {}       # counter name -> total units
        self._nested: dict[tuple[str, str], int] = {}
        self._stack: list[list] = []               # [name, start, child seconds, span id, owner]
        self.spans: list[tuple] = []               # (request, id, parent id, name, start, end)
        self._next_id = 0
        self.requests: list[tuple] = []            # (request key, demand aggregates)
        self._request = None
        self._request_totals: dict[str, list[float]] = {}
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------
    def wrap(self, name: str, fn, aggregate: bool):
        stack, clock = self._stack, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if aggregate:
                span_id, parent, owner = -1, -1, stack[-1][4] if stack else None
            else:
                span_id, owner = self._next_id, name
                self._next_id += 1
                parent = next((f[3] for f in reversed(stack) if f[3] >= 0), -1)
            frame = [name, clock(), 0.0, span_id, owner]
            stack.append(frame)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[1]
                self._record(name, duration - frame[2], aggregate, owner)
                for counter, amount in _units(name, args, kwargs, result).items():
                    self.counters[counter] = self.counters.get(counter, 0) + amount
                if not aggregate:
                    self.spans.append((self._request, span_id, parent, name, frame[1], end))
                if stack:
                    stack[-1][2] += duration
        return traced

    def _record(self, name: str, self_s: float, aggregate: bool, owner) -> None:
        entry = self.totals.setdefault(name, [0, 0.0])
        entry[0] += 1
        entry[1] += self_s
        if aggregate:
            per_request = self._request_totals.setdefault(name, [0, 0.0])
            per_request[0] += 1
            per_request[1] += self_s
            key = (owner, name)
            self._nested[key] = self._nested.get(key, 0) + 1

    def begin_request(self, key) -> None:
        self._request = len(self.requests)
        self._request_totals = {}
        self.requests.append((key, self._request_totals))

    def end_request(self) -> None:
        self._request = None

    def nested_counts(self) -> dict[str, int]:
        """Aggregated calls by nearest enclosing span: "owner>name" -> calls."""
        return {f"{owner}>{name}": n for (owner, name), n in self._nested.items()}

    def export(self) -> dict:
        return {"spans": self.spans,
                "requests": [[list(key), totals] for key, totals in self.requests]}

    # -- installation ----------------------------------------------------
    def _targets(self):
        for module in MODULES:
            short = module.__name__.rsplit(".", 1)[-1]
            for attr, obj in vars(module).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == module.__name__):
                    yield module, attr, obj, f"{short}.{attr}", short == "demand"
        for cls in DEMAND_CLASSES:
            for attr in DEMAND_METHODS:
                obj = cls.__dict__.get(attr)
                if obj is not None and not getattr(obj, "__isabstractmethod__", False):
                    yield cls, attr, obj, f"demand.{attr}", True

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    @contextlib.contextmanager
    def installed(self):
        wrappers = {}
        try:
            for owner, attr, obj, name, aggregate in list(self._targets()):
                wrappers[id(obj)] = (obj, self.wrap(name, obj, aggregate))
                self._set(owner, attr, wrappers[id(obj)][1])
            # Names re-imported into other freshopt modules point at the originals.
            for mod_name, module in list(sys.modules.items()):
                if mod_name != "freshopt" and not mod_name.startswith("freshopt."):
                    continue
                for attr, value in list(vars(module).items()):
                    hit = wrappers.get(id(value))
                    if hit is not None and hit[0] is value:
                        self._set(module, attr, hit[1])
            yield self
        finally:
            while self._patches:
                owner, attr, original = self._patches.pop()
                setattr(owner, attr, original)
