"""Machine-speed calibration: a fixed slice of work that uses no freshopt code.

The benchmark runs on a few cores of a shared host.  Other tenants change
how fast those cores run, in phases of a second to minutes: on the 2-core
VM where the benchmark was defined, a fixed loop of freshopt requests ran
up to 1.5 times slower in some phases than in others, and the wall-clock
throughput of whole 30-second runs differed by up to a factor of 1.6
within an hour.  CPU time tracks wall time
exactly and the VM reports almost no steal time, so neither a longer run,
``process_time`` nor steal accounting removes the drift.

A calibration slice does the kinds of work freshopt's requests do, with
none of its code: ``argparse`` and ``json`` (a CLI request is mostly
parsing), ``scipy.integrate.quad`` and ``scipy.optimize.brentq`` calling
back into Python (the scalar demand solvers), and interpreter bytecode.
The slice is the same on every commit, so a change to freshopt cannot
move it.  Each timing the benchmark reports is scaled to reference speed::

    reported = measured * REFERENCE_SLICE_S / mean slice time around it

The mix matters.  Timed side by side over five runs per workload, a slice
of bytecode, ``quad``/``brentq`` and numpy passes slowed down less than
freshopt in slow phases and left a quartile spread of 0.10-0.17 in
throughput between runs; this mix left 0.03-0.08.  Over ten seeds per
workload it left 0.05-0.10 in throughput and 0.07-0.11 in the tail
latency, where the wall clock spread 0.18-0.33 and 0.17-0.28.  The raw
wall-clock figures are printed beside the scaled ones.
"""
from __future__ import annotations

import argparse
import bisect
import json
import math
import statistics
import time

from scipy.integrate import quad
from scipy.optimize import brentq

# Reference speed: a round figure within the median slice times of whole
# runs (4-6 ms) on the 2-core VM where the benchmark was defined.
REFERENCE_SLICE_S = 0.005
# A timed loop runs one slice whenever this long has passed since the last.
SPACING_S = 0.2
# A request is scaled by the mean of the slices within this distance of it.
WINDOW_S = 1.0

_DOC = {"demand": {"family": "normal", "params": [50.0, 20.0]},
        "grid": [0.75 + 0.01 * i for i in range(40)]}


def _work() -> float:
    total = 0.0
    for _ in range(2):
        parser = argparse.ArgumentParser(prog="slice")
        sub = parser.add_subparsers(dest="command")
        for name in ("plan", "price", "sweep", "check"):
            cmd = sub.add_parser(name)
            cmd.add_argument("--config")
            cmd.add_argument("--x", type=float)
            cmd.add_argument("--mode", choices=("a", "b", "c"), default="a")
        args = parser.parse_args(["sweep", "--config", "c.json", "--x", "1.5", "--mode", "b"])
        total += args.x + len(json.loads(json.dumps(_DOC))["grid"])
    for j in range(30):
        total += quad(lambda x: math.exp(-x * x * (1.0 + j / 40.0)), 0.0, 3.0 + j / 10.0)[0]
        total += brentq(lambda x: x ** 3 - 2.0 - j / 10.0, 0.0, 5.0)
    count = 0
    for i in range(15000):
        count += (i * 7) % 13
    return total + count


def slice_s() -> float:
    """Wall time of one calibration slice."""
    start = time.perf_counter()
    _work()
    return time.perf_counter() - start


def scale(seconds: float, slice_time_s: float) -> float:
    """``seconds`` measured while a slice took ``slice_time_s``, at reference speed."""
    return seconds * REFERENCE_SLICE_S / slice_time_s


def scale_requests(starts_s: list[float], latencies_s: list[float],
                   slices: list[list[float]]) -> list[float]:
    """Each request's latency at reference speed.

    ``slices`` holds ``[midpoint_s, duration_s]`` in time order, on the
    clock of ``starts_s``.  A request is scaled by the mean duration of
    the slices within ``WINDOW_S`` of it, or by the nearest slice if none
    is that close.
    """
    mids = [mid for mid, _ in slices]
    scaled = []
    for start, latency in zip(starts_s, latencies_s):
        lo = bisect.bisect_left(mids, start - WINDOW_S)
        hi = bisect.bisect_right(mids, start + latency + WINDOW_S)
        if lo == hi:
            nearest = min(range(len(mids)), key=lambda i: abs(mids[i] - start))
            lo, hi = nearest, nearest + 1
        local = statistics.fmean(duration for _, duration in slices[lo:hi])
        scaled.append(scale(latency, local))
    return scaled
