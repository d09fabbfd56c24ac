"""Independent verification engines for the closed-form results.

``mc_expected`` estimates each expected profit by averaging realized
profits over inverse-transform samples, sharing no code path with the
partial-integral algebra it checks.  ``grid_search_plan`` maximizes the
closed forms' own expected-profit objective over a lattice, one window
maximum per spot row: it checks the optimizer, Monte-Carlo the profits.

Sampling is chunked: every chunk owns a child stream spawned from
(seed, chunk index) and chunks are reduced in fixed order, so a serial
run and any worker-parallel run of the same (seed, n) agree bit for bit.
A chunk is drawn whole into a buffer (``sample(..., out=)``), then its
profits are written over the draws, block by cache-sized block, by the
private kernels behind ``realized_*``, and the chunk is reduced to its mean
and its sum of squared deviations.  The process keeps one spare pair of
``_CHUNK``-double buffers (2 MB in all) that a call draws into, so a call
that repeats allocates no buffer; a call that finds the pair held (by a
nested or a concurrent call) makes a pair of its own.  A block adds at most
two temporaries of ``_BLOCK`` doubles (128 KB each), and no profit is copied
back.  A run of two or more chunks, in a process that may use more than one
CPU, starts one helper thread for the whole call, overflow retry included:
the helper prices and reduces each chunk while the calling thread draws the
next chunk into the other buffer, and the caller merges the chunk moments in
chunk order, so the estimate has the bits of the inline run.  The call lends
its helper to the ``sample`` calls it makes, so a truncated-normal chunk maps
its first half through ``ndtri`` on that helper while the calling thread maps
the second (``demand._ndtri_in_place``).  The helper calls only private
kernels and ``ndtri``, so every public function, ``sample`` included, runs on
the caller's thread, and the draws are the bits of one serial map.
A chunk's mean is its first profit plus the mean of the differences from
it, so a profit that never varies comes out exact, with standard error 0.
"""
from __future__ import annotations

import math
import numbers
import operator
import threading
from contextlib import ExitStack
from dataclasses import dataclass
from functools import cache

from .demand import DemandDistribution, _check_each, _check_positive, _Helper, _require, _several_cpus, np
from .optimizer import _believed_stock, _Row
from .profit import (
    MarketParams,
    OptionContract,
    OrderPlan,
    _believed_scale,
    _chain_profits,
    _ledger,
    _require_finite,
    _retailer_profits,
    _supplier_profits,
    require_feasible_contract,
    total_fractile,
)

MC_KINDS = ("retailer", "supplier", "chain")
DEFAULT_GRID_STEP = 0.05

_CHUNK = 1 << 17
# A block and its two 128 KB temporaries stay in a 2 MB L2.  Time of 1M retailer draws
# against copying each 8,192-draw block's profits back (medians of 25 interleaved calls, two
# runs, 2-core x86-64 VM; uniform, exponential, truncated normal): in place at 8,192
# 0.87-0.89, 0.87-0.91, 0.96-1.04; 16,384 0.81-0.83, 0.82-0.88, 0.94; 32,768 0.81-0.84,
# 0.82-0.87, 0.93-0.98.
_BLOCK = 1 << 14
# Bounds a run's time: 10**9 draws take 10-40 s (2-core x86-64 VM, all families).
_MAX_SAMPLES = 10 ** 9

# Brings any finite deviation below 2**424, so the squares of up to 2**100
# (more than _MAX_SAMPLES) of them sum without overflow.
_DEVIATION_SHRINK = 2.0 ** -600


@dataclass(frozen=True)
class McEstimate:
    """Monte-Carlo mean with its standard error; reproducible via (seed, n)."""

    mean: float
    stderr: float
    n: int
    seed: int


@dataclass(frozen=True)
class GridSpec:
    """Search box [q1_range] x [qq_range] walked at the given step."""

    q1_range: tuple[float, float]
    qq_range: tuple[float, float]
    step: float

    def __post_init__(self):
        _check_each((_check_range, "q1_range", self.q1_range), (_check_range, "qq_range", self.qq_range),
                    (_check_positive, "step", self.step))


def _check_range(field: str, bounds: tuple[float, float]) -> None:
    """Raise InvalidValue unless bounds is a finite (lo, hi) with 0 <= lo <= hi."""
    lo, hi = bounds
    _require(field, 0.0 <= lo <= hi and math.isfinite(hi),
             "must satisfy 0 <= lo <= hi < inf, got ({}, {})", lo, hi)


def _is_int(value) -> bool:
    """Whether value is an integer (a Python int, a numpy integer) other than a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _check_draws(samples: int, seed: int) -> tuple[int, int]:
    """(samples, seed) as Python ints; InvalidValue unless samples is an integer in
    [1, _MAX_SAMPLES] and seed an integer >= 0.  A bool, numpy's too, is no integer here."""
    is_count = _is_int(samples) and samples >= 1
    _check_each((_require, "samples", is_count, "must be >= 1 and an integer, got {!r}", samples),
                (_require, "samples", not is_count or samples <= _MAX_SAMPLES, "must be <= {}, got {}",
                 _MAX_SAMPLES, samples),
                (_require, "seed", _is_int(seed) and seed >= 0, "must be >= 0 and an integer, got {!r}",
                 seed))
    return operator.index(samples), operator.index(seed)


def chunk_stream(seed: int, index: int) -> np.random.SeedSequence:
    """Seed sequence of sample chunk ``index``; equals ``SeedSequence(seed).spawn(...)[index]``."""
    return np.random.SeedSequence(seed, spawn_key=(index,))


# The process's one spare pair of _CHUNK buffers, made on first use, and the lock that the
# call drawing into it holds.
_kept_pair = cache(lambda: (np.empty(_CHUNK), np.empty(_CHUNK)))
_KEPT = threading.Lock()


def _pipelined(helper: _Helper, chunks: int, draw, reduce) -> list:
    """[reduce(draw(i)) for i in range(chunks)], with each reduce on helper while this
    thread draws the next chunk; draw(i) must leave chunk i - 1 alone."""
    parts = [helper.submit(reduce, draw(0))]  # the last part waits until it is collected
    for index in range(1, chunks):
        chunk = draw(index)
        parts[-1] = parts[-1]()  # frees chunk i - 1's buffer for chunk i + 1
        parts.append(helper.submit(reduce, chunk))
    parts[-1] = parts[-1]()
    return parts


def mc_expected(kind: str, d: DemandDistribution, m: MarketParams, o: OptionContract,
                k: float, plan: OrderPlan, n: int, seed: int) -> McEstimate:
    """Monte-Carlo estimate of an expected profit.

    kind selects the party: retailer profits are realized under the
    believed demand scale theta*k, supplier and chain under true theta.
    One InvalidValue names, in this order, an unknown kind, a bad draw count or
    seed, and a k that is not finite and > 0, whatever the kind.  The retailer's
    scale is profit._believed_scale's, so where theta*k underflows to 0 the
    estimate raises its Infeasible, as the closed form it checks does.

    n and seed may be any integers but bools (numpy's too); the estimate holds them
    as Python ints.  This thread draws every chunk through the public ``sample``.  A
    run of two or more chunks on more than one CPU starts one helper thread, which
    prices and reduces each chunk while this thread draws the next, in both passes of
    an overflow retry; the call lends it to ``sample``, which maps half of each
    truncated-normal chunk through ``ndtri`` on it.  The estimate has the bits of the
    inline run.  The helper keeps the caller's np.errstate, and whatever either
    thread raises is raised here once the helper has ended.  The draws go into the
    process's one spare pair of 1 MB buffers, or into a pair of the call's own while
    another call holds it; the pair is given back once the helper has been joined.
    """
    _, (n, seed), _ = _check_each((_require, "kind", kind in MC_KINDS, "must be one of {}, got {!r}",
                                   MC_KINDS, kind), (_check_draws, n, seed), (_check_positive, "k", k))
    if kind in ("retailer", "supplier"):
        require_feasible_contract(m, o)

    if kind == "retailer":
        scale = _believed_scale(m, k)
        evaluate = lambda x: _retailer_profits(x, scale, m, o, plan, x)
    elif kind == "supplier":
        evaluate = lambda x: _supplier_profits(x, m, o, plan, x)
    else:
        evaluate = lambda x: _chain_profits(x, m, plan.q_total, x)

    def chunk_moments(profits: np.ndarray, shrink: float) -> tuple[int, float, float]:
        """(draws, mean, shrink**2 * sum of squared deviations) of one chunk, whose draws
        the profits and then the deviations overwrite."""
        for lo in range(0, len(profits), _BLOCK):
            evaluate(profits[lo:lo + _BLOCK])
        # Deviations from the first profit: a constant profit averages to itself exactly.
        first = float(profits[0])
        np.subtract(profits, first, out=profits)
        offset = float(profits.mean())
        np.subtract(profits, offset, out=profits)
        if shrink != 1.0:
            np.multiply(profits, shrink, out=profits)
        with np.errstate(over="ignore"):  # an overflow here is retried, shrunk
            return len(profits), first + offset, float(np.sum(np.square(profits, out=profits)))

    chunks = -(-n // _CHUNK)

    def draw(index: int) -> np.ndarray:
        """Chunk ``index``'s draws, written over chunk ``index - 2``'s, or without a helper
        over the last chunk's, whose reduction has ended (one buffer stays in cache)."""
        take = min(_CHUNK, n - index * _CHUNK)
        rng = np.random.Generator(np.random.PCG64(chunk_stream(seed, index)))
        return d.sample(rng, size=take, out=buffers[index % 2 if helper else 0][:take])

    def moments(shrink: float) -> tuple[float, float]:
        """(mean, shrink**2 * sum of squared deviations) over the n draws."""
        reduce = lambda profits: chunk_moments(profits, shrink)
        parts = (_pipelined(helper, chunks, draw, reduce) if helper
                 else [reduce(draw(index)) for index in range(chunks)])
        count, mean, m2 = 0, 0.0, 0.0
        for take, chunk_mean, chunk_m2 in parts:
            delta = chunk_mean - mean
            total = count + take
            mean += delta * take / total
            m2 += chunk_m2 + (delta * shrink) * (delta * shrink) * count * take / total
            count = total
        return mean, m2

    with ExitStack() as stack:  # the helper is joined before the kept pair is given back
        if kept := _KEPT.acquire(blocking=False):  # a nested or concurrent call makes its own pair
            stack.callback(_KEPT.release)
        buffers = _kept_pair() if kept else [np.empty(min(n, _CHUNK)) for _ in range(2)]
        helper = stack.enter_context(_Helper()) if chunks > 1 and _several_cpus() else None
        shrink = 1.0
        mean, m2 = moments(shrink)
        if m2 == math.inf:
            # Finite profits whose squared deviations overflow: draw again and sum the squares
            # shrunk by an exact power of two, so nothing else rounds differently.
            shrink = _DEVIATION_SHRINK
            mean, m2 = moments(shrink)
    stderr = math.sqrt(m2 / (n - 1) / n) / shrink if n > 1 else 0.0
    for value in (mean, stderr):
        _require_finite("Monte-Carlo estimate", value)
    return McEstimate(mean=mean, stderr=stderr, n=n, seed=seed)


def _lattice(bounds: tuple[float, float], step: float) -> np.ndarray:
    lo, hi = bounds
    count = int(math.floor((hi - lo) / step + 1e-9)) + 1
    return lo + step * np.arange(count)


def _window_max(x: np.ndarray, w: int) -> np.ndarray:
    """The maximum of each length-w window of x, as np.max would give it (nan included),
    in O(len(x)) (van Herk / Gil-Werman): cut x into blocks of w; a window is a suffix of
    one block and a prefix of the next, so its maximum is the larger of the two."""
    blocks = -(-len(x) // w)
    padded = np.full(blocks * w, -np.inf)
    padded[:len(x)] = x
    padded = padded.reshape(blocks, w)
    prefix = np.maximum.accumulate(padded, axis=1).ravel()
    suffix = np.maximum.accumulate(padded[:, ::-1], axis=1)[:, ::-1].ravel()
    return np.maximum(suffix[:len(x) - w + 1], prefix[w - 1:len(x)])


def grid_search_plan(d: DemandDistribution, m: MarketParams, o: OptionContract,
                     k: float, spec: GridSpec) -> OrderPlan:
    """Grid point maximizing the retailer's expected profit.

    Prices the raw surface (no contract screening, so degenerate contracts
    can be probed too) as ``T(q_total) + S(q_spot)`` with ``T = profit(0, .)``
    and ``S(q) = profit(q, 0) - profit(0, q)``.  Ties break toward smaller
    q_spot, then smaller q_option.  The scale theta*k is profit._believed_scale's: a k
    that is not finite and > 0 raises InvalidValue, and a theta*k that underflows to 0
    raises Infeasible.
    """
    scale = _believed_scale(m, k)
    q1s = _lattice(spec.q1_range, spec.step)
    qqs = _lattice(spec.qq_range, spec.step)
    nq = len(qqs)
    totals = (q1s[0] + qqs[0]) + spec.step * np.arange(len(q1s) + nq - 1)
    eff = 1.0 - m.beta
    total_part = sum(_ledger(d, m, o.c0, o.ce, scale, 0.0, totals)[0].values())
    # Stock held spot or as options sells alike: S is the options' c0 + ce per unit, less
    # ce per unit not exercised (scale * int_0^{q eff/scale} F), against w0 per spot unit.
    spot_part = (o.c0 + o.ce - m.w0) * eff * q1s - o.ce * scale * d.cdf_integral(q1s * eff / scale)
    # Adding a row's spot part is monotone in floating point, so the row
    # maximum of T + S is the window maximum of T plus S.
    i = int(np.argmax(_window_max(total_part, nq) + spot_part))
    j = int(np.argmax(total_part[i:i + nq] + spot_part[i]))
    return OrderPlan(q_spot=float(q1s[i]), q_option=float(qqs[j]))


def default_grid_spec(d: DemandDistribution, m: MarketParams, k: float,
                      step: float = DEFAULT_GRID_STEP, o: OptionContract | None = None) -> GridSpec:
    """Search box up to the believed stock at the larger of 0.9999 and o's total fractile
    where that fractile lies inside (0, 1), else at 0.9999: it contains the optimum for
    valid fractiles (without o, for those up to 0.9999).  A box whose edge overflows a
    double raises Infeasible, as optimal_plan does for a plan that overflows."""
    # An empty box checks the step beside k, before any stock is solved.
    _check_each((_check_positive, "k", k), (GridSpec, (0.0, 0.0), (0.0, 0.0), step))
    level = tf if o is not None and 0.9999 < (tf := total_fractile(m, o)) < 1.0 else 0.9999
    reach = _require_finite("grid search box", _believed_stock(d, m, _Row(k), level))
    return GridSpec(q1_range=(0.0, reach), qq_range=(0.0, reach), step=step)
