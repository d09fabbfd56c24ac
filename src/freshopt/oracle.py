"""Independent verification engines for the closed-form results.

``mc_expected`` estimates each expected profit by averaging realized
profits over inverse-transform samples, sharing no code path with the
partial-integral algebra it checks.  ``grid_search_plan`` maximizes the
closed forms' own expected-profit objective over a lattice, one window
maximum per spot row: it checks the optimizer, Monte-Carlo the profits.

Sampling is chunked: every chunk owns a child stream spawned from
(seed, chunk index) and chunks are reduced in fixed order, so a serial
run and any worker-parallel run of the same (seed, n) agree bit for bit.
A chunk is drawn whole into one buffer that the whole call reuses
(``sample(..., out=)``), then its profits are evaluated in place, block by
cache-sized block; a call allocates one buffer of at most ``_CHUNK``
doubles (1 MB) plus per-block temporaries of ``_BLOCK`` doubles.  A
truncated-normal chunk maps its first half through ``ndtri`` on one helper
thread while the calling thread maps the second (``demand._ndtri_in_place``);
that thread calls nothing else, so every public function runs on the
caller's thread, and the draws are the bits of one serial map.
A chunk's mean is its first profit plus the mean of the differences from
it, so a profit that never varies comes out exact, with standard error 0.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .demand import DemandDistribution, InvalidValue, _check_each, _check_positive, np
from .optimizer import _believed_stock, _Row
from .profit import (
    MarketParams,
    OptionContract,
    OrderPlan,
    _ledger,
    _require_finite,
    realized_chain_profit,
    realized_retailer_profit,
    realized_supplier_profit,
    require_feasible_contract,
    total_fractile,
)

MC_KINDS = ("retailer", "supplier", "chain")

_CHUNK = 1 << 17
_BLOCK = 1 << 13  # a block's temporaries (64 KB) stay under glibc's 128 KB mmap threshold
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
    if not (0.0 <= lo <= hi and math.isfinite(hi)):
        raise InvalidValue([(field, f"must satisfy 0 <= lo <= hi < inf, got ({lo}, {hi})")])


def _is_int(value) -> bool:
    """Whether value is a Python int other than a bool."""
    return isinstance(value, int) and not isinstance(value, bool)


def _check_draws(samples: int, seed: int) -> None:
    """Raise InvalidValue unless samples is an integer in [1, _MAX_SAMPLES] and seed an
    integer >= 0; a bool is no integer here."""
    problems = []
    if not (_is_int(samples) and samples >= 1):
        problems.append(("samples", f"must be >= 1 and an integer, got {samples!r}"))
    elif samples > _MAX_SAMPLES:
        problems.append(("samples", f"must be <= {_MAX_SAMPLES}, got {samples}"))
    if not (_is_int(seed) and seed >= 0):
        problems.append(("seed", f"must be >= 0 and an integer, got {seed!r}"))
    if problems:
        raise InvalidValue(problems)


def chunk_stream(seed: int, index: int) -> np.random.SeedSequence:
    """Seed sequence of sample chunk ``index``; equals ``SeedSequence(seed).spawn(...)[index]``."""
    return np.random.SeedSequence(seed, spawn_key=(index,))


def mc_expected(kind: str, d: DemandDistribution, m: MarketParams, o: OptionContract,
                k: float, plan: OrderPlan, n: int, seed: int) -> McEstimate:
    """Monte-Carlo estimate of an expected profit.

    kind selects the party: retailer profits are realized under the
    believed demand scale theta*k, supplier and chain under true theta.
    """
    if kind not in MC_KINDS:
        raise ValueError(f"kind must be one of {MC_KINDS}, got {kind!r}")
    _check_draws(n, seed)
    if kind in ("retailer", "supplier"):
        require_feasible_contract(m, o)

    if kind == "retailer":
        scale = m.theta * k
        evaluate = lambda x: realized_retailer_profit(x, scale, m, o, plan)
    elif kind == "supplier":
        evaluate = lambda x: realized_supplier_profit(x, m, o, plan)
    else:
        evaluate = lambda x: realized_chain_profit(x, m, plan.q_total)

    buffer = np.empty(min(n, _CHUNK))

    def moments(shrink: float) -> tuple[float, float]:
        """(mean, shrink**2 * sum of squared deviations) over the n draws."""
        count = 0
        mean = 0.0
        m2 = 0.0
        for index, start in enumerate(range(0, n, _CHUNK)):
            take = min(_CHUNK, n - start)
            rng = np.random.Generator(np.random.PCG64(chunk_stream(seed, index)))
            profits = d.sample(rng, size=take, out=buffer[:take])
            for lo in range(0, take, _BLOCK):
                profits[lo:lo + _BLOCK] = evaluate(profits[lo:lo + _BLOCK])
            # Deviations from the first profit: a constant profit averages to itself exactly.
            first = float(profits[0])
            np.subtract(profits, first, out=profits)
            offset = float(profits.mean())
            chunk_mean = first + offset
            np.subtract(profits, offset, out=profits)
            if shrink != 1.0:
                np.multiply(profits, shrink, out=profits)
            with np.errstate(over="ignore"):  # an overflow here is retried, shrunk
                chunk_m2 = float(np.sum(np.square(profits, out=profits)))
            delta = chunk_mean - mean
            total = count + take
            mean += delta * take / total
            m2 += chunk_m2 + (delta * shrink) * (delta * shrink) * count * take / total
            count = total
        return mean, m2

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
    q_spot, then smaller q_option.
    """
    q1s = _lattice(spec.q1_range, spec.step)
    qqs = _lattice(spec.qq_range, spec.step)
    nq = len(qqs)
    totals = (q1s[0] + qqs[0]) + spec.step * np.arange(len(q1s) + nq - 1)
    eff, scale = 1.0 - m.beta, m.theta * k
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
                      step: float = 0.05, o: OptionContract | None = None) -> GridSpec:
    """Search box up to the believed stock at the larger of 0.9999 and o's total fractile:
    it contains the optimum for valid fractiles (without o, for those up to 0.9999)."""
    level = 0.9999 if o is None else max(0.9999, total_fractile(m, o))
    reach = _believed_stock(d, m, _Row(k), level)
    return GridSpec(q1_range=(0.0, reach), qq_range=(0.0, reach), step=step)
