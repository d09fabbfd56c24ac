"""Probability layer for market demand.

Every profit formula in this package reduces to three distribution
primitives: the CDF ``F``, its inverse, and the partial integral
``int_0^a F(x) dx``.  The classes here provide those primitives for the
supported demand families, together with reproducible inverse-transform
sampling.  All families live on the nonnegative half-line, as demand for
a perishable good must: each states its CDF once, for x >= 0, and the
shared ``cdf`` reads it at max(x, 0), so F is +0.0 at every x <= 0.

Each primitive takes a float or a numpy array.  A float computes with
``math`` alone; an array maps the same ``math`` function over its entries
wherever numpy's own (``expm1``, ``exp``) rounds differently, so each entry
equals the float call bit for bit.  numpy itself loads on the first array
operation, not at import: the package's other modules take ``np`` from here.
"""
from __future__ import annotations

import contextvars
import dataclasses
import importlib.util
import math
import os
import sys
import threading
from abc import ABC, abstractmethod
from contextlib import nullcontext
from dataclasses import dataclass
from functools import cache, cached_property, partial
from queue import SimpleQueue
from typing import ClassVar, NamedTuple


def _lazy_module(name: str):
    """The module ``name``, registered in sys.modules now and executed on its first
    attribute access.  Any later ``import name`` reads ``__spec__`` and so executes it."""
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


np = _lazy_module("numpy")


class InvalidValue(ValueError):
    """Rejected input: values that break a domain rule, each stated once by the type or
    helper owning it.  One of the package's two outcomes besides an answer; the other is
    ``profit.Infeasible``, valid input with no answer.  The CLI exits 2 on it.

    ``problems`` lists ``(field, rule)`` pairs, e.g. ``("beta", "must satisfy
    0 < beta < 1, got 1.0")``, which the message reads as "beta must ...".
    """

    def __init__(self, problems: list[tuple[str, str]]):
        self.problems = list(problems)
        super().__init__("; ".join(f"{_NOUNS.get(field, field)} {rule}"
                                   for field, rule in self.problems))


class OutOfRange(InvalidValue):
    """Quantile level outside the open interval (0, 1): an InvalidValue naming
    ``quantile level``."""


# Fields whose identifier reads poorly as the subject of a message.
_NOUNS = {"samples": "sample count"}


def _check_positive(field: str, value: float) -> None:
    """Raise InvalidValue unless value is finite and > 0."""
    if not (value > 0.0 and math.isfinite(value)):
        raise InvalidValue([(field, f"must be finite and > 0, got {value}")])


def _check_nonnegative(field: str, value: float) -> None:
    """Raise InvalidValue unless value is finite and >= 0."""
    if not (value >= 0.0 and math.isfinite(value)):
        raise InvalidValue([(field, f"must be finite and >= 0, got {value}")])


def _require(field: str, holds: bool, rule: str, *values) -> None:
    """Raise InvalidValue naming field unless holds; only then is rule.format(*values) made."""
    if not holds:
        raise InvalidValue([(field, rule.format(*values))])


def _check_each(*checks) -> list:
    """Call check(*args) for each (check, *args) and return their results, in order;
    or raise one InvalidValue with every problem they raised, in order, if any did."""
    problems, results = [], []
    for check, *args in checks:
        try:
            results.append(check(*args))
        except InvalidValue as exc:
            problems += exc.problems
    if problems:
        raise InvalidValue(problems)
    return results


_SQRT_2PI = math.sqrt(2.0 * math.pi)
_SQRT_HALF = math.sqrt(0.5)


def _on_array(fn, x):
    """fn of x as a float array, where an entry past the largest double overflows to inf
    silently, as a float does; a 0-d result (from a numpy scalar, an int or a 0-d array)
    comes back as a float."""
    with np.errstate(over="ignore"):
        values = fn(np.asarray(x, dtype=float))
    return float(values) if np.ndim(values) == 0 else values


def _entrywise(fn, x):
    """fn of a float or, mapped entry by entry, of an array: each entry equals the
    float call bit for bit, which numpy's vectorized expm1 and exp do not."""
    if isinstance(x, float):
        return fn(x)
    flat = np.ravel(x)
    return np.fromiter(map(fn, flat.tolist()), float, flat.size).reshape(np.shape(x))


def _any(x) -> bool:
    """np.any(x) for a number or an array; a number needs no numpy."""
    return bool(x) if isinstance(x, (int, float)) else bool(np.any(x))


def _floor_at_zero(x):
    """np.maximum(x, 0.0) for a float or an array: nan stays nan and -0.0 becomes 0.0."""
    return max(x, 0.0) + 0.0 if isinstance(x, float) else np.maximum(x, 0.0)


def _clip(x, lo: float, hi: float):
    """np.clip(x, lo, hi) for a float or an array: nan stays nan."""
    return min(max(x, lo), hi) if isinstance(x, float) else np.clip(x, lo, hi)


def _check_level(q: float) -> float:
    """q, if it lies strictly inside (0, 1); OutOfRange otherwise."""
    if not 0.0 < q < 1.0:
        raise OutOfRange([("quantile level", f"must be in (0, 1), got {q}")])
    return q


def _ndtr(z):
    """Standard normal CDF of a float or, entry by entry, an array; one formula for both."""
    return 0.5 * _entrywise(math.erfc, -z * _SQRT_HALF)


@cache
def _inv_cdf():
    """statistics.NormalDist().inv_cdf (Wichura's AS241), imported on first truncated-normal use."""
    from statistics import NormalDist
    return NormalDist().inv_cdf


def _ndtri(p: float) -> float:
    """Standard normal quantile of a scalar level; NormalDist rejects 0 and 1, here -inf and inf."""
    if 0.0 < p < 1.0:
        return _inv_cdf()(p)
    return -math.inf if p <= 0.0 else math.inf


# The break-even of splitting ndtri over two threads, on a 2-core x86-64 VM.  Starting a
# helper for the split (150-170 us to start and join), the median lost at 16,384 levels
# (412 us against 304 serial) and won at 32,768 (661 against 861) and above.  On an idle
# helper already running, as a lent one may be, it lost at 8,192 (108-116 us against
# 101-105) and won at 16,384 (182-191 against 198-205) and 32,768 (326-359 against
# 396-420).  A direct call still starts its helper, and a lent one only sees the last
# chunk of a run below 2**17 levels, so the threshold stays at the first break-even.
_SPLIT_MIN = 1 << 15


def _several_cpus() -> bool:
    """Whether this process may run on more than one CPU."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0)) > 1
    return (os.cpu_count() or 1) > 1


_LENT = contextvars.ContextVar("_LENT", default=None)  # the _Helper lent to this thread


class _Helper:
    """One thread that runs submitted jobs in order, each in a copy of the context of the
    thread that entered the helper (np.errstate lives there), copied before the helper is
    lent.  Inside ``with _Helper() as helper:`` the helper is lent to this thread's
    ``_ndtri_in_place``; leaving the block stops and joins the thread, however it ends."""

    def __enter__(self):
        self._jobs, self._run = SimpleQueue(), contextvars.copy_context().run
        self._thread = threading.Thread(target=self._serve)
        self._thread.start()
        self._lent = _LENT.set(self)
        return self

    def __exit__(self, *exc_info):
        self._jobs.put(None)
        self._thread.join()
        _LENT.reset(self._lent)

    def _serve(self):
        for done, fn, args in iter(self._jobs.get, None):
            try:
                done.put((self._run(fn, *args), None))
            except BaseException as error:  # raised again on the caller
                done.put((None, error))

    def submit(self, fn, *args):
        """Queue fn(*args); return a function that waits for its result, or raises what
        it raised."""
        done = SimpleQueue()
        self._jobs.put((done, fn, args))

        def result():
            value, error = done.get()
            if error is not None:
                raise error
            return value
        return result


def _ndtri_in_place(u: np.ndarray) -> None:
    """scipy.special.ndtri(u, out=u).  A u of at least _SPLIT_MIN levels, on more than one
    CPU, maps its first half (along the first axis) on the lent helper, or else on a helper
    of its own, which calls nothing but ndtri (it releases the GIL), while the caller maps
    the second half; ndtri acts entry by entry, so the bits are those of one call.  The
    caller has loaded numpy and scipy.special before the helper maps, as numpy's lazy
    loader takes no lock."""
    from scipy.special import ndtri  # vectorized: several times faster than any stdlib route
    if u.size < _SPLIT_MIN or not _several_cpus():
        ndtri(u, out=u)
        return
    head, tail = u[:len(u) // 2], u[len(u) // 2:]
    with nullcontext(lent) if (lent := _LENT.get()) else _Helper() as helper:
        head_done = helper.submit(ndtri, head, head)  # ndtri(head, out=head)
        try:
            ndtri(tail, out=tail)
        finally:
            head_done()


class DemandDistribution(ABC):
    """A nonnegative market-demand law."""

    family: ClassVar[str]

    @abstractmethod
    def mean(self) -> float:
        """E[x]."""

    @abstractmethod
    def _cdf(self, x):
        """F(x) for x >= 0 or nan, a float or an array."""

    @abstractmethod
    def _quantile(self, q: float) -> float:
        ...

    @abstractmethod
    def _upper_quantile(self, t: float) -> float:
        """F^-1(1 - t) for t in [0, 1), from t itself: a t below 2**-53 keeps its digits.
        t = 0 gives the top of the support, inf where it is unbounded."""

    @abstractmethod
    def _cdf_integral(self, a):
        ...

    @abstractmethod
    def _inverse_transform(self, u: np.ndarray) -> np.ndarray:
        """Map an array of uniform(0,1) draws to demand values in place, and return it."""

    def quantile(self, q):
        """Smallest x with F(x) >= q, for q strictly inside (0, 1).

        q is a float or, entry by entry, an array; an array is mapped through
        the scalar formula, so each entry equals the scalar call bit for bit.
        """
        if type(q) is float:
            return self._quantile(_check_level(q))
        levels = np.asarray(q, dtype=float)
        bad = levels[~((levels > 0.0) & (levels < 1.0))]
        if bad.size:  # the first bad level names the error
            _check_level(bad[0].item())
        return _on_array(partial(_entrywise, self._quantile), levels)

    def cdf(self, x):
        """F(x); accepts scalars or numpy arrays.  Demand is nonnegative, so F is +0.0
        at every x <= 0 (-0.0 and -inf too); a nan x gives nan.  A float takes plain
        Python arithmetic, equal bit for bit to the array path's entry."""
        if type(x) is float:
            return self._cdf(_floor_at_zero(x))
        return _on_array(lambda arr: self._cdf(_floor_at_zero(arr)), x)

    def cdf_integral(self, a):
        """int_0^a F(x) dx for a >= 0; accepts scalars or numpy arrays.  A negative ``a``
        (or entry) raises InvalidValue naming ``a``.

        Nondecreasing and convex in ``a``, zero at ``a = 0``, and never
        larger than ``a`` itself.  A nan ``a`` gives nan.  A float takes
        plain Python arithmetic, equal bit for bit to the array path's entry.
        """
        scalar = type(a) is float
        arr = a if scalar else np.asarray(a, dtype=float)
        _require("a", not _any(arr < 0.0), "must be >= 0, got {}", a)
        return self._cdf_integral(arr) if scalar else _on_array(self._cdf_integral, arr)

    def sample(self, stream, size=None, out=None):
        """Inverse-transform draw(s) from ``stream`` (a numpy Generator).

        Identical stream state gives identical draws, which is what makes
        the simulation oracles reproducible.  A draw with ``size=None`` is a float.
        The uniforms come from one ``stream.random(size, out=out)`` call: ``out``, a
        contiguous float64 array of shape ``size``, receives the draws and is returned;
        without it the stream supplies a new array.
        A truncated-normal draw of 32,768 values or more, in a process that may
        run on two CPUs, maps half its levels through ``ndtri`` on a helper thread:
        the one ``oracle.mc_expected`` lends to its calls of ``sample``, or else one
        started and joined for this call.  The draws are the bits of one serial map,
        and this method itself runs on the caller's thread.
        """
        x = self._inverse_transform(np.asarray(stream.random(size, out=out), dtype=float))
        return float(x) if size is None else x

    def params(self) -> dict[str, float]:
        """Family-specific parameters, for configs and reporting."""
        return {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}  # type: ignore[arg-type]


@dataclass(frozen=True)
class Uniform(DemandDistribution):
    """Uniform demand on [lo, hi] with 0 <= lo < hi.

    Both rules run, so a bad lo and a bad hi are named together; hi's rule reads lo as given.
    """

    lo: float
    hi: float

    family: ClassVar[str] = "uniform"

    def __post_init__(self):
        _check_each((_check_nonnegative, "lo", self.lo),
                    (_require, "hi", self.hi > self.lo and math.isfinite(self.hi),
                     "must be finite and > lo, got lo={}, hi={}", self.lo, self.hi))

    def mean(self) -> float:
        return 0.5 * (self.lo + self.hi)

    def _quantile(self, q: float) -> float:
        return self.lo + q * (self.hi - self.lo)

    def _upper_quantile(self, t: float) -> float:
        return self.hi - t * (self.hi - self.lo)

    def _cdf(self, x):
        return _clip((x - self.lo) / (self.hi - self.lo), 0.0, 1.0)

    def _cdf_integral(self, a):
        inside = _clip(a, self.lo, self.hi) - self.lo
        return inside * inside / (2.0 * (self.hi - self.lo)) + _floor_at_zero(a - self.hi)

    def _inverse_transform(self, u):
        u *= self.hi - self.lo
        u += self.lo
        return u


@dataclass(frozen=True)
class Exponential(DemandDistribution):
    """Exponential demand with the given rate (mean 1/rate)."""

    rate: float

    family: ClassVar[str] = "exponential"

    def __post_init__(self):
        _check_positive("rate", self.rate)

    def mean(self) -> float:
        return 1.0 / self.rate

    def _quantile(self, q: float) -> float:
        return -math.log1p(-q) / self.rate

    def _upper_quantile(self, t: float) -> float:
        return -math.log(t) / self.rate if t > 0.0 else math.inf

    def _cdf(self, x):
        return -_entrywise(math.expm1, -self.rate * x)

    def _cdf_integral(self, a):
        # a - (1 - exp(-rate*a))/rate, written with expm1 so small a stay accurate
        return a + _entrywise(math.expm1, -self.rate * a) / self.rate

    def _inverse_transform(self, u):
        np.negative(u, out=u)
        np.log1p(u, out=u)
        u /= -self.rate  # -(a / r), bit for bit
        return u


@dataclass(frozen=True)
class TruncatedNormal(DemandDistribution):
    """Normal(mu, sigma) demand truncated at 0 and renormalized.

    The mass a plain normal would put on negative demand is discarded and
    the remainder rescaled, so the support is exactly [0, inf).  A bad mu and a
    bad sigma are named together; the mass check runs only once both pass.
    """

    mu: float
    sigma: float

    family: ClassVar[str] = "truncated-normal"

    def __post_init__(self):
        _check_each((_require, "mu", math.isfinite(self.mu), "must be finite, got {}", self.mu),
                    (_check_positive, "sigma", self.sigma))
        # Every formula divides by the mass kept above zero; a subnormal one has lost its digits.
        _require("mu", self._mass_above_zero >= sys.float_info.min, "must leave demand mass above 0, "
                 "got mu={}, sigma={}: Phi(mu/sigma) underflows to 0", self.mu, self.sigma)

    @cached_property
    def _mass_below_zero(self) -> float:
        return _ndtr(-self.mu / self.sigma)

    @cached_property
    def _mass_above_zero(self) -> float:
        return _ndtr(self.mu / self.sigma)

    @cached_property
    def _density_at_cut(self) -> float:
        alpha = -self.mu / self.sigma
        return math.exp(-0.5 * alpha * alpha) / _SQRT_2PI

    def mean(self) -> float:
        return self.mu + self.sigma * self._density_at_cut / self._mass_above_zero

    def _quantile(self, q: float) -> float:
        if q < 0.5 and self.mu > 0.0:
            level = self._mass_below_zero + q * self._mass_above_zero
            return max(self.mu + self.sigma * _ndtri(level), 0.0)
        return self._upper_quantile(1.0 - q)  # exact for q >= 1/2

    def _upper_quantile(self, t: float) -> float:
        if t > 0.5 and self.mu > 0.0:
            return self._quantile(1.0 - t)
        # Upper tail through t, so levels near 1 keep their digits; for mu <= 0
        # every level goes this way, as _inverse_transform explains.
        return max(self.mu - self.sigma * _ndtri(t * self._mass_above_zero), 0.0)

    def _cdf(self, x):
        z = (x - self.mu) / self.sigma
        if self.mu > 0.0:
            vals = (_ndtr(z) - self._mass_below_zero) / self._mass_above_zero
        else:
            # z >= -mu/sigma >= 0 on the support: upper tails keep the digits that
            # Phi(z) - Phi(-mu/sigma), a difference of two numbers near 1, would lose.
            vals = 1.0 - _ndtr(-z) / self._mass_above_zero
        return _clip(vals, 0.0, 1.0)

    def _cdf_integral(self, a):
        # (sigma [G(z_a) - G(z_0)] - a Phi(z_0)) / Phi(mu/sigma) with G(z) = z Phi(z) + phi(z),
        # regrouped as (a - mu) F(a) + sigma (phi(z_a) - phi(z_0)) / Phi(mu/sigma) so that
        # rounding scales with the terms; the clamp absorbs what is left near a = 0.
        z = (a - self.mu) / self.sigma
        density = _entrywise(math.exp, -0.5 * z * z) / _SQRT_2PI
        vals = ((a - self.mu) * self.cdf(a)
                + self.sigma * (density - self._density_at_cut) / self._mass_above_zero)
        return _floor_at_zero(vals)

    def _inverse_transform(self, u):
        if self.mu > 0.0:
            # mu + sigma * ndtri(Phi(-mu/sigma) + u Phi(mu/sigma))
            u *= self._mass_above_zero
            u += self._mass_below_zero
            _ndtri_in_place(u)
            u *= self.sigma
            u += self.mu
        else:
            # Phi(-mu/sigma) + u Phi(mu/sigma) rounds to 1 once mu/sigma is strongly
            # negative; the upper tail, mu - sigma * ndtri((1 - u) Phi(mu/sigma)),
            # keeps every level apart.
            np.subtract(1.0, u, out=u)
            u *= self._mass_above_zero
            _ndtri_in_place(u)
            u *= self.sigma
            np.subtract(self.mu, u, out=u)
        return np.maximum(u, 0.0, out=u)


_FAMILIES: dict[str, type[DemandDistribution]] = {
    Uniform.family: Uniform,
    Exponential.family: Exponential,
    TruncatedNormal.family: TruncatedNormal,
}


class _Layout(NamedTuple):
    """Field names in sorted order, those that have a default, and those annotated int."""

    names: tuple[str, ...]
    defaulted: frozenset[str] = frozenset()
    ints: frozenset[str] = frozenset()


@cache
def _field_layout(cls: type) -> _Layout:
    """The fields of a dataclass, read once per type: a demand family's parameters, a config
    section's keys."""
    fields = sorted(dataclasses.fields(cls), key=lambda f: f.name)
    return _Layout(tuple(f.name for f in fields),
                   frozenset(f.name for f in fields if f.default is not dataclasses.MISSING),
                   frozenset(f.name for f in fields if f.type in (int, "int")))


def make_distribution(family: str, **params: float) -> DemandDistribution:
    """Build a demand distribution from a family name and its parameters; InvalidValue
    names ``family`` if it is unknown, else ``params`` if they are not the family's."""
    _require("family", family in _FAMILIES, "must be one of {}, got {!r}", sorted(_FAMILIES), family)
    expected, given = list(_field_layout(_FAMILIES[family]).names), sorted(params)
    _require("params", given == expected, "of family {!r} must be {}, got {}", family, expected, given)
    return _FAMILIES[family](**params)
