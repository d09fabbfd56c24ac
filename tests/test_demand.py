"""Demand-layer tests: CDF, quantile, mean, partial integral, sampling."""
from __future__ import annotations

import math
import os
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from freshopt import (
    Exponential,
    InvalidValue,
    OutOfRange,
    TruncatedNormal,
    Uniform,
    make_distribution,
)
from freshopt.demand import _SPLIT_MIN, _check_each, _floor_at_zero, _require

ALL_DISTRIBUTIONS = [
    Uniform(0.0, 100.0),
    Exponential(rate=0.01),
    TruncatedNormal(mu=50.0, sigma=20.0),
]


# Scales where a finite input overflows on the way to F: x / sigma with sigma < 1 (on
# either truncated-normal branch), x / (hi - lo) on a subnormal width, rate * x.
EXTREME_SCALES = [TruncatedNormal(50.0, 0.5), TruncatedNormal(-10.0, 0.5),
                  Uniform(0.0, 1e-310), Exponential(rate=1e300)]


class _FixedStream:
    """Stand-in stream that always yields the same uniform draw."""

    def __init__(self, u: float):
        self.u = u

    def random(self, size=None, out=None):
        return self.u if size is None else np.full(size, self.u)


class TestCdf:
    def test_uniform_midpoint(self):
        assert Uniform(0.0, 100.0).cdf(50.0) == pytest.approx(0.5)

    def test_uniform_below_support(self):
        assert Uniform(0.0, 100.0).cdf(-1.0) == 0.0

    def test_exponential_against_density_quadrature(self):
        # Independent oracle: integrate the exponential density directly.
        rate = 0.01
        d = Exponential(rate=rate)
        oracle, _ = quad(lambda x: rate * math.exp(-rate * x), 0.0, 100.0, epsabs=1e-12)
        assert oracle == pytest.approx(0.6321205588285577, abs=1e-10)
        assert d.cdf(100.0) == pytest.approx(oracle, abs=1e-9)

    @pytest.mark.parametrize("d", ALL_DISTRIBUTIONS, ids=lambda d: d.family)
    def test_bounds_and_monotonicity(self, d):
        xs = np.linspace(-10.0, 500.0, 801)
        values = d.cdf(xs)
        assert np.all(values >= 0.0) and np.all(values <= 1.0)
        assert np.all(np.diff(values) >= 0.0)
        assert d.cdf(0.0) == 0.0
        assert d.cdf(1e9) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("d", [Uniform(10.0, 110.0), Exponential(rate=0.02),
                                   TruncatedNormal(50.0, 20.0), TruncatedNormal(-30.0, 1.0),
                                   *EXTREME_SCALES],
                             ids=lambda d: f"{d.family}-{d.params()}")
    def test_float_equals_array_entry(self, d):
        # Floats take their own path; it must read like the array path, hex for hex.
        points = [0.0, -0.0, -1.0, -1e300, 5e-324, 1e-300, 1e-9, 10.0, 50.0, 110.0, 110.0001,
                  1e3, 1e6, 1e300, 1.7e308, math.inf, -math.inf, math.nan]
        for x in points:
            value = d.cdf(x)
            assert type(value) is float
            with warnings.catch_warnings():  # no overflow warning, where the float gives inf
                warnings.simplefilter("error")
                entry = float(d.cdf(np.array([x]))[0])
            assert value.hex() == entry.hex(), x

    @pytest.mark.parametrize("d", [Uniform(0.0, 100.0), Uniform(10.0, 110.0), Exponential(rate=0.02),
                                   TruncatedNormal(50.0, 20.0), TruncatedNormal(-30.0, 1.0)],
                             ids=lambda d: f"{d.family}-{d.params()}")
    def test_nonnegative_demand_rule(self, d):
        # Every family reads its CDF at max(x, 0): +0.0 at and below zero, nan at nan,
        # as cdf_integral(nan) is nan.
        for call in (d.cdf, lambda x: float(d.cdf(np.array([x]))[0])):
            assert math.isnan(call(math.nan))
            for x in (-0.0, -1.0, -math.inf):
                assert call(x).hex() == "0x0.0p+0", x

    def test_exponential_array_entries_map_math_expm1(self):
        # Inputs where numpy's expm1 and math's round differently: an array path
        # that went back to np.expm1 would disagree with the float call on each.
        d = Exponential(rate=0.02)
        x = np.random.default_rng(71).exponential(50.0, size=20_000)
        differ = x[-np.expm1(-d.rate * x) != np.array([d.cdf(v) for v in x.tolist()])]
        assert differ.size >= 100
        assert [d.cdf(v).hex() for v in differ.tolist()] == [v.hex() for v in d.cdf(differ).tolist()]

    @pytest.mark.parametrize("mu,sigma", [(-40.0, 10.0), (50.0, 10.0), (30.0, 1.0)])
    def test_truncated_normal_against_high_precision(self, mu, sigma):
        # Independent oracle: the truncated CDF in 40-digit arithmetic.  At mu = -40
        # the lower-tail difference Phi(z) - Phi(-mu/sigma) cancels to about 1e-12;
        # at mu = 50 the upper-tail form would keep only 1e-4 of small F's digits;
        # at mu/sigma = 30 every value near 0 is a difference of deep tails near 5e-198.
        mpmath = pytest.importorskip("mpmath")
        d = TruncatedNormal(mu=mu, sigma=sigma)
        for x in (1e-6, 1e-3, 0.5, 1.0, 2.0, 5.0, 10.0, 30.0, 80.0):
            with mpmath.workdps(40):
                below = mpmath.ncdf(mpmath.mpf(-mu) / sigma)
                above = mpmath.ncdf(mpmath.mpf(mu) / sigma)
                expected = float((mpmath.ncdf((mpmath.mpf(x) - mu) / sigma) - below) / above)
            assert d.cdf(x) == pytest.approx(expected, abs=1e-14)
            assert d.cdf(x) == pytest.approx(expected, rel=1e-6, abs=0.0)


class TestQuantile:
    def test_uniform_linear(self):
        assert Uniform(0.0, 100.0).quantile(0.8) == pytest.approx(80.0)

    def test_uniform_centralized_fractile_point(self):
        assert Uniform(0.0, 100.0).quantile(13.0 / 18.0) == pytest.approx(72.22222222222221)

    def test_exponential_median_against_bisection(self):
        d = Exponential(rate=0.01)
        lo, hi = 0.0, 1e4
        for _ in range(200):  # bisection oracle on the cdf
            mid = 0.5 * (lo + hi)
            if d.cdf(mid) < 0.5:
                lo = mid
            else:
                hi = mid
        assert d.quantile(0.5) == pytest.approx(69.31471805599453, abs=1e-9)
        assert d.quantile(0.5) == pytest.approx(0.5 * (lo + hi), abs=1e-8)

    @pytest.mark.parametrize("d", ALL_DISTRIBUTIONS, ids=lambda d: d.family)
    def test_round_trip(self, d):
        for q in np.arange(0.01, 1.0, 0.01):
            assert abs(d.cdf(d.quantile(q)) - q) <= 1e-9

    @pytest.mark.parametrize("mu,sigma", [(50.0, 20.0), (0.0, 10.0), (-20.0, 10.0), (-30.0, 1.0),
                                          (-37.0, 1.0)])
    def test_truncated_normal_against_high_precision(self, mu, sigma):
        # Independent oracle: invert the truncated CDF with 50-digit arithmetic, plus the
        # digits that Phi(mu/sigma), about 10**(-(mu/sigma)**2 / 4.6), takes below 1.
        # At mu = -37 the inverse sees levels (1 - q) Phi(-37) from 6e-300 down to 6e-309.
        # The root of Phi(z) = level comes from Newton's method on mpmath.ncdf, started at the
        # float answer; the final residual must be below the working precision, so a start
        # Newton cannot refine fails here instead of passing a wrong reference.
        mpmath = pytest.importorskip("mpmath")
        d = TruncatedNormal(mu=mu, sigma=sigma)
        levels = [1e-9, 1e-6, 1e-3, 0.1, 0.3, 0.5, 0.7, 0.9, 1 - 1e-3, 1 - 1e-6, 1 - 1e-9]
        for q in levels:
            with mpmath.workdps(50 + int((mu / sigma) ** 2 / 4)):
                below = mpmath.ncdf(mpmath.mpf(-mu) / sigma)
                above = mpmath.ncdf(mpmath.mpf(mu) / sigma)
                level = below + mpmath.mpf(q) * above
                z = (mpmath.mpf(d.quantile(q)) - mu) / sigma
                for _ in range(30):
                    step = (mpmath.ncdf(z) - level) / mpmath.npdf(z)
                    z -= step
                    if abs(step) <= mpmath.eps * (1 + abs(z)):
                        break
                assert abs(mpmath.ncdf(z) - level) <= 8 * mpmath.eps
                expected = float(mu + sigma * z)
            # The 1e-12 absolute floor (pytest's default) governs only quantiles
            # below about 1, which come out as differences of numbers of size mu.
            assert d.quantile(q) == pytest.approx(expected, rel=1e-12, abs=1e-12)

    def test_scalar_inverse_keeps_ndtri_at_levels_0_and_1(self):
        # statistics.NormalDist rejects levels 0 and 1; a level that underflows to 0
        # must still give scipy's -inf, so an infinite quantile is rejected downstream.
        from scipy.special import ndtri

        from freshopt.demand import _ndtri
        for p in (0.0, 5e-324, 1e-300, 1e-9, 0.5, 1.0 - 1e-9, 1.0 - 2.0**-53, 1.0):
            assert _ndtri(p) == pytest.approx(float(ndtri(p)), rel=1.1e-15, abs=0.0)

    @pytest.mark.parametrize("q", [0.0, 1.0, -0.2, 1.3])
    def test_out_of_range(self, q):
        with pytest.raises(OutOfRange):
            Uniform(0.0, 100.0).quantile(q)
        # An array names its first bad level, as the float call at that level does.
        with pytest.raises(OutOfRange, match=f"got {q}$"):
            Uniform(0.0, 100.0).quantile(np.array([[0.5, q], [math.nan, 2.0]]))

    def test_out_of_range_is_an_invalid_value(self):
        with pytest.raises(InvalidValue) as err:
            Uniform(0.0, 100.0).quantile(1.5)
        assert type(err.value) is OutOfRange
        assert err.value.problems == [("quantile level", "must be in (0, 1), got 1.5")]
        assert str(err.value) == "quantile level must be in (0, 1), got 1.5"

    @pytest.mark.parametrize("d,top", [(Uniform(10.0, 110.0), 110.0), (Exponential(rate=0.02), math.inf),
                                       (TruncatedNormal(-10.0, 20.0), math.inf)])
    def test_upper_quantile_at_zero_is_the_top_of_the_support(self, d, top):
        assert d._upper_quantile(0.0) == top

    @pytest.mark.parametrize("d", ALL_DISTRIBUTIONS + [TruncatedNormal(-30.0, 1.0)],
                             ids=lambda d: f"{d.family}-{d.params()}")
    def test_array_entries_equal_float_calls(self, d):
        levels = np.array([5e-324, 1e-300, 1e-9, 0.1, 0.37, 0.5, 0.9, 1.0 - 1e-9, 1.0 - 2.0**-53])
        values = d.quantile(levels)
        assert [v.hex() for v in values.tolist()] == [d.quantile(q).hex() for q in levels.tolist()]
        assert d.quantile(levels.reshape(3, 3)).shape == (3, 3)


class TestMean:
    def test_uniform(self):
        assert Uniform(0.0, 100.0).mean() == pytest.approx(50.0)

    def test_exponential(self):
        assert Exponential(rate=0.01).mean() == pytest.approx(100.0)

    def test_truncated_normal_against_monte_carlo(self):
        d = TruncatedNormal(mu=50.0, sigma=20.0)
        rng = np.random.default_rng(2024)
        draws = d.sample(rng, size=10_000_000)
        se = draws.std(ddof=1) / math.sqrt(draws.size)
        assert d.mean() == pytest.approx(50.352756509738335, abs=1e-9)
        assert abs(d.mean() - draws.mean()) <= 3.0 * se


class TestCdfIntegral:
    def test_uniform_closed_form(self):
        d = Uniform(0.0, 100.0)
        assert d.cdf_integral(80.0) == pytest.approx(32.0, abs=1e-12)
        a = 300.0 / 7.0
        assert d.cdf_integral(a) == pytest.approx(9.183673469387756, abs=1e-9)

    @pytest.mark.parametrize("d", ALL_DISTRIBUTIONS, ids=lambda d: d.family)
    def test_zero_at_origin(self, d):
        assert d.cdf_integral(0.0) == 0.0

    @pytest.mark.parametrize("d", ALL_DISTRIBUTIONS, ids=lambda d: d.family)
    def test_against_quadrature(self, d):
        for a in (5.0, 42.857, 80.0, 250.0):
            oracle, _ = quad(d.cdf, 0.0, a, epsabs=1e-11, limit=300)
            assert d.cdf_integral(a) == pytest.approx(oracle, abs=1e-8)

    @pytest.mark.parametrize("d", ALL_DISTRIBUTIONS, ids=lambda d: d.family)
    def test_never_exceeds_argument(self, d):
        a = np.linspace(0.0, 400.0, 101)
        assert np.all(d.cdf_integral(a) <= a + 1e-12)

    @pytest.mark.parametrize("d", ALL_DISTRIBUTIONS, ids=lambda d: d.family)
    def test_derivative_is_cdf(self, d):
        # Central finite difference of the partial integral recovers F.
        rng = np.random.default_rng(55)
        points = rng.uniform(0.5, 300.0, size=50)
        h = 1e-3
        for a in points:
            fd = (d.cdf_integral(a + h) - d.cdf_integral(a - h)) / (2.0 * h)
            assert abs(fd - d.cdf(a)) <= 1e-6

    @pytest.mark.parametrize("d", ALL_DISTRIBUTIONS, ids=lambda d: d.family)
    def test_nondecreasing_and_convex(self, d):
        a = np.linspace(0.0, 300.0, 601)
        values = np.asarray(d.cdf_integral(a))
        diffs = np.diff(values)
        assert np.all(diffs >= -1e-12)
        assert np.all(np.diff(diffs) >= -1e-9)

    def test_heavy_truncation_near_zero(self):
        # Most of the normal's mass lies below 0, where cancellation is worst.
        d = TruncatedNormal(mu=-20.0, sigma=10.0)
        values = np.asarray(d.cdf_integral(np.geomspace(1e-12, 1e3, 2001)))
        assert np.all(values >= 0.0)
        assert np.all(np.diff(values) >= -1e-12)

    def test_vector_matches_scalar(self):
        d = TruncatedNormal(mu=50.0, sigma=20.0)
        points = np.array([120.0, 3.0, 0.0, 55.5, 17.0])
        vector = d.cdf_integral(points)
        scalars = np.array([d.cdf_integral(float(a)) for a in points])
        assert np.allclose(vector, scalars, atol=1e-10)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Uniform(0.0, 100.0).cdf_integral(-1.0)

    @pytest.mark.parametrize("d", [Uniform(10.0, 110.0), Exponential(rate=0.02),
                                   TruncatedNormal(50.0, 20.0), TruncatedNormal(-30.0, 1.0),
                                   *EXTREME_SCALES],
                             ids=lambda d: f"{d.family}-{d.params()}")
    def test_float_equals_array_entry(self, d):
        # Floats take their own path; it must read like the array path, hex for hex.
        points = [0.0, -0.0, 5e-324, 1e-300, 1e-9, 10.0, 50.0, 110.0, 110.0001, 1e3, 1e6,
                  1e300, 1.7e308, math.inf, math.nan]
        for a in points:
            value = d.cdf_integral(a)
            assert type(value) is float
            with warnings.catch_warnings():  # no overflow warning, where the float gives inf
                warnings.simplefilter("error")
                entry = float(d.cdf_integral(np.array([a]))[0])
            assert value.hex() == entry.hex(), a

    def test_float_floor_matches_numpy_maximum(self):
        # max(-0.0, 0.0) is -0.0 and max(0.0, nan) is 0.0; np.maximum gives 0.0 and nan.
        for x in (-0.0, 0.0, 5e-324, -5e-324, -1.0, 2.5, math.inf, -math.inf, math.nan):
            assert _floor_at_zero(x).hex() == float(np.maximum(x, 0.0)).hex(), x

    def test_float_path_edge_values(self):
        for d in ALL_DISTRIBUTIONS:
            assert math.isnan(d.cdf_integral(math.nan))
            assert d.cdf_integral(-0.0) == 0.0
            for a in (-5e-324, -1.0, -math.inf):
                with pytest.raises(ValueError, match="^a must be >= 0, got "):
                    d.cdf_integral(a)

    @staticmethod
    def _with_numpy_exp(d, a):
        """The partial integral on an array, with numpy's expm1 or exp in place of math's."""
        if d.family == "exponential":
            return a + np.expm1(-d.rate * a) / d.rate
        z = (a - d.mu) / d.sigma
        density = np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
        return np.maximum((a - d.mu) * d.cdf(a) + d.sigma * (density - d._density_at_cut)
                          / d._mass_above_zero, 0.0)

    @pytest.mark.parametrize("d,scale", [(Exponential(rate=0.02), 150.0),
                                         (TruncatedNormal(50.0, 20.0), 75.0),
                                         (TruncatedNormal(-30.0, 1.0), 0.05)],
                             ids=["exponential", "truncated-normal-mu50", "truncated-normal-mu-30"])
    def test_array_entries_map_math_exp(self, d, scale):
        # Inputs where numpy's expm1/exp and math's round differently: an array path
        # that went back to numpy's function would disagree with the float call on each.
        a = np.random.default_rng(72).exponential(scale, size=20_000)
        floats = [d.cdf_integral(v) for v in a.tolist()]
        differ = a[self._with_numpy_exp(d, a) != np.array(floats)]
        assert differ.size >= 100
        assert ([d.cdf_integral(v).hex() for v in differ.tolist()]
                == [v.hex() for v in d.cdf_integral(differ).tolist()])


class TestSampling:
    def test_inverse_transform_midpoint(self):
        assert Uniform(0.0, 100.0).sample(_FixedStream(0.5)) == pytest.approx(50.0)

    @pytest.mark.parametrize("d", ALL_DISTRIBUTIONS, ids=lambda d: d.family)
    def test_empirical_cdf_close(self, d):
        # Kolmogorov-Smirnov style bound on 1e6 inverse-transform draws.
        rng = np.random.default_rng(99)
        draws = np.sort(d.sample(rng, size=1_000_000))
        n = draws.size
        grid = np.arange(1, n + 1) / n
        model = d.cdf(draws)
        sup_distance = max(np.max(np.abs(grid - model)),
                           np.max(np.abs(grid - 1.0 / n - model)))
        assert sup_distance < 0.002

    @pytest.mark.parametrize("d", ALL_DISTRIBUTIONS, ids=lambda d: d.family)
    def test_sample_mean_consistent(self, d):
        rng = np.random.default_rng(123)
        draws = d.sample(rng, size=1_000_000)
        se = draws.std(ddof=1) / math.sqrt(draws.size)
        assert abs(draws.mean() - d.mean()) <= 4.0 * se

    @pytest.mark.parametrize("d", ALL_DISTRIBUTIONS, ids=lambda d: d.family)
    def test_same_seed_same_draws(self, d):
        a = d.sample(np.random.default_rng(7), size=100)
        b = d.sample(np.random.default_rng(7), size=100)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("mu,sigma", [(-5.0, 10.0), (-30.0, 1.0)])  # heavy truncation
    def test_truncated_normal_nonnegative(self, mu, sigma):
        d = TruncatedNormal(mu=mu, sigma=sigma)
        draws = d.sample(np.random.default_rng(3), size=100_000)
        assert np.all(draws >= 0.0) and np.all(np.isfinite(draws))

    @staticmethod
    def _out_of_place(d, u):
        """The inverse transform written as one expression, for a float or an array u."""
        from scipy.special import ndtri
        if isinstance(d, Uniform):
            return d.lo + u * (d.hi - d.lo)
        if isinstance(d, Exponential):
            return -np.log1p(-u) / d.rate
        if d.mu > 0.0:
            x = d.mu + d.sigma * ndtri(d._mass_below_zero + u * d._mass_above_zero)
        else:
            x = d.mu - d.sigma * ndtri((1.0 - u) * d._mass_above_zero)
        return np.maximum(x, 0.0)

    @pytest.mark.parametrize("d", [*ALL_DISTRIBUTIONS, TruncatedNormal(mu=0.0, sigma=10.0),
                                   TruncatedNormal(mu=-20.0, sigma=8.0)],
                             ids=lambda d: f"{d.family}-{d.params()}")
    def test_in_place_transform_equals_out_of_place_formula(self, d):
        u = np.random.default_rng(17).random(20_000)
        draws = d.sample(np.random.default_rng(17), size=u.size)
        assert np.array_equal(draws, self._out_of_place(d, u))
        for q in (0.0, 2.0**-53, 0.3, 0.5, 1.0 - 2.0**-53, *u[:200].tolist()):
            draw = d.sample(_FixedStream(q))
            assert type(draw) is float
            assert draw == self._out_of_place(d, q)

    @pytest.mark.parametrize("d", [TruncatedNormal(50.0, 20.0), TruncatedNormal(-20.0, 8.0)],
                             ids=lambda d: f"mu={d.mu}")
    def test_split_transform_equals_serial_ndtri(self, d, monkeypatch):
        # At a size that splits ndtri over a helper thread, odd so the halves differ in
        # length, each draw is the serial transform of the same uniform, hex for hex.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        n = 2 * _SPLIT_MIN + 1
        u = np.random.default_rng(19).random(n)
        draws = d.sample(np.random.default_rng(19), size=n)
        serial = self._out_of_place(d, u)
        assert [x.hex() for x in draws.tolist()] == [x.hex() for x in serial.tolist()]
        # A 2-d draw splits along its first axis.
        rows = d.sample(np.random.default_rng(19), size=(3, n // 3))
        assert np.array_equal(rows.ravel(), serial[:rows.size])

    @pytest.mark.parametrize("d", ALL_DISTRIBUTIONS, ids=lambda d: d.family)
    def test_sample_into_out_equals_new_array(self, d):
        n = 2 * _SPLIT_MIN + 1
        buffer = np.full(n + 5, -1.0)
        out = buffer[:n]
        draws = d.sample(np.random.default_rng(23), size=n, out=out)
        assert draws is out
        assert np.array_equal(draws, d.sample(np.random.default_rng(23), size=n))
        assert np.all(buffer[n:] == -1.0)

    def test_truncated_normal_sampling_matches_quantile(self):
        # The vectorized sampling inverse and the two-branch quantile agree.
        d = TruncatedNormal(mu=50.0, sigma=20.0)
        for q in (0.01, 0.2, 0.5, 0.9, 0.99):
            assert d.sample(_FixedStream(q)) == pytest.approx(d.quantile(q), abs=1e-9)


class TestValidation:
    @pytest.mark.parametrize("lo,hi", [(-1.0, 10.0), (5.0, 5.0), (10.0, 2.0)])
    def test_uniform_rejects_bad_support(self, lo, hi):
        with pytest.raises(ValueError):
            Uniform(lo, hi)

    @pytest.mark.parametrize("rate", [0.0, -0.5])
    def test_exponential_rejects_bad_rate(self, rate):
        with pytest.raises(ValueError):
            Exponential(rate=rate)

    @pytest.mark.parametrize("sigma", [0.0, -2.0])
    def test_truncated_normal_rejects_bad_sigma(self, sigma):
        with pytest.raises(ValueError):
            TruncatedNormal(mu=50.0, sigma=sigma)

    @pytest.mark.parametrize("mu", [math.nan, math.inf])
    def test_truncated_normal_rejects_non_finite_mu(self, mu):
        with pytest.raises(InvalidValue) as info:
            TruncatedNormal(mu=mu, sigma=20.0)
        assert info.value.problems == [("mu", f"must be finite, got {mu}")]

    @pytest.mark.parametrize("mu,sigma", [(-60.0, 1.0), (-1e3, 10.0), (-37.8, 1.0), (-38.2, 1.0)])
    def test_truncated_normal_rejects_vanishing_mass(self, mu, sigma):
        # Phi(mu/sigma) underflows to 0, or to a subnormal short of digits (at mu = -38.2
        # the mean would be 3.5% off), and every formula divides by it.
        with pytest.raises(InvalidValue) as info:
            TruncatedNormal(mu=mu, sigma=sigma)
        assert [field for field, _ in info.value.problems] == ["mu"]

    def test_uniform_names_both_bad_bounds(self):
        with pytest.raises(InvalidValue) as info:
            Uniform(lo=-1.0, hi=math.nan)
        assert info.value.problems == [("lo", "must be finite and >= 0, got -1.0"),
                                       ("hi", "must be finite and > lo, got lo=-1.0, hi=nan")]

    def test_truncated_normal_names_both_bad_parameters(self):
        with pytest.raises(InvalidValue) as info:
            TruncatedNormal(mu=math.nan, sigma=0.0)
        assert info.value.problems == [("mu", "must be finite, got nan"),
                                       ("sigma", "must be finite and > 0, got 0.0")]

    def test_a_rule_that_holds_formats_no_text(self):
        class Unprintable:
            def __format__(self, spec):
                raise AssertionError("formatted")

        _require("x", True, "got {}", Unprintable())
        with pytest.raises(AssertionError, match="formatted"):
            _require("x", False, "got {}", Unprintable())

    def test_check_each_returns_results_or_every_problem(self):
        assert _check_each((abs, -2.0), (max, 1.0, 3.0)) == [2.0, 3.0]
        with pytest.raises(InvalidValue) as info:
            _check_each((_require, "a", False, "is {}", 1), (abs, -2.0),
                        (_require, "b", False, "is {!r}", "x"))
        assert info.value.problems == [("a", "is 1"), ("b", "is 'x'")]

    def test_factory_round_trip(self):
        d = make_distribution("uniform", lo=0.0, hi=100.0)
        assert d == Uniform(0.0, 100.0)
        assert d.params() == {"lo": 0.0, "hi": 100.0}

    def test_factory_rejects_unknown_family(self):
        with pytest.raises(ValueError, match="^family must be one of "):
            make_distribution("lognormal", mu=1.0, sigma=1.0)

    def test_factory_rejects_wrong_params(self):
        with pytest.raises(ValueError, match="^params of family 'uniform' must be "):
            make_distribution("uniform", lo=0.0, hi=100.0, rate=1.0)
