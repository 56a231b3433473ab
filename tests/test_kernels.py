import math
import re

import numpy as np
import pytest
from fractions import Fraction
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from math import comb, pi
from scipy.spatial.distance import cdist
from scipy.special import zeta

from nyridge.errors import ConfigError, DataError, NumericalError
from nyridge.kernels import (
    BERNOULLI_POLY_COEFFS,
    SUPPORTED_BETAS,
    KernelSpec,
    _sqdist,
    cross_gram,
    gram,
    median_distance_bandwidth,
)

# Frozen oracle value, computed from the defining series truncated at 1e6 terms.
POLY_SERIES_02_09_B1 = -0.8553657147600785


def kernel_value(spec, x, y):
    """k(x, y) for one pair of points, through the block evaluator."""
    return float(cross_gram([x], [y], spec)[0, 0])


def periodic_poly_kernel(x, y, beta):
    return kernel_value(KernelSpec.periodic_poly(beta), x, y)


def gaussian_kernel(x, y, bandwidth):
    return kernel_value(KernelSpec.gaussian(bandwidth), x, y)


def truncated_poly_series(x, y, beta, terms):
    i = np.arange(1, terms + 1, dtype=float)
    return float(np.sum(2.0 * i ** (-2.0 * beta) * np.cos(2.0 * np.pi * i * (x - y))))


class TestBernoulliPolynomials:
    def test_regenerated_from_independent_recurrence(self):
        # B_n(x) = sum_k C(n, k) B_{n-k} x^k with Bernoulli numbers from
        # sum_{k<n} C(n+1, k) B_k = -(n+1) B_n; exact rational arithmetic.
        def bern_numbers(m):
            b = [Fraction(1)]
            for n in range(1, m + 1):
                b.append(-sum(Fraction(comb(n + 1, k)) * b[k] for k in range(n)) / (n + 1))
            return b

        for deg, coeffs in BERNOULLI_POLY_COEFFS.items():
            b = bern_numbers(deg)
            expect = [Fraction(comb(deg, k)) * b[deg - k] for k in range(deg + 1)]
            expect = np.array([float(c) for c in reversed(expect)])
            assert np.array_equal(coeffs, expect)

    def test_printed_forms_b2_b6(self):
        b2 = BERNOULLI_POLY_COEFFS[2]
        assert np.allclose(b2, [1.0, -1.0, 1.0 / 6.0])  # x^2 - x + 1/6
        b6 = BERNOULLI_POLY_COEFFS[6]
        # x^6 - 3 x^5 + 5/2 x^4 - 1/2 x^2 + 1/42
        assert np.allclose(b6, [1.0, -3.0, 2.5, 0.0, -0.5, 0.0, 1.0 / 42.0])


class TestPeriodicPolyKernel:
    def test_same_point_is_two_zeta(self):
        assert periodic_poly_kernel(0.3, 0.3, 1) == pytest.approx(pi**2 / 3, abs=1e-12)

    def test_half_period_alternating_series(self):
        assert periodic_poly_kernel(0.0, 0.5, 1) == pytest.approx(-(pi**2) / 6, abs=1e-12)

    def test_frozen_series_value(self):
        assert abs(periodic_poly_kernel(0.2, 0.9, 1) - POLY_SERIES_02_09_B1) < 1e-9

    @pytest.mark.parametrize("beta", [2, 3, 4, 8])
    @pytest.mark.parametrize(
        "x, y, factor",
        [
            # k(x, x) = 2 zeta(2 beta)
            (0.7, 0.7, lambda beta: 2.0),
            # k(0, 1/2) = 2 sum_i (-1)^i i^(-2 beta) = -2 (1 - 2^(1 - 2 beta)) zeta(2 beta)
            (0.0, 0.5, lambda beta: -2.0 * (1.0 - 2.0 ** (1 - 2 * beta))),
        ],
        ids=["same-point", "half-period"],
    )
    def test_zeta_values_every_beta(self, beta, x, y, factor):
        # oracle from scipy's zeta rather than the Bernoulli table
        expect = factor(beta) * zeta(2.0 * beta)
        assert periodic_poly_kernel(x, y, beta) == pytest.approx(expect, rel=1e-13)

    def test_depends_only_on_fractional_difference(self):
        assert periodic_poly_kernel(0.2, 0.9, 2) == periodic_poly_kernel(1.2, 1.9, 2)
        assert periodic_poly_kernel(0.1, 0.4, 2) == periodic_poly_kernel(0.4, 0.1, 2)

    def test_unsupported_beta_rejected(self):
        with pytest.raises(ConfigError):
            periodic_poly_kernel(0.1, 0.2, 5)

    def test_matches_series_on_random_triples(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            x, y = rng.random(2)
            beta = int(rng.choice([1, 2, 3, 4, 8]))
            closed = periodic_poly_kernel(x, y, beta)
            series = truncated_poly_series(x, y, beta, 10**6)
            assert abs(closed - series) <= 1e-8 * max(1.0, abs(closed))


class TestGaussianKernel:
    def test_zero_distance(self):
        v = np.array([0.3, -1.2, 4.0])
        assert gaussian_kernel(v, v, 2.5) == 1.0

    def test_exponent_minus_one(self):
        bw = 1.7
        assert gaussian_kernel([0.0], [bw * np.sqrt(2.0)], bw) == pytest.approx(np.exp(-1.0))

    def test_random_pair_matches_direct_formula(self):
        rng = np.random.default_rng(0)
        x, y = rng.normal(size=4), rng.normal(size=4)
        bw = 0.9
        direct = np.exp(-np.sum((x - y) ** 2) / (2 * bw**2))
        assert gaussian_kernel(x, y, bw) == pytest.approx(direct, rel=1e-15)

    def test_dimension_mismatch(self):
        with pytest.raises(ConfigError):
            gaussian_kernel([1.0, 2.0], [1.0], 1.0)

    @pytest.mark.parametrize("bandwidth", [1e-300, 1e-170, 1e154, 1e200])
    def test_bandwidth_outside_float_range(self, bandwidth):
        # 2 bandwidth^2 underflows to 0 (0 / 0 on the diagonal) or overflows
        with pytest.raises(NumericalError, match="bandwidth"):
            gaussian_kernel([0.0], [1.0], bandwidth)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(data=st.data(), d=st.integers(1, 9))
    def test_squared_distances_match_cdist_bit_for_bit(self, data, d):
        # coordinates up to 1e150 keep every squared sum finite
        coords = st.floats(-1e150, 1e150, allow_nan=False, allow_infinity=False)
        a = data.draw(arrays(float, (data.draw(st.integers(1, 12)), d), elements=coords))
        b = data.draw(arrays(float, (data.draw(st.integers(1, 12)), d), elements=coords))
        assert np.array_equal(_sqdist(a, b), cdist(a, b, "sqeuclidean"))
        assert np.array_equal(np.sqrt(_sqdist(a, a)), cdist(a, a, "euclidean"))

    def test_tiny_bandwidth_reaches_exact_limit(self):
        # 2 bandwidth^2 is subnormal, so d^2 / (2 bandwidth^2) overflows to
        # inf, and exp(-inf) = 0 is the kernel's limit; no warning escapes
        K = gram([0.0, 0.5, 1.0], KernelSpec.gaussian(1e-160))
        assert np.array_equal(K, np.eye(3))


# A computed Gram matrix may fall short of PSD only by rounding: its smallest
# eigenvalue stays above -PSD_SLACK * n * eps * max diag. Random draws of
# every kernel reach at most 1.7 times n * eps * max diag.
PSD_SLACK = 10.0


def assert_symmetric_psd(K):
    assert np.array_equal(K, K.T)
    floor = -PSD_SLACK * K.shape[0] * np.finfo(float).eps * np.max(np.diag(K))
    assert np.linalg.eigvalsh(K)[0] >= floor


class TestGram:
    def test_single_point(self):
        km = gram([0.37], KernelSpec.periodic_poly(1))
        assert type(km) is np.ndarray and km.shape == (1, 1)
        assert km[0, 0] == pytest.approx(pi**2 / 3)

    def test_uniform_grid_periodic_is_circulant(self):
        # dyadic n: grid coordinates are exact, so the matrix is exactly
        # circulant; other n agree to rounding.
        n = 64
        pts = np.arange(n) / n
        km = gram(pts, KernelSpec.periodic_poly(1))
        for i in range(0, n, 7):
            assert np.array_equal(km[i], np.roll(km[0], i))

    def test_symmetry_exact(self):
        rng = np.random.default_rng(3)
        pts = rng.random(40)
        km = gram(pts, KernelSpec.periodic_poly(2))
        assert np.array_equal(km, km.T)
        X = rng.normal(size=(40, 3))
        km = gram(X, KernelSpec.gaussian(1.3))
        assert np.array_equal(km, km.T)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        beta=st.sampled_from(SUPPORTED_BETAS),
        points=st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=40),
    )
    def test_periodic_gram_symmetric_and_psd(self, beta, points):
        assert_symmetric_psd(gram(points, KernelSpec.periodic_poly(beta)))

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        bandwidth=st.floats(0.05, 50.0),
        points=st.integers(1, 3).flatmap(
            lambda d: st.lists(
                st.lists(st.floats(-3.0, 3.0), min_size=d, max_size=d), min_size=1, max_size=40
            )
        ),
    )
    def test_gaussian_gram_symmetric_and_psd(self, bandwidth, points):
        assert_symmetric_psd(gram(points, KernelSpec.gaussian(bandwidth)))

    @pytest.mark.parametrize("n", [17, 128, 512])
    def test_psd_up_to_tolerance(self, n):
        rng = np.random.default_rng(n)
        km = gram(rng.random(n), KernelSpec.periodic_poly(1))
        ev = np.linalg.eigvalsh(km)
        assert ev[0] >= -1e-8 * ev[-1]

    def test_diag_is_the_kernel_at_zero(self):
        rng = np.random.default_rng(5)
        km = gram(rng.random(9), KernelSpec.periodic_poly(1))
        assert np.max(np.diag(km)) == pytest.approx(pi**2 / 3)

    def test_kernel_column_matches_gram(self):
        rng = np.random.default_rng(11)
        pts = rng.random(12)
        spec = KernelSpec.periodic_poly(2)
        km = gram(pts, spec)
        column = cross_gram(pts, pts[5:6], spec).reshape(-1)
        assert np.allclose(column, km[:, 5], atol=1e-15)

    def test_gaussian_gram_unit_diag(self):
        rng = np.random.default_rng(1)
        km = gram(rng.normal(size=(15, 2)), KernelSpec.gaussian(0.8))
        assert np.array_equal(np.diag(km), np.ones(15))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
class TestNonFinitePoints:
    """A non-finite coordinate raises DataError naming it. A NaN point gave
    gram a NaN matrix with a unit diagonal, an inf point a RuntimeWarning
    there and zeros in cross_gram, and NaN features a bandwidth of 1.0."""

    def test_gram(self, bad):
        pts = np.random.default_rng(3).normal(size=(5, 2))
        pts[2, 1] = bad
        with pytest.raises(DataError, match=re.escape(f"points entry (2, 1) is {bad!r}")):
            gram(pts, KernelSpec.gaussian(1.0))
        with pytest.raises(DataError, match=re.escape(f"points entry 2 is {bad!r}")):
            gram(pts[:, 1], KernelSpec.periodic_poly(2))

    def test_cross_gram(self, bad):
        pts = np.random.default_rng(4).normal(size=(5, 2))
        good = pts.copy()
        pts[2, 1] = bad
        for spec in (KernelSpec.gaussian(1.0), KernelSpec.periodic_poly(2)):
            with pytest.raises(DataError, match="points entry"):
                cross_gram(pts, good, spec)
            with pytest.raises(DataError, match="points entry"):
                cross_gram(good, pts, spec)

    def test_median_distance_bandwidth(self, bad):
        X = np.random.default_rng(5).normal(size=(3, 2))
        X[2, 1] = bad
        with pytest.raises(DataError, match=re.escape(f"points entry (2, 1) is {bad!r}")):
            median_distance_bandwidth(X)


class TestKernelSpec:
    def test_validation(self):
        with pytest.raises(ConfigError):
            KernelSpec.periodic_poly(0)
        # beta goes through the scalar rule: 10**400 ended in an OverflowError, "2" was kept
        for beta, message in ((2.5, "beta must be an integer"), (10**400, "beta must be an integer in"),
                              ("2", "beta must be an integer")):
            with pytest.raises(ConfigError, match=message):
                KernelSpec("periodic-polynomial", beta)
        assert KernelSpec("periodic-polynomial", 2.0) == KernelSpec.periodic_poly(2)
        with pytest.raises(ConfigError, match="unknown kernel kind"):
            KernelSpec("periodic-exponential", 1.0)
        with pytest.raises(ConfigError):
            KernelSpec.gaussian(0.0)
        with pytest.raises(ConfigError):
            KernelSpec("triangle", 1.0)

    def test_nan_parameter_rejected_by_name(self):
        for kind, name in [
            ("periodic-polynomial", "beta"),
            ("gaussian", "bandwidth"),
        ]:
            with pytest.raises(ConfigError, match=f"{name} must be "):
                KernelSpec(kind, float("nan"))

    def test_cross_gram_dispatch(self):
        assert cross_gram([0.3], [0.3], KernelSpec.periodic_poly(1))[0, 0] == pytest.approx(
            pi**2 / 3
        )
        assert cross_gram([[0.0]], [[0.0]], KernelSpec.gaussian(1.0))[0, 0] == 1.0


def test_cross_gram_shapes():
    spec = KernelSpec.periodic_poly(1)
    out = cross_gram([0.1, 0.5, 0.9], [0.2, 0.4], spec)
    assert out.shape == (3, 2)
    # beta = 1: 2 pi^2 B_2(u) with u = 0.1 the folded difference
    assert out[0, 0] == pytest.approx(2 * pi**2 * (0.01 - 0.1 + 1 / 6), rel=1e-12)


def test_median_distance_bandwidth():
    rng = np.random.default_rng(2)
    X = rng.normal(size=(800, 3))
    bw = median_distance_bandwidth(X, seed=0)
    assert 1.0 < bw < 4.0
    assert bw == median_distance_bandwidth(X, seed=0)


@pytest.mark.parametrize("n", [2, 3, 4, 7, 30])
def test_median_distance_bandwidth_is_the_numpy_median(n):
    # an odd and an even number of pairs among the sizes
    X = np.random.default_rng(n).normal(size=(n, 2))
    d = np.sqrt(_sqdist(X, X))[np.triu_indices(n, k=1)]
    assert median_distance_bandwidth(X) == float(np.median(d))
