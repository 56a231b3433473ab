import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from math import pi
from scipy.special import zeta

from nyridge.errors import ConfigError
from nyridge.kernels import SUPPORTED_BETAS, KernelSpec, _periodic_poly_values, cross_gram, gram
from nyridge.synthetic import (
    FixedDesignProblem,
    _residue_fold,
    SpectrumSpec,
    draw_noise,
    eig_circulant,
    grid_problem,
    grid_row,
    hurwitz_zeta,
    residue_tails,
    signal_fourier,
    signal_on_grid,
    sigma2_for_snr,
)


def cosine_series(delta, xs, terms=200_000):
    i = np.arange(1, terms + 1, dtype=float)
    return np.array([np.sum(2.0 * i ** (-delta) * np.cos(2 * np.pi * i * x)) for x in xs])


class TestSpectrumSpec:
    def test_delta_must_be_finite_and_above_one(self):
        for delta in (0.5, float("nan"), float("inf")):
            with pytest.raises(ConfigError, match="delta must be "):
                SpectrumSpec(1, delta)

    def test_beta_must_be_a_tabulated_integer(self):
        assert SpectrumSpec(3, 2.0) == SpectrumSpec(beta=3, delta=2.0)
        for beta in (2.5, float("inf")):  # int(inf) once raised an OverflowError
            with pytest.raises(ConfigError, match=rf"beta must be an integer \(got {beta!r}\)"):
                SpectrumSpec(beta, 2.0)
        with pytest.raises(ConfigError, match=r"beta must be an integer in \(1, 2, 3, 4, 8\) \(got 5\)"):
            SpectrumSpec(5, 2.0)


class TestEigCirculant:
    @pytest.mark.parametrize("n", [8, 16, 32, 33, 64])
    @pytest.mark.parametrize("beta", [1, 2, 3, 4, 8])
    def test_polynomial_matches_dense(self, n, beta):
        # 1e-6 relative agreement on every eigenvalue the dense solver can
        # resolve; below its eps * lambda_max noise floor only absolute
        # agreement is meaningful
        prob_k = gram(np.arange(n) / n, KernelSpec.periodic_poly(beta))
        dense = np.sort(np.linalg.eigvalsh(prob_k))
        mine = np.sort(eig_circulant(beta, n))
        floor = 1e-12 * mine[-1]
        assert np.all(np.abs(dense - mine) <= np.maximum(1e-6 * mine, floor))

    @pytest.mark.parametrize("beta", [1, 2, 3, 4, 8])
    def test_eigenvalues_sum_to_trace(self, beta):
        # sum_r eig_r = tr K = n k(x, x) = 2 n zeta(2 beta)
        n = 37
        total = np.sum(eig_circulant(beta, n))
        assert total == pytest.approx(2 * n * zeta(2.0 * beta), rel=1e-12)

    def test_leading_eigenvalue_asymptotics(self):
        # leading eigenvalue approx n mu_1, within [1, 1.2] for beta = 1
        for n in (64, 128, 256):
            lead = np.max(eig_circulant(1, n))
            assert 1.0 <= lead / n <= 1.2


class TestGridProblem:
    def test_exactly_circulant_and_symmetric(self):
        prob = grid_problem(50, SpectrumSpec(1, 2.0), 0.1)
        K = prob.K
        assert np.array_equal(K, K.T)
        for i in range(50):
            assert np.array_equal(K[i], np.roll(K[0], i))

    def test_signal_value_at_zero(self):
        # f(0) = 2 sum_i sqrt(nu_i) = 2 zeta(2) for delta = 2
        prob = grid_problem(32, SpectrumSpec(1, 2.0), 0.0)
        assert prob.z[0] == pytest.approx(pi**2 / 3, rel=1e-10)

    def test_trace_over_n_is_diagonal_value(self):
        prob = grid_problem(40, SpectrumSpec(2, 3.0), 0.0)
        kxx = prob.K[0, 0]
        assert np.trace(prob.K) / 40 == pytest.approx(kxx, rel=1e-12)

    def test_exact_eigs_match_dense(self):
        prob = grid_problem(48, SpectrumSpec(1, 2.0), 0.0)
        dense = np.sort(np.linalg.eigvalsh(prob.K))
        exact = np.sort(eig_circulant(1, 48))
        assert np.max(np.abs(dense - exact) / dense) <= 1e-6

    def test_fourier_coefficients_track_signal_law(self):
        # |<z, u_i>| approx sqrt(n nu_i), wrap-around tails allowed
        n = 64
        delta = 2.0
        prob = grid_problem(n, SpectrumSpec(1, delta), 0.0)
        coefs = np.abs(np.fft.fft(prob.z)) / np.sqrt(n)
        for i in (1, 2, 3, 5):
            target = np.sqrt(n) * i ** (-delta)
            assert abs(coefs[i] - target) <= 0.12 * target

    def test_signal_scale_is_order_one(self):
        for n in (32, 128, 512):
            prob = grid_problem(n, SpectrumSpec(1, 2.0), 0.0)
            power = prob.z @ prob.z / n
            assert 0.5 < power < 20.0

    def test_small_n_rejected(self):
        with pytest.raises(ConfigError):
            grid_problem(1, SpectrumSpec(1, 2.0), 0.0)

    def test_unsupported_beta_rejected(self):
        with pytest.raises(ConfigError):
            grid_problem(16, SpectrumSpec(5, 2.0), 0.0)

    def test_nonfinite_or_negative_sigma2_rejected(self):
        for sigma2 in (float("nan"), float("inf"), -1e-3):
            with pytest.raises(ConfigError):
                grid_problem(16, SpectrumSpec(1, 2.0), sigma2)

    def test_gram_matrix_built_lazily_from_first_row(self):
        prob = grid_problem(30, SpectrumSpec(2, 3.0), 0.0)
        assert "K" not in vars(prob)
        assert prob.mean_diag == prob.row0[0]
        K = prob.K
        assert type(K) is np.ndarray and "K" in vars(prob)
        assert np.array_equal(K[0], prob.row0)
        assert np.array_equal(K, K.T)
        assert np.array_equal(np.roll(K[3], -3), prob.row0)

    @pytest.mark.parametrize("beta, delta", [(2, 4.0), (3, 3.0), (8, 6.0)])
    def test_polynomial_spectrum_problem(self, beta, delta):
        prob = grid_problem(24, SpectrumSpec(beta, delta), 0.0)
        dense = np.sort(np.linalg.eigvalsh(prob.K))
        mine = np.sort(eig_circulant(beta, 24))
        assert np.max(np.abs(dense - mine)) <= 1e-8 * mine[-1]
        # f(0) = 2 sum_i i^(-delta) = 2 zeta(delta)
        assert prob.z[0] == pytest.approx(2 * zeta(delta), rel=1e-10)

    def test_problem_needs_its_first_row(self):
        # K is only ever a cache of the first row, never passed in
        prob = grid_problem(8, SpectrumSpec(1, 2.0), 0.0)
        with pytest.raises(TypeError):
            FixedDesignProblem(z=prob.z, sigma2=0.0)
        with pytest.raises(TypeError):
            FixedDesignProblem(prob.row0, prob.z, 0.0, K=prob.K)
        assert FixedDesignProblem(prob.row0, prob.z, 0.0).n == 8


class TestSignalOnGrid:
    @pytest.mark.parametrize("n", [2, 3, 31, 64, 97])
    @pytest.mark.parametrize("delta", [1.5, 3.0, 8.0])
    def test_fourier_coefficients_from_the_fold(self, n, delta):
        f = np.fft.fft(signal_on_grid(delta, n))[: n // 2 + 1]
        want = (f.real**2 + f.imag**2) / n
        got = signal_fourier(delta, n) ** 2 / n
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(want)

    def test_grid_fold_matches_closed_form(self):
        # for even delta, f(x) = sum_i 2 i^(-delta) cos(2 i pi x) is the
        # periodic kernel with beta = delta / 2; for delta = 3 the oracle is
        # the series itself, whose tail past N terms is below 1/N^2 = 2.5e-11
        n = 20
        xs = np.arange(n) / n
        for delta in (2.0, 3.0, 8.0):
            z = signal_on_grid(delta, n)
            if delta % 2 == 0:
                direct = _periodic_poly_values(xs, int(delta) // 2)
            else:
                direct = cosine_series(delta, xs)
            assert np.max(np.abs(z - direct)) <= 1e-9

    def test_noninteger_delta_against_series(self):
        # grid points away from 0, where the truncated series converges
        n = 20
        j = np.array([3, 7, 16])
        vals = signal_on_grid(1.7, n)[j]
        assert np.max(np.abs(vals - cosine_series(1.7, j / n))) <= 1e-6

    def test_fast_decay_leaves_the_first_harmonic(self):
        # n^(-delta) underflows to 0 here; the fold once multiplied it by an
        # overflowing zeta(delta, r/n) and made the whole signal NaN
        n = 20
        z = signal_on_grid(300.0, n)
        assert np.max(np.abs(z - 2.0 * np.cos(2 * np.pi * np.arange(n) / n))) <= 1e-15

    def test_divergent_delta_rejected(self):
        with pytest.raises(ConfigError):
            signal_on_grid(0.9, 20)

    @pytest.mark.parametrize("delta", [1e20, 1e100, 1e300])
    def test_huge_delta_leaves_the_first_harmonic(self, delta):
        # scipy's zeta(s, a) is NaN for a > 1 once s >= 1e20, where the true
        # value is 0; the fold once turned that into a NaN signal and exit 3
        n = 20
        z = signal_on_grid(delta, n)
        assert np.max(np.abs(z - 2.0 * np.cos(2 * np.pi * np.arange(n) / n))) <= 1e-15


def fold_grid(n):
    """The arguments 1 + r/n, r = 0..n-1, at which the residue fold takes zeta."""
    return 1.0 + np.arange(n) / n


class TestHurwitzZeta:
    # scipy's zeta is the oracle; the generators take zeta(s, 1 + r/n) at
    # s = 2 beta for the eigenvalues and s = delta for the signal
    @pytest.mark.parametrize("s", [2.0, 4.0, 6.0, 8.0, 16.0])
    def test_matches_scipy_at_kernel_rates(self, s):
        for n in (1, 2, 7, 64, 1000, 4097, 2**16):
            q = fold_grid(n)
            want = zeta(s, q)
            assert np.max(np.abs(hurwitz_zeta(s, q) - want) / want) <= 1e-15

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(
        delta=st.floats(1.0, 700.0, exclude_min=True),
        log2_n=st.integers(0, 16),
    )
    def test_matches_scipy_at_drawn_delta(self, delta, log2_n):
        q = fold_grid(2**log2_n)
        want = zeta(delta, q)
        got = hurwitz_zeta(delta, q)
        assert np.max(np.abs(got - want) / want) <= 1e-15

    @pytest.mark.parametrize("s", [1.5, 2.0, 8.0, 16.0, 40.0, 300.0])
    def test_bit_for_bit_with_cephes(self, s):
        # same steps, same stops and the same C library pow as scipy's
        # Cephes zeta, which kept every rates CSV byte-identical
        q = fold_grid(4097)
        assert np.array_equal(hurwitz_zeta(s, q), zeta(s, q))

    def test_huge_s_is_finite(self):
        # the rising factorial of the corrections overflows there; every
        # term past q = 1 underflows to 0
        for s in (1e20, 1e300):
            assert np.array_equal(hurwitz_zeta(s, fold_grid(8)), [1.0] + [0.0] * 7)


class TestStridedSlices:
    """A size n reads its zeta tails and first row off any multiple N = n m, bit for bit."""

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        s=st.floats(1.0, 400.0, exclude_min=True),
        beta=st.sampled_from([1, 2, 3, 4, 8]),
        n=st.integers(1, 700),
        m=st.integers(1, 40),
    )
    def test_slices_of_a_multiple_are_the_size_itself(self, s, beta, n, m):
        assert np.array_equal(residue_tails(s, n * m)[::m], hurwitz_zeta(s, fold_grid(n)))
        assert np.array_equal(grid_row(beta, n * m)[::m], grid_row(beta, n))

    def test_divergent_tails_rejected(self):
        with pytest.raises(ConfigError, match="diverges"):
            residue_tails(1.0, 8)


class TestMirror:
    """Entry r of a circulant first row or spectrum is entry min(r, n - r)."""

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 33, 1024])
    def test_row_and_eigenvalues_are_mirrors(self, n):
        r = np.arange(n)
        pts = np.minimum(r, n - r) / n
        for beta in SUPPORTED_BETAS:
            direct = cross_gram(np.zeros(1), pts, KernelSpec.periodic_poly(beta)).reshape(-1)
            assert np.array_equal(grid_row(beta, n), direct)
            a = _residue_fold(2.0 * beta, n)
            assert np.array_equal(eig_circulant(beta, n), n * (a + a[(-r) % n]))


class TestDrawNoise:
    def test_zero_variance(self):
        assert np.array_equal(draw_noise(10, 0.0, 5, 0), np.zeros((5, 10)))

    def test_moments(self):
        sigma2 = 0.49
        eps = draw_noise(200, sigma2, 500, seed=3)
        m = eps.size
        assert abs(eps.mean()) <= 4.0 * np.sqrt(sigma2 / m)
        assert abs(eps.var() - sigma2) <= 0.05 * sigma2

    def test_determinism(self):
        assert np.array_equal(draw_noise(8, 1.0, 3, 9), draw_noise(8, 1.0, 3, 9))


def test_sigma2_for_snr():
    assert sigma2_for_snr(1.0, 2.0) == pytest.approx(0.25)
    with pytest.raises(ConfigError):
        sigma2_for_snr(1.0, 0.0)

