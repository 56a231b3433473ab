import json

import numpy as np
import pytest
from math import pi

from nyridge.errors import ConfigError
from nyridge.kernels import KernelSpec, gram
from nyridge.synthetic import (
    DecayLaw,
    FixedDesignProblem,
    SpectrumSpec,
    draw_noise,
    eig_circulant,
    grid_problem,
    random_design_problem,
    save_problem,
    signal_on_grid,
    signal_values,
    sigma2_for_snr,
)

POLY = lambda r: DecayLaw("polynomial", r)
EXPO = lambda r: DecayLaw("exponential", r)


class TestDecayLaws:
    def test_validation(self):
        with pytest.raises(ConfigError):
            DecayLaw("polynomial", 0.5)
        with pytest.raises(ConfigError):
            DecayLaw("exponential", 0.0)
        with pytest.raises(ConfigError):
            DecayLaw("linear", 1.0)

    def test_values(self):
        assert np.allclose(POLY(1).values([1, 2, 4]), [1.0, 0.25, 0.0625])
        assert np.allclose(EXPO(1.0).values([1, 2]), np.exp([-1.0, -2.0]))


class TestEigCirculant:
    @pytest.mark.parametrize("n", [8, 16, 32, 33, 64])
    @pytest.mark.parametrize("beta", [1, 2, 3, 4, 8])
    def test_polynomial_matches_dense(self, n, beta):
        # 1e-6 relative agreement on every eigenvalue the dense solver can
        # resolve; below its eps * lambda_max noise floor only absolute
        # agreement is meaningful
        prob_k = gram(np.arange(n) / n, KernelSpec.periodic_poly(beta)).entries
        dense = np.sort(np.linalg.eigvalsh(prob_k))
        mine = np.sort(eig_circulant(POLY(beta), n))
        floor = 1e-12 * mine[-1]
        assert np.all(np.abs(dense - mine) <= np.maximum(1e-6 * mine, floor))

    @pytest.mark.parametrize("n", [16, 32, 64])
    @pytest.mark.parametrize("rho", [0.5, 1.0, 2.0])
    def test_exponential_matches_dense(self, n, rho):
        K = gram(np.arange(n) / n, KernelSpec.periodic_exp(rho)).entries
        dense = np.sort(np.linalg.eigvalsh(K))
        mine = np.sort(eig_circulant(EXPO(rho), n))
        # tiny eigenvalues are below float resolution of the dense solve;
        # compare relative to the largest
        assert np.max(np.abs(dense - mine)) <= 1e-8 * mine[-1]
        big = mine > 1e-6 * mine[-1]
        dense_f = np.sort(np.linalg.eigvalsh(K))[big]
        assert np.max(np.abs(dense_f - mine[big]) / mine[big]) <= 1e-8

    def test_leading_eigenvalue_asymptotics(self):
        # leading eigenvalue approx n mu_1, within [1, 1.2] for beta = 1
        for n in (64, 128, 256):
            lead = np.max(eig_circulant(POLY(1), n))
            assert 1.0 <= lead / n <= 1.2


class TestGridProblem:
    def test_exactly_circulant_and_symmetric(self):
        prob = grid_problem(50, SpectrumSpec.polynomial(1, 2.0), 0.1)
        K = prob.K.entries
        assert np.array_equal(K, K.T)
        for i in range(50):
            assert np.array_equal(K[i], np.roll(K[0], i))

    def test_signal_value_at_zero(self):
        # f(0) = 2 sum_i sqrt(nu_i) = 2 zeta(2) for delta = 2
        prob = grid_problem(32, SpectrumSpec.polynomial(1, 2.0), 0.0)
        assert prob.z[0] == pytest.approx(pi**2 / 3, rel=1e-10)

    def test_trace_over_n_is_diagonal_value(self):
        prob = grid_problem(40, SpectrumSpec.polynomial(2, 3.0), 0.0)
        kxx = prob.K.entries[0, 0]
        assert prob.K.trace() / 40 == pytest.approx(kxx, rel=1e-12)

    def test_exact_eigs_match_dense(self):
        prob = grid_problem(48, SpectrumSpec.polynomial(1, 2.0), 0.0)
        dense = np.sort(np.linalg.eigvalsh(prob.K.entries))
        exact = np.sort(eig_circulant(prob.spectrum.mu, 48))
        assert np.max(np.abs(dense - exact) / dense) <= 1e-6

    def test_fourier_coefficients_track_signal_law(self):
        # |<z, u_i>| approx sqrt(n nu_i), wrap-around tails allowed
        n = 64
        delta = 2.0
        prob = grid_problem(n, SpectrumSpec.polynomial(1, delta), 0.0)
        coefs = np.abs(np.fft.fft(prob.z)) / np.sqrt(n)
        for i in (1, 2, 3, 5):
            target = np.sqrt(n) * i ** (-delta)
            assert abs(coefs[i] - target) <= 0.12 * target

    def test_signal_scale_is_order_one(self):
        for n in (32, 128, 512):
            prob = grid_problem(n, SpectrumSpec.polynomial(1, 2.0), 0.0)
            power = prob.z @ prob.z / n
            assert 0.5 < power < 20.0

    def test_small_n_rejected(self):
        with pytest.raises(ConfigError):
            grid_problem(1, SpectrumSpec.polynomial(1, 2.0), 0.0)

    def test_unsupported_beta_rejected(self):
        with pytest.raises(ConfigError):
            grid_problem(16, SpectrumSpec.polynomial(5, 2.0), 0.0)

    def test_nonfinite_or_negative_sigma2_rejected(self):
        for sigma2 in (float("nan"), float("inf"), -1e-3):
            with pytest.raises(ConfigError):
                grid_problem(16, SpectrumSpec.polynomial(1, 2.0), sigma2)

    def test_gram_matrix_built_lazily_from_first_row(self):
        prob = grid_problem(30, SpectrumSpec.polynomial(2, 3.0), 0.0)
        assert prob.kernel_matrix is None
        assert prob.mean_diag == prob.row0[0]
        K = prob.K.entries
        assert np.array_equal(K[0], prob.row0)
        assert np.array_equal(K, K.T)
        assert np.array_equal(np.roll(K[3], -3), prob.row0)

    def test_problem_needs_exactly_one_kernel_source(self):
        prob = grid_problem(8, SpectrumSpec.polynomial(1, 2.0), 0.0)
        with pytest.raises(ConfigError):
            FixedDesignProblem(prob.points, prob.z, 0.0)
        with pytest.raises(ConfigError):
            FixedDesignProblem(
                prob.points, prob.z, 0.0, row0=prob.row0, kernel_matrix=prob.K
            )

    def test_exponential_spectrum_problem(self):
        spec = SpectrumSpec(EXPO(1.0), EXPO(2.0))
        prob = grid_problem(24, spec, 0.0)
        dense = np.sort(np.linalg.eigvalsh(prob.K.entries))
        mine = np.sort(eig_circulant(spec.mu, 24))
        assert np.max(np.abs(dense - mine)) <= 1e-8 * mine[-1]
        # f(0) = 2 sum e^{-kappa i / 2} = 2 e^{-1} / (1 - e^{-1})
        f0 = 2 * np.exp(-1.0) / (1 - np.exp(-1.0))
        assert prob.z[0] == pytest.approx(f0, rel=1e-10)


class TestSignalValues:
    def test_grid_fold_matches_pointwise_on_grid(self):
        n = 20
        for delta in (2.0, 3.0, 8.0):
            z = signal_on_grid(POLY(delta), n)
            direct = signal_values(POLY(delta), np.arange(n) / n)
            assert np.max(np.abs(z - direct)) <= 1e-9

    def test_noninteger_delta_against_series(self):
        delta = 1.7
        xs = np.array([0.13, 0.37, 0.81])
        i = np.arange(1, 200_001, dtype=float)
        series = np.array(
            [np.sum(2.0 * i ** (-delta) * np.cos(2 * np.pi * i * x)) for x in xs]
        )
        vals = signal_values(POLY(delta), xs)
        assert np.max(np.abs(vals - series)) <= 1e-6

    def test_exponential_closed_form(self):
        kappa = 2.0
        xs = np.array([0.0, 0.25, 0.5])
        i = np.arange(1, 400, dtype=float)
        series = np.array(
            [np.sum(2.0 * np.exp(-kappa * i / 2) * np.cos(2 * np.pi * i * x)) for x in xs]
        )
        assert np.allclose(signal_values(EXPO(kappa), xs), series, atol=1e-12)

    def test_divergent_delta_rejected(self):
        with pytest.raises(ConfigError):
            signal_values(POLY(0.9), [0.1])


class TestRandomDesign:
    def test_determinism(self):
        spec = SpectrumSpec.polynomial(1, 2.0)
        a = random_design_problem(30, spec, 0.1, seed=5)
        b = random_design_problem(30, spec, 0.1, seed=5)
        assert np.array_equal(a.points, b.points)
        assert np.array_equal(a.z, b.z)
        assert np.array_equal(a.K.entries, b.K.entries)

    def test_trace_is_n_times_diagonal(self):
        prob = random_design_problem(50, SpectrumSpec.polynomial(1, 2.0), 0.0, seed=1)
        assert prob.K.trace() == pytest.approx(50 * pi**2 / 3, rel=1e-10)
        assert prob.row0 is None

    def test_eigenvalue_decay_tracks_law(self):
        # top eigenvalues within a [1/3, 3] band of n mu_i for beta = 1
        n = 400
        prob = random_design_problem(n, SpectrumSpec.polynomial(1, 2.0), 0.0, seed=2)
        ev = np.sort(np.linalg.eigvalsh(prob.K.entries))[::-1]
        # eigenvalues come in cosine/sine pairs; compare pair maxima
        for i in range(1, 11):
            # i-th frequency corresponds to eigenvalues 2i-1, 2i in rank order
            target = n * i ** (-2.0)
            got = ev[2 * i - 1]
            assert target / 3 <= got <= 3 * target


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
    z = np.array([1.0, -1.0, 1.0, -1.0])
    assert sigma2_for_snr(z, 2.0) == pytest.approx(0.25)
    with pytest.raises(ConfigError):
        sigma2_for_snr(z, 0.0)


def test_save_problem_round_trip(tmp_path):
    prob = grid_problem(12, SpectrumSpec.polynomial(1, 2.0), 0.3)
    path = tmp_path / "problem.csv"
    save_problem(prob, path)
    rows = path.read_text().strip().splitlines()
    assert rows[0] == "point,z"
    pts = np.array([float(r.split(",")[0]) for r in rows[1:]])
    zs = np.array([float(r.split(",")[1]) for r in rows[1:]])
    assert np.array_equal(pts, prob.points)
    assert np.array_equal(zs, prob.z)
    meta = json.loads((tmp_path / "problem.csv.meta.json").read_text())
    assert meta["sigma2"] == 0.3
    assert meta["mu"] == {"kind": "polynomial", "rate": 1}
