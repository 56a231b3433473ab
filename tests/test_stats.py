import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import circulant

from nyridge import experiments, lowrank, stats
from nyridge.errors import ConfigError, DataError, NumericalError, VacuousBoundError, finite, generator
from nyridge.experiments import resolve_config, run_rate_check
from nyridge.lowrank import nystrom, sample_columns
from nyridge.stats import (
    RankSweeper,
    Spectrum,
    bias_variance,
    default_lambda_grid,
    dof,
    fit_rate,
    lowrank_bias_variance,
    optimal_lambda,
    lemma_deviations,
    lemma_tail,
    problem_spectrum,
    theorem_rank_bound,
    verify_theorem,
)
from nyridge.synthetic import SpectrumSpec, draw_noise, eig_circulant, grid_problem


def direct_nystrom(K, idx):
    """L = K(V, I) K(I, I)^+ K(I, V) straight from the formula."""
    cols = K[:, idx]
    return cols @ np.linalg.pinv(K[np.ix_(idx, idx)], rcond=1e-12, hermitian=True) @ cols.T


def optimal_on_default_grid(prob):
    """optimal_lambda on the problem's spectrum and its default grid."""
    grid = default_lambda_grid(prob.mean_diag)
    return optimal_lambda(problem_spectrum(prob), prob.sigma2, grid)


def random_psd(n, seed, cond_floor=1e-4):
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    ev = 10.0 ** rng.uniform(np.log10(cond_floor), 0.0, size=n)
    return (q * ev) @ q.T


class TestDof:
    def test_scaled_identity(self):
        # K = c I: every quantity collapses to n c / (c + n lambda)
        n, c, lam = 2, 1.0, 0.5
        d_max, d_trace, d_ave = dof(c * np.eye(n), lam)
        assert d_max == pytest.approx(1.0, abs=1e-12)
        assert d_trace == pytest.approx(1.0, abs=1e-12)
        assert d_ave * (c + n * lam) / c == pytest.approx(1.0, abs=1e-12)

    def test_projection_limit(self):
        K = random_psd(12, 0, cond_floor=1e-2)
        lam = 1e-12 * np.linalg.eigvalsh(K)[-1] / 12
        d_max, d_trace, d_ave = dof(K, lam)
        for d in (d_max, d_trace, d_ave):
            assert abs(d - 12) <= 1e-3

    def test_matches_inverse_oracle(self):
        # independent route: dense matrix inverse, no eigendecomposition
        K = random_psd(6, 1)
        lam = 0.07
        M = K @ np.linalg.inv(K + 6 * lam * np.eye(6))
        d_max, d_trace, d_ave = dof(K, lam)
        assert d_max == pytest.approx(6 * np.max(np.diag(M)), rel=1e-10)
        assert d_trace == pytest.approx(np.trace(M), rel=1e-10)
        assert d_ave == pytest.approx(np.trace(M @ M), rel=1e-10)

    def test_chain_inequality(self):
        for seed in range(20):
            K = random_psd(15, seed)
            lam = 10.0 ** np.random.default_rng(seed).uniform(-8, 0)
            d_max, d_trace, d_ave = dof(K, lam)
            assert d_max >= d_trace - 1e-10 * 15
            assert d_trace >= d_ave - 1e-10 * 15
            assert d_ave >= 0

    def test_exact_circulant_eigs_match_dense(self):
        prob = grid_problem(36, SpectrumSpec(1, 2.0), 0.0)
        lam = 1e-2
        dense = dof(prob.K, lam)
        # all n Fourier modes, each of multiplicity 1
        spectral = Spectrum(eig_circulant(1, 36), 36, np.zeros(36), weight=np.ones(36)).dof(lam)
        assert dense[0] == pytest.approx(spectral[0], rel=1e-6)
        assert dense[1] == pytest.approx(spectral[1], rel=1e-8)
        assert dense[2] == pytest.approx(spectral[2], rel=1e-8)


    def test_a_spectrum_without_a_signal_scores_the_zero_signal(self):
        # the signal-less spectrum behind dof had a NaN bias row, and
        # optimal_lambda(Spectrum.dense(2 I), ...) returned error_star=nan
        K, grid = 2.0 * np.eye(4), np.geomspace(1e-3, 1.0, 5)
        choice = optimal_lambda(Spectrum.dense(K), 0.5, grid)
        assert math.isfinite(choice.error_star) and choice.error_star > 0
        assert choice.error_star == Spectrum.dense(K, np.zeros(4)).error(0.5, choice.lambda_star)
        bias, _, _ = Spectrum.circulant(np.array([2.0, 0.5, 0.5])).terms(grid)
        assert np.all(bias == 0.0)
        # the d.o.f. sums never read the signal: dof is the same with any z, bit for bit
        K = random_psd(12, 4)
        z = np.random.default_rng(5).normal(size=12)
        for lam in (1e-6, 1e-3, 0.5):
            assert dof(K, lam) == Spectrum.dense(K, z).dof(lam)


class TestBiasVariance:
    def test_zero_signal_zero_bias(self):
        K = random_psd(10, 2)
        b, v = bias_variance(K, np.zeros(10), 1.0, 0.1)
        assert b == 0.0
        assert v > 0

    def test_zero_noise_zero_variance(self):
        K = random_psd(10, 3)
        z = np.random.default_rng(4).normal(size=10)
        b, v = bias_variance(K, z, 0.0, 0.1)
        assert v == 0.0
        assert b > 0

    def test_identity_kernel_closed_form(self):
        n, lam, sigma2 = 7, 0.2, 0.5
        z = np.random.default_rng(5).normal(size=n)
        b, v = bias_variance(np.eye(n), z, sigma2, lam)
        shrink = (1 + n * lam) ** 2
        assert v == pytest.approx(sigma2 / shrink, rel=1e-12)
        assert b == pytest.approx(n * lam**2 * (z @ z) / shrink, rel=1e-12)

    def test_monte_carlo_oracle(self):
        # closed form within 3 standard errors of a simulated mean
        n, trials = 40, 800
        prob = grid_problem(n, SpectrumSpec(1, 2.0), 0.0)
        K = prob.K
        z = prob.z
        sigma2 = 0.25
        lam = 5e-3
        S = K @ np.linalg.inv(K + n * lam * np.eye(n))
        eps = draw_noise(n, sigma2, trials, seed=6)
        errs = np.array([np.mean((S @ (z + e) - z) ** 2) for e in eps])
        mc_mean = errs.mean()
        mc_se = errs.std(ddof=1) / np.sqrt(trials)
        b, v = bias_variance(K, z, sigma2, lam)
        assert abs((b + v) - mc_mean) <= 3 * mc_se

    def test_monotonicity_in_lambda(self):
        K = random_psd(12, 7)
        z = np.random.default_rng(8).normal(size=12)
        lams = np.geomspace(1e-6, 1.0, 10)
        biases, variances = zip(*(bias_variance(K, z, 1.0, lam) for lam in lams))
        assert all(a <= b + 1e-14 for a, b in zip(biases, biases[1:]))
        assert all(a >= b - 1e-14 for a, b in zip(variances, variances[1:]))

    def test_lowrank_path_matches_dense(self):
        K = random_psd(30, 9)
        z = np.random.default_rng(10).normal(size=30)
        F = nystrom(K, sample_columns(30, 8, 11))
        lam, sigma2 = 3e-3, 0.7
        b1, v1 = lowrank_bias_variance(F.phi, z, sigma2, lam)
        b2, v2 = bias_variance(F.gram(), z, sigma2, lam)
        assert b1 == pytest.approx(b2, rel=1e-8)
        assert v1 == pytest.approx(v2, rel=1e-8)

    def test_variance_of_approximation_never_larger(self):
        K = random_psd(25, 12)
        z = np.random.default_rng(13).normal(size=25)
        _, v_full = bias_variance(K, z, 1.0, 1e-3)
        for p in (2, 8, 20):
            F = nystrom(K, sample_columns(25, p, p))
            _, v_low = lowrank_bias_variance(F.phi, z, 1.0, 1e-3)
            assert v_low <= v_full + 1e-12

    def test_spectral_path_matches_dense_on_grid(self):
        prob = grid_problem(32, SpectrumSpec(1, 3.0), 0.2)
        coef2 = np.abs(np.fft.fft(prob.z)) ** 2 / 32
        lam = 2e-3
        spec = Spectrum(eig_circulant(1, 32), 32, coef2=coef2)
        b1, v1 = spec.bias_variance(0.2, lam)
        b2, v2 = bias_variance(prob.K, prob.z, 0.2, lam)
        assert b1 == pytest.approx(b2, rel=1e-8)
        assert v1 == pytest.approx(v2, rel=1e-8)


class TestDenseSpectrum:
    def test_fields_consistent(self):
        K = random_psd(9, 14)
        z = np.random.default_rng(15).normal(size=9)
        spec = Spectrum.dense(K, z)
        d_max, d_trace, d_ave = spec.dof(0.05)
        bias, variance = spec.bias_variance(0.3, 0.05)
        assert d_max >= d_trace >= d_ave >= 0
        assert 0 <= d_ave <= 9
        assert bias >= 0 and variance >= 0
        assert spec.n == 9
        assert (d_max, d_trace, d_ave) == dof(K, 0.05)
        assert (bias, variance) == bias_variance(K, z, 0.3, 0.05)


class TestNonFiniteInputs:
    """The spectra that take a K, a factor or a signal refuse non-finite entries."""

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_dense_reference_functions(self, bad):
        K = random_psd(8, 1)
        z = np.random.default_rng(2).normal(size=8)
        K_bad, z_bad = K.copy(), z.copy()
        K_bad[3, 5] = bad
        z_bad[4] = bad
        # dof gave (nan, nan, nan) and bias_variance a NaN bias
        with pytest.raises(DataError, match="kernel matrix"):
            dof(K_bad, 0.1)
        with pytest.raises(DataError, match="kernel matrix"):
            bias_variance(K_bad, z, 0.5, 0.1)
        with pytest.raises(DataError, match="signal"):
            bias_variance(K, z_bad, 0.5, 0.1)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_factor_spectra(self, bad):
        rng = np.random.default_rng(3)
        phi, z = rng.normal(size=(8, 3)), rng.normal(size=8)
        phi_bad, z_bad = phi.copy(), z.copy()
        phi_bad[2, 1] = bad
        z_bad[0] = bad
        with pytest.raises(DataError, match="factor"):
            Spectrum.lowrank(phi_bad, z)
        with pytest.raises(DataError, match="signal"):
            Spectrum.lowrank(phi, z_bad)
        with pytest.raises(DataError, match="signal"):
            Spectrum.prefixes(phi, z_bad)
        with pytest.raises(DataError, match="signal"):
            lowrank_bias_variance(phi, z_bad, 0.5, 0.1)
        # a NaN factor gave prefix error nan and lowrank_bias_variance (nan, nan)
        with pytest.raises(DataError, match=re.escape(f"factor entry (2, 1) is {bad!r}")):
            Spectrum.prefixes(phi_bad, z)
        with pytest.raises(DataError, match="factor"):
            lowrank_bias_variance(phi_bad, z, 0.5, 0.1)


class TestSignalLength:
    """Each Spectrum constructor refuses a signal that does not fit its n with
    DataError; each raised a bare numpy ValueError from matmul or a broadcast."""

    def test_dense(self):
        with pytest.raises(DataError, match="signal needs 4 entries"):
            Spectrum.dense(np.eye(4), np.ones(3))

    def test_lowrank(self):
        with pytest.raises(DataError, match="signal needs 4 entries"):
            Spectrum.lowrank(np.ones((4, 2)), np.ones(3))

    def test_prefixes(self):
        with pytest.raises(DataError, match="signal needs 5 entries"):
            Spectrum.prefixes(np.ones((5, 2)), np.ones(6))

    def test_circulant(self):
        row0 = np.array([2.0, 0.5, 0.1, 0.5])
        with pytest.raises(DataError, match="zhat needs 3 entries"):
            Spectrum.circulant(row0, np.ones(2) + 0j)


class TestTheoremRankBound:
    def test_worked_example(self):
        d, delta, n, r2, lam = 10.0, 0.25, 400, math.pi**2 / 3, 1e-3
        expect = math.ceil((32 * d / delta + 2) * math.log(n * r2 / (delta * lam)))
        got = theorem_rank_bound(d, delta, n, r2, lam)
        assert got == expect
        assert got == 19841  # (32 d / delta + 2) log(...) = 1282 log(5.2638e6)

    def test_delta_near_one_with_zero_dof(self):
        n, r2, lam = 100, 2.0, 1e-2
        delta = 1 - 1e-12
        got = theorem_rank_bound(0.0, delta, n, r2, lam)
        assert got == math.ceil(2 * math.log(n * r2 / (delta * lam)))

    def test_linear_in_dof(self):
        n, r2, lam, delta = 400, 3.0, 1e-4, 0.5
        d = 7.0
        diff = theorem_rank_bound(2 * d, delta, n, r2, lam) - theorem_rank_bound(
            d, delta, n, r2, lam
        )
        expect = (32 * d / delta) * math.log(n * r2 / (delta * lam))
        assert abs(diff - expect) <= 1.0  # rounding of the two ceilings

    def test_vacuous_bound_signaled(self):
        with pytest.raises(VacuousBoundError):
            theorem_rank_bound(1.0, 0.5, 1, 1e-12, 1e6)

    def test_parameter_validation(self):
        with pytest.raises(ConfigError):
            theorem_rank_bound(1.0, 1.5, 10, 1.0, 0.1)
        with pytest.raises(ConfigError):
            theorem_rank_bound(1.0, 0.5, 10, 1.0, 0.0)
        # delta's interval is open at both ends, in the bound and in its check
        prob = grid_problem(20, SpectrumSpec(1, 3.0), 0.5)
        for delta in (0.0, 1.0):
            with pytest.raises(ConfigError):
                theorem_rank_bound(1.0, delta, 10, 1.0, 0.1)
            with pytest.raises(ConfigError):
                verify_theorem(prob, lam=1e-2, delta=delta, p=5, trials=1, seed=0)

    @pytest.mark.parametrize("args, name", [
        ((3.0, 0.5, 2.5, 1.0, 1e-2), "n must be an integer"),  # returned 1206
        ((3.0, 0.5, 0, 1.0, 1e-2), "n must be >= 1"),
        ((math.nan, 0.5, 10, 1.0, 1e-2), "d_max must be a finite number"),
        ((-1.0, 0.5, 10, 1.0, 1e-2), "d_max must be >= 0"),
        ((3.0, 0.5, 10, math.inf, 1e-2), "r2 must be a finite number"),
    ])
    def test_every_scalar_goes_through_the_scalar_rule(self, args, name):
        with pytest.raises(ConfigError, match=name):
            theorem_rank_bound(*args)


class TestVerifyTheorem:
    def test_full_rank_ratio_is_one(self):
        prob = grid_problem(40, SpectrumSpec(1, 3.0), 0.5)
        check = verify_theorem(prob, lam=1e-2, delta=0.25, p=40, trials=5, seed=0)
        assert check.ratio_mean == pytest.approx(1.0, abs=1e-8)
        assert check.holds

    @pytest.mark.parametrize("delta", [0.1, 0.5])
    def test_bound_is_one_plus_four_delta(self, delta):
        prob = grid_problem(30, SpectrumSpec(1, 3.0), 0.5)
        check = verify_theorem(prob, lam=1e-3, delta=delta, p=4, trials=5, seed=3)
        assert check.bound == 1 + 4 * delta
        assert check.holds == (check.ratio_mean <= check.bound)

    def test_zero_signal_ratio_below_one(self):
        prob = grid_problem(30, SpectrumSpec(1, 3.0), 0.5)
        prob.z = np.zeros(30)
        check = verify_theorem(prob, lam=1e-3, delta=0.25, p=6, trials=20, seed=1)
        assert np.all(check.ratios <= 1.0 + 1e-12)

    def test_checks_k_once_per_factor(self, monkeypatch):
        # nested_factor checks its K once and the Cholesky loop trusts it.
        # n = 128 exceeds the 64-row candidate pool, so a pivot outside it is
        # a one-row read: checking each draw, diagonal, panel and read again
        # made 47 calls for two trials
        calls = []

        def counting(a, what, *args, **kwargs):
            calls.append(what)
            return finite(a, what, *args, **kwargs)

        monkeypatch.setattr(lowrank, "finite", counting)
        verify_theorem(grid_problem(128, SpectrumSpec(1, 3.0), 0.5), lam=1e-3, delta=0.25, p=48, trials=2, seed=0)
        assert calls == ["kernel matrix"] * 2

    def test_reports_high_probability_quantile(self):
        prob = grid_problem(36, SpectrumSpec(1, 3.0), 0.3)
        check = verify_theorem(prob, lam=5e-3, delta=0.25, p=10, trials=25, seed=2)
        assert 0.0 <= check.frac_above_threshold <= 1.0
        assert check.high_prob_threshold == pytest.approx((1 - 0.125) ** -2)
        assert check.trials == 25 and check.p == 10
        # each ratio is the closed-form error ratio of the direct L on its draw
        K = prob.K
        err_full = sum(bias_variance(K, prob.z, prob.sigma2, 5e-3))
        for t, ratio in enumerate(check.ratios):
            L = direct_nystrom(K, sample_columns(36, 10, generator(2, t)).indices)
            want = sum(bias_variance(L, prob.z, prob.sigma2, 5e-3)) / err_full
            assert abs(ratio - want) <= 1e-10


class TestBoundFormulas:
    """verify_theorem's and lemma_tail's bounds against their formulas written
    out, on problems where min(1, .) does not clip them."""

    @pytest.mark.parametrize("n", [40, 60])
    def test_high_prob_bound(self, n):
        prob = grid_problem(n, SpectrumSpec(1, 3.0), 0.5)
        lam, delta = 30.0, 0.5
        check = verify_theorem(prob, lam=lam, delta=delta, p=n, trials=2, seed=0)
        d_max = problem_spectrum(prob).dof(lam)[0]
        want = n * math.exp(-n / (32.0 * d_max / delta + 2.0))
        assert want < 1.0
        assert check.high_prob_bound == pytest.approx(want, rel=1e-12)

    def test_lemma_tail_bound(self):
        psi = np.random.default_rng(0).uniform(-1.0, 1.0, size=(50, 2))
        n, r = psi.shape
        lam_max = np.linalg.eigvalsh(psi.T @ psi / n)[-1]
        r2 = np.max(np.sum(psi * psi, axis=1))
        p, t_grid = 40, [0.25, 0.5, 1.0]
        rows = lemma_tail(psi, p, t_grid, lemma_deviations([psi], p, 50, 1)[0])
        for (t, _, bound), tval in zip(rows, t_grid):
            want = r * math.exp(-p * tval ** 2 / (2.0 * lam_max * (r2 + tval / 3.0)))
            assert t == tval and want < 1.0
            assert bound == pytest.approx(want, rel=1e-12)


class TestVerifyLemma:
    def test_t_above_lambda_max_has_zero_probability(self):
        rng = np.random.default_rng(3)
        psi = rng.normal(size=(60, 8))
        lam_max = np.linalg.eigvalsh(psi.T @ psi / 60)[-1]
        rows = lemma_tail(psi, 10, [1.01 * lam_max], lemma_deviations([psi], 10, 200, 4)[0])
        assert rows[0][1] == 0.0

    @pytest.mark.parametrize("p, message", [
        (math.nan, "p must be an integer"), (2.5, "p must be an integer"), (0, "p must be >= 1"),
        (41, "p must be <= n = 40"),
    ])
    def test_lemma_tail_takes_a_subset_size(self, p, message):
        psi = np.random.default_rng(5).normal(size=(40, 6))
        with pytest.raises(ConfigError, match=message):  # nan and 2.5 returned rows
            lemma_tail(psi, p, [0.1], np.zeros(3))

    @pytest.mark.parametrize("t_grid, devs, what", [
        ([0.1, math.nan], np.zeros(3), "t grid entry 1"),
        ([0.1], [0.0, math.inf], "deviations entry 1"),
        ([0.1], [], "deviations needs"),
    ])
    def test_lemma_tail_checks_its_arrays(self, t_grid, devs, what):
        psi = np.random.default_rng(5).normal(size=(40, 6))
        with pytest.raises(DataError, match=what):
            lemma_tail(psi, 10, t_grid, devs)

    def test_full_subset_no_deviation(self):
        rng = np.random.default_rng(5)
        psi = rng.normal(size=(40, 6))
        devs = lemma_deviations([psi], 40, 50, 6)[0]
        rows = lemma_tail(psi, 40, [1e-10, 0.1], devs)
        assert all(emp == 0.0 for _, emp, _ in rows)
        # p = n draws every row, so Psi_I^T Psi_I / p is Psi^T Psi / n up to rounding
        lam_max = np.linalg.eigvalsh(psi.T @ psi / 40)[-1]
        assert np.all(np.abs(devs) <= 1e-12 * lam_max)

    def test_empirical_below_bound(self):
        rng = np.random.default_rng(7)
        psi = rng.normal(size=(120, 10))
        lam_max = np.linalg.eigvalsh(psi.T @ psi / 120)[-1]
        t_grid = lam_max * np.geomspace(0.05, 1.0, 8)
        rows = lemma_tail(psi, 30, t_grid, lemma_deviations([psi], 30, 2000, 8)[0])
        for t, emp, bound in rows:
            assert emp <= bound + 1e-12
            assert 0 <= bound <= 1.0


class TestSufficientRank:
    def test_huge_lambda_needs_rank_one(self):
        prob = grid_problem(36, SpectrumSpec(1, 3.0), 0.5)
        sweeper = RankSweeper(prob, trials=3, seed=0)
        p = sweeper.sufficient_rank(1e4, "random", tol=0.01)
        assert p == 1

    def test_huge_tolerance_needs_rank_one(self):
        prob = grid_problem(36, SpectrumSpec(1, 3.0), 0.5)
        sweeper = RankSweeper(prob, trials=3, seed=1)
        p = sweeper.sufficient_rank(1e-3, "random", tol=1e9)
        assert p == 1

    def test_overflowing_target_needs_rank_one(self):
        # a finite full error whose (1 + tol) multiple overflows: every rank meets the infinite target
        prob = grid_problem(36, SpectrumSpec(1, 3.0), 1e3)
        assert 1.0 < prob.full_error(1e-3) < math.inf
        assert RankSweeper(prob, trials=3, seed=1).sufficient_rank(1e-3, "random", tol=1.7e308) == 1

    def test_zero_full_error_is_refused(self):
        # (1 + tol) 0 could never be met: the sweep returned n
        prob = grid_problem(16, SpectrumSpec(1, 3.0), 0.0)
        with pytest.raises(NumericalError, match="full-matrix error at lambda=1e-300 is 0.0; no ratio to it"):
            RankSweeper(prob, trials=1).sufficient_rank(1e-300, "random")

    def test_pivoted_deterministic_and_reasonable(self):
        prob = grid_problem(48, SpectrumSpec(1, 3.0), 0.5)
        lams = optimal_on_default_grid(prob)
        p1 = RankSweeper(prob, seed=0).sufficient_rank(lams.lambda_star, "pivoted")
        p2 = RankSweeper(prob, seed=99).sufficient_rank(lams.lambda_star, "pivoted")
        assert p1 == p2
        assert 1 <= p1 <= 48

    def test_sweeper_error_matches_direct_nystrom(self):
        prob = grid_problem(30, SpectrumSpec(1, 3.0), 0.4)
        sw = RankSweeper(prob, trials=4, seed=5)
        lam = 1e-2
        # recompute the mean closed-form error from the direct formula for L
        p = 7
        direct = []
        for t in range(4):
            order = generator(5, t).permutation(30)
            L = direct_nystrom(prob.K, order[:p])
            b, v = bias_variance(L, prob.z, prob.sigma2, lam)
            direct.append(b + v)
        assert sw.error("random", p, lam) == pytest.approx(np.mean(direct), rel=1e-8)

    def test_unknown_method_rejected_before_k_is_built(self):
        prob = grid_problem(30, SpectrumSpec(1, 3.0), 0.4)
        sweeper = RankSweeper(prob)
        with pytest.raises(ConfigError, match="unknown method 'greedy'"):
            sweeper.sufficient_rank(1e-2, "greedy")
        assert "K" not in vars(prob)  # the n x n matrix was never assembled

    @pytest.mark.parametrize("method", ["random", "pivoted"])
    @pytest.mark.parametrize("lam, answer", [(1e4, "one"), (1.0, "between"), (1e-4, "n")])
    def test_probes_double_then_bisect(self, method, lam, answer):
        # n = 40 is no power of two, so the doubling is capped at n
        n, tol = 40, 0.01
        prob = grid_problem(n, SpectrumSpec(1, 2.5), 1e-6)
        sweeper = RankSweeper(prob, trials=3, seed=2)
        probes, seen = [], {}
        error = sweeper.error

        def recorded(method, p, lam):
            probes.append(p)
            seen[p] = error(method, p, lam)
            return seen[p]

        sweeper.error = recorded
        got = sweeper.sufficient_rank(lam, method, tol)

        target = (1.0 + tol) * prob.full_error(lam)
        expected = []

        def ok(p):
            expected.append(p)
            return seen[p] <= target

        p = 1
        while p < n and not ok(p):
            p *= 2
        p = min(p, n)
        if not ok(p):
            want = n
        else:
            lo, hi = p // 2, p  # ok(p // 2) failed while doubling, or p // 2 is 0
            while hi - lo > 1:
                mid = (lo + hi) // 2
                if ok(mid):
                    hi = mid
                else:
                    lo = mid
            want = hi
        assert probes == expected
        assert got == want
        assert {"one": got == 1, "between": 1 < got < n, "n": got == n}[answer]


class TestOptimalLambda:
    def test_zero_signal_picks_largest(self):
        prob = grid_problem(24, SpectrumSpec(1, 2.0), 0.5)
        prob.z = np.zeros(24)
        choice = optimal_on_default_grid(prob)
        grid = default_lambda_grid(np.trace(prob.K) / 24)
        assert choice.lambda_star == pytest.approx(grid[-1])
        assert not choice.saturated

    def test_zero_noise_picks_smallest_and_flags(self):
        prob = grid_problem(24, SpectrumSpec(1, 2.0), 0.0)
        choice = optimal_on_default_grid(prob)
        assert choice.saturated
        grid = default_lambda_grid(np.trace(prob.K) / 24)
        assert choice.lambda_star <= grid[1]

    def test_refinement_improves_or_matches_grid(self):
        prob = grid_problem(40, SpectrumSpec(1, 3.0), 0.3)
        choice = optimal_on_default_grid(prob)
        grid = default_lambda_grid(np.trace(prob.K) / 40)
        from nyridge.stats import bias_variance as bv

        grid_best = min(sum(bv(prob.K, prob.z, prob.sigma2, l)) for l in grid)
        assert choice.error_star <= grid_best + 1e-15

    @pytest.mark.parametrize("num", [5, 6, 7])
    @pytest.mark.parametrize(
        "beta, delta, n, sigma2", [(1, 3.0, 64, 0.05), (2, 2.5, 48, 0.2), (4, 8.0, 128, 0.01)]
    )
    def test_refinement_searches_both_neighbours(self, beta, delta, n, sigma2, num):
        # on a coarse grid the minimizer lies strictly between the best grid
        # point's two neighbours, so the refinement must beat the grid
        prob = grid_problem(n, SpectrumSpec(beta, delta), sigma2)
        spec = problem_spectrum(prob)
        grid = prob.mean_diag * np.logspace(-16.0, 0.0, num)
        errs = [spec.error(sigma2, lam) for lam in grid]
        i = int(np.argmin(errs))
        assert 0 < i < num - 1
        choice = optimal_lambda(spec, sigma2, grid)
        assert choice.error_star < errs[i]
        assert grid[i - 1] < choice.lambda_star < grid[i + 1]

    def test_rejects_bad_grid(self):
        prob = grid_problem(16, SpectrumSpec(1, 2.0), 0.1)
        with pytest.raises(ConfigError):
            optimal_lambda(problem_spectrum(prob), prob.sigma2, [1e-3, 1e-4])

    @pytest.mark.parametrize("sigma2", [float("nan"), float("inf"), -1.0])
    def test_rejects_bad_sigma2(self, sigma2):
        # a NaN sigma2 scored error_star=nan, saturated=True; -1 scored errors below 0
        prob = grid_problem(16, SpectrumSpec(1, 2.0), 0.1)
        with pytest.raises(ConfigError, match="sigma2"):
            optimal_lambda(problem_spectrum(prob), sigma2, default_lambda_grid(prob.mean_diag))


class TestFitRate:
    def test_exact_power_law(self):
        ns = [32, 64, 128, 256, 512]
        fit = fit_rate([(n, 3.7 * n**-1.25) for n in ns])
        assert fit.exponent == pytest.approx(-1.25, abs=1e-10)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_noisy_power_law(self):
        rng = np.random.default_rng(9)
        ns = np.array([64, 128, 256, 512, 1024, 2048])
        vals = 2.0 * ns**0.4 * (1 + 0.01 * rng.standard_normal(ns.size))
        fit = fit_rate(list(zip(ns, vals)))
        assert abs(fit.exponent - 0.4) <= 0.05

    def test_constant_values(self):
        fit = fit_rate([(n, 5.0) for n in (10, 20, 40, 80)])
        assert abs(fit.exponent) <= 1e-12

    def test_validation(self):
        with pytest.raises(ConfigError):
            fit_rate([(10, 1.0), (20, 2.0), (40, 3.0)])
        with pytest.raises(ConfigError):
            fit_rate([(10, 1.0), (20, -2.0), (40, 3.0), (80, 4.0)])
        # a size or a value of exactly 0 has no logarithm
        for zero in ((0, 1.0), (10, 0.0)):
            with pytest.raises(ConfigError):
                fit_rate([zero, (20, 2.0), (40, 3.0), (80, 4.0)])

    def test_needs_two_distinct_sizes(self):
        # four points at one n once gave a slope out of rounding alone
        with pytest.raises(ConfigError, match="2 distinct sizes"):
            fit_rate([(64, v) for v in (1.0, 2.0, 3.0, 4.0)])
        fit = fit_rate([(64, 1.0), (64, 1.0), (128, 0.5), (128, 0.5)])
        assert fit.exponent == pytest.approx(-1.0, abs=1e-12)

    @pytest.mark.parametrize("bad", [(1, math.inf), (math.inf, 1.0), (1, math.nan), (math.nan, 1.0)])
    def test_rejects_non_finite_pairs(self, bad):
        # an infinite value gave exponent=nan, r_squared=1.0 and a RuntimeWarning
        with pytest.raises(ConfigError, match="finite"):
            fit_rate([bad, (2, 1.0), (3, 1.0), (4, 1.0)])


def rel_gap(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


# (beta, delta, n): every supported smoothness up to 4, signal decays on both
# sides of 2 beta, even and odd sizes up to 256
GRID_CASES = [
    (beta, delta, n)
    for beta, delta in [(1, 1.5), (1, 3.0), (2, 2.0), (2, 6.0), (4, 3.0), (4, 8.0)]
    for n in (31, 64, 97, 256)
]


class TestCirculantSpectrum:
    """The FFT path against the dense eigendecomposition of the same K."""

    @pytest.mark.parametrize("beta,delta,n", GRID_CASES)
    def test_matches_dense_reference(self, beta, delta, n):
        prob = grid_problem(n, SpectrumSpec(beta, delta), 0.3)
        fast = Spectrum.circulant(prob.row0, np.fft.rfft(prob.z))
        dense = Spectrum.dense(prob.K, prob.z)
        lams = prob.mean_diag * np.logspace(-6, 0, 7)
        for lam in np.append(lams, optimal_on_default_grid(prob).lambda_star):
            for got, want in zip(fast.bias_variance(0.3, lam), dense.bias_variance(0.3, lam)):
                assert rel_gap(got, want) <= 1e-8
            (fmax, ftrace, fave), (_, dtrace, dave) = fast.dof(lam), dense.dof(lam)
            assert rel_gap(ftrace, dtrace) <= 1e-8
            assert rel_gap(fave, dave) <= 1e-8
            assert fmax == ftrace

    @pytest.mark.parametrize("beta,delta,n", GRID_CASES)
    def test_eigenvalues_match_exact(self, beta, delta, n):
        prob = grid_problem(n, SpectrumSpec(beta, delta), 0.0)
        got = Spectrum.circulant(prob.row0).eigs
        exact = eig_circulant(beta, n)[: n // 2 + 1]  # the half spectrum r = 0..n/2
        big = exact > 1e-10 * exact.max()
        assert np.max(np.abs(got[big] - exact[big]) / exact[big]) <= 1e-6

    @pytest.mark.parametrize("delta", [1.5, 3.0])
    @pytest.mark.parametrize("n", [2, 3, 31, 64, 97])
    def test_half_spectrum_matches_full_fft(self, delta, n):
        # the reference keeps all n Fourier modes with unit weights; beta = 1
        # keeps every eigenvalue far above the rounding floor, where rfft and
        # fft round differently (a few 1e-12 relative for beta >= 2)
        beta = 1
        prob = grid_problem(n, SpectrumSpec(beta, delta), 0.3)
        f = np.fft.fft(prob.z)
        full = Spectrum(
            np.clip(np.fft.fft(prob.row0).real, 0.0, None),
            n,
            coef2=(f.real**2 + f.imag**2) / n,
            weight=np.ones(n),
        )
        half = Spectrum.circulant(prob.row0, np.fft.rfft(prob.z))
        assert half.eigs.size == n // 2 + 1
        for lam in prob.mean_diag * np.logspace(-6, 0, 7):
            for got, want in zip(half.bias_variance(0.3, lam), full.bias_variance(0.3, lam)):
                assert rel_gap(got, want) <= 1e-12
            for got, want in zip(half.dof(lam), full.dof(lam)):
                assert rel_gap(got, want) <= 1e-12

    def test_problem_spectrum_follows_reassigned_signal(self):
        prob = grid_problem(40, SpectrumSpec(1, 3.0), 0.2)
        before = problem_spectrum(prob).bias_variance(0.0, 1e-3)[0]
        prob.z = 2.0 * prob.z
        assert problem_spectrum(prob).bias_variance(0.0, 1e-3)[0] == pytest.approx(4.0 * before, rel=1e-12)
        assert "K" not in vars(prob)  # the FFT path never assembled K

    def test_problem_caches_one_spectrum(self):
        prob = grid_problem(40, SpectrumSpec(1, 3.0), 0.2)
        assert prob.spectrum is prob.spectrum is problem_spectrum(prob)
        err = prob.full_error(1e-3)
        assert err == prob.spectrum.error(0.2, 1e-3)
        prob.sigma2 = 0.4  # sigma2 is read at each call, the spectrum kept
        assert prob.full_error(1e-3) == prob.spectrum.error(0.4, 1e-3) > err
        K = prob.K
        prob.row0 = 2.0 * prob.row0
        assert "spectrum" not in vars(prob) and "K" not in vars(prob)
        assert np.array_equal(prob.K, 2.0 * K)

    def test_problem_checks_its_arrays_on_first_spectrum(self):
        prob = grid_problem(40, SpectrumSpec(1, 3.0), 0.2)
        prob.z = np.append(prob.z[:-1], math.nan)
        with pytest.raises(DataError, match="signal entry 39 is nan"):
            prob.full_error(1e-3)
        prob.z = prob.z[:-1]
        with pytest.raises(DataError, match="signal needs 40 entries"):
            RankSweeper(prob)

    @pytest.mark.parametrize("beta,delta", [(1, 2.0), (4, 8.0)])
    def test_rate_check_rows_match_dense_path(self, beta, delta, monkeypatch):
        sizes = [16, 24, 33, 48, 64, 97, 128]
        cfg = resolve_config("rates", None, {"n_list": sizes, "beta": beta, "delta": delta})
        _, _, fast_rows = run_rate_check(cfg)
        # route every size through a dense eigh of the same K, with z formed
        # on the grid: neither the half spectrum nor the fold coefficients
        built = []

        def dense_spectrum(spectrum, n, cover):
            prob = grid_problem(n, spectrum, 0.0)
            built.append(n)
            return prob.mean_diag, Spectrum.dense(circulant(prob.row0), prob.z)

        monkeypatch.setattr(experiments, "_grid_spectrum", dense_spectrum)
        _, _, dense_rows = run_rate_check(cfg)
        assert sorted(built) == sizes  # the middle size is built once, for sigma2 and its row
        for fast, dense in zip(fast_rows, dense_rows, strict=True):
            assert fast[0] == dense[0] and fast[5] == dense[5]
            for got, want in zip(fast[1:4], dense[1:4]):  # lambda*, err*, d_ave
                assert rel_gap(got, want) <= 1e-12
            # the dense d_max is a maximum over eigenvector leverages, which
            # carry roundoff of a few 1e-11; the circulant one is d_trace
            assert rel_gap(fast[4], dense[4]) <= 1e-10


class TestBlockedScoring:
    """A lambda array is scored in blocks that change nothing, bit for bit."""

    SPECTRA = {
        "circulant": lambda: problem_spectrum(grid_problem(97, SpectrumSpec(2, 3.0), 0.3)),
        "dense": lambda: Spectrum.dense(random_psd(12, 3), np.arange(12.0)),
    }

    @pytest.mark.parametrize("kind", sorted(SPECTRA))
    def test_blocks_equal_one_lambda_at_a_time(self, kind, monkeypatch):
        spec = self.SPECTRA[kind]()
        lams = np.logspace(-16.0, 0.0, 52)
        # tiles of one element, tiles that cut the spectrum, one tile for all
        for block in (1, 40, lams.size * spec.eigs.size):
            monkeypatch.setattr(stats, "SCORE_BLOCK", block)
            one_at_a_time = np.stack([spec.terms([lam])[:, 0] for lam in lams], axis=1)
            assert np.array_equal(spec.terms(lams), one_at_a_time)
            errs = spec.errors(0.3, lams)
            for k, lam in enumerate(lams):
                bias, d_trace, d_ave = one_at_a_time[:, k]
                assert spec.error(0.3, lam) == errs[k]
                assert spec.bias_variance(0.3, lam) == (bias, 0.3 / spec.n * d_ave)
                assert spec.dof(lam)[1:] == (d_trace, d_ave)

    def test_every_lambda_is_checked(self):
        spec = self.SPECTRA["circulant"]()
        with pytest.raises(ConfigError):
            spec.terms([1e-3, 0.0, 1e-2])
        with pytest.raises(NumericalError, match="is not finite"):
            spec.errors(0.3, [1e-3, 1e308])


PROPERTY_SETTINGS = settings(max_examples=40, deadline=None, derandomize=True, database=None)


def _check_dof_chain(spec, lam):
    d_max, d_trace, d_ave = spec.dof(lam)
    slack = 1e-10 * spec.n
    assert d_max >= d_trace - slack
    assert d_trace >= d_ave - slack
    assert d_ave >= 0


class TestSpectrumProperties:
    @PROPERTY_SETTINGS
    @given(
        n=st.integers(2, 24),
        seed=st.integers(0, 2**32 - 1),
        log_lam=st.floats(-8, 1),
        sigma2=st.floats(0, 10),
    )
    def test_dense_chain_and_signs(self, n, seed, log_lam, sigma2):
        K = random_psd(n, seed, cond_floor=1e-8)
        z = np.random.default_rng(seed).normal(size=n)
        spec = Spectrum.dense(K, z)
        _check_dof_chain(spec, 10.0**log_lam)
        b, v = spec.bias_variance(sigma2, 10.0**log_lam)
        assert b >= 0 and v >= 0

    @PROPERTY_SETTINGS
    @given(
        n=st.integers(2, 24),
        p=st.integers(1, 24),
        seed=st.integers(0, 2**32 - 1),
        log_lam=st.floats(-6, 1),
        sigma2=st.floats(0, 10),
    )
    def test_lowrank_matches_dense_of_product(self, n, p, seed, log_lam, sigma2):
        rng = np.random.default_rng(seed)
        phi = rng.normal(size=(n, min(p, n)))
        z = rng.normal(size=n)
        lam = 10.0**log_lam
        low = Spectrum.lowrank(phi, z)
        dense = Spectrum.dense(phi @ phi.T, z)
        _check_dof_chain(low, lam)
        b, v = low.bias_variance(sigma2, lam)
        assert b >= 0 and v >= 0
        for got, want in zip(low.bias_variance(sigma2, lam), dense.bias_variance(sigma2, lam)):
            assert got == pytest.approx(want, rel=1e-8, abs=1e-12)
        for got, want in zip(low.dof(lam), dense.dof(lam)):
            assert got == pytest.approx(want, rel=1e-8, abs=1e-10)

    @PROPERTY_SETTINGS
    @given(
        beta=st.sampled_from([1, 2, 4]),
        delta=st.floats(1.1, 8.0),
        n=st.integers(2, 128),
        log_lam=st.floats(-12, 0),
        sigma2=st.floats(0, 10),
    )
    def test_grid_chain_and_signs(self, beta, delta, n, log_lam, sigma2):
        prob = grid_problem(n, SpectrumSpec(beta, delta), sigma2)
        spec = problem_spectrum(prob)
        lam = prob.mean_diag * 10.0**log_lam
        _check_dof_chain(spec, lam)
        b, v = spec.bias_variance(sigma2, lam)
        assert b >= 0 and v >= 0


class TestTrialsValidation:
    def test_verify_theorem_rejects_zero_trials(self):
        prob = grid_problem(20, SpectrumSpec(1, 3.0), 0.5)
        with pytest.raises(ConfigError):
            verify_theorem(prob, lam=1e-2, delta=0.25, p=5, trials=0, seed=0)
        # the exact boundaries: one trial and p = 1 or n are accepted, p = 0 and n + 1 refused
        for p in (1, 20):
            assert verify_theorem(prob, lam=1e-2, delta=0.25, p=p, trials=1, seed=0).ratios.shape == (1,)
        for p in (0, 21):
            with pytest.raises(ConfigError):
                verify_theorem(prob, lam=1e-2, delta=0.25, p=p, trials=1, seed=0)
        # the same trials bound in the rank sweeper over the same problem
        assert len(RankSweeper(prob, trials=1).factors("random")) == 1
        with pytest.raises(ConfigError):
            RankSweeper(prob, trials=0)

    def test_verify_lemma_rejects_zero_trials(self):
        psi = np.random.default_rng(0).normal(size=(20, 3))
        with pytest.raises(ConfigError):
            lemma_deviations([psi], 5, 0, 0)
        for p in (1, 20):
            assert lemma_deviations([psi], p, 1, 0).shape == (1, 1)
        for p in (0, 21):
            with pytest.raises(ConfigError):
                lemma_deviations([psi], p, 1, 0)


class TestLambdaValidation:
    @pytest.mark.parametrize("lam", [10**400, [0.1, 0.2], "0.1"])
    def test_one_lambda_entry_points_take_one_number(self, lam):
        # 10**400 ended in an OverflowError
        spec = problem_spectrum(grid_problem(20, SpectrumSpec(1, 3.0), 0.5))
        for call in (spec.dof, lambda l: spec.error(0.5, l)):
            with pytest.raises(ConfigError, match="lambda must be a finite number"):
                call(lam)

    def test_lambda_arrays_read_an_int_past_the_float_range_as_infinite(self):
        # both ended in a bare OverflowError from np.asarray(..., dtype=float)
        spec = problem_spectrum(grid_problem(20, SpectrumSpec(1, 3.0), 0.5))
        with pytest.raises(DataError, match=re.escape("lambda entry 0 is inf; it must be finite and > 0")):
            spec.errors(0.5, [10**400])
        with pytest.raises(DataError, match=re.escape("lambda grid entry 1 is inf; it must be finite")):
            optimal_lambda(spec, 0.5, [1e-3, 10**400])

    @pytest.mark.parametrize("lam", [0.0, -1e-3, float("nan"), float("inf")])
    def test_spectrum_rejects_nonpositive_lambda(self, lam):
        spec = problem_spectrum(grid_problem(20, SpectrumSpec(1, 3.0), 0.5))
        for call in (spec.dof, lambda l: spec.bias_variance(0.5, l)):
            with pytest.raises(ConfigError):
                call(lam)

    def test_bias_overflow_raises_before_numpy(self):
        # at lambda = 1e160 every shrinkage n lambda / (eig + n lambda) is 1,
        # so the bias is its limit ||z||^2 / n; n lambda itself overflows at 1e308
        spec = problem_spectrum(grid_problem(20, SpectrumSpec(1, 3.0), 0.5))
        assert spec.bias_variance(0.5, 1e160)[0] == np.sum(spec.coef2) / spec.n
        with pytest.raises(NumericalError, match="is not finite"):
            spec.bias_variance(0.5, 1e308)

    def test_bias_at_tiny_lambda_is_its_limit(self):
        # (eig + n lambda)^2 underflowed to 0 here and the bias divided by it;
        # as lambda -> 0 only the energy on the zero eigenvalue (the constant) stays
        spec = problem_spectrum(grid_problem(13, SpectrumSpec(8, 3.0), 0.5))
        assert spec.eigs[0] == 0.0
        assert spec.bias_variance(0.5, 9.3e-179)[0] == pytest.approx(spec.coef2[0] / spec.n, rel=1e-12)

    def test_rank_bound_rejects_nan_lambda(self):
        with pytest.raises(ConfigError):
            theorem_rank_bound(1.0, 0.5, 10, 1.0, float("nan"))
