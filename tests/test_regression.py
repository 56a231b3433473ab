import dataclasses

import numpy as np
import pytest

from nyridge.errors import ConfigError, DataError, NumericalError, ParseError
from nyridge.kernels import KernelSpec, cross_gram, gram
from nyridge.lowrank import nystrom, pivoted_ichol, sample_columns
from nyridge.regression import (
    RidgeFit,
    krr_exact,
    krr_lowrank,
    load_fit,
    predict,
    save_fit,
)
from nyridge.synthetic import SpectrumSpec, grid_problem


def random_psd(n, seed, cond_floor=1e-4):
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    ev = 10.0 ** rng.uniform(np.log10(cond_floor), 0.0, size=n)
    return (q * ev) @ q.T


def reduced_weights(F, fit):
    """The reduced weights w of a low-rank fit, coef = W w.

    The whitener W is Phi[I]^(-T), so w = Phi[I]^T coef needs no solve.
    """
    return F.phi[F.selection.indices].T @ fit.coef


class TestKrrExact:
    def test_identity_kernel_shrinks_by_scalar(self):
        n = 8
        y = np.random.default_rng(0).normal(size=n)
        lam = 0.3
        _, zhat = krr_exact(np.eye(n), y, lam)
        assert np.allclose(zhat, y / (1 + n * lam), atol=1e-12)

    def test_infinite_regularization_limit(self):
        K = random_psd(12, 1)
        y = np.random.default_rng(2).normal(size=12)
        lam = 1e6 * np.linalg.eigvalsh(K)[-1] / 12
        _, zhat = krr_exact(K, y, lam)
        assert np.linalg.norm(zhat) <= 2e-6 * np.linalg.norm(y)

    def test_matches_dense_inverse_oracle(self):
        K = random_psd(6, 3)
        y = np.random.default_rng(4).normal(size=6)
        lam = 0.05
        _, zhat = krr_exact(K, y, lam)
        oracle = K @ np.linalg.inv(K + 6 * lam * np.eye(6)) @ y
        assert np.allclose(zhat, oracle, atol=1e-10)

    def test_alpha_residual(self):
        K = random_psd(20, 5)
        y = np.random.default_rng(6).normal(size=20)
        lam = 1e-3
        fit, _ = krr_exact(K, y, lam)
        A = K + 20 * lam * np.eye(20)
        assert np.linalg.norm(A @ fit.coef - y) <= 1e-8 * np.linalg.norm(y)

    def test_lambda_validation(self):
        # one rule for every solver: lambda must be finite and > 0
        F = nystrom(np.eye(3), sample_columns(3, 2, 0))
        for lam in (0.0, float("inf"), float("nan")):
            with pytest.raises(ConfigError):
                krr_exact(np.eye(3), np.ones(3), lam)
            with pytest.raises(ConfigError):
                krr_lowrank(F, np.ones(3), lam)
        # n lambda = 3e308 overflows: the solve would return all-zero coefficients
        with pytest.raises(NumericalError, match="is not finite"):
            krr_exact(np.eye(3), np.ones(3), 1e308)
        with pytest.raises(NumericalError, match="is not finite"):
            krr_lowrank(F, np.ones(3), 1e308)
        # one lambda, and a number: a list ended in a broadcast ValueError, 10**400 in an OverflowError
        for lam in ([0.1, 0.2], 10**400):
            with pytest.raises(ConfigError, match="lambda must be a finite number"):
                krr_exact(np.eye(3), np.ones(3), lam)
            with pytest.raises(ConfigError, match="lambda must be a finite number"):
                krr_lowrank(F, np.ones(3), lam)

    def test_non_psd_beyond_tolerance_fails(self):
        with pytest.raises(NumericalError):
            krr_exact(-np.eye(5), np.ones(5), 0.01)

    def test_nan_target_raises_data_error(self):
        y = np.ones(5)
        y[2] = np.nan
        with pytest.raises(DataError, match="finite"):
            krr_exact(np.eye(5), y, 0.01)

    def test_target_count_mismatch(self):
        with pytest.raises(DataError, match="target vector needs 5 entries"):
            krr_exact(np.eye(5), np.ones(4), 0.01)

    def test_nan_kernel_raises_data_error(self):
        K = random_psd(5, 7)
        K[1, 3] = K[3, 1] = np.nan
        with pytest.raises(DataError, match="finite"):
            krr_exact(K, np.ones(5), 0.01)


class TestKrrLowrank:
    def test_full_rank_matches_exact(self):
        K = random_psd(30, 7)
        y = np.random.default_rng(8).normal(size=30)
        lam = 1e-2
        _, zhat_exact = krr_exact(K, y, lam)
        F = nystrom(K, sample_columns(30, 30, 9))
        _, zhat_low = krr_lowrank(F, y, lam)
        assert np.linalg.norm(zhat_low - zhat_exact) <= 1e-8 * np.linalg.norm(zhat_exact)

    def test_rank_one_scalar_formula(self):
        K = random_psd(10, 10)
        y = np.random.default_rng(11).normal(size=10)
        lam = 0.1
        F = nystrom(K, sample_columns(10, 1, 12))
        fit, zhat = krr_lowrank(F, y, lam)
        phi = F.phi[:, 0]
        w = (phi @ y) / (phi @ phi + 10 * lam)
        assert fit.coef[0] == pytest.approx(F.whitener[0, 0] * w, rel=1e-12)
        assert np.allclose(zhat, phi * w, atol=1e-12)

    def test_smoother_identity_dense_oracle(self):
        K = random_psd(50, 13)
        y = np.random.default_rng(14).normal(size=50)
        lam = 3e-4
        F = nystrom(K, sample_columns(50, 12, 15))
        _, zhat = krr_lowrank(F, y, lam)
        L = F.gram()
        oracle = L @ np.linalg.solve(L + 50 * lam * np.eye(50), y)
        assert np.linalg.norm(zhat - oracle) <= 1e-8 * max(np.linalg.norm(oracle), 1e-12)

    def test_tiny_lambda_on_smooth_kernel(self):
        # beta = 8 grid kernel, lambda at 1e-14: the p x p solve must still
        # return a finite solution with small backward error
        prob = grid_problem(64, SpectrumSpec(8, 8.0), 0.0)
        F = nystrom(prob.K, sample_columns(64, 12, 0))
        y = prob.z
        lam = 1e-14
        fit, zhat = krr_lowrank(F, y, lam)
        assert np.all(np.isfinite(fit.coef))
        w = reduced_weights(F, fit)
        G = F.phi.T @ F.phi + 64 * lam * np.eye(12)
        b = F.phi.T @ y
        resid = np.linalg.norm(G @ w - b)
        scale = np.linalg.norm(G, 2) * np.linalg.norm(w) + np.linalg.norm(b)
        assert resid <= 1e-8 * scale


    def test_coef_is_stationary(self):
        # the reduced objective |Phi w - y|^2 / (2n) + lam |w|^2 / 2 has zero
        # gradient at the solution, so a Newton step from it moves nothing
        K = random_psd(20, 19)
        y = np.random.default_rng(20).normal(size=20)
        lam = 0.05
        F = nystrom(K, sample_columns(20, 6, 21))
        fit, _ = krr_lowrank(F, y, lam)
        phi, w = F.phi, reduced_weights(F, fit)
        grad = phi.T @ (phi @ w - y) / 20 + lam * w
        H = phi.T @ phi / 20 + lam * np.eye(6)
        step = np.linalg.solve(H, -grad)
        assert np.linalg.norm(step) <= 1e-12 * max(np.linalg.norm(w), 1.0)

    def test_non_finite_inputs_rejected(self):
        K = random_psd(10, 39)
        F = nystrom(K, sample_columns(10, 4, 40))
        y = np.ones(10)
        for bad in (np.nan, np.inf):
            y_bad = y.copy()
            y_bad[3] = bad
            with pytest.raises(DataError):
                krr_lowrank(F, y_bad, 1e-3)
        phi_bad = F.phi.copy()
        phi_bad[0, 0] = np.nan
        with pytest.raises(DataError):
            krr_lowrank(type(F)(phi_bad, F.selection, F.whitener), y, 1e-3)
        for lam in (float("nan"), float("inf")):
            with pytest.raises(ConfigError):
                krr_lowrank(F, y, lam)

    def test_target_count_mismatch(self):
        F = nystrom(random_psd(10, 41), sample_columns(10, 4, 42))
        for y in (np.ones(9), np.ones(11), np.ones((10, 1))):
            with pytest.raises(DataError, match="target vector needs 10 entries"):
                krr_lowrank(F, y, 1e-3)


class TestPredict:
    def test_exact_fit_reproduces_smoothed_values(self):
        rng = np.random.default_rng(29)
        pts = rng.random(30)
        spec = KernelSpec.periodic_poly(1)
        K = gram(pts, spec)
        y = rng.normal(size=30)
        fit, zhat = krr_exact(K, y, 1e-2)
        assert fit.indices is None  # an exact fit expands over every training point
        preds = predict(fit, pts, spec, pts)
        assert np.allclose(preds, zhat, atol=1e-10)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_point_raises(self, bad):
        # a NaN point predicted [nan]
        rng = np.random.default_rng(31)
        X = rng.normal(size=(20, 2))
        spec = KernelSpec.gaussian(1.0)
        fit, _ = krr_exact(gram(X, spec), rng.normal(size=20), 1e-2)
        bad_landmarks = X.copy()
        bad_landmarks[3, 1] = bad
        for points, landmarks in (([[0.5, bad]], X), ([[0.5, 0.5]], bad_landmarks)):
            with pytest.raises(DataError, match="points entry"):
                predict(fit, points, spec, landmarks)

    def test_lowrank_train_predictions_equal_phi_w(self):
        rng = np.random.default_rng(30)
        pts = rng.random(25)
        spec = KernelSpec.periodic_poly(2)
        K = gram(pts, spec)
        y = rng.normal(size=25)
        sel = sample_columns(25, 8, 31)
        F = nystrom(K, sel)
        fit, zhat = krr_lowrank(F, y, 5e-3)
        w_ref = np.linalg.solve(F.phi.T @ F.phi + 25 * 5e-3 * np.eye(8), F.phi.T @ y)
        assert np.allclose(fit.coef, F.whitener @ w_ref, rtol=1e-8, atol=1e-12)
        preds = predict(fit, pts, spec, pts[fit.indices])
        assert np.linalg.norm(preds - zhat) <= 1e-8 * np.linalg.norm(zhat)

    def test_full_rank_lowrank_matches_exact_on_test_grid(self):
        rng = np.random.default_rng(32)
        pts = rng.random(40)
        spec = KernelSpec.periodic_poly(1)
        K = gram(pts, spec)
        y = rng.normal(size=40)
        lam = 1e-2
        exact_fit, _ = krr_exact(K, y, lam)
        sel = sample_columns(40, 40, 33)
        F = nystrom(K, sel)
        low_fit, _ = krr_lowrank(F, y, lam)
        test = rng.random(15)
        pe = predict(exact_fit, test, spec, pts)
        pl = predict(low_fit, test, spec, pts[sel.indices])
        assert np.max(np.abs(pe - pl)) <= 1e-6 * max(1.0, np.max(np.abs(pe)))

    def test_pivoted_factor_predicts_in_its_own_basis(self):
        # a pivoted fit, expanded over its own landmarks, reproduces zhat on
        # the training points and the Nystrom fit on the same columns elsewhere
        rng = np.random.default_rng(38)
        X = rng.standard_normal((300, 3))
        y = np.sin(X[:, 0]) + 0.1 * rng.standard_normal(300)
        spec = KernelSpec.gaussian(1.5)
        oracle = lambda idx: cross_gram(X[idx], X, spec)
        F = pivoted_ichol(oracle, np.ones(300), trace_tol=1e-3 * 300)
        landmarks = X[F.selection.indices]
        fit, zhat = krr_lowrank(F, y, 1e-4)
        train = predict(fit, X, spec, landmarks)
        assert np.linalg.norm(train - zhat) <= 1e-8 * np.linalg.norm(zhat)
        N = nystrom(cross_gram(X, X, spec), F.selection)
        ref_fit, _ = krr_lowrank(N, y, 1e-4)
        test = rng.standard_normal((40, 3))
        got = predict(fit, test, spec, landmarks)
        ref = predict(ref_fit, test, spec, landmarks)
        assert np.linalg.norm(got - ref) <= 1e-8 * np.linalg.norm(ref)

    def test_landmark_count_mismatch(self):
        fit, _ = krr_exact(np.eye(4), np.ones(4), 0.1)
        spec = KernelSpec.periodic_poly(1)
        for landmarks in ([0.1, 0.2, 0.3], [0.1, 0.2, 0.3, 0.4, 0.5]):
            with pytest.raises(
                ConfigError, match=rf"coefficient vector needs {len(landmarks)} entries \(got shape \(4,\)\)"
            ):
                predict(fit, [0.1], spec, landmarks)


class TestShrinkage:
    def test_norm_monotone_in_lambda_diagonal_case(self):
        # eigen-aligned case: coordinatewise shrinkage s/(s + n lambda)
        n = 15
        rng = np.random.default_rng(34)
        K = np.diag(10.0 ** rng.uniform(-3, 0, size=n))
        y = rng.normal(size=n)
        lams = np.geomspace(1e-5, 1.0, 8)
        norms = []
        for lam in lams:
            _, zhat = krr_exact(K, y, lam)
            norms.append(np.linalg.norm(zhat))
        assert all(a >= b - 1e-12 for a, b in zip(norms, norms[1:]))


def test_fit_save_load_round_trip(tmp_path):
    K = random_psd(12, 35)
    y = np.random.default_rng(36).normal(size=12)
    F = nystrom(K, sample_columns(12, 4, 37))
    path = tmp_path / "fit.csv"
    for fit, _ in (krr_lowrank(F, y, 2e-3), krr_exact(K, y, 2e-3)):
        save_fit(path, fit)
        back = load_fit(path)
        assert back.lam == fit.lam
        assert np.array_equal(back.coef, fit.coef)
        if fit.indices is None:
            assert back.indices is None
        else:
            assert np.array_equal(back.indices, fit.indices)


def test_ridge_fit_fields():
    # one ridge model and one kind of fit: no loss knob, no iteration count, no mode
    assert [f.name for f in dataclasses.fields(RidgeFit)] == ["lam", "coef", "indices"]


class TestLoadFitErrors:
    def saved(self, tmp_path):
        fit = RidgeFit(lam=np.float64(2e-3), coef=np.array([0.5, -1.25]), indices=np.array([3, 1]))
        path = tmp_path / "fit.csv"
        save_fit(path, fit)
        return path, path.read_text().splitlines()

    def rewrite(self, path, lines):
        path.write_text("\n".join(lines) + "\n")
        return path

    def assert_parse_error(self, path, match):
        with pytest.raises(ParseError, match=match):
            load_fit(path)

    def test_numpy_lambda_round_trips(self, tmp_path):
        path, _ = self.saved(tmp_path)
        assert load_fit(path).lam == 2e-3

    def test_header_and_indices_only(self, tmp_path):
        path, _ = self.saved(tmp_path)
        lines = ["# nyridge-fit v3", "# indices=3;1"]
        self.assert_parse_error(self.rewrite(path, lines), r"missing metadata \['lambda'\]")

    def test_missing_or_wrong_header(self, tmp_path):
        path, lines = self.saved(tmp_path)
        self.assert_parse_error(self.rewrite(path, lines[1:]), "not a fit file")
        # a v1 file may hold a logistic fit: it must not load as a ridge fit
        v1 = ["# nyridge-fit v1", "# loss=logistic"] + lines[1:]
        self.assert_parse_error(self.rewrite(path, v1), "not a fit file")
        # a v2 file holds whitened weights, not expansion coefficients
        v2 = ["# nyridge-fit v2", "# mode=lowrank"] + lines[1:]
        self.assert_parse_error(self.rewrite(path, v2), "not a fit file")
        self.assert_parse_error(self.rewrite(path, []), "not a fit file")

    def test_missing_metadata(self, tmp_path):
        path, lines = self.saved(tmp_path)
        kept = [line for line in lines if not line.startswith("# lambda=")]
        self.assert_parse_error(self.rewrite(path, kept), r"missing metadata \['lambda'\]")

    def test_unparsable_numbers(self, tmp_path):
        path, lines = self.saved(tmp_path)
        self.assert_parse_error(self.rewrite(path, lines + ["abc"]), "malformed")
        bad = [line if not line.startswith("# lambda=") else "# lambda=tiny" for line in lines]
        self.assert_parse_error(self.rewrite(path, bad), "malformed")
        bad = [line if not line.startswith("# indices=") else "# indices=3;x" for line in lines]
        self.assert_parse_error(self.rewrite(path, bad), "malformed")

    def test_non_finite_or_unknown_values(self, tmp_path):
        path, lines = self.saved(tmp_path)
        for key, bad, match in (
            ("lambda", "nan", "not finite"),
            ("lambda", "inf", "not finite"),
            ("lambda", "0.0", "lambda must be > 0"),
            ("lambda", "-1e-3", "lambda must be > 0"),
        ):
            bad_lines = [l if not l.startswith(f"# {key}=") else f"# {key}={bad}" for l in lines]
            self.assert_parse_error(self.rewrite(path, bad_lines), match)
        for bad in ("nan", "-inf", "1e999"):
            self.assert_parse_error(self.rewrite(path, lines + [bad]), "not finite")

    def test_missing_coef_header(self, tmp_path):
        path, lines = self.saved(tmp_path)
        kept = [line for line in lines if line != "coef"]
        self.assert_parse_error(self.rewrite(path, kept), "header 'coef'")

    def test_file_layout(self, tmp_path):
        path, _ = self.saved(tmp_path)
        assert path.read_text() == (
            "# nyridge-fit v3\n# lambda=0.002\n# indices=3;1\ncoef\n0.5\n-1.25\n"
        )

    def test_no_coefficients(self, tmp_path):
        path, lines = self.saved(tmp_path)
        self.assert_parse_error(self.rewrite(path, lines[:-2]), "no coefficients")
        no_indices = ["# nyridge-fit v3", "# lambda=0.002", "coef"]
        self.assert_parse_error(self.rewrite(path, no_indices), "no coefficients")

    def test_indices_must_match_coefficients(self, tmp_path):
        path, lines = self.saved(tmp_path)
        self.assert_parse_error(self.rewrite(path, lines + ["2.0"]), "one index per coefficient")
        self.assert_parse_error(self.rewrite(path, lines[:-1]), "one index per coefficient")
        # without indices the fit expands over every training point
        kept = [line for line in lines if not line.startswith("# indices=")]
        back = load_fit(self.rewrite(path, kept))
        assert back.indices is None and np.array_equal(back.coef, [0.5, -1.25])

    def test_indices_distinct_and_non_negative(self, tmp_path):
        path, lines = self.saved(tmp_path)
        for bad in ("-4;-4", "1;1", "-1;2"):
            bad_lines = [l if not l.startswith("# indices=") else f"# indices={bad}" for l in lines]
            self.assert_parse_error(self.rewrite(path, bad_lines), "distinct and >= 0")

    def test_unreadable_file(self, tmp_path):
        self.assert_parse_error(tmp_path / "absent.csv", "cannot read")
