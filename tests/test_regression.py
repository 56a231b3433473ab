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
    newton_solve,
    predict,
    save_fit,
)
from nyridge.synthetic import SpectrumSpec, grid_problem


def random_psd(n, seed, cond_floor=1e-4):
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    ev = 10.0 ** rng.uniform(np.log10(cond_floor), 0.0, size=n)
    return (q * ev) @ q.T


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
            with pytest.raises(ConfigError):
                newton_solve(F, np.ones(3), lam)

    def test_non_psd_beyond_tolerance_fails(self):
        with pytest.raises(NumericalError):
            krr_exact(-np.eye(5), np.ones(5), 0.01)


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
        assert fit.coef[0] == pytest.approx(w, rel=1e-12)
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
        prob = grid_problem(64, SpectrumSpec.polynomial(8, 8.0), 0.0)
        F = nystrom(prob.K.entries, sample_columns(64, 12, 0))
        y = prob.z
        lam = 1e-14
        fit, zhat = krr_lowrank(F, y, lam)
        assert np.all(np.isfinite(fit.coef))
        G = F.phi.T @ F.phi + 64 * lam * np.eye(12)
        b = F.phi.T @ y
        resid = np.linalg.norm(G @ fit.coef - b)
        scale = np.linalg.norm(G, 2) * np.linalg.norm(fit.coef) + np.linalg.norm(b)
        assert resid <= 1e-8 * scale


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


class TestNewton:
    def test_square_loss_matches_reduced_solve(self):
        K = random_psd(25, 16)
        y = np.random.default_rng(17).normal(size=25)
        lam = 1e-2
        F = nystrom(K, sample_columns(25, 8, 18))
        direct, _ = krr_lowrank(F, y, lam)
        newton = newton_solve(F, y, lam, loss="square")
        assert np.linalg.norm(newton.coef - direct.coef) <= 1e-10 * max(
            np.linalg.norm(direct.coef), 1.0
        )
        assert newton.iterations == 1

    def test_square_second_step_is_noop(self):
        K = random_psd(20, 19)
        y = np.random.default_rng(20).normal(size=20)
        lam = 0.05
        F = nystrom(K, sample_columns(20, 6, 21))
        fit = newton_solve(F, y, lam, loss="square")
        phi = F.phi
        w = fit.coef
        grad = phi.T @ (phi @ w - y) / 20 + lam * w
        H = phi.T @ phi / 20 + lam * np.eye(6)
        step = np.linalg.solve(H, -grad)
        assert np.linalg.norm(step) <= 1e-12 * max(np.linalg.norm(w), 1.0)

    def test_logistic_shrinks_with_lambda(self):
        rng = np.random.default_rng(22)
        pts = rng.random(40)
        K = gram(pts, KernelSpec.periodic_poly(1))
        y = np.ones(40)
        F = nystrom(K.entries, sample_columns(40, 10, 23))
        norms, objs = [], []
        for lam in (1e-3, 1e-2, 1e-1, 1.0):
            fit = newton_solve(F, y, lam, loss="logistic")
            norms.append(np.linalg.norm(fit.coef))
            u = F.phi @ fit.coef
            objs.append(np.mean(np.logaddexp(0.0, -y * u)) + 0.5 * lam * fit.coef @ fit.coef)
        assert all(a >= b - 1e-12 for a, b in zip(norms, norms[1:]))
        # optimality sanity: each objective is below the w = 0 objective
        assert all(o <= np.log(2.0) for o in objs)

    def test_logistic_two_point_separable(self):
        phi = np.array([[1.0, 0.2], [-0.9, 0.1]])
        F_like = type("F", (), {})()

        class Sel:
            indices = np.array([0, 1])

        F_like.phi = phi
        F_like.selection = Sel()
        y = np.array([1.0, -1.0])
        lam = 0.05
        fit = newton_solve(F_like, y, lam, loss="logistic")
        u = phi @ fit.coef
        grad = phi.T @ (-y / (1 + np.exp(y * u))) / 2 + lam * fit.coef
        assert np.linalg.norm(grad) <= 1e-10 * max(1.0, np.linalg.norm(phi.T @ y) / 2)
        obj0 = np.log(2.0)
        obj = np.mean(np.logaddexp(0.0, -y * u)) + 0.5 * lam * fit.coef @ fit.coef
        assert obj < obj0

    def test_logistic_label_validation(self):
        K = random_psd(10, 24)
        F = nystrom(K, sample_columns(10, 3, 25))
        with pytest.raises(ConfigError):
            newton_solve(F, np.arange(10, dtype=float), 0.1, loss="logistic")

    def test_nonconvergence_raises_with_diagnostics(self):
        K = random_psd(10, 26)
        F = nystrom(K, sample_columns(10, 3, 27))
        y = np.random.default_rng(28).choice([-1.0, 1.0], size=10)
        with pytest.raises(NumericalError, match="iterations"):
            newton_solve(F, y, 1e-3, loss="logistic", max_iter=0)


class TestPredict:
    def test_exact_mode_reproduces_smoothed_values(self):
        rng = np.random.default_rng(29)
        pts = rng.random(30)
        spec = KernelSpec.periodic_poly(1)
        K = gram(pts, spec)
        y = rng.normal(size=30)
        fit, zhat = krr_exact(K, y, 1e-2)
        preds = predict(fit, pts, spec, train_points=pts)
        assert np.allclose(preds, zhat, atol=1e-10)

    def test_lowrank_train_predictions_equal_phi_w(self):
        rng = np.random.default_rng(30)
        pts = rng.random(25)
        spec = KernelSpec.periodic_poly(2)
        K = gram(pts, spec)
        y = rng.normal(size=25)
        sel = sample_columns(25, 8, 31)
        F = nystrom(K.entries, sel)
        fit, zhat = krr_lowrank(F, y, 5e-3)
        preds = predict(
            fit, pts, spec, landmarks=pts[sel.indices], whitener=F.whitener
        )
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
        F = nystrom(K.entries, sel)
        low_fit, _ = krr_lowrank(F, y, lam)
        test = rng.random(15)
        pe = predict(exact_fit, test, spec, train_points=pts)
        pl = predict(low_fit, test, spec, landmarks=pts[sel.indices], whitener=F.whitener)
        assert np.max(np.abs(pe - pl)) <= 1e-6 * max(1.0, np.max(np.abs(pe)))

    def test_pivoted_factor_predicts_in_its_own_basis(self):
        # a pivoted fit evaluated through its own whitener reproduces zhat on
        # the training points and the Nystrom fit on the same columns elsewhere
        rng = np.random.default_rng(38)
        X = rng.standard_normal((300, 3))
        y = np.sin(X[:, 0]) + 0.1 * rng.standard_normal(300)
        spec = KernelSpec.gaussian(1.5)
        oracle = lambda j: cross_gram(X, X[j : j + 1], spec).reshape(-1)
        F = pivoted_ichol(oracle, np.ones(300), trace_tol=1e-3 * 300)
        landmarks = X[F.selection.indices]
        fit, zhat = krr_lowrank(F, y, 1e-4)
        train = predict(fit, X, spec, landmarks=landmarks, whitener=F.whitener)
        assert np.linalg.norm(train - zhat) <= 1e-8 * np.linalg.norm(zhat)
        N = nystrom(cross_gram(X, X, spec), F.selection)
        ref_fit, _ = krr_lowrank(N, y, 1e-4)
        test = rng.standard_normal((40, 3))
        got = predict(fit, test, spec, landmarks=landmarks, whitener=F.whitener)
        ref = predict(ref_fit, test, spec, landmarks=landmarks, whitener=N.whitener)
        assert np.linalg.norm(got - ref) <= 1e-8 * np.linalg.norm(ref)

    def test_context_mismatch(self):
        fit, _ = krr_exact(np.eye(4), np.ones(4), 0.1)
        with pytest.raises(ConfigError):
            predict(fit, [0.1], KernelSpec.periodic_poly(1))


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
    fit, _ = krr_lowrank(F, y, 2e-3)
    path = tmp_path / "fit.csv"
    save_fit(path, fit)
    back = load_fit(path)
    assert back.mode == "lowrank"
    assert back.lam == fit.lam
    assert np.array_equal(back.coef, fit.coef)
    assert np.array_equal(back.indices, fit.indices)


class TestLoadFitErrors:
    def saved(self, tmp_path):
        fit = RidgeFit(mode="lowrank", lam=np.float64(2e-3), loss="square",
                       coef=np.array([0.5, -1.25]), indices=np.array([3, 1]))
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

    def test_header_and_mode_only(self, tmp_path):
        path, _ = self.saved(tmp_path)
        lines = ["# nyridge-fit v1", "# mode=lowrank"]
        self.assert_parse_error(self.rewrite(path, lines), r"missing metadata \['lambda', 'loss'\]")

    def test_missing_or_wrong_header(self, tmp_path):
        path, lines = self.saved(tmp_path)
        self.assert_parse_error(self.rewrite(path, lines[1:]), "not a fit file")
        wrong = ["# nyridge-fit v2"] + lines[1:]
        self.assert_parse_error(self.rewrite(path, wrong), "not a fit file")
        self.assert_parse_error(self.rewrite(path, []), "not a fit file")

    def test_missing_metadata(self, tmp_path):
        path, lines = self.saved(tmp_path)
        for key in ("mode", "lambda", "loss"):
            kept = [line for line in lines if not line.startswith(f"# {key}=")]
            self.assert_parse_error(self.rewrite(path, kept), f"missing metadata \\['{key}'\\]")

    def test_unknown_mode(self, tmp_path):
        path, lines = self.saved(tmp_path)
        bad = [line if not line.startswith("# mode=") else "# mode=dense" for line in lines]
        self.assert_parse_error(self.rewrite(path, bad), "mode must be one of")

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
            ("loss", "hinge", "loss must be one of"),
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
            "# nyridge-fit v1\n# mode=lowrank\n# lambda=0.002\n# loss=square\n"
            "# indices=3;1\ncoef\n0.5\n-1.25\n"
        )

    def test_unreadable_file(self, tmp_path):
        self.assert_parse_error(tmp_path / "absent.csv", "cannot read")
