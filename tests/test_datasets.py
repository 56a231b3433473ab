import weakref

import numpy as np
import pytest

from nyridge import datasets
from nyridge.datasets import (
    Dataset,
    _fold_slices,
    cross_validate_lambda,
    load_dataset,
    write_dataset_csv,
)
from nyridge.errors import (
    ConfigError,
    DataError,
    MissingValueError,
    NonNumericError,
    ParseError,
)
from nyridge.kernels import KernelSpec, cross_gram
from nyridge.lowrank import feature_matrix, pivoted_ichol


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestLoadDataset:
    def test_toy_csv_exact_parse(self, tmp_path):
        path = write(tmp_path, "a,b,target\n1,2,3\n4,5,6\n7,8,9\n")
        data = load_dataset(path, "target", standardize=False, min_rows=3)
        assert np.array_equal(data.features, [[1.0, 2.0], [4.0, 5.0], [7.0, 8.0]])
        assert np.array_equal(data.targets, [3.0, 6.0, 9.0])
        assert data.feature_names == ("a", "b")

    def test_standardization(self, tmp_path):
        rng = np.random.default_rng(0)
        X = rng.normal(loc=3.0, scale=2.0, size=(50, 3))
        y = rng.normal(size=50)
        src = tmp_path / "raw.csv"
        write_dataset_csv(src, X, y, feature_names=["a", "b", "c"])
        data = load_dataset(src, "target")
        assert np.allclose(data.features.mean(axis=0), 0.0, atol=1e-12)
        assert np.allclose(data.features.std(axis=0), 1.0, atol=1e-12)
        assert abs(data.targets.mean()) <= 1e-12

    def test_constant_column_dropped_with_warning(self, tmp_path, caplog):
        rows = ["a,b,target"] + [f"{i},5.0,{i * 2}" for i in range(12)]
        path = write(tmp_path, "\n".join(rows) + "\n")
        with caplog.at_level("WARNING"):
            data = load_dataset(path, "target")
        assert data.features.shape[1] == 1
        assert data.feature_names == ("a",)
        assert any("zero-variance" in r.message for r in caplog.records)

    def test_missing_value_error(self, tmp_path):
        path = write(tmp_path, "a,target\n1,2\n,3\n" + "4,5\n" * 10)
        with pytest.raises(MissingValueError):
            load_dataset(path, "target")

    def test_non_numeric_error(self, tmp_path):
        path = write(tmp_path, "a,target\n1,2\nfoo,3\n" + "4,5\n" * 10)
        with pytest.raises(NonNumericError):
            load_dataset(path, "target")

    def test_parse_error_on_missing_file(self, tmp_path):
        with pytest.raises(ParseError):
            load_dataset(tmp_path / "nope.csv", "target")

    def test_parse_error_on_extra_cells(self, tmp_path):
        path = write(tmp_path, "a,target\n1,2,3\n" + "4,5\n" * 10)
        with pytest.raises(ParseError):
            load_dataset(path, "target")

    def test_bad_target_column(self, tmp_path):
        path = write(tmp_path, "a,b\n1,2\n" * 1)
        with pytest.raises(ConfigError):
            load_dataset(path, "target")

    def test_min_rows_enforced(self, tmp_path):
        path = write(tmp_path, "a,target\n1,2\n3,4\n")
        with pytest.raises(ConfigError):
            load_dataset(path, "target")

    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(20, 4))
        y = rng.normal(size=20)
        path = tmp_path / "round.csv"
        write_dataset_csv(path, X, y)
        data = load_dataset(path, "target", standardize=False)
        assert np.array_equal(data.features, X)
        assert np.array_equal(data.targets, y)

    def test_non_finite_cells_rejected(self, tmp_path):
        # inf has a NaN std, which once made the column look zero-variance
        for tok in ("inf", "-inf", "1e999", "-nan"):
            path = write(tmp_path, f"a,b,target\n1,{tok},2\n" + "4,5,6\n3,7,1\n" * 6)
            with pytest.raises(NonNumericError, match="non-finite cell"):
                load_dataset(path, "target")
            path = write(tmp_path, f"a,target\n1,{tok}\n" + "4,5\n3,1\n" * 6)
            with pytest.raises(NonNumericError):
                load_dataset(path, "target", standardize=False)

    def test_errors_name_the_line_in_the_file(self, tmp_path):
        # '#' lines and blank lines are counted: the bad cell is on line 6
        text = "# a=1\n# b=2\na,target\n1,2\n\nfoo,3\n" + "4,5\n" * 10
        path = write(tmp_path, text, name="ln.csv")
        with pytest.raises(NonNumericError, match=r"ln\.csv:6: "):
            load_dataset(path, "target")
        path = write(tmp_path, text.replace("foo,3", "7,8,9"), name="ln.csv")
        with pytest.raises(ParseError, match=r"ln\.csv:6: "):
            load_dataset(path, "target")


def make_dataset(n, noise, seed):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 2))
    signal = np.sin(X[:, 0]) + 0.5 * X[:, 1]
    y = signal + noise * rng.standard_normal(n)
    X = (X - X.mean(axis=0)) / X.std(axis=0)
    return Dataset(features=X, targets=y - y.mean(), name="toy")


class TestCrossValidateLambda:
    def test_pure_noise_prefers_large_lambda(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(80, 2))
        data = Dataset(
            features=(X - X.mean(0)) / X.std(0),
            targets=rng.standard_normal(80),
            name="noise",
        )
        grid = np.geomspace(1e-6, 10.0, 12)
        res = cross_validate_lambda(data, KernelSpec.gaussian(1.0), grid, folds=4, seed=0)
        assert res.lambda_star >= grid[-3]

    def test_smooth_target_prefers_interior_lambda(self):
        data = make_dataset(120, noise=0.0, seed=3)
        grid = np.geomspace(1e-8, 10.0, 12)
        res = cross_validate_lambda(data, KernelSpec.gaussian(1.2), grid, folds=4, seed=1)
        assert res.lambda_star < grid[-1]

    def test_deterministic_given_seed(self):
        data = make_dataset(60, noise=0.3, seed=4)
        grid = np.geomspace(1e-6, 1.0, 8)
        a = cross_validate_lambda(data, KernelSpec.gaussian(1.0), grid, folds=3, seed=7)
        b = cross_validate_lambda(data, KernelSpec.gaussian(1.0), grid, folds=3, seed=7)
        assert a.lambda_star == b.lambda_star
        assert np.array_equal(a.errors, b.errors)
        assert a.ranks == b.ranks

    def test_fold_validation(self):
        data = make_dataset(30, noise=0.1, seed=5)
        with pytest.raises(ConfigError):
            cross_validate_lambda(data, KernelSpec.gaussian(1.0), [0.1], folds=1)
        with pytest.raises(ConfigError):
            cross_validate_lambda(data, KernelSpec.gaussian(1.0), [], folds=3)
        with pytest.raises(ConfigError):
            cross_validate_lambda(data, KernelSpec.gaussian(1.0), [0.1], folds=20)
        with pytest.raises(ConfigError, match="Gaussian"):
            cross_validate_lambda(data, KernelSpec.periodic_poly(1), [0.1], folds=3)

    def test_rank_respects_trace_tolerance(self):
        data = make_dataset(90, noise=0.1, seed=6)
        res = cross_validate_lambda(
            data, KernelSpec.gaussian(1.0), [1e-3], folds=3, seed=2, trace_rtol=0.05
        )
        assert all(1 <= r < 60 for r in res.ranks)

    def test_matches_per_lambda_reference(self):
        # the one-eigendecomposition-per-fold path against a rebuild of each
        # fold with a direct reduced solve and feature-map prediction per lambda
        data = make_dataset(150, noise=0.2, seed=8)
        spec = KernelSpec.gaussian(1.0)
        grid = np.geomspace(1e-6, 1.0, 7)
        folds, seed, rtol = 4, 11, 1e-4
        res = cross_validate_lambda(data, spec, grid, folds=folds, seed=seed, trace_rtol=rtol)
        X, y, n = data.features, data.targets, data.n
        ref = np.zeros((folds, grid.size))
        ranks = []
        for f, val_idx in enumerate(_fold_slices(n, folds, seed)):
            mask = np.ones(n, dtype=bool)
            mask[val_idx] = False
            Xtr, ytr = X[mask], y[mask]
            oracle = lambda idx: cross_gram(Xtr[idx], Xtr, spec)
            F = pivoted_ichol(oracle, np.ones(Xtr.shape[0]), trace_tol=rtol * Xtr.shape[0])
            ranks.append(F.rank)
            val_feats = feature_matrix(spec, Xtr[F.selection.indices], F.whitener, X[val_idx])
            G, b, ntr = F.phi.T @ F.phi, F.phi.T @ ytr, Xtr.shape[0]
            for g, lam in enumerate(grid):
                w = np.linalg.solve(G + ntr * lam * np.eye(F.rank), b)
                ref[f, g] = np.mean((val_feats @ w - y[val_idx]) ** 2)
        assert res.ranks == tuple(ranks)
        assert np.allclose(res.errors, ref.mean(axis=0), rtol=1e-8, atol=0.0)
        assert res.lambda_star == grid[int(np.argmin(ref.mean(axis=0)))]

    def test_one_fold_alive_at_a_time(self, monkeypatch):
        # each fold's factor is freed before the next fold's factor is built,
        # so peak memory holds one factor, not two
        factors = []

        def tracked(*args, **kwargs):
            assert all(ref() is None for ref in factors), "an earlier fold's factor is alive"
            factor = pivoted_ichol(*args, **kwargs)
            factors.append(weakref.ref(factor))
            return factor

        monkeypatch.setattr(datasets, "pivoted_ichol", tracked)
        data = make_dataset(90, noise=0.2, seed=13)
        res = cross_validate_lambda(data, KernelSpec.gaussian(1.0), [1e-3, 1e-1], folds=3, seed=5)
        assert len(factors) == 3 and len(res.ranks) == 3

    def test_noiseless_errors_stay_below_target_variance(self):
        # held-out predictions made in the factor's own basis: even the
        # smallest lambda does not blow up past predicting zero (predicting in
        # a rotated basis gave errors of 12 times the variance here)
        rng = np.random.default_rng(9)
        X = rng.standard_normal((200, 4))
        y = np.sin(2 * X[:, 0]) + 0.5 * X[:, 1] * X[:, 2]
        data = Dataset(features=X, targets=y - y.mean(), name="noiseless")
        grid = np.geomspace(1e-8, 1.0, 5)
        res = cross_validate_lambda(data, KernelSpec.gaussian(2.0), grid, folds=4, seed=3)
        assert np.all(res.errors < np.var(data.targets))

    def test_non_finite_data_rejected(self):
        base = make_dataset(40, noise=0.1, seed=10)
        for field, bad in (("targets", np.nan), ("targets", np.inf), ("features", -np.inf)):
            arr = getattr(base, field).copy()
            arr.flat[5] = bad
            data = Dataset(**{**vars(base), field: arr})
            with pytest.raises(DataError, match="finite"):
                cross_validate_lambda(data, KernelSpec.gaussian(1.0), [1e-3], folds=3)

    def test_non_positive_or_non_finite_grid_rejected(self):
        data = make_dataset(30, noise=0.1, seed=12)
        for grid in ([0.0, 0.1], [-1e-3], [np.nan], [np.inf]):
            with pytest.raises(ConfigError, match="lambda grid"):
                cross_validate_lambda(data, KernelSpec.gaussian(1.0), grid, folds=3)
