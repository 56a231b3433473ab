"""CSV dataset ingestion and cross-validated lambda selection.

Real-data runs follow the low-rank path end to end: a pivoted incomplete
Cholesky factor (rank chosen by a relative trace tolerance) on each
training fold, one eigendecomposition of the reduced Gram matrix
(:func:`nyridge.regression.ridge_basis`, the solve behind every ridge fit)
that serves every lambda of the grid, and feature-map prediction on the
held-out fold.
"""

from __future__ import annotations

import csv
import logging
import math
from dataclasses import dataclass

import numpy as np

from . import csvio
from .errors import (
    ConfigError,
    MissingValueError,
    NonNumericError,
    NumericalError,
    ParseError,
    finite,
    generator,
    scalar,
)
from .kernels import KernelSpec, _kernel_block
from .lowrank import feature_matrix, pivoted_ichol
from .regression import ridge_basis
from .stats import n_lambdas

logger = logging.getLogger(__name__)


@dataclass
class Dataset:
    features: np.ndarray  # n x d, standardized unless load was told otherwise
    targets: np.ndarray  # length n, centered unless load was told otherwise
    name: str
    feature_names: tuple[str, ...] = ()

    @property
    def n(self) -> int:
        return self.features.shape[0]


def load_dataset(
    path,
    target_column: str,
    feature_columns=None,
    standardize: bool = True,
    min_rows: int = 10,
) -> Dataset:
    """Read a numeric CSV with a header row into a Dataset.

    ``#`` comment lines (the metadata of the CSVs nyridge writes) and blank lines are
    skipped; errors name the line number in the file itself. Features are standardized
    per column (zero mean, unit variance) and the target centered; zero-variance feature
    columns are dropped with a warning. Row order is the file order. Parse failures,
    missing values, and non-numeric cells (non-finite ones such as ``inf`` or ``1e999``
    included) raise distinct error types; a file that cannot be read, is not UTF-8 or
    has a cell over the ``csv`` field limit raises ParseError, and a column whose
    standardization overflows (a cell past about 1e154) DataError.
    """
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            kept = [(no, line) for no, line in enumerate(fh, 1) if not csvio.is_comment(line)]
        # (line number in the file, cells) of each non-blank row
        reader = csv.reader(line for _, line in kept)
        rows = [(kept[reader.line_num - 1][0], row) for row in reader if any(c.strip() for c in row)]
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    if len(rows) < 2:
        raise ParseError(f"{path}: need a header row plus data rows")
    header = [h.strip() for h in rows[0][1]]
    if target_column not in header:
        raise ConfigError(f"target column {target_column!r} not in header {header}")
    if feature_columns is None:
        feature_columns = [h for h in header if h != target_column]
    missing = [c for c in feature_columns if c not in header]
    if missing:
        raise ConfigError(f"feature columns not in header: {missing}")
    col_idx = {h: i for i, h in enumerate(header)}
    width = len(header)

    def cell(row, line_no, col):
        i = col_idx[col]
        if i >= len(row):
            raise MissingValueError(f"{path}:{line_no}: missing value in {col!r}")
        tok = row[i].strip()
        if tok == "" or tok.lower() in ("na", "nan", "null", "none"):
            raise MissingValueError(f"{path}:{line_no}: missing value in {col!r}")
        try:
            val = float(tok)
        except ValueError:
            val = math.nan
        if not math.isfinite(val):
            raise NonNumericError(
                f"{path}:{line_no}: non-numeric or non-finite cell {tok!r} in {col!r}"
            )
        return val

    feats, targs = [], []
    for line_no, row in rows[1:]:
        if len(row) > width:
            raise ParseError(f"{path}:{line_no}: {len(row)} cells, header has {width}")
        feats.append([cell(row, line_no, c) for c in feature_columns])
        targs.append(cell(row, line_no, target_column))

    X = np.array(feats, dtype=float)
    y = np.array(targs, dtype=float)
    if X.shape[0] < min_rows:
        raise ConfigError(f"{path}: need at least {min_rows} rows, found {X.shape[0]}")
    names = list(feature_columns)
    if standardize:
        with np.errstate(all="ignore"):  # an overflow reads inf, which finite refuses
            std = finite(X.std(axis=0), f"{path}: standard deviation of feature")
            y = finite(y - y.mean(), f"{path}: centered target")
        keep = std > 0
        if not np.all(keep):
            dropped = [names[i] for i in np.flatnonzero(~keep)]
            logger.warning("dropping zero-variance feature columns: %s", dropped)
            X = X[:, keep]
            names = [nm for nm, k in zip(names, keep) if k]
            std = std[keep]
        if X.shape[1] == 0:
            raise ConfigError(f"{path}: no usable feature columns")
        X = (X - X.mean(axis=0)) / std
    return Dataset(features=X, targets=y, name=str(path), feature_names=tuple(names))


def _fold_slices(n: int, folds: int, seed) -> list[np.ndarray]:
    perm = generator(seed).permutation(n)
    return [np.sort(part) for part in np.array_split(perm, folds)]


@dataclass
class CVResult:
    lambda_star: float
    lambda_grid: np.ndarray
    errors: np.ndarray
    ranks: tuple[int, ...]


def _fold_errors(X, y, val_idx, spec: KernelSpec, grid, trace_rtol: float):
    """Held-out mean squared error at each lambda of ``grid``, and the factor's rank, for one fold.

    Everything the fold builds (factor, features, eigenbasis) is freed on
    return, so the next fold's factor grows with only this one's errors
    alive, and the p x n factor itself is freed once Phi^T Phi and Phi^T y
    are formed, before the eigendecomposition and the held-out features.
    """
    mask = np.ones(X.shape[0], dtype=bool)
    mask[val_idx] = False
    Xtr, ytr = X[mask], y[mask]
    Xval, yval = X[val_idx], y[val_idx]
    ntr = Xtr.shape[0]
    diag = np.ones(ntr)  # gaussian: k(x, x) = 1
    factor = pivoted_ichol(
        lambda idx: _kernel_block(Xtr[idx], Xtr, spec),  # cross_validate_lambda checked X
        diag,
        max_rank=ntr,
        trace_tol=trace_rtol * float(np.sum(diag)),
    )
    phi = factor.phi
    gram_p, rhs = phi.T @ phi, phi.T @ ytr
    landmarks, whitener, rank = Xtr[factor.selection.indices], factor.whitener, factor.rank
    del factor, phi  # the solve and prediction need none of the p x n factor: free it first
    s, V, b = ridge_basis(gram_p, rhs)
    val_feats = feature_matrix(spec, landmarks, whitener, Xval) @ V
    pred = val_feats @ (b[:, None] / (s[:, None] + ntr * grid[None, :]))
    with np.errstate(over="ignore"):  # a huge target squares to inf, which the caller refuses
        return np.mean((pred - yval[:, None]) ** 2, axis=0), rank


def cross_validate_lambda(
    data: Dataset,
    spec: KernelSpec,
    lambda_grid,
    folds: int = 5,
    seed=0,
    trace_rtol: float = 1e-3,
) -> CVResult:
    """Pick lambda by k-fold CV of low-rank Gaussian-kernel ridge regression.

    Each fold factors its training Gram matrix with pivoted incomplete
    Cholesky until the trace residual falls below ``trace_rtol`` times the
    full trace, then scores every lambda on the held-out fold from one
    eigendecomposition Phi^T Phi = V diag(s) V^T: the reduced ridge weights
    are w = V diag(1 / (s + n lambda)) V^T Phi^T y, so the whole grid costs
    O(p^2 n + p^3) per fold plus O(m p) per lambda for m held-out points.
    One fold is alive at a time: each fold's factor, features and
    eigenbasis are freed before the next fold's factor is built, so peak
    memory is that of the largest fold, not of two. NumericalError naming
    the first fold whose held-out errors are not finite (a target so large
    that its squared error overflows), before lambda is chosen.
    """
    if spec.kind != "gaussian":
        raise ConfigError(f"cross-validation needs a Gaussian kernel (got {spec.kind!r})")
    folds = scalar(folds, "folds", int, ">= 2")
    grid = finite(lambda_grid, "lambda grid", shape=(None,), bound="> 0")
    trace_rtol = scalar(trace_rtol, "trace_rtol", float, ">= 0")
    X = finite(data.features, f"{data.name}: features", shape=(None, None))
    y = finite(data.targets, f"{data.name}: targets", shape=(X.shape[0],))
    n = X.shape[0]
    if n // folds < 2:
        raise ConfigError(f"fold size {n // folds} too small (need >= 2)")
    n_lambdas(grid, n)  # bounds n_train lambda in every fold
    fold_errs = np.zeros((folds, grid.size))
    ranks = []
    for f, val_idx in enumerate(_fold_slices(n, folds, seed)):
        fold_errs[f], rank = _fold_errors(X, y, val_idx, spec, grid, trace_rtol)
        if not np.all(np.isfinite(fold_errs[f])):
            i = int(np.argmin(np.isfinite(fold_errs[f])))
            lam, got = float(grid[i]), float(fold_errs[f, i])
            raise NumericalError(f"fold {f}: held-out error at lambda={lam!r} is {got!r}; not finite")
        ranks.append(rank)
    errors = fold_errs.mean(axis=0)
    g = int(np.argmin(errors))
    return CVResult(
        lambda_star=float(grid[g]),
        lambda_grid=grid,
        errors=errors,
        ranks=tuple(ranks),
    )


def write_dataset_csv(path, features, targets, feature_names=None, target_name="target"):
    """Write a feature/target table; inverse of load_dataset(standardize=False)."""
    X = np.asarray(features, dtype=float)
    if feature_names is None:
        feature_names = [f"x{i}" for i in range(X.shape[1])]
    rows = np.column_stack([X, np.asarray(targets, dtype=float)])
    csvio.write(path, [], [*feature_names, target_name], rows)
