"""Kernel ridge regression: exact smoother, reduced low-rank solver, fit files.

All solvers use the (... + n lambda I) convention; callers always pass the
per-sample regularization parameter lambda, never n * lambda.

Linear systems go through a symmetric positive-definite factorization with
an eigendecomposition-based pseudo-solve fallback, since useful lambdas can
sit near machine precision for fast-decay kernels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import csvio
from .errors import ConfigError, DataError, NumericalError, ParseError
from .kernels import KernelSpec, cross_gram
from .lowrank import LowRankFactor, feature_matrix
from .stats import _check_lambda


@dataclass
class RidgeFit:
    """A fitted model: exact (alpha, length n) or low-rank (w, length p)."""

    mode: str  # "exact" or "lowrank"
    lam: float
    coef: np.ndarray
    indices: np.ndarray | None = None  # selected columns, low-rank mode


def _solve_psd(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve A x = b for symmetric positive (semi)definite A.

    Cholesky first; on failure, eigendecomposition pseudo-solve with
    non-positive eigenvalues dropped. Inputs that are indefinite beyond
    rounding tolerance are a caller error and raise instead of being masked.
    """
    try:
        low = np.linalg.cholesky(A)
        return np.linalg.solve(low.T, np.linalg.solve(low, b))
    except np.linalg.LinAlgError:
        s, u = np.linalg.eigh(A)
        if s[0] < -1e-8 * max(abs(s[-1]), 1e-300):
            raise NumericalError(
                f"matrix is not positive semidefinite beyond tolerance "
                f"(eigenvalue range [{s[0]:.3e}, {s[-1]:.3e}])"
            ) from None
        inv = np.where(s > 0.0, 1.0 / np.where(s > 0.0, s, 1.0), 0.0)
        return u @ (inv * (u.T @ b))


def krr_exact(K, y, lam: float):
    """Exact ridge smoother: alpha = (K + n lambda I)^(-1) y, zhat = K alpha.

    Returns (fit, zhat); O(n^3).
    """
    _check_lambda(lam)
    A = np.asarray(K, dtype=float)
    y = np.asarray(y, dtype=float)
    n = A.shape[0]
    alpha = _solve_psd(A + n * lam * np.eye(n), y)
    zhat = A @ alpha
    return RidgeFit(mode="exact", lam=lam, coef=alpha), zhat


def krr_lowrank(factor: LowRankFactor, y, lam: float):
    """Reduced ridge solve (Phi^T Phi + n lambda I) w = Phi^T y, zhat = Phi w.

    By the push-through identity zhat equals L (L + n lambda I)^(-1) y for
    L = Phi Phi^T; cost O(p^2 n + p^3). Non-finite features or targets
    raise DataError.
    """
    _check_lambda(lam)
    phi = factor.phi
    y = np.asarray(y, dtype=float)
    if not (np.all(np.isfinite(phi)) and np.all(np.isfinite(y))):
        raise DataError("low-rank ridge needs finite features and targets")
    n, p = phi.shape
    G = phi.T @ phi + n * lam * np.eye(p)
    w = _solve_psd(G, phi.T @ y)
    fit = RidgeFit(mode="lowrank", lam=lam, coef=w, indices=factor.selection.indices)
    return fit, phi @ w


def predict(
    fit: RidgeFit,
    test_points,
    spec: KernelSpec,
    train_points=None,
    landmarks=None,
    whitener: np.ndarray | None = None,
) -> np.ndarray:
    """Evaluate a fit on new points.

    Exact mode needs ``train_points`` (f(x) = sum_i alpha_i k(x, x_i));
    low-rank mode needs ``landmarks`` and ``whitener`` (f(x) = <w, phi(x)>).
    """
    if fit.mode == "exact":
        if train_points is None:
            raise ConfigError("exact fit needs train_points")
        return cross_gram(test_points, train_points, spec) @ fit.coef
    if fit.mode == "lowrank":
        if landmarks is None or whitener is None:
            raise ConfigError("low-rank fit needs landmarks and whitener")
        return feature_matrix(spec, landmarks, whitener, test_points) @ fit.coef
    raise ConfigError(f"unknown fit mode {fit.mode!r}")


FIT_FORMAT_VERSION = 2
FIT_MODES = ("exact", "lowrank")
FIT_META = {"mode": str, "lambda": float, "indices": list[int]}


def save_fit(path, fit: RidgeFit) -> None:
    """Write a ``nyridge-fit v2`` CSV: mode, lambda, indices, then a coef column."""
    meta = [("mode", fit.mode), ("lambda", float(fit.lam))]
    if fit.indices is not None:
        meta.append(("indices", fit.indices))
    rows = [(c,) for c in fit.coef]
    csvio.write(path, meta, ["coef"], rows, version=("fit", FIT_FORMAT_VERSION))


def load_fit(path) -> RidgeFit:
    """Inverse of :func:`save_fit`.

    Besides the format's own checks (:func:`nyridge.csvio.read`), a missing
    ``mode``/``lambda``, a mode other than exact or lowrank, a lambda that
    is not > 0, no coefficients, ``indices`` on an exact fit, and a low-rank
    fit without one distinct, non-negative index per coefficient raise
    ParseError.
    """
    version = ("fit", FIT_FORMAT_VERSION)
    meta, rows = csvio.read(path, version, FIT_META, required=("mode", "lambda"), header=["coef"])
    mode, indices = meta["mode"], meta.get("indices")
    if mode not in FIT_MODES:
        raise ParseError(f"{path}: mode must be one of {FIT_MODES}, got {mode!r}")
    if not meta["lambda"] > 0:
        raise ParseError(f"{path}: lambda must be > 0, got {meta['lambda']!r}")
    if len(rows) == 0:
        raise ParseError(f"{path}: no coefficients")
    if mode == "exact" and indices is not None:
        raise ParseError(f"{path}: an exact fit has no indices")
    if mode == "lowrank" and (indices is None or indices.size != len(rows)):
        raise ParseError(f"{path}: a low-rank fit needs one index per coefficient")
    if mode == "lowrank":
        ordered = np.sort(indices)
        if ordered[0] < 0 or np.any(ordered[1:] == ordered[:-1]):
            raise ParseError(f"{path}: indices must be distinct and >= 0")
    return RidgeFit(mode, meta["lambda"], rows[:, 0], indices)
