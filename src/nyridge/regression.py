"""Kernel ridge regression: exact and reduced solvers, prediction, fit files.

All solvers use the (... + n lambda I) convention; callers always pass the
per-sample regularization parameter lambda, never n * lambda.

Every ridge solve goes through one eigendecomposition G = V diag(s) V^T of
a PSD matrix (:func:`ridge_basis`), so the weights for any lambda are
V diag(1 / (s + n lambda)) V^T rhs: useful lambdas can sit near machine
precision for fast-decay kernels, and cross-validation scores a whole
lambda grid from the one basis.

A fit is a kernel expansion over landmarks, f(x) = sum_j coef_j k(x, x_j):
the selected columns of a low-rank fit, or every training point of an
exact one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import csvio
from .errors import ConfigError, DataError, NumericalError, ParseError, finite
from .kernels import KernelSpec, cross_gram
from .lowrank import LowRankFactor
from .stats import _check_lambda


@dataclass
class RidgeFit:
    """Expansion coefficients over the landmarks, the training rows ``indices``.

    ``indices`` None means every training point (an exact fit).
    """

    lam: float
    coef: np.ndarray
    indices: np.ndarray | None = None


def ridge_basis(G: np.ndarray, rhs: np.ndarray):
    """``(s, V, V^T rhs)`` for G = V diag(s) V^T, with s clipped to >= 0.

    (G + n lambda I)^(-1) rhs is then V ((V^T rhs) / (s + n lambda)) for
    every lambda > 0. A G that is indefinite beyond rounding tolerance is a
    caller error and raises NumericalError instead of being masked.
    """
    s, V = np.linalg.eigh(G)
    if s[0] < -1e-8 * max(abs(s[-1]), 1e-300):
        raise NumericalError(
            f"matrix is not positive semidefinite beyond tolerance "
            f"(eigenvalue range [{s[0]:.3e}, {s[-1]:.3e}])"
        )
    np.clip(s, 0.0, None, out=s)
    return s, V, V.T @ rhs


def krr_exact(K, y, lam: float):
    """Exact ridge smoother: alpha = (K + n lambda I)^(-1) y, zhat = K alpha.

    Returns (fit, zhat); O(n^3). A target count other than K's row count,
    and a non-finite K or target, raise DataError.
    """
    _check_lambda(lam)
    A, y = finite(K, "kernel matrix"), finite(y, "targets")
    n = A.shape[0]
    if y.shape != (n,):
        raise DataError(f"exact ridge needs {n} targets, one per row of K; got {y.size}")
    s, V, b = ridge_basis(A, y)
    alpha = V @ (b / (s + n * lam))
    return RidgeFit(lam=lam, coef=alpha), A @ alpha


def krr_lowrank(factor: LowRankFactor, y, lam: float):
    """Reduced ridge solve (Phi^T Phi + n lambda I) w = Phi^T y, zhat = Phi w.

    By the push-through identity zhat equals L (L + n lambda I)^(-1) y for
    L = Phi Phi^T; cost O(p^2 n + p^3). The fit's coefficients are
    ``factor.whitener @ w``, which expand f over the selected columns. A
    target count other than Phi's row count, and non-finite features or
    targets, raise DataError.
    """
    _check_lambda(lam)
    phi, y = finite(factor.phi, "factor"), finite(y, "targets")
    n = phi.shape[0]
    if y.shape != (n,):
        raise DataError(f"low-rank ridge needs {n} targets, one per row of Phi; got {y.size}")
    s, V, b = ridge_basis(phi.T @ phi, phi.T @ y)
    w = V @ (b / (s + n * lam))
    fit = RidgeFit(lam=lam, coef=factor.whitener @ w, indices=factor.selection.indices)
    return fit, phi @ w


def predict(fit: RidgeFit, points, spec: KernelSpec, landmarks) -> np.ndarray:
    """f(x) = sum_j coef_j k(x, landmarks_j) at each of ``points``.

    ``landmarks`` are the training points the fit expands over: the rows
    ``fit.indices`` of the training set, or all of it for an exact fit. A
    landmark count other than the coefficient count raises ConfigError.
    """
    if len(landmarks) != fit.coef.size:
        raise ConfigError(f"fit has {fit.coef.size} coefficients but {len(landmarks)} landmarks")
    return cross_gram(points, landmarks, spec) @ fit.coef


FIT_FORMAT_VERSION = 3
FIT_META = {"lambda": float, "indices": list[int]}


def save_fit(path, fit: RidgeFit) -> None:
    """Write a ``nyridge-fit v3`` CSV: lambda, optional indices, then a coef column."""
    meta = [("lambda", float(fit.lam))]
    if fit.indices is not None:
        meta.append(("indices", fit.indices))
    rows = [(c,) for c in fit.coef]
    csvio.write(path, meta, ["coef"], rows, version=("fit", FIT_FORMAT_VERSION))


def load_fit(path) -> RidgeFit:
    """Inverse of :func:`save_fit`.

    Besides the format's own checks (:func:`nyridge.csvio.read`), a missing
    ``lambda``, a lambda that is not > 0, no coefficients, and ``indices``
    that are not one distinct, non-negative index per coefficient raise
    ParseError.
    """
    version = ("fit", FIT_FORMAT_VERSION)
    meta, rows = csvio.read(path, version, FIT_META, required=("lambda",), header=["coef"])
    indices = meta.get("indices")
    if not meta["lambda"] > 0:
        raise ParseError(f"{path}: lambda must be > 0, got {meta['lambda']!r}")
    if len(rows) == 0:
        raise ParseError(f"{path}: no coefficients")
    if indices is not None:
        if indices.size != len(rows):
            raise ParseError(f"{path}: indices need one index per coefficient")
        ordered = np.sort(indices)
        if ordered[0] < 0 or np.any(ordered[1:] == ordered[:-1]):
            raise ParseError(f"{path}: indices must be distinct and >= 0")
    return RidgeFit(meta["lambda"], rows[:, 0], indices)
