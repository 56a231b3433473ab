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
from .errors import NumericalError, ParseError, finite, scalar
from .kernels import KernelSpec, cross_gram
from .lowrank import LowRankFactor
from .stats import n_lambdas


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

    Returns (fit, zhat); O(n^3). A non-square K, a target count other than
    K's, and a non-finite K or target raise DataError.
    """
    A = finite(K, "kernel matrix", shape="square")
    n = A.shape[0]
    y = finite(y, "target vector", shape=(n,))
    nl = n_lambdas(scalar(lam, "lambda"), n)
    s, V, b = ridge_basis(A, y)
    alpha = V @ (b / (s + nl))
    return RidgeFit(lam=lam, coef=alpha), A @ alpha


def krr_lowrank(factor: LowRankFactor, y, lam: float):
    """Reduced ridge solve (Phi^T Phi + n lambda I) w = Phi^T y, zhat = Phi w.

    By the push-through identity zhat equals L (L + n lambda I)^(-1) y for
    L = Phi Phi^T; cost O(p^2 n + p^3). The fit's coefficients are
    ``factor.whitener @ w``, which expand f over the selected columns. A
    target count other than Phi's row count, a whitener that is not p x p,
    and a non-finite Phi, whitener or target raise DataError.
    """
    phi = finite(factor.phi, "factor", shape=(None, None))
    n, p = phi.shape
    y = finite(y, "target vector", shape=(n,))
    whitener = finite(factor.whitener, "whitener", shape=(p, p))
    nl = n_lambdas(scalar(lam, "lambda"), n)
    s, V, b = ridge_basis(phi.T @ phi, phi.T @ y)
    w = V @ (b / (s + nl))
    fit = RidgeFit(lam=lam, coef=whitener @ w, indices=factor.selection.indices)
    return fit, phi @ w


def predict(fit: RidgeFit, points, spec: KernelSpec, landmarks) -> np.ndarray:
    """f(x) = sum_j coef_j k(x, landmarks_j) at each of ``points``.

    ``landmarks`` are the training points the fit expands over: the rows
    ``fit.indices`` of the training set, or all of it for an exact fit.
    DataError unless the coefficients are finite, one per landmark.
    """
    kvals = cross_gram(points, landmarks, spec)
    return kvals @ finite(fit.coef, "coefficient vector", shape=(kvals.shape[1],))


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
